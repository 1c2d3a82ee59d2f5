"""CLI tests (``slacksim`` / ``python -m repro``)."""

import importlib
import json
import os

import pytest

from repro.cli import build_parser, main

#: What ``repro run`` prints when a record, not a simulation, answered it.
FROM_STORE = "served from result store"


def test_schemes_lists_all(capsys):
    """One line per scheme family ``parse_scheme`` accepts (one concrete
    ``Scheme`` class each); ``--scheme``'s help names the same families."""
    from repro.core.schemes import Scheme, parse_scheme

    assert main(["schemes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "cc", "q10", "aq10-160", "l10", "s9", "s9*", "su"
    ]
    families = [type(parse_scheme(line.split()[0])).__name__ for line in lines]
    assert sorted(families) == sorted(c.__name__ for c in Scheme.__subclasses__())
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--scheme SCHEME cc | qN | aqMIN-MAX | lN | sN | sN* | su " in help_text


def test_run_verifies_workload(capsys):
    assert main(["run", "--workload", "lu", "--scheme", "s9", "--scale", "tiny",
                 "--host-cores", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out and "[s9" in out
    assert FROM_STORE not in out


def test_run_verbose_shows_cores(capsys):
    assert main(["run", "--workload", "water", "--scale", "tiny", "-v",
                 "--host-cores", "2"]) == 0
    out = capsys.readouterr().out
    assert "core 0:" in out and "L1 misses" in out
    assert FROM_STORE not in out


def test_run_ooo_core_model(capsys):
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--core-model", "ooo", "--host-cores", "2"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out and FROM_STORE not in out


def test_a_cli_run_is_answered_by_the_session_store_only(session_cache_root, capsys):
    """Tier-1 is hermetic (``tests/conftest.py``): the first run of a job in
    a session simulates, even where an earlier run left its record in the
    configured store; the second is served by the session's own store."""
    argv = ["run", "--workload", "radix", "--scale", "tiny", "--scheme", "s9",
            "--host-cores", "3", "--seed", "7"]
    served = []
    for _ in range(2):
        assert main(argv) == 0
        served.append(FROM_STORE in capsys.readouterr().out)
    assert served == [False, session_cache_root is not None]


def test_compile_and_functional_run(tmp_path, capsys):
    src = tmp_path / "p.sl"
    src.write_text("int main() { print_int(6 * 7); return 0; }\n")
    assert main(["compile", str(src), "--run"]) == 0
    out = capsys.readouterr().out
    assert "42" in out and "functional run" in out


def test_compile_asm_output(tmp_path, capsys):
    src = tmp_path / "p.sl"
    src.write_text("int main() { return 3; }\n")
    assert main(["compile", str(src), "--asm"]) == 0
    out = capsys.readouterr().out
    assert "fn_main:" in out and ".text" in out


def test_sweep(capsys):
    assert main(["sweep", "ablations", "--scale", "tiny"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"] == "ablations" and doc["points"]


def test_experiment_scale_is_an_argument_not_an_environment_write(capsys):
    """``table2 --scale tiny`` must not assign ``REPRO_SCALE``: a later
    in-process ``main([...])`` and every child process would inherit it."""
    before = dict(os.environ)
    assert main(["table2", "--scale", "tiny"]) == 0
    assert dict(os.environ) == before
    assert "8 bodies" in capsys.readouterr().out  # the tiny barnes input set


def test_table_commands_take_the_sweep_flags(tmp_path, capsys):
    """``table2`` is ``sweep table2`` rendered: same flags, same store, and
    the table's bytes do not depend on ``--jobs``."""
    assert main(["table2", "--scale", "tiny"]) == 0
    serial = capsys.readouterr()
    out = tmp_path / "table2.txt"
    assert main(["table2", "--scale", "tiny", "--jobs", "2", "--out", str(out)]) == 0
    sharded = capsys.readouterr()
    assert out.read_text() == serial.out
    assert "store_hits=4 store_misses=0" in sharded.err


def test_help_lists_what_is_registered(capsys):
    from repro.experiments.parallel import SWEEP_EXPERIMENTS
    from repro.workloads.registry import WORKLOADS

    for argv, names in ((["sweep", "-h"], SWEEP_EXPERIMENTS), (["run", "-h"], WORKLOADS)):
        with pytest.raises(SystemExit):
            main(argv)
        text = capsys.readouterr().out
        assert all(name in text for name in names), argv


def test_unknown_experiment_names_every_experiment(capsys):
    from repro.experiments.parallel import SWEEP_EXPERIMENTS

    assert main(["sweep", "figure9", "--scale", "tiny"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown sweep experiment 'figure9'") and err.count("\n") == 1
    assert all(name in err for name in SWEEP_EXPERIMENTS)


def test_run_stats_out_then_show_and_diff(tmp_path, capsys):
    a = tmp_path / "a.stats.json"
    b = tmp_path / "b.stats.json"
    run = ["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9",
           "--host-cores", "2"]
    assert main(run + ["--stats-out", str(a)]) == 0
    assert main(run + ["--stats-out", str(b)]) == 0
    capsys.readouterr()

    assert main(["stats", "show", str(a)]) == 0
    out = capsys.readouterr().out
    assert "target.instructions" in out and "scheme.slack_cycles.count" in out

    # Deterministic reruns diff clean (exit 0).
    assert main(["stats", "diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out


def test_stats_diff_reports_differences(tmp_path, capsys):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"stats": {"x": 1, "only_a": 2}}))
    b.write_text(json.dumps({"stats": {"x": 3, "only_b": 4}}))
    assert main(["stats", "diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "~ x: 1 -> 3" in out
    assert "- only_a = 2" in out
    assert "+ only_b = 4" in out


def test_stats_diff_exits_nonzero_on_digest_mismatch(tmp_path, capsys):
    # Identical stats sections but differing digests (digest-marked lines
    # can canonicalise differently than the dump renders) must fail the
    # diff — CI determinism gates rely on the exit code, not the listing.
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"digest": "aa" * 32, "stats": {"x": 1}}))
    b.write_text(json.dumps({"digest": "bb" * 32, "stats": {"x": 1}}))
    assert main(["stats", "diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"~ digest: {'aa' * 32} -> {'bb' * 32}" in out


def test_stats_diff_equal_digests_exit_zero(tmp_path, capsys):
    import json

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"digest": "aa" * 32, "stats": {"x": 1}}))
    b.write_text(json.dumps({"digest": "aa" * 32, "stats": {"x": 1}}))
    assert main(["stats", "diff", str(a), str(b)]) == 0
    assert "identical" in capsys.readouterr().out


def test_stats_diff_needs_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text('{"stats": {}}')
    assert main(["stats", "diff", str(a)]) == 2


def test_run_stats_csv_output(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--host-cores", "2", "--stats-out", str(out_file),
                 "--stats-format", "csv"]) == 0
    assert FROM_STORE not in capsys.readouterr().out
    text = out_file.read_text()
    assert text.startswith("stat,value\n")
    assert "violations.simulation_state," in text


def test_run_stats_interval_records_snapshots(tmp_path, capsys):
    import json

    out_file = tmp_path / "run.stats.json"
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--host-cores", "2", "--stats-interval", "5000",
                 "--stats-out", str(out_file)]) == 0
    assert FROM_STORE not in capsys.readouterr().out
    doc = json.loads(out_file.read_text())
    assert doc["snapshots"], "expected at least one interval snapshot"
    assert doc["stats"]["sim.scheme"] == "cc"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_run_requires_known_workload(capsys):
    assert main(["run", "--workload", "nosuch", "--scale", "tiny"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown workload 'nosuch'")


@pytest.mark.parametrize("argv", [
    ["bench", "--dispatch", "foo"],
    ["run", "--core-model", "foo"],
    ["run", "--scale", "huge"],
    ["run", "--scheme", "zz"],
    ["run", "--workload", "nope"],
    ["run", "--restore", "/nonexistent"],
    ["run", "--stats-interval", "-5"],
    pytest.param(["run", "--restore", __file__], id="run --restore <not a checkpoint>"),
    ["stats", "show", "/nonexistent.json"],
    ["stats", "diff", "/nonexistent.json", "/nonexistent.json"],
    ["compile", "/nonexistent.sl"],
    ["sweep", "figure8", "--scale", "huge"],
    ["sweep", "figure8", "--trace"],  # replay is a library tool, not a sweep policy
    ["sweep"],  # the experiment is required: no legacy single-workload form
    ["serve", "--workers", "0"],  # a pool that can run nothing is refused
], ids=" ".join)
def test_bad_argument_value_is_a_usage_error(argv, capsys):
    """Exit code 2 and one ``error:`` line — argparse's for the flags with
    ``choices``, ``main``'s for what spec/scheme/workload/trace validation
    raises, the command's own for an input file it cannot read — never a
    traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


FAULTS = "corrupt_dir:at=200"


@pytest.mark.parametrize("argv", [
    ["--checkpoint-interval", "100"],
    ["--checkpoint-interval", "100", "--checkpoint", "ck.pkl", "--faults", FAULTS],
], ids=" ".join)
def test_engine_refusal_is_one_error_line(argv, tmp_path, monkeypatch, capsys):
    """A configuration ``SimConfig`` refuses ends ``run`` with exit 2 and one
    ``error:`` line, having run and written nothing."""
    monkeypatch.chdir(tmp_path)
    code = main(["run", "--workload", "fft", "--scale", "tiny", *argv,
                 "--stats-out", "s.json"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def water_checkpoint(tmp_path) -> str:
    """The last checkpoint of a water tiny s9 run (interval 500)."""
    checkpoint = str(tmp_path / "ck.pkl")
    assert main(["run", "--workload", "water", "--scale", "tiny", "--scheme", "s9",
                 "--checkpoint-interval", "500", "--checkpoint", checkpoint]) == 0
    return checkpoint


def test_restore_checks_its_output_against_the_named_workload(tmp_path, monkeypatch, capsys):
    """A restore of the ``--workload``/``--scale`` program checks its output
    against that workload's oracle; any other restore says that its output
    goes unchecked, and why."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    checkpoint = water_checkpoint(tmp_path)
    capsys.readouterr()
    assert main(["run", "--restore", checkpoint, "--workload", "water"]) == 0
    assert "output verified against the numpy oracle" in capsys.readouterr().out
    assert main(["run", "--restore", checkpoint]) == 0  # --workload fft by default
    out = capsys.readouterr().out
    assert "output verified" not in out
    assert "output unchecked: the checkpoint does not run the fft/tiny program" in out


def test_restore_that_lost_data_pages_is_an_output_mismatch(tmp_path, monkeypatch, capsys):
    """A restored memory that lost its data pages keeps the straight run's
    stats but not its output: the restore's oracle check fails the run."""
    from repro.cpu.arch import TargetMemory

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    checkpoint = water_checkpoint(tmp_path)
    setstate = TargetMemory.__setstate__

    def lossy(self, state):
        size, pages = state
        setstate(self, (size, [(at, page) for at, page in pages if not 0x400000 <= at < 0x800000]))

    monkeypatch.setattr(TargetMemory, "__setstate__", lossy)
    capsys.readouterr()
    assert main(["run", "--restore", checkpoint, "--workload", "water"]) == 1
    assert "OUTPUT MISMATCH" in capsys.readouterr().out


def test_every_run_path_gives_one_account(tmp_path, monkeypatch, capsys):
    """A job run, a checkpointed direct run and the restore of its last
    checkpoint print the same summary line and dump stats that diff clean."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run = ["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9"]
    checkpoint = str(tmp_path / "ck.pkl")
    paths = {
        "job": run,
        "direct": [*run, "--checkpoint-interval", "500", "--checkpoint", checkpoint],
        "restore": ["run", "--restore", checkpoint],
    }
    summaries = set()
    for name, argv in paths.items():
        assert main([*argv, "--stats-out", str(tmp_path / f"{name}.json")]) == 0
        summaries.add(capsys.readouterr().out.splitlines()[0])
    assert len(summaries) == 1
    for name in ("direct", "restore"):
        assert main(["stats", "diff", str(tmp_path / "job.json"),
                     str(tmp_path / f"{name}.json")]) == 0


@pytest.mark.parametrize("flags", [
    [],
    ["--faults", FAULTS],
    ["--checkpoint-interval", "500", "--checkpoint", "ck.pkl"],
], ids=" ".join)
def test_every_fresh_run_is_one_job(flags, tmp_path, monkeypatch, capsys):
    """A ``run`` that restores nothing resolves through ``jobs.execute``, once."""
    # The module, not the ``repro.jobs.execute`` package attribute (the function).
    jobs_execute = importlib.import_module("repro.jobs.execute")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    calls = []
    execute = jobs_execute.execute
    monkeypatch.setattr(jobs_execute, "execute", lambda *a, **kw: calls.append(a) or execute(*a, **kw))
    assert main(["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9", *flags]) == 0
    assert len(calls) == 1


def test_a_checkpointing_run_never_comes_from_the_store(tmp_path, monkeypatch, capsys):
    """The store would skip the checkpoint files a checkpointing run is for:
    run twice, it simulates and writes its checkpoint twice."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    checkpoint = tmp_path / "ck.pkl"
    for _ in range(2):
        assert main(["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9",
                     "--checkpoint-interval", "500", "--checkpoint", str(checkpoint)]) == 0
        assert checkpoint.stat().st_size > 0
        assert "served from result store" not in capsys.readouterr().out
        checkpoint.unlink()


def test_a_repeated_faulted_run_is_a_store_hit(tmp_path, monkeypatch, capsys):
    """The fault plan is in the job key: the second run is served from the
    store, with the first run's summary and injection count."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    run = ["run", "--workload", "fft", "--scale", "tiny", "--scheme", "q3", "--faults", FAULTS]
    assert main(run) == 0
    miss = capsys.readouterr().out.splitlines()
    assert main(run) == 0
    hit = capsys.readouterr().out.splitlines()
    assert miss[1].startswith("faults injected: ") and hit[1].startswith("served from result store")
    assert hit[0] == miss[0]
    assert hit[2] == miss[1] != f"faults injected: 0 (plan: {FAULTS})"
