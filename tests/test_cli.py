"""CLI tests (``slacksim`` / ``python -m repro``)."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_schemes_lists_all(capsys):
    assert main(["schemes"]) == 0
    out = capsys.readouterr().out
    for name in ("cc", "q10", "l10", "s9", "s9*", "s100", "su"):
        assert name in out


def test_run_verifies_workload(capsys):
    assert main(["run", "--workload", "lu", "--scheme", "s9", "--scale", "tiny",
                 "--host-cores", "4"]) == 0
    out = capsys.readouterr().out
    assert "verified" in out and "[s9" in out


def test_run_verbose_shows_cores(capsys):
    assert main(["run", "--workload", "water", "--scale", "tiny", "-v",
                 "--host-cores", "2"]) == 0
    out = capsys.readouterr().out
    assert "core 0:" in out and "L1 misses" in out


def test_run_ooo_core_model(capsys):
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--core-model", "ooo", "--host-cores", "2"]) == 0
    assert "verified" in capsys.readouterr().out


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
    text = out_file.read_text()
    assert text.startswith("stat,value\n")
    assert "violations.simulation_state," in text


def test_run_stats_interval_records_snapshots(tmp_path, capsys):
    import json

    out_file = tmp_path / "run.stats.json"
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--host-cores", "2", "--stats-interval", "5000",
                 "--stats-out", str(out_file)]) == 0
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
    ["run", "--replay-trace", "/nonexistent"],
    ["run", "--restore", "/nonexistent"],
    pytest.param(["run", "--restore", __file__], id="run --restore <not a checkpoint>"),
    ["stats", "show", "/nonexistent.json"],
    ["stats", "diff", "/nonexistent.json", "/nonexistent.json"],
    ["compile", "/nonexistent.sl"],
    ["sweep", "figure8", "--scale", "huge"],
    ["sweep", "figure8", "--trace"],  # replay is a tool (run --replay-trace), not a sweep policy
    ["sweep"],  # the experiment is required: no legacy single-workload form
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
