"""CLI surface of the trace subsystem: ``run --capture-trace/--replay-trace``
and ``trace info``."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """``run`` answers from the result store: a record sealed by another
    build in the ambient ``.repro_cache/`` may carry digest-excluded dump
    lines this build no longer emits, so diff fresh runs only."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture()
def captured(tmp_path, capsys):
    path = str(tmp_path / "fft.trace")
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--capture-trace", path]) == 0
    out = capsys.readouterr().out
    assert "trace captured" in out and path in out
    return path


def test_run_replay_matches_direct_stats(captured, tmp_path, capsys):
    direct = tmp_path / "direct.stats.json"
    replay = tmp_path / "replay.stats.json"
    assert main(["run", "--workload", "fft", "--scale", "tiny", "--scheme",
                 "q3", "--stats-out", str(direct)]) == 0
    assert main(["run", "--workload", "fft", "--scale", "tiny", "--scheme",
                 "q3", "--replay-trace", captured,
                 "--stats-out", str(replay)]) == 0
    out = capsys.readouterr().out
    assert "replayed from" in out
    # Replay transparency end to end through the CLI (no CI job repeats it):
    # the direct and the replay dump diff clean.
    assert main(["stats", "diff", str(direct), str(replay)]) == 0


def test_replay_leaves_the_result_store_alone(captured, capsys):
    """The store holds direct runs only (byte-level: tests/jobs/test_execute.py):
    after ``--replay-trace`` the next plain run still simulates, and ``cache
    ls`` never shows ``[replay]``."""
    run = ["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9"]
    assert main(run + ["--replay-trace", captured]) == 0
    assert main(run) == 0
    assert "served from result store" not in capsys.readouterr().out
    assert main(run + ["--replay-trace", captured]) == 0
    assert main(["cache", "ls"]) == 0
    listing = capsys.readouterr().out
    assert "[direct]" in listing and "[replay]" not in listing


def test_replay_refuses_the_ooo_core_model(captured, capsys):
    """An in-order capture cannot stand in for an ``ooo`` run: a usage error,
    and nothing is sealed under the ``ooo`` job key — the next plain ``ooo``
    run simulates and reports the out-of-order answer."""
    run = ["run", "--workload", "fft", "--scale", "tiny", "--scheme", "s9"]
    assert main(run + ["--core-model", "ooo", "--replay-trace", captured]) == 2
    io = capsys.readouterr()
    assert io.err.count("error:") == 1 and "inorder core model" in io.err
    assert "Traceback" not in io.err and "T_target" not in io.out
    assert main(run + ["--core-model", "ooo"]) == 0
    ooo = capsys.readouterr().out
    assert "served from result store" not in ooo
    assert main(run + ["--replay-trace", captured]) == 0
    inorder = capsys.readouterr().out
    assert ooo.split("T_target=")[1].split()[0] != inorder.split("T_target=")[1].split()[0]


def test_capture_and_replay_are_mutually_exclusive(tmp_path, capsys):
    assert main(["run", "--workload", "fft", "--scale", "tiny",
                 "--capture-trace", str(tmp_path / "a.trace"),
                 "--replay-trace", str(tmp_path / "b.trace")]) == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_trace_info(captured, capsys):
    assert main(["trace", "info", captured]) == 0
    out = capsys.readouterr().out
    assert "flavor:" in out and "program" in out
    assert "program digest:" in out
    assert "sha256:" in out
    assert "mem" in out  # op breakdown present


def test_trace_info_rejects_garbage(tmp_path, capsys):
    junk = tmp_path / "junk.trace"
    junk.write_bytes(b"not a trace at all, nope" * 4)
    assert main(["trace", "info", str(junk)]) == 1
    assert capsys.readouterr().err.strip()


def test_help_parity():
    """Every trace flag documents itself: --help text exists for the run
    flags and the trace subcommand."""
    parser = build_parser()
    fmt = parser.format_help()
    assert "trace" in fmt
    run_help = next(
        a for a in parser._subparsers._group_actions[0].choices.items()
        if a[0] == "run")[1].format_help()
    assert "--capture-trace" in run_help and "--replay-trace" in run_help
    trace_help = parser._subparsers._group_actions[0].choices["trace"].format_help()
    assert "info" in trace_help
