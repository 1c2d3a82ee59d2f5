"""Self-test of the benchmark (under a minute; not part of tier-1, whose
``testpaths`` is ``tests``):

    python -m pytest bench/test_bench.py

Runs every workload and the traced path once in ``--quick`` mode (one pass,
``tiny`` scale, 10 serve jobs) and checks the benchmark's own contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics as M  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = run_bench("--quick", "--trace", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, json.loads(out.read_text())


def test_contract_matches_the_metric_tables():
    assert CONTRACT["paths"] == ["bench"]
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(M.GATED)
    for entry in CONTRACT["end_to_end"]:
        spec = M.END_TO_END[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            spec.unit, spec.better, spec.bound)
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == M.PER_LAYER
    assert {m["name"] for m in CONTRACT["per_layer"] if m["better"] == "higher"} == M.PER_LAYER_HIGHER
    assert len(M.PER_LAYER) <= 128
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


def test_every_workload_runs_clean(quick):
    _stdout, results = quick
    assert list(results["workloads"]) == list(WORKLOADS)
    for name, res in results["workloads"].items():
        assert res["failed"] == 0 and res["attempted"] >= 1, (name, res["failures"])
    for key in ("git_commit", "nproc", "python", "seed", "host_calibration_s"):
        assert key in results["provenance"]


def test_every_contract_metric_is_printed_with_its_unit(quick):
    stdout, results = quick
    sections = stdout.split("\n== ")[1:]
    assert len(sections) == len(WORKLOADS)
    for section in sections:
        lines = {line.split()[0]: line.split() for line in section.splitlines()[1:] if line.split()}
        for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert entry["name"] in lines, (section.split(":")[0], entry["name"])
            assert entry["unit"] in lines[entry["name"]], entry["name"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    for name in results["workloads"]:
        for entry in CONTRACT["per_layer"]:
            value = last["metrics"][f"{name}.{entry['name']}"]
            assert value["unit"] == entry["unit"]
            assert isinstance(value["value"], (int, float))


def test_span_self_times_sum_to_their_root(quick):
    _stdout, results = quick
    for name, res in results["workloads"].items():
        spans = res["trace"]["spans"]
        assert spans, name
        root_of = {}
        for span in spans:  # parents are recorded before their children
            root_of[span["id"]] = root_of.get(span["parent"], span["id"])
        for root in (s for s in spans if s["parent"] is None):
            total = sum(s["self_s"] for s in spans if root_of[s["id"]] == root["id"])
            assert total == pytest.approx(root["end"] - root["start"], rel=0.01), (name, root)


@pytest.mark.parametrize("trace, names", [("0", list(M.GATED)), ("1", list(M.PER_LAYER))])
def test_one_workload_prints_the_drivers_line(trace, names):
    done = run_bench("--quick", "--workload", "mem-traffic", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_a_run_leaves_nothing_behind(quick):
    assert not (ROOT / ".bench_work").exists()


def test_without_the_simulator_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench("--workload", "cc-direct", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
