"""Process-parallel sweep tests: serial and sharded runs are byte-identical."""

import json

import pytest

from repro.experiments.parallel import (
    SWEEP_EXPERIMENTS,
    build_points,
    derive_seed,
    point_key,
    resolve,
    run_sweep,
    sweep_to_json,
)
from repro.jobs.spec import JobSpec


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(1, "fft", "s9", 8)
    assert a == derive_seed(1, "fft", "s9", 8)
    assert a != derive_seed(2, "fft", "s9", 8)
    assert a != derive_seed(1, "fft", "s9", 4)
    assert a != derive_seed(1, "lu", "s9", 8)
    assert a >= 1


#: The grids whose points run under per-point derived seeds; every other
#: registered experiment runs under the plain base seed (DESIGN.md §4).
DERIVED_SEED_GRIDS = {"figure8", "table3", "ablations"}


def test_every_experiment_is_registered():
    assert set(SWEEP_EXPERIMENTS) == DERIVED_SEED_GRIDS | {
        "table2", "critical_latency", "fastforward", "coremodel", "adaptive_quantum",
    }


@pytest.mark.parametrize("experiment", SWEEP_EXPERIMENTS)
def test_grids_are_well_formed(experiment):
    points = build_points(experiment, "tiny", 7)
    keys = [point_key(p) for p in points]
    assert len(keys) == len(set(keys)), "grid keys must be unique"
    if experiment in DERIVED_SEED_GRIDS:
        assert all(p.seed == derive_seed(7, p.workload, p.scheme, p.host_cores) for p in points)
    else:
        assert all(p.seed == 7 for p in points)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown sweep experiment") as caught:
        build_points("figure9", "tiny", 1)
    assert all(name in str(caught.value) for name in SWEEP_EXPERIMENTS)


def test_point_key_names_what_the_default_point_leaves_unsaid():
    at = dict(workload="fft", scale="tiny", scheme="s9", host_cores=8)
    assert point_key(JobSpec(**at)) == "fft/s9/h8"
    assert point_key(JobSpec(**at, fastforward=True)) == "fft/s9/h8/ff"
    assert point_key(JobSpec(**at, core_model="ooo")) == "fft/s9/h8/ooo"
    # Every default-model point of every grid is spelled as it always was.
    for experiment in SWEEP_EXPERIMENTS:
        for p in build_points(experiment, "tiny", 1):
            if p.core_model == "inorder":
                assert point_key(p) == (
                    f"{p.workload}/{p.scheme}/h{p.host_cores}" + "/ff" * p.fastforward
                )


def test_resolve_refuses_two_specs_under_one_key():
    spec = JobSpec(workload="fft", scale="tiny", scheme="cc", seed=1)
    with pytest.raises(ValueError, match="share a point key: fft/cc/h8"):
        resolve([spec, JobSpec(workload="fft", scale="tiny", scheme="cc", seed=2)])


def test_core_models_resolve_to_two_keys():
    specs = [
        JobSpec(workload="fft", scale="tiny", scheme="su", core_model=model)
        for model in ("inorder", "ooo")
    ]
    docs = resolve(specs)
    assert sorted(docs) == ["fft/su/h8", "fft/su/h8/ooo"]
    assert [docs[key]["spec"]["core_model"] for key in sorted(docs)] == ["inorder", "ooo"]
    assert docs["fft/su/h8"]["stats_digest"] != docs["fft/su/h8/ooo"]["stats_digest"]


def test_point_metrics_are_json_safe():
    spec = build_points("ablations", "tiny", 1)[0]
    metrics = resolve([spec])[point_key(spec)]
    json.dumps(metrics)
    # The document's spec object is the grid coordinate, not the whole JobSpec.
    assert sorted(metrics["spec"]) == [
        "core_model", "fastforward", "host_cores", "scale", "scheme", "seed", "workload",
    ]
    assert metrics["completed"]
    assert metrics["instructions"] > 0
    assert len(metrics["output_sha256"]) == 64


def test_serial_and_parallel_sweeps_are_byte_identical():
    serial = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    sharded = sweep_to_json(run_sweep("ablations", jobs=2, scale="tiny"))
    assert serial == sharded
    payload = json.loads(serial)
    assert payload["experiment"] == "ablations"
    assert payload["points"]
    assert payload["derived"]["speedup_over_cc1"]


def test_serial_and_parallel_agree_on_a_plain_seed_grid_with_ooo_points():
    grid = dict(benchmarks=("fft",), schemes=("cc", "su"), scale="tiny")
    serial = run_sweep("coremodel", jobs=1, **grid)
    assert sorted(serial["points"]) == [
        "fft/cc/h8", "fft/cc/h8/ooo", "fft/su/h8", "fft/su/h8/ooo",
    ]
    assert {point["spec"]["seed"] for point in serial["points"].values()} == {1}
    assert sweep_to_json(serial) == sweep_to_json(run_sweep("coremodel", jobs=2, **grid))


def test_repeated_serial_sweeps_are_byte_identical():
    a = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    b = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    assert a == b
