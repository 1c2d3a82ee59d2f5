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


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(1, "fft", "s9", 8)
    assert a == derive_seed(1, "fft", "s9", 8)
    assert a != derive_seed(2, "fft", "s9", 8)
    assert a != derive_seed(1, "fft", "s9", 4)
    assert a != derive_seed(1, "lu", "s9", 8)
    assert a >= 1


@pytest.mark.parametrize("experiment", SWEEP_EXPERIMENTS)
def test_grids_are_well_formed(experiment):
    points = build_points(experiment, "tiny", 1)
    keys = [point_key(p) for p in points]
    assert len(keys) == len(set(keys)), "grid keys must be unique"
    assert all(p.seed == derive_seed(1, p.workload, p.scheme, p.host_cores) for p in points)


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError, match="unknown sweep experiment"):
        build_points("figure9", "tiny", 1)


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


def test_repeated_serial_sweeps_are_byte_identical():
    a = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    b = sweep_to_json(run_sweep("ablations", jobs=1, scale="tiny"))
    assert a == b
