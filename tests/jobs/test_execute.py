"""The execute() pipeline: miss -> hit transparency, replay, drift, sweeps."""

import json

import pytest

from repro.experiments.parallel import run_sweep, sweep_to_json
from repro.jobs import (
    JobSpec,
    ResultStore,
    execute,
    execute_functional,
    record_summary,
)


def spec(**kwargs) -> JobSpec:
    base = dict(scheme="s9", seed=5, host_cores=2)
    base.update(kwargs)
    return JobSpec.build("fft", "tiny", **base)


class TestMissThenHit:
    def test_hit_returns_the_identical_record(self, store):
        miss = execute(spec(), store)
        hit = execute(spec(), store)
        assert not miss.hit and hit.hit
        assert hit.record == miss.record
        assert hit.result is None  # nothing ran
        assert miss.record["stats_dump"] == hit.record["stats_dump"]

    def test_summary_reconstruction_matches_live_result(self, store):
        miss = execute(spec(), store)
        assert record_summary(miss.record) == miss.result.summary()

    def test_stats_dump_matches_live_result_bytes(self, store):
        miss = execute(spec(), store)
        assert miss.record["stats_dump"] == miss.result.dump_json()

    def test_refresh_bypasses_the_store_read(self, store):
        execute(spec(), store)
        again = execute(spec(), store, refresh=True)
        assert not again.hit and again.result is not None

    def test_executed_miss_hands_back_what_load_returns(self, store, monkeypatch):
        """The record a miss returns is the published one — and producing it
        costs one store lookup (the miss), not a read-back counted as a hit."""
        from repro.jobs import store as store_module

        counts = dict.fromkeys(store_module.TELEMETRY, 0)
        monkeypatch.setattr(store_module, "TELEMETRY", counts)
        miss = execute(spec(), store)
        assert (counts["misses"], counts["hits"]) == (1, 0)
        assert miss.record == store.load(miss.key)

    def test_no_store_always_runs(self):
        outcome = execute(spec(), store=None)
        assert not outcome.hit and outcome.result is not None

    def test_mode_guard(self, store):
        with pytest.raises(ValueError):
            execute(spec(mode="functional"), store)
        with pytest.raises(ValueError):
            execute_functional(spec(), store)


class TestReplay:
    def test_auto_replay_serves_a_miss_byte_identically(self, store, cache_root):
        """A sweep-style capture in the trace store serves a later miss via
        replay, and the stored record is byte-for-byte what a direct run
        produces (ROADMAP item 4: replay-powered result reuse)."""
        from repro.core.config import SimConfig
        from repro.core.engine import SequentialEngine
        from repro.trace.format import program_digest
        from repro.trace.store import trace_key, trace_store_path

        from repro.jobs.spec import spec_program

        workload = spec_program(spec())
        source = {"workload": "fft", "scale": "tiny"}
        path = trace_store_path(
            trace_key(program_digest(workload.program), source, 1)
        )
        SequentialEngine(
            workload.program,
            sim=SimConfig(
                scheme="su", seed=1, trace_mode="capture", trace_path=str(path),
                trace_source=json.dumps(source, sort_keys=True),
            ),
        ).run()

        replayed = execute(spec(scheme="q10", seed=9, host_cores=4), store)
        assert replayed.replayed
        assert replayed.record["provenance"]["engine"] == "replay"

        direct = execute(
            spec(scheme="q10", seed=9, host_cores=4), store=None, trace=None
        )
        assert direct.record["stats_dump"] == replayed.record["stats_dump"]
        assert direct.record["output_sha256"] == replayed.record["output_sha256"]
        # Same job key: replay and direct are the same job.
        assert direct.key == replayed.key

    def test_trace_none_never_replays(self, store):
        outcome = execute(spec(), store, trace=None)
        assert not outcome.replayed

    def test_explicit_replay_of_an_ooo_job_is_refused_and_seals_nothing(self, store, tmp_path):
        """A capture is the in-order pipeline's stream: replaying it for an
        ``ooo`` spec would seal in-order numbers under the ``ooo`` key."""
        from repro.core.config import SimConfig
        from repro.core.engine import EngineError, SequentialEngine
        from repro.jobs.spec import spec_program

        path = str(tmp_path / "fft.trace")
        SequentialEngine(
            spec_program(spec()).program,
            sim=SimConfig(scheme="cc", trace_mode="capture", trace_path=path),
        ).run()
        with pytest.raises(EngineError, match="inorder core model"):
            execute(spec(core_model="ooo"), store, trace=path, refresh=True)
        assert not execute(spec(core_model="ooo"), store, trace=None).hit


class TestFunctional:
    def test_records_and_detects_no_drift_on_identical_rerun(self, store):
        fspec = spec(
            mode="functional", scheme="cc", seed=1, host_cores=8,
            workload_args={"nthreads": 1},
        )
        first = execute_functional(fspec, store)
        second = execute_functional(fspec, store)
        assert not first.hit and second.hit
        assert second.drift == []
        assert second.record["metrics"] == first.record["metrics"]

    def test_drift_is_surfaced(self, store):
        fspec = spec(
            mode="functional", scheme="cc", seed=1, host_cores=8,
            workload_args={"nthreads": 1},
        )
        first = execute_functional(fspec, store)
        # Corrupt the stored metrics while keeping the seal valid, as if an
        # earlier toolchain had produced different numbers under this key.
        tampered = dict(first.record)
        tampered["metrics"] = dict(tampered["metrics"], instructions=1)
        store.put(first.key, tampered)
        second = execute_functional(fspec, store)
        assert second.drift and "metrics" in second.drift[0]


class TestSweepWarmPath:
    def test_second_sweep_is_all_store_hits_and_byte_identical(self, cache_root):
        cold_tel: dict = {}
        warm_tel: dict = {}
        kwargs = dict(scale="tiny", base_seed=1, workload="fft", slacks=(9,))
        cold = run_sweep("ablations", telemetry=cold_tel, **kwargs)
        warm = run_sweep("ablations", telemetry=warm_tel, **kwargs)
        assert cold_tel["store_misses"] == len(cold["points"])
        assert warm_tel["store_hits"] == len(warm["points"])
        assert warm_tel["store_misses"] == 0
        assert sweep_to_json(cold) == sweep_to_json(warm)
