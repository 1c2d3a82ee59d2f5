"""The execute() pipeline: miss -> hit transparency, explicit replay, sweeps."""

import json

import pytest

from repro.cache import program_image
from repro.experiments.parallel import run_sweep, sweep_to_json
from repro.isa.program import program_digest
from repro.jobs import JobSpec, ResultStore, execute, record_summary
from repro.workloads.registry import WORKLOADS, make_workload


def spec(**kwargs) -> JobSpec:
    base = dict(scheme="s9", seed=5, host_cores=2)
    base.update(kwargs)
    return JobSpec.build("fft", "tiny", **base)


def live_result(job: JobSpec):
    """*job* run on an engine built by hand, outside the job layer."""
    from repro.core.engine import SequentialEngine
    from repro.jobs.spec import spec_program

    return SequentialEngine(
        spec_program(job).program,
        target=job.target_config(),
        host=job.host_config(),
        sim=job.sim_config(),
    ).run()


class TestMissThenHit:
    def test_hit_returns_the_identical_record(self, store):
        watched = []
        miss = execute(spec(), store, watch=watched.append)
        hit = execute(spec(), store, watch=watched.append)
        assert not miss.hit and hit.hit
        assert hit.record == miss.record
        assert len(watched) == 1  # the miss built one engine; the hit none
        assert miss.record["stats_dump"] == hit.record["stats_dump"]

    def test_summary_reconstruction_matches_live_result(self, store):
        miss = execute(spec(), store)
        assert record_summary(miss.record) == live_result(spec()).summary()

    def test_stats_dump_matches_live_result_bytes(self, store):
        miss = execute(spec(), store)
        assert miss.record["stats_dump"] == live_result(spec()).dump_json()

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
        watched = []
        for _ in range(2):
            assert not execute(spec(), store=None, watch=watched.append).hit
        assert len(watched) == 2 and watched[0] is not watched[1]

    def test_mode_guard(self):
        """There is no job mode to guard inside ``execute`` any more: the one
        executor runs the one kind of job, and a spec naming another cannot
        be built — in process or off the wire."""
        from repro.jobs.spec import spec_from_dict, spec_to_dict

        with pytest.raises(TypeError):
            spec(mode="functional")
        with pytest.raises(ValueError, match="mode"):
            spec_from_dict({**spec_to_dict(spec()), "mode": "functional"})


class TestProgramImage:
    """``repro.cache.program_image``: one digest and one encoded text per
    Program object."""

    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_memoised_digest_is_program_digest(self, cache_root, name, scale):
        program = make_workload(name, scale=scale).program
        assert program_image(program)[0] == program_digest(program)
        assert program_image(program) is program_image(program)

    def test_repeated_jobs_encode_nothing(self, store, monkeypatch):
        """Once a process has keyed a program, neither a warm hit nor a miss
        on the same program re-encodes its text."""
        from repro.isa.instruction import Instruction

        execute(spec(), store)
        calls = []
        encode = Instruction.encode
        monkeypatch.setattr(Instruction, "encode", lambda insn: calls.append(insn) or encode(insn))
        assert execute(spec(), store).hit
        assert not execute(spec(seed=6), store).hit
        assert calls == []


@pytest.fixture(scope="module")
def fft_trace(tmp_path_factory):
    """A cc capture of ``spec()``'s program."""
    from repro.core.config import SimConfig
    from repro.core.engine import SequentialEngine
    from repro.jobs.spec import spec_program

    path = str(tmp_path_factory.mktemp("trace") / "fft.trace")
    SequentialEngine(
        spec_program(spec()).program,
        sim=SimConfig(scheme="cc", trace_mode="capture", trace_path=path),
    ).run()
    return path


def _tree(root) -> dict:
    """Every file under *root*: relative path -> (bytes, mtime)."""
    return {
        str(p.relative_to(root)): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestReplay:
    """``execute(trace=path)`` is a tool: the store holds direct runs only."""

    def test_replay_leaves_a_direct_record_alone(self, store, fft_trace):
        direct = execute(spec(), store)
        before = _tree(store.root)
        replayed = execute(spec(), store, trace=fft_trace)
        assert not replayed.hit
        assert replayed.record["provenance"]["engine"] == "replay"
        assert replayed.record["provenance"]["trace_path"] == fft_trace
        assert "job_key" not in replayed.record  # never published
        assert replayed.key == direct.key
        assert replayed.record["stats_dump"] == direct.record["stats_dump"]
        assert _tree(store.root) == before

    def test_replay_into_an_empty_store_stores_nothing(self, store, fft_trace):
        execute(spec(), store, trace=fft_trace)
        assert store.keys() == []
        after = execute(spec(), store)
        assert not after.hit
        assert after.record["provenance"]["engine"] == "direct"
        assert execute(spec(), store).hit

    def test_replay_neither_returns_nor_quarantines_a_corrupt_record(self, store, fft_trace):
        path = store.path(execute(spec(), store).key)
        path.write_text(path.read_text()[:40])
        before = _tree(store.root)
        replayed = execute(spec(), store, trace=fft_trace)
        assert replayed.record["provenance"]["engine"] == "replay"
        assert _tree(store.root) == before
        # The next plain call is an ordinary miss: quarantine, then a direct run.
        after = execute(spec(), store)
        assert not after.hit and after.record["provenance"]["engine"] == "direct"
        assert path.with_suffix(".corrupt").exists()

    def test_trace_none_never_replays(self, store):
        outcome = execute(spec(), store, trace=None)
        assert outcome.record["provenance"]["engine"] == "direct"

    def test_explicit_replay_of_an_ooo_job_is_refused_and_seals_nothing(self, store, fft_trace):
        """A capture is the in-order pipeline's stream: replaying it for an
        ``ooo`` spec would re-time the in-order model."""
        from repro.core.engine import EngineError

        with pytest.raises(EngineError, match="inorder core model"):
            execute(spec(core_model="ooo"), store, trace=fft_trace)
        assert store.keys() == []


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
