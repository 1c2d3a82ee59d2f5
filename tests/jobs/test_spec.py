"""Job-key derivation: what must (and must not) change the identity.

The invalidation contract (DESIGN.md §12): program content, toolchain
fingerprint and every digest-relevant configuration field participate in
the key; execution mechanics proven observationally equivalent elsewhere
(trace mode, progress heartbeat, output paths) must not.
"""

import pytest

import repro.lang.compiler as compiler
from repro.jobs import JobSpec, digest_payload, job_key
from repro.jobs.spec import DIGEST_SIM_FIELDS, spec_from_dict, spec_to_dict

#: A fixed fake program digest so these tests never need to compile.
DIGEST = "ab" * 32
OTHER_DIGEST = "cd" * 32


def spec(**kwargs) -> JobSpec:
    base = dict(workload="fft", scale="tiny", scheme="s9", seed=7, host_cores=4)
    base.update(kwargs)
    return JobSpec.build(base.pop("workload"), base.pop("scale"), **base)


class TestKeyChanges:
    """Everything here MUST produce a different job key."""

    def test_program_digest(self):
        assert job_key(spec(), DIGEST) != job_key(spec(), OTHER_DIGEST)

    def test_toolchain_fingerprint(self, monkeypatch):
        before = job_key(spec(), DIGEST)
        monkeypatch.setattr(compiler, "_fingerprint", "f" * 64)
        assert job_key(spec(), DIGEST) != before

    @pytest.mark.parametrize(
        "change",
        [
            {"scheme": "su"},
            {"seed": 8},
            {"host_cores": 8},
            {"core_model": "ooo"},
            {"fastforward": True},
            {"scale": "small"},
            {"workload": "lu"},
            {"max_cycles": 1234},
            {"max_instructions": 99},
            {"detect_violations": False},
            {"batch_cycles": 32},
            {"turn_cycles": 128},
            {"wait_chunk": 4},
            {"stats_interval": 500},
            {"fault_plan": "corrupt_dir:at=800"},
            {"checkpoint_interval": 1000},
            {"mode": "functional"},
            {"workload_args": {"nthreads": 1}},
        ],
    )
    def test_digest_relevant_field(self, change):
        if "workload_args" in change:
            changed = spec(workload_args=change["workload_args"])
        else:
            changed = spec(**change)
        assert job_key(changed, DIGEST) != job_key(spec(), DIGEST)


class TestKeyInvariant:
    """Everything here must NOT change the job key."""

    @pytest.mark.parametrize(
        "change",
        [
            {"heartbeat_path": "/tmp/job.hb"},
            {"heartbeat_interval": 5.0},
            {"trace_source": '{"workload": "fft"}'},
            {"checkpoint_path": "/tmp/ckpt.bin"},
            {"trace_mode": "replay", "trace_path": "/tmp/x.trace"},
        ],
    )
    def test_digest_excluded_field(self, change):
        assert job_key(spec(**change), DIGEST) == job_key(spec(), DIGEST)

    def test_build_without_overrides_matches_explicit_defaults(self):
        assert job_key(spec(), DIGEST) == job_key(spec(wait_chunk=16), DIGEST)


class TestPayload:
    def test_payload_is_json_pure_and_stable(self):
        import json

        payload = digest_payload(spec(), DIGEST)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["program_digest"] == DIGEST
        assert payload["format"] == 1
        assert set(payload) == {
            "format", "mode", "workload", "program_digest", "toolchain",
            "target", "host", "sim",
        }

    def test_sim_section_is_exactly_the_digest_fields(self):
        payload = digest_payload(spec(), DIGEST)
        assert tuple(payload["sim"]) == DIGEST_SIM_FIELDS

    def test_functional_payload_drops_timing_config(self):
        payload = digest_payload(spec(mode="functional"), DIGEST)
        assert "sim" not in payload and "host" not in payload

    def test_top_level_fields_overlay_sim(self):
        s = spec(scheme="su", max_cycles=777)
        assert s.sim_config().scheme == "su"
        assert s.sim_config().max_cycles == 777
        assert digest_payload(s, DIGEST)["sim"]["scheme"] == "su"


class TestWireCompat:
    @staticmethod
    def wire(**sim) -> dict:
        return {
            "workload": "fft", "scale": "tiny", "scheme": "s9", "seed": 7,
            "host_cores": 4, "core_model": "inorder", "fastforward": False,
            "mode": "timing", "workload_args": [],
            "sim": {"scheme": "s9", "seed": 7, "max_cycles": 777, **sim},
        }

    def test_retired_sim_fields_are_dropped(self):
        """A row queued by a daemon that still had the static scheduler, the
        domain backends, the stepping/dispatch oracles and the watchdog
        window must stay runnable: same job, keys dropped."""
        revived = spec_from_dict(self.wire(
            mem_domains=1, scheduling="static", backend="threaded",
            stepping="single", dispatch="oracle", host_timeout=5.0,
        ))
        current = spec(max_cycles=777)
        assert revived == current
        sim = revived.sim_config()
        assert not hasattr(sim, "scheduling") and not hasattr(sim, "backend")
        assert job_key(revived, DIGEST) == job_key(current, DIGEST)
        assert set(spec_to_dict(revived)["sim"]) == set(spec_to_dict(current)["sim"])

    def test_retired_digest_relevant_field_is_refused(self):
        """``mem_domains`` != 1 named a different simulation: dropping the
        key would run another job under another key, so it is an error
        (``mem_domains: 1`` is dropped with the mechanics, above)."""
        with pytest.raises(ValueError, match="mem_domains"):
            spec_from_dict(self.wire(mem_domains=4))

    @pytest.mark.parametrize("model", ["oooo", "trace", ""])
    def test_unknown_core_model_is_refused(self, model):
        """Used to be accepted, keyed and queued, and to fail only inside the
        worker (``EngineError: unknown core model``).  ``"trace"`` cores take
        no program, so no job can name them."""
        with pytest.raises(ValueError, match="core_model"):
            spec_from_dict({**self.wire(), "core_model": model})
        with pytest.raises(ValueError, match="core_model"):
            JobSpec.build("fft", "tiny", core_model=model)

    @pytest.mark.parametrize(
        "field,value", [("wait_chunk", 0), ("turn_cycles", -5), ("batch_cycles", -1)]
    )
    def test_out_of_range_turn_shaping_is_refused(self, field, value):
        """Reachable over the serve wire: ``wait_chunk=0`` spins a blind wait
        into a bogus deadlock report, a negative cap simulates something
        else.  ``ValueError`` is the daemon's bad-request path."""
        with pytest.raises(ValueError, match=field):
            spec_from_dict(self.wire(**{field: value}))
