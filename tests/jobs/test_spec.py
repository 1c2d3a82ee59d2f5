"""Job-key derivation: what must (and must not) change the identity.

The invalidation contract (DESIGN.md §12): program content, toolchain
fingerprint and every digest-relevant configuration field participate in
the key; execution mechanics proven observationally equivalent elsewhere
(trace mode, output paths) must not.
"""

import dataclasses

import pytest

import repro.lang.compiler as compiler
from repro.core.config import SimConfig
from repro.jobs import JobOutcome, JobSpec, digest_payload, job_key
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
            {"scheme": "s9*"},  # the adaptive variant is another scheme
            {"scheme": "s10"},
        ],
    )
    def test_digest_relevant_field(self, change):
        assert job_key(spec(**change), DIGEST) != job_key(spec(), DIGEST)


class TestKeyInvariant:
    """Everything here must NOT change the job key."""

    @pytest.mark.parametrize(
        "change",
        [
            {"trace_source": '{"workload": "fft"}'},
            {"checkpoint_path": "/tmp/ckpt.bin"},
            {"trace_mode": "replay", "trace_path": "/tmp/x.trace"},
            {"trace_mode": "capture", "trace_path": "/tmp/x.trace"},
            {"trace_path": "/tmp/unused.trace"},
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

    def test_retired_job_fields_stay_in_the_payload_as_constants(self, monkeypatch):
        """``mode`` and ``workload.args`` left ``JobSpec``; every stored key
        was derived with them, so the payload keeps emitting the values a
        timing job always had.  The pinned key is what the commit before the
        fields went derives for this spec (under a fixed fingerprint): it
        moves only when a change really does orphan every stored record."""
        payload = digest_payload(spec(), DIGEST)
        assert payload["mode"] == "timing"
        assert payload["workload"] == {"name": "fft", "scale": "tiny", "args": {}}
        monkeypatch.setattr(compiler, "_fingerprint", "f" * 64)
        assert job_key(spec(), DIGEST) == (
            "acd25dd61cce3d7f52c321aca6a0399320a0c2b4d0e9a42bc477209f7462babd"
        )

    def test_counted_options(self):
        """A job is a timing run and a SimConfig is a simulation: a new field
        on any of the three is a design decision, not a drive-by."""
        counts = [len(dataclasses.fields(c)) for c in (JobSpec, SimConfig, JobOutcome)]
        assert counts == [8, 16, 3]

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

    def test_parent_format_row_is_the_same_job(self):
        """A row an older daemon queued carries ``"mode": "timing"``, an
        empty ``workload_args`` and the two heartbeat fields: all dropped,
        same spec, same key; the wire form no longer emits any of them."""
        revived = spec_from_dict(self.wire(
            heartbeat_path="/srv/serve/heartbeats/abc.json", heartbeat_interval=1.0,
        ))
        current = spec(max_cycles=777)
        assert revived == current
        assert job_key(revived, DIGEST) == job_key(current, DIGEST)
        wire = spec_to_dict(revived)
        assert "mode" not in wire and "workload_args" not in wire
        assert not any(k.startswith("heartbeat") for k in wire["sim"])

    @pytest.mark.parametrize(
        "retired,match",
        [
            ({"mode": "functional"}, "mode"),
            ({"workload_args": [["nthreads", 1]]}, "workload_args"),
        ],
    )
    def test_retired_job_mode_is_refused(self, retired, match):
        """Accepted, queued and leased before; could only FAIL in the worker
        (``mode``) or ran another program under this job's name (``args``)."""
        with pytest.raises(ValueError, match=match):
            spec_from_dict({**self.wire(), **retired})

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
