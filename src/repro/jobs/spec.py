"""Canonical job identity: :class:`JobSpec` and its content-addressed key.

A simulation in this system is a pure function of (program, configuration,
seed) — DESIGN.md §12.  ``JobSpec`` names one such evaluation; ``job_key``
renders its identity as a SHA-256 over a canonical-JSON payload that
incorporates

* the **program content digest** (text + data + entry of the compiled
  workload image) — editing a workload's source changes the key;
* the **toolchain fingerprint** (the bytes of every compiler/assembler
  module, :func:`repro.lang.compiler.toolchain_fingerprint`) — editing any
  stage of the toolchain changes the key;
* every **digest-relevant** configuration field: the full target/host
  models and the :class:`SimConfig` fields that can influence simulated
  behaviour (scheme, seed, windows, faults, …);
* the job-layer format version (bump ``JOB_FORMAT`` to orphan every record).

**Digest-excluded fields** are execution mechanics proven observationally
equivalent elsewhere in the test suite: the trace mode (replay is
dump-identical to direct execution, DESIGN.md §11 — but prints the capture
run's output values, so only direct runs are stored) and output paths
(checkpoint file, trace file and its provenance note).
Changing any of them must NOT change the key.  The per-cycle stepping and
oracle dispatch references are not configuration at all: they are
``SequentialEngine`` constructor arguments that only the differential tests
pass (§5/§6), so no spec, wire dict or checkpoint can carry them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace

from repro._util import canonical_json, sha256_hex
from repro.core.config import HostConfig, SimConfig, TargetConfig

__all__ = [
    "JOB_FORMAT",
    "JobSpec",
    "digest_payload",
    "job_key",
    "spec_from_dict",
    "spec_program",
    "spec_to_dict",
]

#: Job-layer format version: part of every key, so bumping it invalidates
#: every stored result record at once (mirrors the compile cache's
#: ``_CACHE_FORMAT``).
JOB_FORMAT = 1

#: SimConfig fields that participate in the job key.  Everything else on
#: SimConfig is execution mechanics (see the module docstring).
DIGEST_SIM_FIELDS = (
    "scheme",
    "seed",
    "max_cycles",
    "max_instructions",
    "detect_violations",
    "fastforward",
    "batch_cycles",
    "turn_cycles",
    "wait_chunk",
    "stats_interval",
    "fault_plan",
    "checkpoint_interval",
)


@dataclass(frozen=True)
class JobSpec:
    """One canonical job: a timing run of a registered workload.

    ``workload``/``scale`` name the program;
    ``scheme``/``seed``/``host_cores``/``core_model``/``fastforward`` are
    the common knobs every entry point exposes; ``sim`` optionally carries
    a full :class:`SimConfig` for the long tail (windows, faults).
    The top-level fields are authoritative: :meth:`sim_config` overlays
    them onto ``sim``, so a spec can never disagree with itself.
    """

    workload: str
    scale: str
    scheme: str = "cc"
    seed: int = 1
    host_cores: int = 8
    core_model: str = "inorder"
    fastforward: bool = False
    #: Optional full SimConfig for fields beyond the common knobs.
    sim: SimConfig | None = None

    def __post_init__(self) -> None:
        # A job names a registered workload, so its core executes programs:
        # ``"trace"`` (synthetic trace cores) and typos are refused here, where
        # the spec enters, not by a worker that already leased the job.
        if self.core_model not in ("inorder", "ooo"):
            raise ValueError(
                f"core_model={self.core_model!r} is not a job core model "
                "(expected 'inorder' or 'ooo')"
            )

    @classmethod
    def build(
        cls,
        workload: str,
        scale: str,
        *,
        scheme: str = "cc",
        seed: int = 1,
        host_cores: int = 8,
        core_model: str = "inorder",
        fastforward: bool = False,
        **sim_overrides,
    ) -> "JobSpec":
        """Construct a spec; ``sim_overrides`` become SimConfig fields."""
        sim = (
            SimConfig(
                scheme=scheme, seed=seed, fastforward=fastforward, **sim_overrides
            )
            if sim_overrides
            else None
        )
        return cls(
            workload=workload,
            scale=scale,
            scheme=scheme,
            seed=seed,
            host_cores=host_cores,
            core_model=core_model,
            fastforward=fastforward,
            sim=sim,
        )

    def sim_config(self) -> SimConfig:
        """The run's SimConfig with the top-level fields overlaid."""
        base = self.sim if self.sim is not None else SimConfig()
        return replace(
            base, scheme=self.scheme, seed=self.seed, fastforward=self.fastforward
        )

    def target_config(self) -> TargetConfig:
        return TargetConfig(core_model=self.core_model)

    def host_config(self) -> HostConfig:
        return HostConfig(num_cores=self.host_cores)


def spec_to_dict(spec: JobSpec) -> dict:
    """*spec* as a JSON-pure dict (the serve submission wire format).

    Round-trips exactly through :func:`spec_from_dict`: same JobSpec, same
    job key — a job submitted over the wire is the same job its worker
    executes.
    """
    d = {
        "workload": spec.workload,
        "scale": spec.scale,
        "scheme": spec.scheme,
        "seed": spec.seed,
        "host_cores": spec.host_cores,
        "core_model": spec.core_model,
        "fastforward": spec.fastforward,
    }
    if spec.sim is not None:
        d["sim"] = asdict(spec.sim)
    return d


def spec_from_dict(d: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec` from its :func:`spec_to_dict` rendering.

    Tolerates missing optional fields (defaults apply) and unknown ``sim``
    keys (dropped — a newer client talking to an older daemon, or a row an
    older daemon queued with since-retired *mechanics* fields, degrades to
    the fields both sides know rather than erroring).  ``mem_domains`` was
    digest-relevant before it was retired: any value but 1 names a
    simulation this build cannot run, and dropping the key would silently
    run a different one under a different job key — so it is refused.  So
    are the two keys of the retired functional-job mode: ``"mode"`` other
    than ``"timing"`` is a job this build cannot run, and a non-empty
    ``"workload_args"`` names another program (the constants an older
    daemon wrote, ``"timing"`` and ``[]``, are dropped).
    """
    if d.get("mode", "timing") != "timing":
        raise ValueError(
            f"mode={d['mode']!r} is not supported: a job is a timing run "
            "(DESIGN.md §12); `repro bench` measures functional execution"
        )
    if d.get("workload_args"):
        raise ValueError(
            f"workload_args={d['workload_args']!r} is not supported: a job "
            "names a registered workload at a scale, nothing else (DESIGN.md §12)"
        )
    sim = d.get("sim")
    sim_cfg = None
    if sim:
        if sim.get("mem_domains", 1) != 1:
            raise ValueError(
                f"sim.mem_domains={sim['mem_domains']!r} is not supported: "
                "memory domains were removed (DESIGN.md §10); only 1 is accepted"
            )
        known = {f.name for f in fields(SimConfig)}
        sim_cfg = SimConfig(**{k: v for k, v in sim.items() if k in known})
    return JobSpec(
        workload=d["workload"],
        scale=d["scale"],
        scheme=d.get("scheme", "cc"),
        seed=int(d.get("seed", 1)),
        host_cores=int(d.get("host_cores", 8)),
        core_model=d.get("core_model", "inorder"),
        fastforward=bool(d.get("fastforward", False)),
        sim=sim_cfg,
    )


def spec_program(spec: JobSpec):
    """Build *spec*'s workload (compile cached on disk) and return it."""
    from repro.workloads.registry import make_workload

    return make_workload(spec.workload, scale=spec.scale)


def digest_payload(spec: JobSpec, program_digest: str) -> dict:
    """The canonical-JSON payload whose SHA-256 is the job key.

    Stored verbatim in every result record (provenance: a record explains
    its own identity), so the payload must stay JSON-pure and stable.
    """
    from repro.lang.compiler import toolchain_fingerprint

    sim = spec.sim_config()
    return {
        "format": JOB_FORMAT,
        # Constants since the functional-job mode went: every stored key was
        # derived with them, so they stay in the payload.
        "mode": "timing",
        "workload": {"name": spec.workload, "scale": spec.scale, "args": {}},
        "program_digest": program_digest,
        "toolchain": toolchain_fingerprint(),
        "target": asdict(spec.target_config()),
        "host": asdict(spec.host_config()),
        "sim": {name: getattr(sim, name) for name in DIGEST_SIM_FIELDS},
    }


def job_key(spec: JobSpec, program_digest: str | None = None) -> str:
    """The content-addressed identity of *spec* (see the module docstring).

    *program_digest* is computed from the compiled workload image when not
    supplied — callers that already hold the program pass it to skip the
    (cached) compile.
    """
    if program_digest is None:
        from repro.trace.format import program_digest as _pd

        program_digest = _pd(spec_program(spec).program)
    return sha256_hex(canonical_json(digest_payload(spec, program_digest)))
