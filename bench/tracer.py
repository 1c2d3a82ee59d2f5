"""Outside-in tracing: boundary spans and a cProfile roll-up by layer.

Nothing under ``src/`` is edited.  :class:`Tracer` replaces public callables
of ``repro`` with wrappers that record a span (name, start, end, parent, job
label) around each call, and puts the originals back afterwards.  A target
that no longer exists is skipped and listed in ``Tracer.missing`` — the
telemetry and the engine are both due a refactor, and the benchmark that
judges it must not break on a rename.

Spans stay in memory until the workload ends.  A span's *self* time is its
duration minus its children's, so the self times under a root always sum to
the root's duration.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import pstats
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from metrics import LAYERS, SPANS

__all__ = ["Tracer", "layer_of", "profile_rollup", "span_metrics", "self_times"]


def _engine_run_name(engine, *_args, **_kwargs) -> str:
    mode = getattr(getattr(engine, "sim", None), "trace_mode", "off")
    return {"capture": "trace.capture_s", "replay": "trace.replay_run_s"}.get(
        mode, "core.engine_run_s"
    )


#: (span name or namer, module, dotted attribute path inside the module).
#: Names inside ``repro.jobs.execute`` are patched in that module's own
#: namespace, where ``execute()`` looks them up.
TARGETS = (
    ("jobs.execute_s", "repro.jobs", "execute"),
    ("jobs.program_s", "repro.jobs.execute", "spec_program"),
    ("jobs.key_s", "repro.jobs.execute", "job_key"),
    ("jobs.store_load_s", "repro.jobs.store", "ResultStore.load"),
    ("jobs.store_put_s", "repro.jobs.store", "ResultStore.put"),
    ("core.engine_init_s", "repro.core.engine", "SequentialEngine.__init__"),
    (_engine_run_name, "repro.core.engine", "SequentialEngine.run"),
    ("stats.dump_s", "repro.core.results", "SimulationResult.stats"),
    ("stats.dump_s", "repro.core.results", "SimulationResult.stats_sha256"),
    ("stats.dump_s", "repro.core.results", "SimulationResult.dump_json"),
    ("workloads.verify_s", "repro.workloads.base", "Workload.mismatches"),
    ("experiments.build_points_s", "repro.experiments.parallel", "build_points"),
    ("experiments.merge_s", "repro.experiments.parallel", "_derive_metrics"),
    ("experiments.merge_s", "repro.experiments.parallel", "sweep_to_json"),
    ("serve.submit_ms", "repro.serve.client", "ServeClient.submit"),
    ("serve.wait_ms", "repro.serve.client", "ServeClient.submit_and_wait"),
    ("serve.fetch_ms", "repro.serve.client", "ServeClient.fetch"),
)


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, job: "str | None" = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        record = {
            "name": name,
            "job": job if job is not None else (parent["job"] if parent else None),
            "parent": parent["id"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    # -------------------------------------------------------------- patches
    def _wrap(self, name, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label):
                return func(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            label = name if isinstance(name, str) else f"{module_name}:{path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if parents else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            if isinstance(original, property):
                patched = property(self._wrap(name, original.fget))
            else:
                patched = self._wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------------ spans
def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


#: Spans that belong to a workload's set-up; all others count only when
#: they start inside the traced pass.
SETUP_SPANS = ("trace.capture_s", "serve.daemon_start_s")


def span_metrics(spans: list[dict], pass_start: float) -> dict[str, "float | None"]:
    """The per-pass number of every span named in :data:`metrics.SPANS`.

    ``serve.wait_ms`` is the wait's self time (its submit child has its own
    metric); every other span is inclusive.
    """
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    samples: dict[str, list[float]] = {}
    for s in spans:
        if (s["start"] < pass_start) != (s["name"] in SETUP_SPANS):
            continue
        ancestor = s["parent"]
        while ancestor is not None and by_id[ancestor]["name"] != s["name"]:
            ancestor = by_id[ancestor]["parent"]
        if ancestor is not None:
            continue  # nested in a span of the same name: already counted
        value = own[s["id"]] if s["name"] == "serve.wait_ms" else s["end"] - s["start"]
        samples.setdefault(s["name"], []).append(value)
    out: dict[str, "float | None"] = {}
    for name, (how, _unit) in SPANS.items():
        values = samples.get(name)
        if not values:
            out[name] = None
        elif how == "sum":
            out[name] = sum(values)
        else:
            out[name] = 1000.0 * statistics.median(values)
    return out


# ---------------------------------------------------------------- cProfile
_FILE_LAYERS = {
    "core/engine.py": "core.engine",
    "core/corethread.py": "core.corethread",
    "core/manager.py": "core.manager",
    "core/schemes.py": "core.schemes",
    "core/queues.py": "core.queues",
    "cpu/inorder.py": "cpu.inorder",
    "cpu/ooo.py": "cpu.ooo",
    "cpu/l1cache.py": "cpu.l1cache",
    "cpu/arch.py": "cpu.arch",
    "cpu/predecode.py": "cpu.predecode",
    "cpu/funcsim.py": "cpu.funcsim",
    "mem/memsys.py": "mem.memsys",
    "mem/directory.py": "mem.directory",
    "mem/l2nuca.py": "mem.l2nuca",
    "mem/dram.py": "mem.dram",
    "mem/interconnect.py": "mem.interconnect",
}
_PACKAGE_LAYERS = {"core": "core.other", "cpu": "cpu.other"}


def layer_of(filename: str, src_root: str) -> str:
    """The layer a profiled function's source file belongs to.

    Layers are the packages under ``src/repro`` (hot packages split by
    module); exec-compiled timing superblocks count as ``cpu.predecode``;
    everything outside the simulator (stdlib, numpy, this benchmark) is
    ``other`` and only printed, never a metric.
    """
    if filename == "~":
        return "builtins"
    if filename == "<timing-blocks>" or Path(filename).name.startswith("tblocks_"):
        return "cpu.predecode"
    if not filename.startswith(src_root):
        return "other"
    relative = filename[len(src_root):].lstrip("/")
    layer = _FILE_LAYERS.get(relative)
    if layer is not None:
        return layer
    package = relative.split("/", 1)[0]
    layer = _PACKAGE_LAYERS.get(package, package)
    return layer if layer in LAYERS else "other"


def profile_rollup(profile: cProfile.Profile, src_root: str) -> dict[str, dict]:
    """``{layer: {"self_s": tottime, "calls": n}}`` summed over source files."""
    rollup = {layer: {"self_s": 0.0, "calls": 0} for layer in (*LAYERS, "other")}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        entry = rollup[layer_of(filename, src_root)]
        entry["self_s"] += tottime
        entry["calls"] += ncalls
    return rollup
