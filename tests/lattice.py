"""The conformance lattice: every fast path against its oracle, from one table
(DESIGN.md §5 *Equivalence classes*).

One enumerator of run cells (:func:`cells`), one engine builder
(:func:`build`), one equality helper (:func:`assert_same_run` over
:func:`fingerprint`), one lock/barrier program (:data:`LOCK_SRC`), the
equivalence classes (:data:`CLASSES`), a memoised run per cell and variant
with the checks every lattice run makes (:func:`run`), and the pinned cells
``tests/core/test_lattice.py`` holds them to (:data:`PINNED`).
``benchmarks/iso_matrix.py`` builds its cells here too, so at module level
this imports only ``repro``'s public API (``iso_matrix --src`` puts another
checkout's ``repro`` first on the path before importing this module).
"""

from __future__ import annotations

import contextlib
import functools
import re
import tempfile
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from repro.cache import compile_source
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import SequentialEngine
from repro.host.hostmodel import HostModel
from repro.workloads.registry import WORKLOADS, make_workload
from repro.workloads.synthetic import pingpong_workload, sharing_workload
from tests.host.scan_reference import last_step_ready

# ------------------------------------------------------------------- the axes
#: One scheme per ``parse_scheme`` family (qN twice: a short and a long quantum).
SCHEMES = ("cc", "q3", "q10", "aq10-160", "l10", "s9", "s9*", "s100", "su")
HOSTS = (1, 2, 8, 32)
#: The seven schemes with a golden file of their own (tests/core/goldens).
GOLDEN_SCHEMES = tuple(s for s in SCHEMES if s not in ("q3", "aq10-160"))
#: The lock program's pinned cells: one scheme per ``gq_policy`` shape, sN
#: as s2 — the checkpoint goldens' keys.
LOCK_SCHEMES = ("cc", "q3", "s2", "su")
REGISTERED = tuple(sorted(WORKLOADS))
#: Trace-core workloads (core model ``trace``): ``sharing`` is the repo
#: benchmark's coherence-dense ``mem-traffic``, ``sharing:think``
#: ``sharing_workload``'s defaults, ``pingpong`` 8 cores writing one block.
TRACES = ("sharing", "sharing:think", "pingpong")
TRACE_OPS = {"tiny": 300, "small": 3000, "paper": 30000}  # per core, by scale
#: ``replay``: the in-order pipeline fed an ``su`` capture (DESIGN.md §11).
MODELS = ("inorder", "ooo", "replay", "trace")

#: Contended lock + closing barrier on 4 cores (spawn, join, a lock every
#: thread takes six times): activations, wakes and halts land mid-barrier.
LOCK_SRC = """
int lk; int bar; int counter;
void worker(int tid) {
    for (int i = 0; i < 6; i = i + 1) {
        lock(&lk);
        counter = counter + 1;
        unlock(&lk);
    }
    barrier(&bar);
}
int main() {
    int tids[4];
    init_lock(&lk);
    init_barrier(&bar, 4);
    for (int t = 1; t < 4; t = t + 1) tids[t] = spawn(worker, t);
    worker(0);
    for (int t = 1; t < 4; t = t + 1) join(tids[t]);
    print_int(counter);
    return 0;
}
"""

#: The ooo core's knob programs: independent multiplies (ILP), a load right
#: after a store (forwarding), a data-dependent branch (prediction).
INDEPENDENT_OPS = """
int main() {
    int a = 1; int b = 2; int c = 3; int d = 4;
    int s = 0;
    for (int i = 0; i < 50; i = i + 1) {
        a = a * 3;
        b = b * 5;
        c = c * 7;
        d = d * 11;
    }
    s = a + b + c + d;
    print_int(s & 1023);
    return 0;
}
"""

FORWARDING = """
int buf[8];
int main() {
    int s = 0;
    for (int i = 0; i < 8; i = i + 1) {
        buf[i] = i * 7;
        s = s + buf[i];     // load immediately after store
    }
    print_int(s);
    return 0;
}
"""

BRANCHY = """
int main() {
    int s = 0;
    int x = 12345;
    for (int i = 0; i < 300; i = i + 1) {
        x = (x * 1103515245 + 12345) % (1 << 31);
        if ((x >> 7) & 1) s = s + 1;   // data-dependent branch
        else s = s - 1;
    }
    print_int(s);
    return 0;
}
"""

#: Unsynchronized same-word sharing: core 1 hammers stores into ``flag``
#: while core 0 reads it — the WordOrderTracker's target pattern.  The
#: printed value (core 1's private tally) is interleaving-independent.
RACY_SRC = """
int flag; int bar;
void worker(int tid) {
    if (tid == 1) {
        for (int i = 0; i < 200; i = i + 1) flag = flag + 1;
    } else {
        int s = 0;
        for (int i = 0; i < 40; i = i + 1) s = s + flag;
    }
    barrier(&bar);
}
int main() {
    int t;
    init_barrier(&bar, 2);
    t = spawn(worker, 1);
    worker(0);
    join(t);
    print_int(flag);
    return 0;
}
"""


def lock_source(rounds: int = 6, barrier: bool = True) -> str:
    """:data:`LOCK_SRC` with *rounds* lock rounds per thread, with or without
    its barrier (``lock_source(5, barrier=False)``: the stats goldens')."""
    source = LOCK_SRC.replace("i < 6", f"i < {rounds}")
    if not barrier:
        for line in (" int bar;", "    barrier(&bar);\n", "    init_barrier(&bar, 4);\n"):
            source = source.replace(line, "")
    return source


def lock_program(rounds: int = 6, barrier: bool = True):
    return compile_source(lock_source(rounds, barrier)).program


def family(scheme: str) -> str:
    """``s9*`` -> ``sN*``: the ``parse_scheme`` family of a scheme spec."""
    return re.sub(r"\d+", "N", scheme)


@dataclass(frozen=True)
class Cell:
    """One point of the lattice; ``str(cell)`` is its id and parses back."""

    workload: str           # a REGISTERED name, "lock" or a TRACES token
    model: str = "inorder"  # MODELS; "trace" exactly for TRACES tokens
    scheme: str = "cc"
    hosts: int = 8
    fastforward: bool = False
    seed: int = 1
    scale: str = "tiny"

    @classmethod
    def of(cls, token: str, scheme: str = "cc", hosts: int = 8, **kw) -> "Cell":
        """``Cell.of("fft:ooo", "s9")``: iso_matrix's ``NAME[:MODEL]`` tokens."""
        if token in TRACES:
            return cls(token, "trace", scheme, hosts, **kw)
        name, _, model = token.partition(":")
        return cls(name, model or "inorder", scheme, hosts, **kw)

    @classmethod
    def parse(cls, text: str) -> "Cell":
        """``"fft:ooo/s9/h2/ff/seed3"`` -> the cell it names."""
        token, scheme, hosts, *extra = text.split("/")
        seed = next((int(e[4:]) for e in extra if e.startswith("seed")), 1)
        return cls.of(token, scheme, int(hosts[1:]), fastforward="ff" in extra, seed=seed)

    def __str__(self) -> str:
        token = self.workload if self.model in ("inorder", "trace") else f"{self.workload}:{self.model}"
        extra = "/ff" * self.fastforward + f"/seed{self.seed}" * (self.seed != 1)
        return f"{token}/{self.scheme}/h{self.hosts}{extra}"


def cells(scale: str = "tiny"):
    """Every cell: each program workload on each program core model and each
    trace workload, × SCHEMES × HOSTS × fast-forward."""
    tokens = [f"{w}:{m}" for w in (*REGISTERED, "lock") for m in ("inorder", "ooo", "replay")]
    for token in (*tokens, *TRACES):
        for scheme in SCHEMES:
            for hosts in HOSTS:
                for ff in (False, True):
                    yield Cell.of(token, scheme, hosts, fastforward=ff, scale=scale)


# ---------------------------------------------------------------- the builder
@functools.cache
def _scratch() -> tempfile.TemporaryDirectory:
    """Captures and checkpoints of this process (removed at exit)."""
    return tempfile.TemporaryDirectory(prefix="lattice-")


@functools.cache
def _workload(name: str, scale: str):
    return make_workload(name, scale=scale)


@functools.cache
def _program(name: str, scale: str):
    return lock_program() if name == "lock" else _workload(name, scale).program


def _trace_cores(token: str, scale: str, seed: int) -> list:
    ops = TRACE_OPS[scale]
    if token == "pingpong":
        return pingpong_workload(8, ops)
    if token == "sharing:think":
        return sharing_workload(8, ops, seed=seed)
    return sharing_workload(8, ops, shared_fraction=0.8, write_fraction=0.5,
                            think_cycles=0, shared_blocks=256, seed=seed)


@functools.cache
def capture(name: str, scale: str, cores: int, seed: int = 1) -> str:
    """The ``su`` capture every replay of *name* replays (a capture is the
    same file under any scheme and seed)."""
    path = Path(_scratch().name) / f"{scale}-{name}-{cores}.trace"
    SequentialEngine(
        _program(name, scale), target=TargetConfig(num_cores=cores),
        sim=SimConfig(scheme="su", seed=seed, trace_mode="capture", trace_path=str(path)),
    ).run()
    return str(path)


def build(
    workload, scheme: str = "cc", hosts: int = 8, *, model: str = "inorder", seed: int = 1,
    scale: str = "tiny", fastforward: bool = False, trace_seed: int = 1,
    cores: int | None = None, target: TargetConfig | None = None,
    host: HostConfig | None = None, stepping: str = "batched",
    dispatch: str = "predecoded", **sim,
) -> SequentialEngine:
    """The one engine builder.  *workload* is a token (a registered name,
    ``"lock"`` — 4 target cores —, a TRACES token), a ``Program`` or a list
    of trace cores; ``model="replay"`` replays :func:`capture`.  *trace_seed*
    seeds a trace token's generator and the capture, *seed* the run;
    *target*/*host* replace the configs the other arguments describe; other
    keywords are ``SimConfig`` fields."""
    program = trace_cores = None
    if isinstance(workload, list):
        trace_cores = workload
    elif not isinstance(workload, str):
        program = workload
    elif workload in TRACES:
        trace_cores = _trace_cores(workload, scale, trace_seed)
    else:
        program = _program(workload, scale)
        cores = cores or (4 if workload == "lock" else None)
    if trace_cores is not None:
        model, cores = "trace", len(trace_cores)
    cores = cores or TargetConfig().num_cores
    if model == "replay":
        sim.update(trace_mode="replay", trace_path=capture(workload, scale, cores, trace_seed))
    return SequentialEngine(
        program, trace_cores=trace_cores,
        target=target or TargetConfig(num_cores=cores, core_model=model.replace("replay", "inorder")),
        host=host or HostConfig(num_cores=hosts),
        sim=SimConfig(scheme=scheme, seed=seed, fastforward=fastforward, **sim),
        stepping=stepping, dispatch=dispatch,
    )


def functional(name: str, scale: str) -> dict:
    """A ``NAME:func`` cell: the functional interpreter on the ``nthreads=1``
    program — instructions, exit code, output digest, final ``ArchState``."""
    from repro._util import output_digest
    from repro.cpu.interp import run_functional

    result = run_functional(make_workload(name, scale=scale, nthreads=1).program)
    return {
        "instructions": result.instructions, "exit_code": result.exit_code,
        "output": output_digest(result.output), "state": result.state.digest(),
    }


# ---------------------------------------------------------------- equality
def fingerprint(result) -> dict:
    """What an iso-digest, iso-host-time change holds fixed (an iso_matrix
    cell): ``host.*`` and ``engine.*`` are digest-excluded, so the digest
    alone cannot see a path that models another host schedule."""
    stats = result.stats
    out = {
        "completed": result.completed, "cycles": result.execution_cycles,
        "digest": result.stats_sha256, "host_time": float(result.host_time).hex(),
        "host_busy": float(result.host_busy).hex(), "host.steps": stats["host.steps"],
    }
    out.update((k, v) for k, v in sorted(stats.items()) if k.startswith("engine."))
    return out


def assert_same_run(a, b, skip=()) -> None:
    """*a* and *b* (SimulationResults or :class:`Run` records) are one and the
    same simulation: their fingerprints — plus, for two Runs, the output and
    each core's final ``ArchState.digest()`` — agree except on *skip*."""
    fa, fb = fingerprint(a), fingerprint(b)
    if isinstance(a, Run) and isinstance(b, Run):
        fa.update(arch=a.arch, output=a.output)
        fb.update(arch=b.arch, output=b.output)
    for key in skip:
        fa.pop(key, None), fb.pop(key, None)
    assert fa == fb


def host_times(result) -> dict:
    """A run's entry in ``workload_host_times.json`` / ``ooo_host_times.json``."""
    return {
        "execution_cycles": result.execution_cycles, "stats_sha256": result.stats_sha256,
        "host_time": float(result.host_time).hex(), "host_busy": float(result.host_busy).hex(),
    }


# ------------------------------------------------------------------ a run
class RecordingHostModel(HostModel):
    """Notes every call whose ready time precedes the ready time of the
    previous call's last step — the order the min-heap ``HostModel`` is exact
    under (DESIGN.md §2).  It travels in a checkpoint."""

    def __init__(self, num_cores: int) -> None:
        super().__init__(num_cores)
        self.floor = 0.0  # ready time of the last step scheduled
        self.backwards = []  # (host steps so far, floor, ready)

    def run(self, ready, cost, _run=HostModel.run):
        if ready < self.floor:
            self.backwards.append((self.steps, self.floor, ready))
        self.floor = ready
        return _run(self, ready, cost)

    def poll_until(self, ready, cost, until, max_polls, _poll=HostModel.poll_until):
        if ready < self.floor:
            self.backwards.append((self.steps, self.floor, ready))
        first_free = self.free_at[0]
        end, n = _poll(self, ready, cost, until, max_polls)
        self.floor = last_step_ready(ready, first_free, cost, n)
        return end, n


def window_probe(engine, breaks: list):
    """A probe checking, at every manager step, the clock invariant
    ``global <= local <= max_local`` (raises) and the window bound
    ``local <= global + slack`` (Figure 2 as a property; appends to *breaks*)."""
    manager, slack = engine.manager, engine.scheme.slack

    def probe(host_t, global_t, locals_):
        manager.check_invariants()
        breaks.extend((global_t, t) for t in locals_ if t > global_t + slack)

    return probe


def coherence(engine) -> tuple[int, int]:
    """``(phantom lines, single-writer breaks)`` at run end, once the InQ
    messages still undelivered are applied: a phantom is a valid L1 line
    whose core ``Directory.presence_bits`` does not list, a break a block
    with an M/E copy beside another valid copy (DESIGN.md §5)."""
    from repro.mem.directory import MESI, EvKind

    copies, phantoms = defaultdict(list), 0
    for ct in engine.cores:
        l1 = getattr(ct.model, "l1d", None) or ct.model.l1
        lines = dict(l1.resident_blocks())
        for _, _, event in sorted(ct.inq._heap):
            block = l1.block_addr(event.addr)
            if event.kind is EvKind.INVALIDATE:
                lines.pop(block, None)
            elif event.kind is EvKind.DOWNGRADE and block in lines:
                lines[block] = MESI.SHARED
        for block, state in lines.items():
            phantoms += not engine.memsys.directory.presence_bits(block)[0][ct.core_id]
            copies[block].append(state)
    owned = (MESI.MODIFIED, MESI.EXCLUSIVE)
    return phantoms, sum(len(s) > 1 and any(x in owned for x in s) for s in copies.values())


class Run:
    """A finished run detached from its engine: the result (stats rendered)
    and what only the engine knew at its end."""

    def __init__(self, engine, result, probe_breaks=None):
        result.stats  # render, then drop the engine
        result.stats_factory = None
        self.result = result
        self.fused = engine.fused_barriers
        models = [ct.model for ct in engine.cores]
        self.arch = tuple(m.state and m.state.digest() for m in models if hasattr(m, "state"))
        self.advance = {getattr(m, "advance", None) is not None for m in models}
        self.backwards = engine.hostmodel.backwards
        self.coherence = coherence(engine)
        self.probe_breaks = probe_breaks
        self.faults_fired = engine.faults is not None and engine.faults.fired

    def __getattr__(self, name):
        return getattr(self.__dict__["result"], name)


@contextlib.contextmanager
def reference_ooo():
    """Engines built and run inside use ``tests/cpu/ooo_reference.py``'s
    scan-based model as ``repro.cpu.ooo.OoOCore``."""
    from unittest import mock

    import repro.cpu.ooo
    from tests.cpu.ooo_reference import OoOCore as ReferenceCore

    with mock.patch.object(repro.cpu.ooo, "OoOCore", ReferenceCore):
        yield


FAULT_PLAN = "stall_core:core=3,at=100,host_delay=500;delay_gq:delta=60,count=3"
#: Each variant's engine arguments (``checkpointed``/``restored``: :func:`run`).
VARIANTS = {
    "default": {}, "single": {"stepping": "single"}, "oracle": {"dispatch": "oracle"},
    "faulted": {"fault_plan": FAULT_PLAN}, "probe": {}, "reference": {}, "checkpointed": {},
}


def checkpoint_path(cell: Cell) -> str:
    return str(Path(_scratch().name) / f"{str(cell).replace('/', '_')}.ck")


@functools.cache
def run(cell: Cell, variant: str = "default") -> Run:
    """*cell* run once per *variant*, held to :func:`check_run`.  Memoised:
    every class and test naming a cell shares its runs."""
    if variant == "restored":
        from repro.core.checkpoint import load_checkpoint

        run(cell, "checkpointed")
        engine = load_checkpoint(checkpoint_path(cell))
        assert engine.manager.global_time > 0, "not a mid-run checkpoint"
        out = Run(engine, engine.run())
    else:
        sim = dict(VARIANTS[variant])
        if variant == "checkpointed":  # three cuts, none on a quiet boundary
            sim.update(checkpoint_interval=run(cell).global_time // 3 + 7,
                       checkpoint_path=checkpoint_path(cell))
        with reference_ooo() if variant == "reference" else contextlib.nullcontext():
            engine = build(cell.workload, cell.scheme, cell.hosts, model=cell.model,
                           seed=cell.seed, scale=cell.scale, fastforward=cell.fastforward, **sim)
            engine.hostmodel = RecordingHostModel(cell.hosts)
            breaks = []
            if variant == "probe":
                engine.probe = window_probe(engine, breaks)
            out = Run(engine, engine.run(), breaks)
    check_run(cell, variant, out)
    return out


def check_run(cell: Cell, variant: str, r: Run) -> None:
    """What every lattice run holds: completion and the output oracle, the
    host-model ready order, coherence at the end (not under ``ooo``, whose
    invalidations race its fills), the probe's invariants, and the support
    gates — the barrier superstep fuses >= 0.9 of a registered workload's
    barriers under cc and >= 0.5 under qN, none under single stepping, a
    probe, a fault plan or a sliding-window scheme, and ``advance`` is
    shadowed exactly under oracle dispatch (in-order) and fast-forward."""
    assert r.completed
    if cell.workload == "lock":
        assert list(r.output) == [24]
    elif cell.model != "trace":
        assert not _workload(cell.workload, cell.scale).mismatches(r.output)
    assert r.backwards == [], r.backwards[:3]
    assert r.coherence == (0, 0) or cell.model == "ooo", r.coherence
    assert not r.probe_breaks, r.probe_breaks[:3]
    assert variant != "faulted" or r.faults_fired
    engages = {"cc": 0.9, "qN": 0.5, "aqN-N": 0.0}.get(family(cell.scheme))
    if variant in ("single", "probe", "faulted") or engages is None:
        assert r.fused == 0
    elif variant == "default" and cell.workload in REGISTERED:
        assert r.fused >= engages * r.barriers
    if cell.model in ("inorder", "replay"):
        shadowed = cell.fastforward or (variant == "oracle" and cell.model == "inorder")
        assert r.advance == {not shadowed}


# ------------------------------------------------------- equivalence classes
@dataclass(frozen=True)
class Equivalence:
    name: str
    axis: str      # what the fast side runs
    oracle: str    # what it must equal
    models: tuple  # the core models it applies to
    skip: tuple = ()

    def twin(self, cell: Cell) -> tuple:
        """The oracle side's ``(cell, variant)``."""
        if self.name == "replay":
            return replace(cell, model="inorder"), "default"
        return cell, self.name


CLASSES = {c.name: c for c in (
    Equivalence("single", "batched turns: advance, skip and the barrier superstep",
                'stepping="single" (one step per cycle)', MODELS),
    Equivalence("oracle", "predecoded per-PC functions", 'dispatch="oracle" (funcsim.execute)',
                ("inorder", "ooo")),
    # A probe forces every manager step: the ones the fast path elides differ.
    Equivalence("probe", "manager-step elision and the barrier superstep",
                "an attached probe (every manager step taken)", MODELS,
                ("engine.steps", "engine.manager_steps", "engine.manager_polls")),
    Equivalence("restored", "checkpointing, then a restore of the last cut",
                "the straight run", MODELS),
    Equivalence("replay", "NAME:replay (the su capture replayed)", "NAME, direct",
                ("replay",), ("arch", "output")),
    Equivalence("reference", "the ooo wakeup scoreboard",
                "tests/cpu/ooo_reference.py (the scan-based model)", ("ooo",)),
)}


def check(name: str, cell: Cell) -> Run:
    """Hold *cell* to class *name* and return its default run; ``"run"`` and
    ``"faulted"`` make only the per-run checks (of that variant)."""
    if name in ("run", "faulted"):
        return run(cell, "faulted" if name == "faulted" else "default")
    klass, fast = CLASSES[name], run(cell)
    assert cell.model in klass.models, f"{name} does not apply to {cell}"
    oracle, skip = run(*klass.twin(cell)), klass.skip
    if name == "probe" and family(cell.scheme) in ("qN", "aqN-N"):
        # A forced idle step advances global_time mid-quantum and the slack
        # histogram samples it: the simulation and the modeled host hold,
        # the digest need not (DESIGN.md §5).
        skip += ("digest",)
        moved = {k for k in fast.stats if fast.stats[k] != oracle.stats.get(k)}
        assert all(k.startswith(("scheme.slack_cycles.", "engine.")) for k in moved), moved
    assert_same_run(fast, oracle, skip)
    if name == "restored":
        assert_same_run(fast, run(cell, "checkpointed"))
    return fast


# ------------------------------------------------------------ pinned cells
def _pin(name: str, *texts: str) -> list:
    return [(name, Cell.parse(text)) for group in texts for text in group.split()]


def _grid(name, tokens, schemes, hosts, **kw) -> list:
    return [(name, Cell.of(t, s, h, **kw)) for t in tokens for s in schemes for h in hosts]


def _lock(name, schemes, model="inorder", **kw) -> list:
    return [(name, Cell("lock", model, s, 4, seed=11, **kw)) for s in schemes]


#: ``(class, cell)``: every cell the engine tests name, then the cells that
#: reach the registered workloads, core models and scheme families those
#: leave out of a class (``test_lattice.py`` fails on a gap).
PINNED = tuple(dict.fromkeys([
    # The barrier superstep against single stepping (2 and 32 host cores: a
    # contended host, one wider than the target), the ooo core's advance.
    *_grid("single", ["fft", "water"], ["cc", "q3", "q10"], [1, 8]),
    *_grid("single", ["barnes", "lu"], ["cc"], [2, 32]),
    *_grid("single", ["fft:ooo", "water:ooo"], ["cc", "q10", "s9", "su"], [8]),
    *_lock("single", SCHEMES),
    *_pin("single", "fft:replay/cc/h8 sharing/s9/h2 ocean/cc/h32 radix:ooo/cc/h2 water/aq10-160/h2"),
    # Predecoded vs oracle dispatch, every registered workload.
    *_grid("oracle", [*REGISTERED, "fft:ooo"], ["s9"], [8]),
    *_lock("oracle", [*LOCK_SCHEMES, "s9"]),
    *_pin("oracle", "water/aq10-160/h8 fft/l10/h2 water/s9*/h32 fft:ooo/cc/h8/ff"),
    # A probe: invisible outside quantum schemes, the histogram under them.
    *_grid("probe", ["fft"], ["cc", "l10", "s9", "su", "q10"], [8]),
    *_pin("probe", "barnes:ooo/s9/h1 lu:replay/q3/h8 ocean/s9/h8 radix/s9/h8 sharing/s9/h2",
          "water/aq10-160/h2 fft/s9*/h1 water/s100/h8"),
    # Quiet-step elision: each sliding family on the lock program, every
    # model and another workload.
    *_lock("probe", ["s2", "su"]),
    *_pin("probe", "water/l10/h8 water:ooo/su/h8 fft:replay/s9/h8 sharing/su/h2 lu/s9*/h1"),
    # Restore equivalence.
    *_lock("restored", LOCK_SCHEMES),
    *_pin("restored", "lock:ooo/s2/h4/seed11 water/cc/h8 fft/q3/h2 fft:replay/q3/h8/seed5",
          "barnes:replay/cc/h8 lu/cc/h2 ocean/s9/h8 radix:ooo/cc/h2 sharing/q10/h2",
          "water/aq10-160/h2 fft/l10/h2 water/s9*/h32 fft/s100/h1"),
    # Replay of an su capture against the direct run.
    *_grid("replay", [f"{w}:replay" for w in ("fft", "lu", "water", "barnes")],
           [*LOCK_SCHEMES, "s9"], [8]),
    *_pin("replay", "ocean:replay/s9/h8 radix:replay/cc/h8 fft:replay/aq10-160/h1",
          "water:replay/l10/h32 fft:replay/s9*/h2 water:replay/s100/h2 fft:replay/q3/h8/seed5"),
    # The ooo scoreboard against the scan-based model (ooo_host_times.json).
    *_grid("reference", [f"{w}:ooo" for w in ("barnes", "fft", "lu", "water")],
           ["cc", "q10", "s9", "su"], [1, 8]),
    *_lock("reference", LOCK_SCHEMES, model="ooo"),
    *_lock("reference", LOCK_SCHEMES, model="ooo", fastforward=True),
    *_pin("reference", "ocean:ooo/aq10-160/h2 radix:ooo/l10/h32 fft:ooo/s9*/h2 water:ooo/s100/h32"),
    # The host model's ready order (every lattice run checks it).
    *_grid("run", ["fft", "water"], SCHEMES, HOSTS),
    *_grid("run", ["sharing"], ["cc", "q10", "s9", "su"], [2]),
    *_pin("run", "water:ooo/s9/h2"),
    *_pin("faulted", "fft/cc/h2 fft/cc/h8"),
]))
