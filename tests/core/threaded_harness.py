"""Threaded engine (test harness): the paper's actual Pthreads structure.

Lives under ``tests/`` because nothing in ``src/`` runs it: its job is to
prove the queue/clock protocol under genuine preemption, which is a test's
job (DESIGN.md §2).

One real :class:`threading.Thread` per target core plus one manager thread,
communicating through the same CoreThread/Manager objects as the sequential
engine, paced by the same ``local``/``max_local``/``global`` protocol with a
condition variable standing in for the paper's futex sleep/wake.

**What this engine is for** (DESIGN.md §2): CPython's GIL serialises the
threads, so *wall-clock speedup is not expected* — that is exactly the
repro gate this project works around with the virtual host.  The threaded
engine exists to prove the concurrent algorithm itself: no lost events, no
deadlock, functional outputs equal to the sequential engine's, and the clock
invariant holding under genuine preemption.  Timing results are
nondeterministic and reported as real wall-clock.

Concurrency protocol:

* per-core InQs are wrapped in a lock (manager pushes, core pops);
* OutQ is single-producer/single-consumer lock-free (atomic ``popleft``);
* the system-emulation layer (Table 1 API, spawn/join, heap, output) is
  serialised by one *emulation lock* — the paper emulates these "outside the
  simulator", which is what makes this sound;
* ``local_time``/``max_local_time`` are plain ints (atomic loads/stores
  under the GIL); window sleeps use a shared Condition.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback

from repro.core.corethread import CoreState
from repro.core.engine import EngineError, SequentialEngine
from repro.core.events import Event
from repro.core.queues import InQ
from repro.core.results import SimulationResult
from repro.host.costmodel import HOST_UNIT_SECONDS

__all__ = ["HOST_TIMEOUT", "SimulationHungError", "ThreadedEngine"]

#: Default watchdog window: wall seconds without simulation progress before
#: a run aborts with :class:`SimulationHungError`.
HOST_TIMEOUT = 120.0


class SimulationHungError(EngineError):
    """The threaded run made no simulation progress for the watchdog window.

    Structured for post-mortems: carries the clock protocol's state at the
    moment of the abort (global time plus every core's ``local`` /
    ``max_local`` window position) and a per-thread Python stack dump, so a
    hang is attributable — a core asleep on its window edge, a manager stuck
    in GQ service, a lost wake — without re-running under a debugger.
    """

    def __init__(
        self,
        timeout: float,
        global_time: int,
        core_clocks: list[dict],
        stacks: str,
    ) -> None:
        self.timeout = timeout
        self.global_time = global_time
        #: One entry per core: core, state, local, max_local, inq, outq.
        self.core_clocks = core_clocks
        #: Formatted ``sys._current_frames()`` dump of the engine's threads.
        self.stacks = stacks
        lines = [
            f"threaded run made no progress for {timeout:.1f}s "
            f"(global_time={global_time}):"
        ]
        for entry in core_clocks:
            lines.append(
                "  core {core}: state={state} local={local} "
                "max_local={max_local} inq={inq} outq={outq}".format(**entry)
            )
        lines.append("thread stacks at abort:")
        lines.append(stacks)
        super().__init__("\n".join(lines))


class _LockedInQ:
    """Thread-safe wrapper over an InQ (manager producer, core consumer)."""

    def __init__(self, inner: InQ) -> None:
        self._inner = inner
        self._lock = threading.Lock()

    def push(self, event: Event) -> None:
        with self._lock:
            self._inner.push(event)

    def pop_due(self, now: int):
        with self._lock:
            return self._inner.pop_due(now)

    def peek_ts(self):
        with self._lock:
            return self._inner.peek_ts()

    def __len__(self) -> int:
        with self._lock:
            return len(self._inner)


class ThreadedEngine(SequentialEngine):
    """Run the simulation on real Python threads (Pthreads analogue)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._window_cond = threading.Condition()
        self._emu_lock = threading.RLock()
        self._stop = threading.Event()
        self._error: BaseException | None = None
        # Thread-safe InQs.
        for ct in self.cores:
            ct.inq = _LockedInQ(ct.inq)  # type: ignore[assignment]
        # Serialise the emulation layer (syscalls can run concurrently).
        if self.system is not None:
            inner_syscall = self.system.syscall

            def locked_syscall(core, state, ts, _inner=inner_syscall):
                with self._emu_lock:
                    return _inner(core, state, ts)

            self.system.syscall = locked_syscall  # type: ignore[method-assign]

    # ------------------------------------------------------------ activation
    def _activate_context(self, core: int, pc: int, arg: int, ts: int) -> None:
        super()._activate_context(core, pc, arg, ts)
        with self._window_cond:
            self._window_cond.notify_all()

    # --------------------------------------------------------------- threads
    def _core_thread_body(self, idx: int) -> None:
        ct = self.cores[idx]
        try:
            while not self._stop.is_set():
                if ct.state != CoreState.ACTIVE:
                    with self._window_cond:
                        self._window_cond.wait(timeout=0.005)
                    continue
                if ct.local_time >= ct.max_local_time:
                    # Window edge: sleep until the manager slides the window.
                    with self._window_cond:
                        if ct.local_time >= ct.max_local_time:
                            self._window_cond.wait(timeout=0.005)
                    continue
                # Turn budget: the window remainder, capped so the thread
                # re-checks the stop flag regularly (su's window is infinite).
                budget = ct.max_local_time - ct.local_time
                if budget > 4096:
                    budget = 4096
                if self.sim.batch_cycles and self.sim.batch_cycles < budget:
                    budget = self.sim.batch_cycles
                stats = ct.run(budget)
                if stats.wakes:
                    with self._emu_lock:
                        for core_id, release_ts in stats.wakes:
                            self.cores[core_id].model.release(release_ts)
                with self._emu_lock:
                    self.total_committed += stats.committed
        except BaseException as exc:  # pragma: no cover - surfaced in run()
            self._error = exc
            self._stop.set()

    def _manager_thread_body(self) -> None:
        try:
            while not self._stop.is_set():
                result = self.manager.step()
                if result.raised:
                    with self._window_cond:
                        self._window_cond.notify_all()
                if self._all_done():
                    self._stop.set()
                    with self._window_cond:
                        self._window_cond.notify_all()
                    return
                if result.work == 0:
                    time.sleep(0)  # yield the GIL while polling
        except BaseException as exc:  # pragma: no cover
            self._error = exc
            self._stop.set()

    # -------------------------------------------------------------- watchdog
    def _progress_marker(self) -> tuple:
        """A value that changes iff the simulation advanced.

        Global time alone is not enough — a run-ahead core makes real
        progress while global time waits on a straggler — so local clocks
        and the commit counter are folded in.
        """
        return (
            self.manager.global_time,
            self.total_committed,
            sum(ct.local_time for ct in self.cores),
        )

    def _dump_stacks(self, threads: list[threading.Thread]) -> str:
        """Format the Python stack of every engine thread still alive."""
        frames = sys._current_frames()
        lines: list[str] = []
        for t in threads:
            frame = frames.get(t.ident) if t.ident is not None else None
            lines.append(f"--- {t.name} ({'alive' if t.is_alive() else 'dead'}) ---")
            if frame is None:
                lines.append("  (no frame)")
            else:
                lines.extend(
                    "  " + ln
                    for entry in traceback.format_stack(frame)
                    for ln in entry.rstrip().splitlines()
                )
        return "\n".join(lines)

    def _hung_error(self, timeout: float, threads: list[threading.Thread]) -> SimulationHungError:
        core_clocks = [
            {
                "core": ct.core_id,
                "state": ct.state.value if hasattr(ct.state, "value") else str(ct.state),
                "local": ct.local_time,
                "max_local": ct.max_local_time,
                "inq": len(ct.inq),
                "outq": len(ct.outq),
            }
            for ct in self.cores
        ]
        return SimulationHungError(
            timeout, self.manager.global_time, core_clocks, self._dump_stacks(threads)
        )

    # ------------------------------------------------------------------- run
    def run(self, timeout: float = HOST_TIMEOUT) -> SimulationResult:
        """Run to completion on real threads; returns a SimulationResult
        whose host_time is measured wall-clock (GIL-bound, nondeterministic).

        *timeout* is the **watchdog window**: the run aborts with
        :class:`SimulationHungError` only after that many seconds with *no
        simulation progress* — total wall time is unbounded while clocks
        advance, so slow machines don't kill healthy long runs.
        """
        if self.system is not None:
            # Bound for the run, as the sequential run() does.
            self.system.activate_context = self._activate_context
        threads = [
            threading.Thread(target=self._core_thread_body, args=(i,), name=f"core-{i}", daemon=True)
            for i in range(len(self.cores))
        ]
        manager = threading.Thread(target=self._manager_thread_body, name="manager", daemon=True)
        start = time.perf_counter()
        for t in threads:
            t.start()
        manager.start()
        # Progress-based watchdog: poll in short joins; reset the deadline
        # whenever any clock moved, abort (with stacks) when none did for a
        # full window.
        poll = min(0.2, timeout / 4) if timeout > 0 else 0.2
        last_marker = self._progress_marker()
        deadline = time.perf_counter() + timeout
        while True:
            manager.join(poll)
            if not manager.is_alive():
                break
            marker = self._progress_marker()
            if marker != last_marker:
                last_marker = marker
                deadline = time.perf_counter() + timeout
            elif time.perf_counter() >= deadline:
                error = self._hung_error(timeout, [manager, *threads])
                self._stop.set()
                with self._window_cond:
                    self._window_cond.notify_all()
                raise error
        for t in threads:
            t.join(5.0)
        if self._error is not None:
            raise self._error
        wall = time.perf_counter() - start
        self.manager.check_invariants()
        result = self._build_result(completed=True)
        # Report measured wall time in host units for comparability.
        result.host_time = wall / HOST_UNIT_SECONDS
        result.host_busy = result.host_time
        return result
