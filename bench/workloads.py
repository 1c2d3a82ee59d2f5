"""The seven benchmark workloads.

Every workload drives the simulator **from outside**, through public entry
points and default modes only (dynamic scheduling, predecoded dispatch,
batched stepping, sequential backend, one memory domain, no manifests), so a
later change can delete a mode without breaking the benchmark that judges
it.  ``--seed S`` feeds ``derive_seed(S, workload, scheme, hosts)`` for every
simulation seed, ``sharing_workload(seed=S)`` and the serve submission
order; the simulator only ever sees the generated specs.

A workload object lives in its own child process.  ``prepare`` is everything
before the first timed operation, on a fresh cache root; ``run_pass`` runs
the whole job list once and returns one :class:`JobResult` per job;
``after_timing`` holds work that follows the timed passes (the CLI loop of
``sweep-warm``, the direct re-runs of ``serve-mixed``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Ctx", "JobResult", "WORKLOADS", "Workload"]

BENCHMARKS = ("barnes", "fft", "lu", "water")
SWEEP_BENCHMARKS = ("fft", "water")
HOSTS = 8
SWEEP_POINTS = 16


@dataclass
class JobResult:
    """One attempted job: a simulation, a sweep point or a serve submission."""

    label: str
    ok: bool
    error: "str | None" = None
    cycles: int = 0
    insns: int = 0
    digest: str = ""
    stats: "dict | None" = None
    #: ``time.perf_counter()`` when the job began, and how long it took.
    started: float = 0.0
    wall_s: float = 0.0
    #: Status fields outside the stats dump (engine path, host_time, serve
    #: job view); a field that is absent stays absent.
    info: dict = field(default_factory=dict)

    @classmethod
    def failure(cls, label: str, exc: BaseException, started: float = 0.0) -> "JobResult":
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        wall_s = time.perf_counter() - started if started else 0.0
        return cls(label, False, error=detail, started=started, wall_s=wall_s)

    @classmethod
    def from_record(cls, label: str, record: dict, started: float = 0.0, **info) -> "JobResult":
        """A job-store record, or a sweep point document, as a result."""
        metrics = record.get("metrics", record)
        info.setdefault("engine", record.get("provenance", {}).get("engine"))
        info.setdefault("host_time", metrics.get("host_time"))
        completed = bool(record.get("completed"))
        return cls(
            label,
            completed,
            error=None if completed else "run did not complete",
            cycles=metrics["execution_cycles"],
            insns=metrics["instructions"],
            digest=record["stats_digest"],
            stats=record["stats"],
            started=started,
            wall_s=time.perf_counter() - started if started else 0.0,
            info=info,
        )


@dataclass
class Ctx:
    """What a workload needs to know about this run."""

    seed: int
    #: How long the timed part measures; also sizes the serve submission list.
    seconds: float
    quick: bool
    #: Keep sampling until ``seconds`` are up and repeat the set-up; off in
    #: ``--quick`` and in traced runs, which time one pass as a reference.
    repeat: bool
    #: Scratch directory inside the checkout; the parent removes it.
    work: Path
    nproc: int
    tracer: object = None
    _roots: int = 0

    @property
    def scale(self) -> str:
        return "tiny" if self.quick else "small"

    def fresh_root(self, tag: str) -> Path:
        """A new empty cache root, installed as ``REPRO_CACHE_DIR``."""
        self._roots += 1
        root = self.work / f"{tag}-{self._roots}"
        root.mkdir(parents=True)
        os.environ["REPRO_CACHE_DIR"] = str(root)
        return root

    def span(self, name: str, job: "str | None" = None):
        return self.tracer.span(name, job) if self.tracer is not None else nullcontext()

    @staticmethod
    def begin_job() -> float:
        """Start the clock of one job, from the same collector state every
        time: where in a job the cyclic collector runs then depends on the
        job alone, not on what its predecessors left behind."""
        gc.collect()
        return time.perf_counter()

    @staticmethod
    def subprocess_env(root: Path) -> dict:
        """This process's environment (``PYTHONPATH`` and no ``REPRO_*`` but
        the cache root: the runner saw to that) with *root* as cache root."""
        return {**os.environ, "REPRO_CACHE_DIR": str(root)}


class Workload:
    name = ""
    why = ""
    #: How often ``prepare`` runs; ``setup_s`` takes the median.
    setup_repeats = 3
    #: Tear down and prepare again before every further timed pass.
    fresh_each_pass = False
    #: Jobs run one after another and each carries its own wall time, so a
    #: pass can stop between jobs when the time is up.
    per_job_walls = False
    #: Processors the workload is confined to: one for work in this process
    #: (the interpreter lock lets it use no more), two for pools and daemons.
    cpus = 1
    #: The traced pass runs under cProfile (its work is in this process's main thread).
    profiled = True

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        """Run the job list once; with *deadline* (a ``perf_counter`` value)
        a workload with ``per_job_walls`` starts no job after it."""
        raise NotImplementedError

    def timed_seconds(self) -> float:
        return self.ctx.seconds

    def after_timing(self, results: "list[JobResult]") -> "tuple[dict, list[str]]":
        """Extra end-to-end samples and failure messages."""
        return {}, []

    def status_counts(self, results: "list[JobResult]") -> dict:
        """Counts that come from status fields rather than stats dumps."""
        engines = [r.info.get("engine") for r in results if r.ok]
        return {
            "jobs.store_hits": 0,
            "jobs.store_misses": 0,
            "jobs.replayed": sum(e == "replay" for e in engines),
        }

    def teardown(self) -> None:
        pass


# ------------------------------------------------------------ direct runs
def _label(workload: str, scheme: str, core_model: str = "inorder") -> str:
    return f"{workload}/{scheme}/h{HOSTS}/{core_model}"


class DirectWorkload(Workload):
    """Job specs run one after another through ``repro.jobs.execute``."""

    #: (benchmarks, schemes, core model) blocks of the job list.
    grid: tuple = ()
    per_job_walls = True

    def specs(self) -> list:
        from repro.experiments.parallel import derive_seed
        from repro.jobs import JobSpec

        return [
            (
                _label(bench, scheme, core_model),
                JobSpec(
                    workload=bench,
                    scale=self.ctx.scale,
                    scheme=scheme,
                    seed=derive_seed(self.ctx.seed, bench, scheme, HOSTS),
                    host_cores=HOSTS,
                    core_model=core_model,
                ),
            )
            for benches, schemes, core_model in self.grid
            for bench in benches
            for scheme in schemes
        ]

    def prepare(self) -> None:
        from repro.core.engine import SequentialEngine
        from repro.jobs import spec_program

        self.root = self.ctx.fresh_root(self.name)
        self.jobs = self.specs()
        self.programs = {}
        for _label_, spec in self.jobs:
            if (spec.workload, spec.core_model) in self.programs:
                continue
            # Cold compile, then load + predecode/timing-block warm-up: the
            # timed passes start from a warm on-disk cache, as a user's
            # second run does.
            workload = spec_program(spec)
            SequentialEngine(
                workload.program,
                target=spec.target_config(),
                host=spec.host_config(),
                sim=spec.sim_config(),
            )
            self.programs[spec.workload, spec.core_model] = workload

    def trace_for(self, spec) -> "str | None":
        return None

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        results = []
        for label, spec in self.jobs:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            results.append(self.run_job(label, spec))
        return results

    def run_job(self, label: str, spec) -> JobResult:
        import repro.jobs as jobs

        start = self.ctx.begin_job()
        try:
            with self.ctx.span("bench.job_s", job=label):
                outcome = jobs.execute(spec, store=None, trace=self.trace_for(spec))
        except Exception as exc:  # one job's failure (oracle mismatch, engine
            # error) is a counted failure, not the end of the run
            return JobResult.failure(label, exc, start)
        return JobResult.from_record(label, outcome.record, start)


class CcDirect(DirectWorkload):
    name = "cc-direct"
    why = (
        "barrier every cycle: window negotiation, manager polling and the "
        "virtual-host scheduler do most of the work, the core models little"
    )
    grid = ((BENCHMARKS, ("cc",), "inorder"),)


class SlackDirect(DirectWorkload):
    name = "slack-direct"
    why = (
        "synchronisation is rare: timing cores, L1 and predecoded dispatch do "
        "most of the work, engine and manager little"
    )
    grid = (
        (BENCHMARKS, ("s9", "s100", "su"), "inorder"),
        (("fft", "water"), ("s9",), "ooo"),
    )


class ReplaySlack(DirectWorkload):
    name = "replay-slack"
    why = (
        "slack-direct's in-order specs replayed from a capture: trace decode "
        "and ReplayCore replace the functional frontend"
    )
    grid = SlackDirect.grid[:1]
    # one capture per benchmark in every prepare
    setup_repeats = 2

    def prepare(self) -> None:
        from repro.core import SimConfig, run_simulation

        super().prepare()
        self.captures = {}
        for (bench, _model), workload in self.programs.items():
            path = self.root / f"{bench}.trace"
            result = run_simulation(
                workload.program,
                sim=SimConfig(
                    scheme="su",
                    seed=self.ctx.seed,
                    trace_mode="capture",
                    trace_path=str(path),
                    trace_source=json.dumps(
                        {"workload": bench, "scale": self.ctx.scale}, sort_keys=True
                    ),
                ),
            )
            if not result.completed:
                raise RuntimeError(f"trace capture of {bench} did not complete")
            self.captures[bench] = str(path)

    def trace_for(self, spec) -> str:
        return self.captures[spec.workload]

    def run_job(self, label: str, spec) -> JobResult:
        result = super().run_job(label, spec)
        if result.ok and result.info.get("engine") != "replay":
            result.ok, result.error = False, "served by a direct run, not by replay"
        return result


# ------------------------------------------------------------ mem-traffic
class MemTraffic(Workload):
    name = "mem-traffic"
    why = (
        "coherence-dense trace cores with no ISA frontend: memsys, manager "
        "drain/service and event queues carry the run (event-dense, where "
        "cc-direct is barrier-dense)"
    )
    schemes = ("q10", "s9", "su")
    per_job_walls = True

    def simulate(self, scheme: str, ops: int):
        from repro.core import TargetConfig, run_simulation
        from repro.experiments.parallel import derive_seed
        from repro.workloads.synthetic import sharing_workload

        return run_simulation(
            None,
            trace_cores=sharing_workload(
                HOSTS, ops, shared_fraction=0.8, write_fraction=0.5,
                think_cycles=0, shared_blocks=256, seed=self.ctx.seed,
            ),
            target=TargetConfig(num_cores=HOSTS, core_model="trace"),
            scheme=scheme,
            seed=derive_seed(self.ctx.seed, "sharing", scheme, HOSTS),
            host_cores=HOSTS,
        )

    def prepare(self) -> None:
        self.ctx.fresh_root(self.name)
        self.ops = 300 if self.ctx.quick else 3000
        self.simulate("su", 20)  # first-use set-up of the engine and numpy's generator

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        results = []
        for scheme in self.schemes:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            label = f"sharing/{scheme}/h{HOSTS}/trace"
            start = self.ctx.begin_job()
            try:
                with self.ctx.span("bench.job_s", job=label):
                    result = self.simulate(scheme, self.ops)
                    stats, digest = result.stats, result.stats_sha256
            except Exception as exc:  # counted, as in DirectWorkload.run_job
                results.append(JobResult.failure(label, exc, start))
                continue
            results.append(
                JobResult(
                    label,
                    result.completed,
                    error=None if result.completed else "run did not complete",
                    cycles=stats["target.execution_cycles"],
                    insns=stats["target.instructions"],
                    digest=digest,
                    stats=stats,
                    started=start,
                    wall_s=time.perf_counter() - start,
                    info={"engine": "direct"},
                )
            )
        return results


# ----------------------------------------------------------------- sweeps
class SweepCold(Workload):
    name = "sweep-cold"
    why = (
        "the user's cold sweep: compile, process pool, engine, stats dump, "
        "seal and store writes; source of timing_error_pct and modeled_speedup"
    )
    cpus = 2

    def prepare(self) -> None:
        self.pool = min(2, self.ctx.nproc)
        self.begin_pass()

    def begin_pass(self) -> None:
        self.telemetry: dict = {}
        #: How the pass's points were served, summed over its sweeps.
        self.served: dict = {"store_hits": 0, "store_misses": 0}

    def sweep(self, jobs: int) -> dict:
        import repro.experiments.parallel as parallel

        self.telemetry = {}
        doc = parallel.run_sweep(
            "figure8",
            scale=self.ctx.scale,
            base_seed=self.ctx.seed,
            jobs=jobs,
            benchmarks=SWEEP_BENCHMARKS,
            host_counts=(HOSTS,),
            telemetry=self.telemetry,
        )
        for key, total in self.served.items():
            got = self.telemetry.get(key)
            self.served[key] = None if None in (got, total) else total + got
        return doc

    def sweep_pass(self) -> "tuple[list[JobResult], dict | None]":
        start = self.ctx.begin_job()
        try:
            with self.ctx.span("bench.job_s", job="figure8"):
                # The traced pass runs in-process so the profiler sees the points.
                doc = self.sweep(1 if self.ctx.tracer is not None else self.pool)
        except Exception as exc:  # a failed sweep fails every one of its points
            return [JobResult.failure("figure8", exc, start)] * SWEEP_POINTS, None
        return [JobResult.from_record(key, point) for key, point in doc["points"].items()], doc

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        self.begin_pass()
        self.ctx.fresh_root(self.name)  # cold compile cache, empty result store
        return self.sweep_pass()[0]

    def status_counts(self, results) -> dict:
        return {
            "jobs.store_hits": self.served["store_hits"],
            "jobs.store_misses": self.served["store_misses"],
            "jobs.replayed": 0,
        }

    def after_timing(self, results) -> "tuple[dict, list[str]]":
        return simulated_metrics(results), []


def simulated_metrics(results: "list[JobResult]") -> dict:
    """The paper's pair on the sweep grid: Table 3 error beside Figure 8 speedup."""
    points = {r.label: r for r in results if r.ok}
    errors, inverse_speedups = [], []
    for bench in SWEEP_BENCHMARKS:
        try:
            cc1, cc8, s9 = (points[f"{bench}/{s}"] for s in ("cc/h1", f"cc/h{HOSTS}", f"s9/h{HOSTS}"))
        except KeyError:
            return {}
        errors.append(abs(s9.cycles - cc8.cycles) / cc8.cycles * 100.0)
        inverse_speedups.append(s9.info["host_time"] / cc1.info["host_time"])
    return {
        "timing_error_pct": sum(errors) / len(errors),
        "modeled_speedup": len(inverse_speedups) / sum(inverse_speedups),
    }


class SweepWarm(SweepCold):
    name = "sweep-warm"
    why = (
        "the same sweep answered from a warm store: key derivation, record "
        "load + seal check, grid build, merge, render and compile-cache load "
        "do all the work, the engine none"
    )
    # set-up is a whole cold sweep
    setup_repeats = 1
    #: Warm sweeps in one pass: long enough for the yardstick to see it.
    sweeps_per_pass = 10

    def prepare(self) -> None:
        import repro.experiments.parallel as parallel

        super().prepare()
        self.root = self.ctx.fresh_root(self.name)
        self.reference = parallel.sweep_to_json(self.sweep(self.pool))

    def timed_seconds(self) -> float:
        return 0.6 * self.ctx.seconds  # the CLI loop takes the rest

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        import repro.experiments.parallel as parallel

        self.begin_pass()
        every = []
        for _ in range(1 if self.ctx.quick else self.sweeps_per_pass):
            results, doc = self.sweep_pass()
            if doc is not None:
                problem = None
                if parallel.sweep_to_json(doc) != self.reference:
                    problem = "warm document differs from the cold document"
                elif self.telemetry.get("store_hits") != SWEEP_POINTS:
                    problem = (f"store_hits={self.telemetry.get('store_hits')}, "
                               f"expected {SWEEP_POINTS}")
                if problem:
                    results[0].ok, results[0].error = False, problem
            every += results
        return every

    def after_timing(self, results) -> "tuple[dict, list[str]]":
        from repro.experiments.parallel import derive_seed

        extra, failures = super().after_timing(results)
        command = [
            sys.executable, "-m", "repro.cli", "run", "--workload", "fft",
            "--scale", self.ctx.scale, "--scheme", "s9", "--host-cores", str(HOSTS),
            "--seed", str(derive_seed(self.ctx.seed, "fft", "s9", HOSTS)),
        ]
        env = self.ctx.subprocess_env(self.root)
        runs = []
        deadline = time.perf_counter() + 0.4 * self.ctx.seconds
        while not runs or (time.perf_counter() < deadline and self.ctx.repeat):
            start = time.perf_counter()
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
            runs.append((start, time.perf_counter()))
            if done.returncode != 0 or "served from result store" not in done.stdout:
                failures.append(f"cli warm run: exit {done.returncode}: {done.stderr[-200:]}")
        extra["cli_runs"] = runs
        return extra, failures


# ------------------------------------------------------------------ serve
class ServeMixed(Workload):
    name = "serve-mixed"
    why = (
        "short jobs through the daemon, closed loop with 2 clients: queue, "
        "lease, worker IPC, heartbeat, seal and HTTP polling are a large "
        "share of each round trip; resubmissions take the dedup path"
    )
    clients = 2
    workers = 2
    cpus = 2
    profiled = False  # client threads wait; the work is in the daemon's workers
    #: Fresh submissions per second of ``--seconds``: what two workers on two
    #: processors finish, so one pass fills the time (100 at 8 s).
    fresh_per_s = 12.5
    # a pass wants an empty store, so every pass gets a new daemon and root
    fresh_each_pass = True
    daemon = None

    def prepare(self) -> None:
        self.root = self.ctx.fresh_root(self.name)
        self.serve_dir = self.root / "serve"
        with self.ctx.span("serve.daemon_start_s"):
            self.log = open(self.root / "daemon.log", "w")
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--workers", str(self.workers)],
                env=self.ctx.subprocess_env(self.root),
                stdout=self.log,
                stderr=self.log,
            )
            endpoint = self.serve_dir / "endpoint.json"
            deadline = time.time() + 60
            while True:
                if self.daemon.poll() is not None:
                    raise RuntimeError(f"serve daemon exited with {self.daemon.returncode}")
                try:
                    if json.loads(endpoint.read_text()).get("pid") == self.daemon.pid:
                        break
                except (OSError, json.JSONDecodeError):
                    pass
                if time.time() > deadline:
                    raise RuntimeError("serve daemon never published its endpoint")
                time.sleep(0.01)

    def teardown(self) -> None:
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        if daemon.poll() is None:
            daemon.send_signal(signal.SIGTERM)  # graceful drain
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
        self.log.close()

    def submissions(self) -> list:
        """(label, spec, is_resubmission) in ``Random(seed)`` order.

        A resubmission names a spec first submitted at least six places
        earlier, so with two clients it has all but always finished.
        """
        from repro.experiments.parallel import derive_seed
        from repro.jobs import JobSpec

        fresh = 10 if self.ctx.quick else max(10, round(self.fresh_per_s * self.ctx.seconds))
        rng = random.Random(self.ctx.seed)
        kinds = [False] * (fresh - 8) + [True] * round(0.6 * fresh)
        rng.shuffle(kinds)
        schemes = ("s9", "su", "q10")
        order, submitted = [], []
        for resub in [False] * 8 + kinds:
            if resub:
                order.append((*submitted[rng.randrange(len(submitted) - 6)], True))
                continue
            i = len(submitted)
            bench = SWEEP_BENCHMARKS[i % 2]
            scheme = schemes[(i // 2) % 3]
            label = f"{bench}/{scheme}/h{HOSTS}/#{i}"
            spec = JobSpec(
                workload=bench, scale="tiny", scheme=scheme,
                seed=derive_seed(self.ctx.seed, f"{bench}#{i}", scheme, HOSTS),
                host_cores=HOSTS,
            )
            submitted.append((label, spec))
            order.append((label, spec, False))
        return order

    def run_pass(self, deadline: "float | None" = None) -> "list[JobResult]":
        from repro.jobs.spec import spec_to_dict
        from repro.serve.client import ServeClient

        queue = iter(self.submissions())
        lock = threading.Lock()
        results: list[JobResult] = []

        def client_loop() -> None:
            client = ServeClient(serve_dir=self.serve_dir)
            while True:
                with lock:
                    item = next(queue, None)
                if item is None:
                    return
                label, spec, resub = item
                start = time.perf_counter()
                submitted_unix = time.time()
                try:
                    with self.ctx.span("bench.job_s", job=label):
                        job = client.submit_and_wait(
                            spec_to_dict(spec), timeout=120.0, poll_interval=0.01
                        )
                        if job["state"] != "DONE":
                            raise RuntimeError(f"job ended {job['state']}: {job.get('error')}")
                        record = client.fetch(job["job_key"])
                except Exception as exc:  # FAILED/DEAD, timed out, refused past
                    # the deadline, daemon gone: a failed submission
                    result = JobResult.failure(label, exc, start)
                else:
                    provenance = record.get("provenance", {})
                    created = provenance.get("created_unix")
                    result = JobResult.from_record(
                        label, record, start,
                        resub=resub,
                        # answered from the store: the record predates the submission
                        hit=created is not None and created < submitted_unix,
                        exec_s=provenance.get("wall_time_s"),
                        attempts=job.get("attempts"),
                        spec=spec,
                    )
                with lock:
                    results.append(result)

        threads = [threading.Thread(target=client_loop) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            self.status = ServeClient(serve_dir=self.serve_dir).status()
        except Exception:  # status is telemetry: a dead daemon already failed the jobs
            self.status = {}
        return results

    def status_counts(self, results) -> dict:
        done = [r for r in results if r.ok]
        attempts = [r.info.get("attempts") for r in done if not r.info["hit"]]
        return {
            "jobs.store_hits": sum(r.info["hit"] for r in done),
            "jobs.store_misses": sum(not r.info["hit"] for r in done),
            "jobs.replayed": sum(r.info.get("engine") == "replay" for r in done),
            "serve.attempts": None if None in attempts else sum(attempts),
            "serve.requeued": self.status.get("telemetry", {}).get("requeued"),
        }

    def after_timing(self, results) -> "tuple[dict, list[str]]":
        """Five served records re-run directly and compared."""
        import repro.jobs as jobs

        fresh = [r for r in results if r.ok and not r.info["hit"]]
        failures = []
        self.ctx.fresh_root("serve-verify")
        for served in fresh[:: max(1, len(fresh) // 5)][:5]:
            direct = jobs.execute(served.info["spec"], store=None, trace=None)
            if direct.record["stats_digest"] != served.digest:
                failures.append(f"{served.label}: served digest differs from a direct run")
        return {}, failures


WORKLOADS = {
    cls.name: cls
    for cls in (CcDirect, SlackDirect, MemTraffic, ReplaySlack, SweepCold, SweepWarm, ServeMixed)
}
