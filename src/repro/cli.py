"""Command-line interface: ``slacksim`` (or ``python -m repro``).

Subcommands::

    slacksim run --workload fft --scheme s9 --host-cores 8
    slacksim run --workload fft --stats-out run.stats.json --stats-interval 5000
    slacksim run --workload fft --capture-trace fft.trace
    slacksim run --workload fft --scheme s9 --replay-trace fft.trace
    slacksim compile program.sl [--run]
    slacksim figure2
    slacksim figure8 | table2 | table3 [--jobs 8]     (the paper's tables)
    slacksim sweep figure8 --jobs 4 --out figure8.json (any experiment, as JSON)
    slacksim bench --workload fft --profile
    slacksim stats show run.stats.json
    slacksim stats diff a.stats.json b.stats.json
    slacksim trace info fft.trace
    slacksim cache ls | info <key> | verify | gc | clear
    slacksim serve --workers 4
    slacksim submit --workload fft --scheme s9 --wait
    slacksim jobs ls | info <key> | retry <key> | cancel <key> | status | drain
    slacksim schemes

``run``, ``sweep``, ``bench`` and the figure/table commands all resolve
through the content-addressed job layer (DESIGN.md §12): a request whose
sealed record already sits in ``.repro_cache/results/`` is served from the
store without simulating, byte-identically to a fresh run.
"""

from __future__ import annotations

import argparse
import sys

from repro._util import atomic_write_text
from repro.core import run_simulation
from repro.core.config import HostConfig, SimConfig, TargetConfig
from repro.core.engine import EngineError
from repro.experiments.parallel import SWEEP_EXPERIMENTS
from repro.trace import TraceError
from repro.workloads.registry import WORKLOADS

__all__ = ["main"]

_SCALES = ("tiny", "small", "paper")
_CORE_MODELS = ("inorder", "ooo")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.restore:
        # Resume a checkpointed run.  The engine (config, program image,
        # clocks, queues) travels inside the checkpoint; the original
        # workload oracle does not, so output verification is skipped here —
        # restore *equivalence* is pinned by tests/core/test_checkpoint.py.
        from repro.core.checkpoint import CheckpointError, load_checkpoint

        try:
            engine = load_checkpoint(args.restore)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = engine.run()
        print(result.summary())
        print(f"resumed from {args.restore}: completed={result.completed}")
        if args.stats_out:
            text = result.dump_csv() if args.stats_format == "csv" else result.dump_json()
            atomic_write_text(args.stats_out, text)
            print(f"stats ({args.stats_format}) -> {args.stats_out}")
        return 0

    if args.capture_trace and args.replay_trace:
        print("--capture-trace and --replay-trace are mutually exclusive", file=sys.stderr)
        return 2
    if args.capture_trace or args.faults or args.checkpoint or args.checkpoint_interval:
        # Side-effecting runs (a capture file, a checkpoint stream) and
        # fault-injected runs stay on the direct engine path: their point is
        # the side effect / perturbation, not a memoisable result.
        return _run_direct(args)

    from repro.jobs import JobSpec, ResultStore, execute, record_summary
    from repro.stats.registry import dump_to_csv

    spec = JobSpec.build(
        args.workload,
        args.scale,
        scheme=args.scheme,
        seed=args.seed,
        host_cores=args.host_cores,
        core_model=args.core_model,
        fastforward=args.fastforward,
        stats_interval=args.stats_interval,
    )
    try:
        # --replay-trace is a tool, not a way to fill the store: execute()
        # then neither reads nor writes it.
        outcome = execute(spec, store=ResultStore.default(), trace=args.replay_trace)
    except AssertionError as exc:
        print("OUTPUT MISMATCH:")
        print(f"  {exc}")
        return 1
    except EngineError as exc:
        if not args.replay_trace:
            raise
        # The named capture cannot serve this run (core model, core count,
        # another program): a bad argument, and no record was written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = outcome.record
    print(record_summary(record))
    if outcome.hit:
        print(f"served from result store ({outcome.key[:16]}…)")
    if args.replay_trace:
        print(f"replayed from {args.replay_trace} (functional cores not re-executed)")
    if args.stats_out:
        text = (
            dump_to_csv(record["stats"])
            if args.stats_format == "csv"
            else record["stats_dump"]
        )
        atomic_write_text(args.stats_out, text)
        print(f"stats ({args.stats_format}) -> {args.stats_out}")
    print(
        "output verified against the numpy oracle "
        f"({record['metrics']['output_len']} values)"
    )
    if args.verbose:
        for core in record["cores"]:
            ipc = core["committed"] / core["cycles"] if core["cycles"] else 0.0
            print(
                f"  core {core['core']}: {core['committed']} instr / {core['cycles']} cyc "
                f"(IPC {ipc:.2f}), L1 misses {core['l1_misses']}/{core['l1_accesses']}"
            )
    return 0


def _run_direct(args: argparse.Namespace) -> int:
    """The non-job-addressable ``run`` path: captures, checkpoints, faults."""
    from repro.workloads import make_workload

    trace_mode = "off"
    trace_path = None
    trace_source = None
    if args.capture_trace:
        import json

        trace_mode, trace_path = "capture", args.capture_trace
        trace_source = json.dumps({"workload": args.workload, "scale": args.scale})

    workload = make_workload(args.workload, scale=args.scale)
    result = run_simulation(
        workload.program,
        target=TargetConfig(core_model=args.core_model),
        host=HostConfig(num_cores=args.host_cores),
        sim=SimConfig(
            scheme=args.scheme,
            seed=args.seed,
            fastforward=args.fastforward,
            stats_interval=args.stats_interval,
            fault_plan=args.faults,
            checkpoint_interval=args.checkpoint_interval,
            checkpoint_path=args.checkpoint,
            trace_mode=trace_mode,
            trace_path=trace_path,
            trace_source=trace_source,
        ),
    )
    print(result.summary())
    if args.capture_trace:
        print(f"trace captured -> {args.capture_trace}")
    if args.faults:
        print(f"faults injected: {result.stats.get('faults.injected', 0)} "
              f"(plan: {args.faults})")
    if args.stats_out:
        text = result.dump_csv() if args.stats_format == "csv" else result.dump_json()
        atomic_write_text(args.stats_out, text)
        print(f"stats ({args.stats_format}) -> {args.stats_out}")
    problems = workload.mismatches(result.output)
    if problems:
        print("OUTPUT MISMATCH:")
        for p in problems:
            print("  " + p)
        return 1
    print(f"output verified against the numpy oracle ({len(result.output)} values)")
    if args.verbose:
        for core in result.cores:
            print(
                f"  core {core.core_id}: {core.committed} instr / {core.cycles} cyc "
                f"(IPC {core.ipc:.2f}), L1 misses {core.l1_misses}/{core.l1_accesses}"
            )
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.lang import compile_source

    try:
        with open(args.file) as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc.strerror}", file=sys.stderr)
        return 2
    compiled = compile_source(source, name=args.file)
    if args.asm:
        print(compiled.asm)
    else:
        print(compiled.program.listing())
    if args.run:
        from repro.cpu.interp import run_functional

        result = run_functional(compiled.program)
        print(f"# functional run: exit={result.exit_code}, {result.instructions} instructions")
        for value in result.output:
            print(value)
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments import render_figure2, run_figure2

    # Four scripted cores: no workload, no jobs, nothing to sweep.
    print(render_figure2(run_figure2()))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``sweep <name>`` (the JSON document) and ``figure8 | table2 | table3``
    (that document rendered as the paper's table): one sweep either way."""
    from repro import experiments
    from repro.experiments.parallel import run_sweep, sweep_to_json

    telemetry: dict = {}
    payload = run_sweep(
        args.experiment, jobs=args.jobs, scale=args.scale, base_seed=args.seed,
        max_retries=args.max_retries, telemetry=telemetry,
    )
    if args.command == "sweep":
        text = sweep_to_json(payload)
    else:
        text = getattr(experiments, f"render_{args.experiment}")(payload) + "\n"
    # Telemetry goes to stderr: how points were served (store hit vs run)
    # must never leak into the byte-stable sweep document.
    print(
        f"sweep {args.experiment}: store_hits={telemetry.get('store_hits', 0)} "
        f"store_misses={telemetry.get('store_misses', 0)}",
        file=sys.stderr,
    )
    if args.out:
        atomic_write_text(args.out, text)
        print(f"{args.experiment}: {len(payload['points'])} points -> {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.cpu.interp import run_functional
    from repro.workloads import make_workload

    program = make_workload(args.workload, scale=args.scale, nthreads=1).program
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = run_functional(program, dispatch=args.dispatch)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    else:
        t0 = time.perf_counter()
        result = run_functional(program, dispatch=args.dispatch)
        wall = time.perf_counter() - t0
        kips = result.instructions / wall / 1000.0 if wall else 0.0
        print(
            f"{args.workload} ({args.scale}, {args.dispatch}): "
            f"{result.instructions} instructions in {wall:.3f}s = {kips:.1f} KIPS"
        )
    if result.exit_code not in (0, None):
        print(f"warning: workload exited with code {result.exit_code}")
        return 1
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.stats.registry import diff_dumps, load_dump, load_dump_with_digest, render_dump

    if args.action == "show":
        stats = load_dump(args.files[0])
        print(render_dump(stats, title=f"stats: {args.files[0]}"))
        return 0
    # diff
    if len(args.files) != 2:
        print("stats diff needs exactly two dump files", file=sys.stderr)
        return 2
    (a, digest_a), (b, digest_b) = (load_dump_with_digest(f) for f in args.files)
    lines = diff_dumps(a, b)
    # The recorded digest is the behavioural fingerprint; the flat stats can
    # compare clean while the digests disagree (the digest canonicalises a
    # different line set than the dump renders).  A digest mismatch must
    # fail the diff even when no stat line differs.
    digest_mismatch = (
        digest_a is not None and digest_b is not None and digest_a != digest_b
    )
    if digest_mismatch:
        print(f"~ digest: {digest_a} -> {digest_b}")
    if not lines and not digest_mismatch:
        print(f"identical ({len(a)} stats)")
        return 0
    for line in lines:
        print(line)
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace import trace_info

    try:
        print(trace_info(args.file))
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.jobs import ResultStore
    from repro.lang.compiler import cache_dir

    store = ResultStore.default()
    if store is None:
        print("result store disabled (REPRO_CACHE_DIR is empty)", file=sys.stderr)
        return 2
    # The other half of the cache root: compiled programs, one pickle per
    # (source, toolchain) — a toolchain edit orphans every one of them.
    programs = sorted(cache_dir().glob("*.pkl"))

    if args.action == "ls":
        entries = store.entries()
        for key, record in entries:
            if record is None:
                print(f"{key[:16]}  INVALID")
                continue
            spec = record["spec"]
            wl = spec["workload"]
            what = f"{wl['name']}/{wl['scale']}"
            if spec["mode"] != "timing":
                # An older `repro bench` wrote it; no job derives this key.
                print(f"{key[:16]}  {what}  [{spec['mode']}: unreachable, gc drops it]")
                continue
            engine = record.get("provenance", {}).get("engine", "?")
            print(
                f"{key[:16]}  {what} {spec['sim']['scheme']} "
                f"h{spec['host']['num_cores']} seed={spec['sim']['seed']}  [{engine}]"
            )
        print(f"{len(entries)} record(s) in {store.root}")
        print(f"{len(programs)} compiled program(s) in {cache_dir()}")
        return 0

    if args.action == "info":
        if not args.key:
            print("cache info needs a job key (or unique prefix)", file=sys.stderr)
            return 2
        matches = [k for k in store.keys() if k.startswith(args.key)]
        if len(matches) != 1:
            print(
                f"key prefix {args.key!r} matches {len(matches)} record(s)",
                file=sys.stderr,
            )
            return 1
        record = store.load(matches[0])
        if record is None:
            print(f"record {matches[0]} is invalid (failed its seal)", file=sys.stderr)
            return 1
        # The verbatim stats document is bulky and reproducible from
        # "stats"; elide it from the human view.
        view = {k: v for k, v in record.items() if k != "stats_dump"}
        print(json.dumps(view, indent=2, sort_keys=True))
        return 0

    if args.action == "verify":
        report = store.verify()
        for key in report["corrupt"]:
            print(f"{key[:16]}  CORRUPT -> quarantined")
        for key in report["stale"]:
            print(f"{key[:16]}  stale format (plain miss)")
        print(
            f"checked {report['checked']} record(s): {len(report['ok'])} ok, "
            f"{len(report['stale'])} stale, {len(report['corrupt'])} corrupt; "
            f"{len(report['quarantined'])} quarantined file(s) on disk"
        )
        return 1 if report["corrupt"] else 0

    if args.action == "gc":
        from repro.lang.compiler import toolchain_fingerprint

        dropped = store.gc(
            toolchain=toolchain_fingerprint(), dry_run=args.dry_run
        )
        verb = "would drop" if args.dry_run else "dropped"
        for key in dropped:
            print(f"{verb} {key[:16]}")
        print(f"{verb} {len(dropped)} record(s) (invalid, or no key derives to them any more)")
        return 0

    # clear
    records, quarantined = store.clear()
    print(
        f"removed {records} record(s) and {quarantined} quarantined file(s) "
        f"from {store.root}"
    )
    for path in programs:
        path.unlink(missing_ok=True)
    print(f"removed {len(programs)} compiled program(s) from {cache_dir()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import ServeDaemon, endpoint_path

    daemon = ServeDaemon(
        serve_dir=args.serve_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_depth=args.max_depth,
        max_retries=args.max_retries,
        lease_ttl=args.lease_ttl,
        job_timeout=args.job_timeout,
        hang_timeout=args.hang_timeout,
        drain_timeout=args.drain_timeout,
        seed=args.seed,
        verbose=args.verbose,
    )
    daemon.install_signal_handlers()
    print(
        f"serve: http://{daemon.host}:{daemon.port} "
        f"({args.workers} worker(s), queue depth {args.max_depth}) — "
        f"endpoint published to {endpoint_path(daemon.serve_dir)}",
        flush=True,
    )
    if daemon.recovered:
        print(
            f"serve: recovered {len(daemon.recovered)} orphaned job(s) "
            "from the previous incarnation",
            flush=True,
        )
    daemon.serve_forever()
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """The submission wire payload for the common run knobs."""
    from repro.jobs import JobSpec
    from repro.jobs.spec import spec_to_dict

    return spec_to_dict(
        JobSpec.build(
            args.workload,
            args.scale,
            scheme=args.scheme,
            seed=args.seed,
            host_cores=args.host_cores,
            core_model=args.core_model,
            fastforward=args.fastforward,
        )
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.jobs import record_summary
    from repro.serve.client import ServeClient, ServeError, ServeRejected

    try:
        client = ServeClient(serve_dir=args.serve_dir)
        if not args.wait:
            outcome = client.submit(_submit_spec(args))
            suffix = " (attached)" if not outcome.get("created") else ""
            print(f"{outcome['job_key']}  {outcome['state']}{suffix}")
            return 0
        job = client.submit_and_wait(_submit_spec(args), timeout=args.timeout)
        if job["state"] == "DONE":
            print(record_summary(client.fetch(job["job_key"])))
            print(f"{job['job_key'][:16]}  DONE (attempts={job['attempts']})")
            return 0
        print(
            f"{job['job_key'][:16]}  {job['state']}: {job.get('error')}",
            file=sys.stderr,
        )
        return 1
    except ServeRejected as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 1
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import ServeClient, ServeError

    try:
        client = ServeClient(serve_dir=args.serve_dir)
        if args.action == "ls":
            jobs = client.jobs()
            for job in jobs:
                spec = job.get("spec") or {}
                what = f"{spec.get('workload')}/{spec.get('scale')} {spec.get('scheme')}"
                line = (
                    f"{job['job_key'][:16]}  {job['state']:7s} "
                    f"attempts={job['attempts']}  {what}"
                )
                if job.get("error"):
                    line += f"  [{job['error'].splitlines()[0][:60]}]"
                print(line)
            print(f"{len(jobs)} job(s)")
            return 0
        if args.action == "status":
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.action == "drain":
            client.drain()
            print("drain requested")
            return 0
        if not args.key:
            print(f"jobs {args.action} needs a job key", file=sys.stderr)
            return 2
        if args.action == "info":
            print(json.dumps(client.poll(args.key), indent=2, sort_keys=True))
            return 0
        if args.action == "retry":
            job = client.retry(args.key)
            print(f"{job['job_key'][:16]}  {job['state']} (budget re-armed)")
            return 0
        # cancel
        outcome = client.cancel(args.key)
        print(f"{outcome['job_key'][:16]}  {outcome['state']}")
        return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.core.schemes import parse_scheme

    for spec in ("cc", "q10", "l10", "s9", "s9*", "s100", "su"):
        print(f"  {spec:5s} {parse_scheme(spec).describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slacksim",
        description="SlackSim reproduction: slack-based parallel CMP simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a registered workload")
    run.add_argument("--workload", default="fft", help=" | ".join(sorted(WORKLOADS)))
    run.add_argument("--scheme", default="cc", help="cc | qN | lN | sN | sN* | su")
    run.add_argument("--host-cores", type=int, default=8)
    run.add_argument("--scale", default="tiny", choices=_SCALES)
    run.add_argument("--core-model", default="inorder", choices=_CORE_MODELS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--fastforward", action="store_true")
    run.add_argument("--verbose", "-v", action="store_true")
    run.add_argument("--stats-out", help="write the run's stats registry dump here")
    run.add_argument("--stats-format", default="json", choices=("json", "csv"),
                     help="dump format for --stats-out (default json)")
    run.add_argument("--stats-interval", type=int, default=0,
                     help="snapshot the registry every N target cycles (0: off)")
    run.add_argument("--faults", default=None, metavar="PLAN",
                     help="fault-injection plan, e.g. "
                     "'overrun_window:core=2,at=500,extra=256;corrupt_dir:at=800'")
    run.add_argument("--checkpoint-interval", type=int, default=0, metavar="N",
                     help="checkpoint every N target cycles of global time "
                     "(0: off; requires --checkpoint)")
    run.add_argument("--checkpoint", metavar="PATH",
                     help="checkpoint file (atomically replaced each interval)")
    run.add_argument("--restore", metavar="PATH",
                     help="resume a checkpointed run (other run options are "
                     "taken from the checkpoint)")
    run.add_argument("--capture-trace", metavar="PATH",
                     help="record the committed-op stream at the timing-core "
                     "-> memory seam into PATH (scheme-invariant; one capture "
                     "serves every later --replay-trace run)")
    run.add_argument("--replay-trace", metavar="PATH",
                     help="re-simulate a captured trace under this run's "
                     "scheme/window/memory config without re-executing the "
                     "functional cores (stats digest is byte-identical to "
                     "the equivalent direct run; printed output values are "
                     "the capture run's, so the result store is neither read "
                     "nor written)")
    run.set_defaults(func=_cmd_run)

    comp = sub.add_parser("compile", help="compile a Slang source file")
    comp.add_argument("file")
    comp.add_argument("--asm", action="store_true", help="print generated assembly")
    comp.add_argument("--run", action="store_true", help="run functionally after compiling")
    comp.set_defaults(func=_cmd_compile)

    fig2 = sub.add_parser("figure2", help="regenerate scheme anatomy (paper Figure 2)")
    fig2.add_argument("--scale", choices=_SCALES, help="ignored: the cores are scripted")
    fig2.set_defaults(func=_cmd_figure2)

    def experiment_parser(name: str, help: str) -> argparse.ArgumentParser:
        exp = sub.add_parser(name, help=help)
        exp.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the point grid (default 1: serial)")
        exp.add_argument("--out", help="write the output here instead of stdout")
        exp.add_argument("--scale", choices=_SCALES)
        exp.add_argument("--seed", type=int, default=1)
        exp.add_argument("--max-retries", type=int, default=2,
                         help="extra attempts per point after a worker crash "
                         "(default 2; point errors never retry)")
        exp.set_defaults(func=_cmd_experiment)
        return exp

    for name, help_text in (
        ("figure8", "speedup grid (paper Figure 8)"),
        ("table2", "benchmarks + baseline KIPS (paper Table 2)"),
        ("table3", "slack errors (paper Table 3)"),
    ):
        experiment_parser(name, f"regenerate {help_text}").set_defaults(experiment=name)
    names = " | ".join(SWEEP_EXPERIMENTS)
    experiment_parser("sweep", f"experiment sweep as JSON ({names})").add_argument(
        "experiment", help=names
    )

    bench = sub.add_parser("bench", help="functional KIPS measurement of one workload")
    bench.add_argument("--workload", default="fft")
    bench.add_argument("--scale", default="tiny", choices=_SCALES)
    bench.add_argument("--dispatch", default="predecoded", choices=("predecoded", "oracle"))
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top 20 by cumulative time")
    bench.set_defaults(func=_cmd_bench)

    stats = sub.add_parser("stats", help="render or diff stats registry dumps")
    stats.add_argument("action", choices=("show", "diff"),
                       help="show one dump as a table, or diff two dumps")
    stats.add_argument("files", nargs="+", help="stats JSON dump file(s)")
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser("trace", help="inspect captured trace files")
    trace.add_argument("action", choices=("info",),
                       help="print a trace's header, op counts, source and sha256")
    trace.add_argument("file", help="trace file (written by run --capture-trace)")
    trace.set_defaults(func=_cmd_trace)

    cache = sub.add_parser(
        "cache", help="inspect / maintain the content-addressed result store"
    )
    cache.add_argument(
        "action", choices=("ls", "info", "verify", "gc", "clear"),
        help="ls: list records; info: print one record (by key prefix); "
        "verify: scan store integrity, quarantining corrupt entries; "
        "gc: drop invalid and unreachable (stale-toolchain) records; "
        "clear: drop every record and compiled program",
    )
    cache.add_argument("key", nargs="?", help="job key (or unique prefix) for info")
    cache.add_argument("--dry-run", action="store_true",
                       help="gc: report what would be dropped without deleting")
    cache.set_defaults(func=_cmd_cache)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant simulation service (durable job queue "
        "+ supervised worker pool over the job layer)",
    )
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes in the pool (default 2)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default 0: an ephemeral port, "
                       "published to the endpoint file)")
    serve.add_argument("--serve-dir", metavar="DIR",
                       help="durable state directory (queue, worker stderr, "
                       "endpoint); default <cache root>/serve")
    serve.add_argument("--max-depth", type=int, default=64,
                       help="open-job admission limit; submits beyond it get "
                       "429 + Retry-After (default 64)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="worker-crash retries per job before the "
                       "dead-letter state (default 2; job errors never retry)")
    serve.add_argument("--lease-ttl", type=float, default=30.0,
                       help="seconds a worker lease lives without renewal "
                       "(default 30; the crash-safety net across restarts)")
    serve.add_argument("--job-timeout", type=float, default=0.0,
                       help="hard wall-clock seconds per job attempt "
                       "(0: no cap, rely on the progress-based hang rule)")
    serve.add_argument("--hang-timeout", type=float, default=60.0,
                       help="kill a job whose progress marker stalls this "
                       "long (default 60; slow-but-advancing jobs are safe)")
    serve.add_argument("--drain-timeout", type=float, default=60.0,
                       help="graceful-shutdown budget for in-flight jobs "
                       "(default 60; stragglers resume on restart)")
    serve.add_argument("--seed", type=int, default=None,
                       help="seed the retry-backoff jitter (deterministic "
                       "fault schedules for the chaos tests)")
    serve.add_argument("--verbose", "-v", action="store_true",
                       help="log HTTP requests and shutdown detail")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit one job to a running serve daemon"
    )
    submit.add_argument("--workload", default="fft")
    submit.add_argument("--scheme", default="cc")
    submit.add_argument("--host-cores", type=int, default=8)
    submit.add_argument("--scale", default="tiny", choices=_SCALES)
    submit.add_argument("--core-model", default="inorder", choices=_CORE_MODELS)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument("--fastforward", action="store_true")
    submit.add_argument("--serve-dir", metavar="DIR",
                        help="the daemon's state directory "
                        "(default <cache root>/serve)")
    submit.add_argument("--wait", action="store_true",
                        help="poll to a terminal state and print the result "
                        "summary (honours 429 backpressure by waiting)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="--wait deadline in seconds (default 300)")
    submit.set_defaults(func=_cmd_submit)

    jobsp = sub.add_parser(
        "jobs", help="inspect / operate a running serve daemon's job queue"
    )
    jobsp.add_argument(
        "action", choices=("ls", "info", "retry", "cancel", "status", "drain"),
        help="ls: all jobs; info: one job; retry: re-arm a FAILED/DEAD job; "
        "cancel: cancel queued/running work; status: daemon + pool view; "
        "drain: graceful shutdown",
    )
    jobsp.add_argument("key", nargs="?", help="job key for info/retry/cancel")
    jobsp.add_argument("--serve-dir", metavar="DIR",
                       help="the daemon's state directory "
                       "(default <cache root>/serve)")
    jobsp.set_defaults(func=_cmd_jobs)

    schemes = sub.add_parser("schemes", help="list supported slack schemes")
    schemes.set_defaults(func=_cmd_schemes)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TraceError) as exc:
        # What spec / workload / scheme / trace validation raises on a bad
        # argument value: a usage error, not a crash.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. ``stats show | head``).
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
