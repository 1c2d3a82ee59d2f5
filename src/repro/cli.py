"""Command-line interface: ``slacksim`` (or ``python -m repro``).

Subcommands::

    slacksim run --workload fft --scheme s9 --host-cores 8
    slacksim run --workload fft --stats-out run.stats.json --stats-interval 5000
    slacksim run --workload fft --capture-trace fft.trace
    slacksim run --workload fft --scheme s9 --replay-trace fft.trace
    slacksim compile program.sl [--run]
    slacksim figure2
    slacksim figure8 | table3 | ablations ... [--jobs 8] (any experiment, rendered)
    slacksim sweep figure8 --jobs 4 --out figure8.json   (any experiment, as JSON)
    slacksim bench --workload fft --profile
    slacksim stats show run.stats.json
    slacksim stats diff a.stats.json b.stats.json
    slacksim trace info fft.trace
    slacksim cache ls | info <key> | verify | gc | clear
    slacksim serve --workers 4
    slacksim submit --workload fft --scheme s9 --wait
    slacksim jobs ls | info <key> | retry <key> | cancel <key> | status | drain
    slacksim schemes

``run``, ``sweep``, ``bench`` and the experiment commands all resolve
through the content-addressed job layer (DESIGN.md §12): a request whose
sealed record already sits in the cache root's ``results/`` section is
served from the store without simulating, byte-identically to a fresh run.
An experiment command (and ``figure2``) prints its render, then one ``claim
<name>: holds|FAILS (<numbers>)`` line per claim to stderr; a failure exits 1.
"""

from __future__ import annotations

import argparse
import sys

from repro._util import atomic_write_text
from repro.core.engine import EngineError
from repro.experiments.parallel import SWEEP_EXPERIMENTS
from repro.trace import TraceError
from repro.workloads.registry import WORKLOADS, make_workload

__all__ = ["main"]

_SCALES = ("tiny", "small", "paper")
_CORE_MODELS = ("inorder", "ooo")
#: Each scheme family ``parse_scheme`` accepts and the example ``schemes`` lists.
_SCHEME_FAMILIES = {
    "cc": "cc", "qN": "q10", "aqMIN-MAX": "aq10-160", "lN": "l10",
    "sN": "s9", "sN*": "s9*", "su": "su",
}


def _cmd_run(args: argparse.Namespace) -> int:
    """``run``: a job, direct or restored run, printed by one report."""
    from repro.jobs import ResultStore, execute

    if args.capture_trace and args.replay_trace:
        print("--capture-trace and --replay-trace are mutually exclusive", file=sys.stderr)
        return 2
    # Restores, side-effecting runs (a capture file, a checkpoint stream) and
    # fault-injected runs stay on the direct engine path: their point is the
    # side effect / perturbation, not a memoisable result.
    direct = (
        args.restore or args.capture_trace or args.faults
        or args.checkpoint or args.checkpoint_interval
    )
    try:
        if direct:
            engine, workload = _direct_engine(args)
        else:
            # --replay-trace is a tool, not a way to fill the store: execute()
            # then neither reads nor writes it.
            outcome = execute(
                _job_spec(args, stats_interval=args.stats_interval),
                store=ResultStore.default(),
                trace=args.replay_trace,
            )
    except AssertionError as exc:
        print(f"OUTPUT MISMATCH:\n  {exc}")
        return 1
    except EngineError as exc:
        if not (direct or args.replay_trace):
            raise  # a job run's own failure, not a refused argument
        # Refused at engine construction (a checkpoint of other source bytes,
        # a capture this run cannot serve, clashing options): a bad argument,
        # and nothing ran or was written.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not direct:
        from repro.core.results import run_document

        record = outcome.record
        notes = [
            outcome.hit and f"served from result store ({outcome.key[:16]}…)",
            args.replay_trace
            and f"replayed from {args.replay_trace} (functional cores not re-executed)",
        ]
        document = run_document(
            record["stats"], record["stats_digest"], record["snapshots"], record["completed"]
        )
        return _report(args, record["stats"], document, ([], record["output_len"]), notes)
    result = engine.run()
    notes = [
        args.restore and f"resumed from {args.restore}: completed={result.completed}",
        args.restore and workload is None
        and f"output unchecked: the checkpoint does not run the {args.workload}/{args.scale}"
        " program (name its workload with --workload and --scale)",
        args.capture_trace and f"trace captured -> {args.capture_trace}",
        args.faults
        and f"faults injected: {result.stats.get('faults.injected', 0)} (plan: {args.faults})",
    ]
    check = workload and (workload.mismatches(result.output), len(result.output))
    return _report(args, result.stats, result.dump_json(), check, notes)


def _direct_engine(args: argparse.Namespace):
    """``(engine, workload)`` off the job path: a restored checkpoint (the
    workload iff it runs that workload's program), or the job's run plus a
    capture, checkpoints or faults."""
    import json

    from repro.core.engine import SequentialEngine
    from repro.jobs.spec import spec_program

    if args.restore:
        # The engine (config, program image, clocks, queues) travels inside
        # the checkpoint; the workload oracle does not, so the flags name it.
        from repro.cache import program_image
        from repro.core.checkpoint import load_checkpoint

        engine, workload = load_checkpoint(args.restore), make_workload(args.workload, args.scale)
        digest = engine.image and program_image(engine.image.program)[0]
        return engine, workload if digest == program_image(workload.program)[0] else None
    capture = args.capture_trace
    spec = _job_spec(
        args,
        stats_interval=args.stats_interval,
        fault_plan=args.faults,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_path=args.checkpoint,
        trace_mode="capture" if capture else "off",
        trace_path=capture,
        trace_source=(
            json.dumps({"workload": args.workload, "scale": args.scale}) if capture else None
        ),
    )
    workload = spec_program(spec)
    engine = SequentialEngine(
        workload.program,
        target=spec.target_config(),
        host=spec.host_config(),
        sim=spec.sim_config(),
    )
    return engine, workload


def _report(args, stats: dict, document: str, check, notes) -> int:
    """Print a run of any ``run`` path and write its ``--stats-out``, from its
    dump, stats-document text and the oracle's ``(mismatches, output
    length)`` (None on an unchecked restore).  *notes*: the path's own lines."""
    from repro.core.results import core_rows, summary_line
    from repro.stats.registry import dump_to_csv

    print(summary_line(stats))
    for note in filter(None, notes):
        print(note)
    if args.stats_out:
        text = dump_to_csv(stats) if args.stats_format == "csv" else document
        atomic_write_text(args.stats_out, text)
        print(f"stats ({args.stats_format}) -> {args.stats_out}")
    if check is None:
        return 0
    problems, values = check
    if problems:
        print("OUTPUT MISMATCH:", *problems, sep="\n  ")
        return 1
    print(f"output verified against the numpy oracle ({values} values)")
    if args.verbose:
        for row in core_rows(stats):
            ipc = row["committed"] / row["cycles"] if row["cycles"] else 0.0
            print(
                f"  core {row['core']}: {row['committed']} instr / {row['cycles']} cyc "
                f"(IPC {ipc:.2f}), L1 misses {row['l1_misses']}/{row['l1_accesses']}"
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


def _show(value) -> str:
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {_show(item)}" for key, item in value.items()) + "}"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _check_claims(claims: dict, document) -> int:
    """One stderr line per claim of a ``claim_table`` on *document*; 1 if any
    fails, else 0."""
    failed = 0
    for name, (numbers, test) in claims.items():
        values = numbers(document)
        holds = bool(test(values))
        state = "holds" if holds else "FAILS"
        print(f"claim {name}: {state} ({_show(values)[1:-1]})", file=sys.stderr)
        failed |= not holds
    return failed


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import CLAIMS, render_figure2, run_figure2

    # Four scripted cores: no workload, no jobs, nothing to sweep.
    traces = run_figure2()
    print(render_figure2(traces))
    return _check_claims(CLAIMS, traces)


def _cmd_experiment(args: argparse.Namespace) -> int:
    """``sweep <name>`` (the JSON document) and ``<name>`` (that document
    rendered as the paper's table, then its claims): one sweep either way."""
    from repro.experiments.parallel import experiment_entry, run_sweep, sweep_to_json

    entry = experiment_entry(args.experiment)
    telemetry: dict = {}
    payload = run_sweep(
        args.experiment, jobs=args.jobs, scale=args.scale, base_seed=args.seed,
        max_retries=args.max_retries, telemetry=telemetry,
    )
    text = sweep_to_json(payload) if args.command == "sweep" else entry.render(payload) + "\n"
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
    return 0 if args.command == "sweep" else _check_claims(entry.claims, payload)


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
        result = run_functional(program)
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    else:
        t0 = time.perf_counter()
        result = run_functional(program)
        wall = time.perf_counter() - t0
        kips = result.instructions / wall / 1000.0 if wall else 0.0
        print(
            f"{args.workload} ({args.scale}): "
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

    from repro import cache
    from repro.jobs import ResultStore

    store = ResultStore.default()
    if store is None:
        print("cache disabled (REPRO_CACHE_DIR is empty)", file=sys.stderr)
        return 2
    # Both sections follow one integrity rule (DESIGN.md §11), so every
    # action but `info` walks them alike.
    sections = (("record(s)", store), ("program(s)", cache.programs()))

    if args.action == "ls":
        entries = store.entries()
        for key, record in entries:
            if record is None:
                print(f"{key[:16]}  INVALID")
                continue
            spec = record["spec"]
            wl = spec["workload"]
            what = f"{wl['name']}/{wl['scale']}"
            engine = record.get("provenance", {}).get("engine", "?")
            print(
                f"{key[:16]}  {what} {spec['sim']['scheme']} "
                f"h{spec['host']['num_cores']} seed={spec['sim']['seed']}  [{engine}]"
            )
        for noun, section in sections:
            print(f"{len(section.keys())} {noun} in {section.root}")
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
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0

    if args.action == "verify":
        damaged = False
        for noun, section in sections:
            report = section.verify()
            for key in report["corrupt"]:
                print(f"{key[:16]}  CORRUPT -> quarantined")
            for key in report["stale"]:
                print(f"{key[:16]}  stale format (plain miss)")
            print(
                f"checked {report['checked']} {noun}: {len(report['ok'])} ok, "
                f"{len(report['stale'])} stale, {len(report['corrupt'])} corrupt; "
                f"{len(report['quarantined'])} quarantined file(s) on disk"
            )
            damaged = damaged or bool(report["corrupt"])
        return 1 if damaged else 0

    if args.action == "gc":
        verb = "would drop" if args.dry_run else "dropped"
        for noun, section in sections:
            dropped = section.gc(dry_run=args.dry_run)
            for key in dropped:
                print(f"{verb} {key[:16]}")
            print(f"{verb} {len(dropped)} {noun} (corrupt, stale or another toolchain)")
        return 0

    # clear
    for noun, section in sections:
        removed, quarantined = section.clear()
        print(
            f"removed {removed} {noun} and {quarantined} quarantined file(s) "
            f"from {section.root}"
        )
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


def _job_spec(args: argparse.Namespace, **sim_overrides):
    """The ``JobSpec`` of the job flags ``run`` and ``submit`` share."""
    from repro.jobs import JobSpec

    return JobSpec.build(
        args.workload,
        args.scale,
        scheme=args.scheme,
        seed=args.seed,
        host_cores=args.host_cores,
        core_model=args.core_model,
        fastforward=args.fastforward,
        **sim_overrides,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.jobs import record_summary
    from repro.jobs.spec import spec_to_dict
    from repro.serve.client import ServeClient, ServeError, ServeRejected

    try:
        client = ServeClient(serve_dir=args.serve_dir)
        payload = spec_to_dict(_job_spec(args))
        if not args.wait:
            outcome = client.submit(payload)
            suffix = " (attached)" if not outcome.get("created") else ""
            print(f"{outcome['job_key']}  {outcome['state']}{suffix}")
            return 0
        job = client.submit_and_wait(payload, timeout=args.timeout)
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

    for spec in _SCHEME_FAMILIES.values():
        print(f"  {spec:8s} {parse_scheme(spec).describe()}")
    return 0


def _add_job_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of a job (:func:`_job_spec`), shared by ``run`` and ``submit``."""
    parser.add_argument("--workload", default="fft", help=" | ".join(sorted(WORKLOADS)))
    parser.add_argument("--scheme", default="cc", help=" | ".join(_SCHEME_FAMILIES))
    parser.add_argument("--host-cores", type=int, default=8)
    parser.add_argument("--scale", default="tiny", choices=_SCALES)
    parser.add_argument("--core-model", default="inorder", choices=_CORE_MODELS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fastforward", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slacksim",
        description="SlackSim reproduction: slack-based parallel CMP simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a registered workload")
    _add_job_flags(run)
    run.add_argument("--verbose", "-v", action="store_true")
    run.add_argument("--stats-out", help="write the run's stats document here")
    run.add_argument("--stats-format", default="json", choices=("json", "csv"),
                     help="dump format for --stats-out (default json)")
    run.add_argument("--stats-interval", type=int, default=0,
                     help="snapshot the stats every N target cycles (0: off)")
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

    fig2 = sub.add_parser("figure2", help="regenerate paper Figure 2 and check its claims")
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

    for name in SWEEP_EXPERIMENTS:
        experiment_parser(name, f"regenerate {name} and check its claims").set_defaults(
            experiment=name
        )
    names = " | ".join(SWEEP_EXPERIMENTS)
    experiment_parser("sweep", f"experiment sweep as JSON ({names})").add_argument(
        "experiment", help=names
    )

    bench = sub.add_parser("bench", help="functional KIPS measurement of one workload")
    bench.add_argument("--workload", default="fft")
    bench.add_argument("--scale", default="tiny", choices=_SCALES)
    bench.add_argument("--profile", action="store_true",
                       help="run under cProfile and print the top 20 by cumulative time")
    bench.set_defaults(func=_cmd_bench)

    stats = sub.add_parser("stats", help="render or diff stats dumps")
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
        "cache", help="inspect / maintain the on-disk cache (results and programs)"
    )
    cache.add_argument(
        "action", choices=("ls", "info", "verify", "gc", "clear"),
        help="ls: list records and count both sections; info: print one "
        "record (by key prefix); verify: check every seal, quarantining "
        "corrupt entries; gc: drop corrupt, stale and other-toolchain "
        "entries; clear: empty both sections",
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
    _add_job_flags(submit)
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
