#!/usr/bin/env python3
"""The repo benchmark: seven workloads, end-to-end and per-layer metrics.

    python bench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                        [--trace [0|1]] [--out FILE] [--quick]
                        [--update-expected]

Runs each workload in its own child process (so peak RSS and caches do not
leak between workloads) on cache roots under ``.bench_work/`` in the
checkout, checks every output, and prints each metric by name with its unit,
sample count and bound.  ``--trace`` adds one traced pass per workload
(boundary spans, cProfile roll-up by layer, work counts); the timed passes
always run with tracing off.  The last line of standard output is one JSON
object — ``correct``, ``attempted``, ``failed``, ``metrics`` — holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its per-layer
metrics (``--trace 1``).  Exit status is non-zero when anything failed.

See ``bench/README.md`` for the metric and workload tables.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
#: A run has 180 s; the child gets less so the parent can still clean up.
CHILD_TIMEOUT_S = 170
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 8.0

import metrics as M  # noqa: E402  (bench/ is sys.path[0] when run as a script)


# ================================================================== child
def import_simulator() -> None:
    """Import every module of the simulator, so that ``setup_s`` charges
    import cost once, up front, and the set-up repeats measure work only."""
    import importlib
    import pkgutil

    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith("__main__"):
            importlib.import_module(module.name)


def sum_counts(results: list) -> dict:
    """Work counts of one pass, summed over the records' stats dumps."""
    counts: dict = {}
    for name, keys in M.COUNTS.items():
        total = None
        for result in results:
            if not result.ok or result.stats is None:
                continue
            value = 0
            for key in keys:
                if key.startswith("coreN."):
                    suffix = key[len("coreN"):]
                    found = [
                        v for k, v in result.stats.items()
                        if k.startswith("core") and k.endswith(suffix)
                        and k[4:-len(suffix)].isdigit()
                    ]
                    part = sum(found) if found else None
                else:
                    part = result.stats.get(key)
                if part is None:
                    value = None
                    break
                value += part
            if value is None:
                total = None
                break
            if name == "core.gq_max_depth":
                total = max(total or 0, value)
            else:
                total = (total or 0) + value
        counts[name] = total
    return counts


def check_digests(passes: list) -> list[str]:
    """The same job must give the same stats digest every time it runs."""
    seen: dict[str, str] = {}
    problems = []
    for results in passes:
        for result in results:
            if not result.ok:
                continue
            first = seen.setdefault(result.label, result.digest)
            if first != result.digest:
                problems.append(f"{result.label}: stats digest differs between runs of one spec")
    return problems


def digest_drift(workload: str, jobs: dict, ctx) -> "int | None":
    """Jobs whose (cycles, digest) left ``expected.json`` — seed 1 only."""
    if ctx.seed != 1 or ctx.quick or not EXPECTED.exists():
        return None
    expected = json.loads(EXPECTED.read_text()).get("jobs", {}).get(workload)
    if expected is None:
        return None
    # serve-mixed submits more jobs when --seconds is longer than the pinned run's
    return sum(
        expected[label] != [job["execution_cycles"], job["stats_digest"]]
        for label, job in jobs.items() if label in expected
    )


def yardstick_wall(yard, per_job: bool, passes: list) -> dict:
    """``wall_s``: one pass's wall time at yardstick speed.

    Every piece of work is scaled by the speed the yardstick saw while it
    ran, and the median of its scaled runs counts: the jobs one by one where
    they run one after another (so the jobs a cut-short pass did reach count
    too), the whole pass where they overlap.  The median, not the fastest
    run: how many runs fit in the time depends on the host's speed, and the
    fastest of more runs is faster.
    """
    scaled: dict[str, list] = {}
    raw: dict[str, list] = {}
    for start, end, results, _full in passes:
        spans = (
            [(r.label, r.started, r.started + r.wall_s) for r in results]
            if per_job else [("pass", start, end)]
        )
        for unit, unit_start, unit_end in spans:
            scaled.setdefault(unit, []).append(yard.scaled(unit_start, unit_end))
            raw.setdefault(unit, []).append(unit_end - unit_start)
    whole = [yard.scaled(start, end) for start, end, _results, full in passes if full]
    return {
        **M.summarize(whole),
        "value": sum(map(statistics.median, scaled.values())),
        "raw_s": sum(map(statistics.median, raw.values())),
        "samples": scaled,
        "raw_samples": raw,
        "host_speed": yard.speed(passes[0][0], passes[-1][1]),
    }


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def traced_pass(cls, ctx) -> dict:
    """One pass with boundary spans and cProfile on; its own fresh set-up."""
    import cProfile

    from tracer import Tracer, profile_rollup, self_times, span_metrics

    tracer = ctx.tracer = Tracer()
    workload = cls(ctx)
    profile = cProfile.Profile() if cls.profiled else None
    tracer.install()
    try:
        workload.prepare()
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            results = workload.run_pass()
        finally:
            if profile is not None:
                profile.disable()
        end = time.perf_counter()
        status = workload.status_counts(results)
    finally:
        workload.teardown()
        tracer.uninstall()
        ctx.tracer = None
    own = self_times(tracer.spans)
    done = [r for r in results if r.ok]
    fresh = [r for r in done if r.info.get("hit") is False and r.info.get("exec_s")]
    hits = [r.wall_s for r in done if r.info.get("hit")]
    return {
        "interval": (start, end),
        "failures": [f"traced pass: {r.label}: {r.error}" for r in results if not r.ok],
        "spans": [
            {**span, "start": span["start"] - start, "end": span["end"] - start,
             "self_s": own[span["id"]]}
            for span in tracer.spans
        ],
        "missing_targets": tracer.missing,
        "span_metrics": span_metrics(tracer.spans, start),
        "serve": {
            "serve.exec_ms": 1e3 * statistics.median(r.info["exec_s"] for r in fresh),
            "serve.overhead_ms": 1e3 * statistics.median(
                r.wall_s - r.info["exec_s"] for r in fresh),
            "serve.hit_p50_ms": 1e3 * statistics.median(hits) if hits else None,
        } if fresh else {},
        "profile": profile_rollup(profile, str(SRC / "repro") + "/") if profile else None,
        "counts": {**sum_counts(results), **status},
    }


def run_child(name: str, ctx, trace: bool, yard) -> dict:
    import multiprocessing

    from workloads import WORKLOADS

    import_simulator()
    imports = (_T0, time.perf_counter())

    cls = WORKLOADS[name]
    workload = cls(ctx)
    prepares, passes = [], []

    def prepare() -> None:
        start = time.perf_counter()
        workload.prepare()
        prepares.append((start, time.perf_counter()))

    def timed_pass(deadline: "float | None") -> None:
        start = time.perf_counter()
        results = workload.run_pass(deadline)
        if results:
            passes.append((start, time.perf_counter(), results, deadline is None))

    try:
        for repeat in range(cls.setup_repeats if ctx.repeat else 1):
            if repeat:
                workload.teardown()
            prepare()
        deadline = time.perf_counter() + workload.timed_seconds()
        timed_pass(None)
        first = passes[0][1] - passes[0][0]
        # Here every run has done the same work, whatever the host's speed.
        rss_self = peak_rss_mb(resource.RUSAGE_SELF)
        # A pass that cannot stop between jobs starts only if it should fit.
        while ctx.repeat and time.perf_counter() + (0 if cls.per_job_walls else first) < deadline:
            if cls.fresh_each_pass:
                workload.teardown()
                prepare()
            timed_pass(deadline if cls.per_job_walls else None)
        extra, failures = workload.after_timing(passes[0][2])
    finally:
        workload.teardown()
    # Pool workers exit on their own once their executor is shut down; only
    # a child that has been waited for counts in RUSAGE_CHILDREN.
    reap_by = time.monotonic() + 5
    while multiprocessing.active_children() and time.monotonic() < reap_by:
        time.sleep(0.01)
    rss = rss_self + peak_rss_mb(resource.RUSAGE_CHILDREN)
    traced = traced_pass(cls, ctx) if trace else None
    yard.stop()

    every = [results for _start, _end, results, _full in passes]
    failures += [f"{r.label}: {r.error}" for results in every for r in results if not r.ok]
    failures += check_digests(every)
    if traced:
        failures += traced.pop("failures")
    attempted = sum(len(results) for results in every)
    failed = min(len(failures), attempted)

    done = [r for r in every[0] if r.ok]
    cycles, insns = sum(r.cycles for r in done), sum(r.insns for r in done)
    wall = yardstick_wall(yard, cls.per_job_walls, passes)
    import_s = yard.scaled(*imports)
    prepare_s = [yard.scaled(*interval) for interval in prepares]
    end_to_end = {
        "wall_s": wall,
        "sim_cycles_per_s": {"value": cycles / wall["value"]},
        "sim_kips": {"value": insns / wall["value"] / 1000.0},
        "jobs_per_s": {"value": len(done) / wall["value"]},
        "setup_s": {**M.summarize(prepare_s), "import_s": import_s,
                    "value": import_s + statistics.median(prepare_s)},
        "peak_rss_mb": {"value": rss},
        "failed_frac": {"value": failed / attempted},
    }
    # serve-mixed: round trips of fresh submissions, at their pass's speed
    trips = [
        1e3 * r.wall_s * yard.factor(start, end)
        for start, end, results, _full in passes
        for r in results if r.ok and r.info.get("hit") is False
    ]
    if trips:
        end_to_end["job_p50_ms"] = M.summarize(trips)
        end_to_end["job_p90_ms"] = {"value": M.percentile(trips, 90), "n": len(trips)}
    if "cli_runs" in extra:
        end_to_end["cli_warm_run_s"] = M.summarize(
            [yard.scaled(*interval) for interval in extra["cli_runs"]])
    for simulated in ("timing_error_pct", "modeled_speedup"):
        if simulated in extra:
            end_to_end[simulated] = {"value": extra[simulated]}

    jobs = {
        r.label: {"execution_cycles": r.cycles, "stats_digest": r.digest}
        for r in done if not r.info.get("resub")
    }
    out = {
        "workload": name,
        "why": cls.why,
        "scale": ctx.scale,
        "cpus": len(yard.samplers),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "jobs": jobs,
        "digest_drift": digest_drift(name, jobs, ctx),
    }
    if traced:
        traced["wall_s"] = yard.scaled(*traced.pop("interval"))
        out["trace"] = traced
        out["per_layer"] = per_layer_metrics(out, cycles, insns)
    return out


def per_layer_metrics(out: dict, cycles: int, insns: int) -> dict:
    """Every name of ``metrics.PER_LAYER`` -> number, or ``None`` when the
    workload has no such layer or the field it reads is gone."""
    traced, e2e = out["trace"], out["end_to_end"]
    wall = e2e["wall_s"]["value"]
    values: dict = {**traced["span_metrics"], **traced["serve"]}
    for name, source in (
        ("serve.job_p50_ms", "job_p50_ms"),
        ("serve.job_p90_ms", "job_p90_ms"),
        ("experiments.cli_warm_run_s", "cli_warm_run_s"),
        ("experiments.timing_error_pct", "timing_error_pct"),
        ("experiments.modeled_speedup", "modeled_speedup"),
    ):
        values[name] = e2e.get(source, {}).get("value")
    for layer in M.LAYERS:
        entry = (traced["profile"] or {}).get(layer)
        values[f"{layer}.self_s"] = entry["self_s"] if entry else None
        values[f"{layer}.calls"] = entry["calls"] if entry else None
    counts = dict(traced["counts"])
    counts["core.digest_drift"] = out["digest_drift"]
    for name in (*M.COUNTS, *M.STATUS_COUNTS):
        values[name] = counts.get(name)
    counts["target.execution_cycles"], counts["target.instructions"] = cycles, insns
    for name, (count, scale, _unit) in M.RATIOS.items():
        values[name] = wall * scale / counts[count] if counts.get(count) else None
    values["trace_overhead_frac"] = traced["wall_s"] / wall - 1.0
    return {name: values.get(name) for name in M.PER_LAYER}


def child_main(args) -> int:
    from workloads import WORKLOADS, Ctx
    from yardstick import Yardstick, confine

    # Before any other thread or process exists, so that all of them inherit it.
    yard = Yardstick(confine(WORKLOADS[args.child].cpus))
    yard.start()
    ctx = Ctx(
        seed=args.seed, seconds=args.seconds, quick=args.quick,
        repeat=not (args.quick or args.trace),
        work=Path(args.child_work), nproc=os.cpu_count() or 1,
    )
    result = run_child(args.child, ctx, bool(args.trace), yard)
    Path(args.child_out).write_text(json.dumps(result))
    return 0


# ================================================================= parent
def run_workload(name: str, args, work: Path) -> dict:
    """Run one workload in a child process group and return its results."""
    child_work = work / name
    child_work.mkdir()
    out = work / f"{name}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # one source of run-to-run difference less
    env["TMPDIR"] = str(child_work)
    command = [
        sys.executable, str(BENCH / "run.py"), "--child", name,
        "--child-out", str(out), "--child-work", str(child_work),
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--quick"] if args.quick else [])
    child = subprocess.Popen(command, env=env, cwd=ROOT, start_new_session=True,
                             stdout=sys.stderr)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child's session holds the daemon, its workers and the pools.
        # A child that finished has already drained and reaped them; after a
        # failure or an interrupt this ends whatever is left, and waits.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                break  # the group is empty
            child.poll()
            time.sleep(0.01)
        child.wait()
    if code != 0 or not out.exists():
        raise SystemExit(f"bench: workload {name} did not finish (exit {code})")
    return json.loads(out.read_text())


def cross_check_replay(results: dict) -> None:
    """``replay-slack`` must equal ``slack-direct`` spec by spec."""
    replay, direct = results.get("replay-slack"), results.get("slack-direct")
    if not replay or not direct:
        return
    for label, job in replay["jobs"].items():
        if direct["jobs"].get(label, job)["stats_digest"] != job["stats_digest"]:
            replay["failures"].append(f"{label}: replay digest differs from slack-direct")
    replay["failed"] = min(len(replay["failures"]), replay["attempted"])
    replay["end_to_end"]["failed_frac"]["value"] = replay["failed"] / replay["attempted"]


def provenance(args) -> dict:
    sys.path.insert(0, str(SRC))
    from repro.stats.perfjson import host_calibration

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "host_calibration_s": host_calibration(),
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(results: dict, stamp: dict) -> None:
    print("bench: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, res in results.items():
        print(f"\n== {name}: scale {res['scale']}, {res['passes']} pass(es) (the last may be "
              f"cut short), {res['attempted']} attempted, {res['failed']} failed ==")
        print(f"   why: {res['why']}")
        for failure in res["failures"]:
            print(f"   FAILED {failure}")
        print(f"   {'end-to-end':<28}{'value':>12} {'unit':<9}{'n':>4}{'q1':>12}{'q3':>12}"
              f"  better  bound")
        for metric, spec in M.END_TO_END.items():
            got = res["end_to_end"].get(metric)
            if got is None:
                continue
            bound = f"{spec.bound:.0%}" if spec.bound else "exact"
            print(f"   {metric:<28}{fmt(got['value']):>12} {spec.unit:<9}"
                  f"{got.get('n', 1):>4}{fmt(got.get('q1')):>12}{fmt(got.get('q3')):>12}"
                  f"  {spec.better:<7} {bound}")
            if metric == "wall_s":
                print(f"   {'  (unscaled)':<28}{fmt(got['raw_s']):>12} s         host speed "
                      f"{got['host_speed']:.2f} of the yardstick's reference")
        if res["digest_drift"]:
            print(f"   not iso-digest: {res['digest_drift']} job(s) left bench/expected.json")
        if "per_layer" not in res:
            continue
        values, profile = res["per_layer"], res["trace"]["profile"]
        total = sum(entry["self_s"] for entry in profile.values()) if profile else 0.0
        print(f"   {'per-layer (traced pass)':<34}{'value':>12} unit")
        for metric, unit in M.PER_LAYER.items():
            share = ""
            if metric.endswith(".self_s") and total and values[metric] is not None:
                share = f"  {values[metric] / total:6.1%} of profiled time"
            print(f"   {metric:<34}{fmt(values[metric]):>12} {unit}{share}")
        if profile:
            print(f"   {'(outside the simulator).self_s':<34}{fmt(profile['other']['self_s']):>12} s"
                  f"  {profile['other']['self_s'] / total:6.1%} of profiled time")
        if res["trace"]["missing_targets"]:
            print(f"   span targets not found: {', '.join(res['trace']['missing_targets'])}")


def driver_line(results: dict, trace: bool) -> str:
    """The contract's last line: the metrics BENCHMARK.json names."""
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        if trace:
            for metric, unit in M.PER_LAYER.items():
                # a layer this workload does not have reads 0 here and n/a above
                metrics[prefix + metric] = {"value": res["per_layer"][metric] or 0.0, "unit": unit}
        else:
            for metric in M.GATED:
                metrics[prefix + metric] = {
                    "value": res["end_to_end"][metric]["value"],
                    "unit": M.END_TO_END[metric].unit,
                }
    failed = sum(res["failed"] for res in results.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(res["attempted"] for res in results.values()),
        "failed": failed,
        "metrics": metrics,
    })


def update_expected(results: dict, args) -> None:
    from workloads import WORKLOADS

    if (args.seed, args.seconds, args.quick) != (1, DEFAULT_SECONDS, False) or set(results) != set(WORKLOADS):
        raise SystemExit("bench: --update-expected needs every workload at the default "
                         "--seed and --seconds, not --quick")
    sweep = results["sweep-cold"]["end_to_end"]
    EXPECTED.write_text(json.dumps({
        "seed": 1,
        "timing_error_pct": sweep["timing_error_pct"]["value"],
        "modeled_speedup": sweep["modeled_speedup"]["value"],
        "jobs": {name: {label: [job["execution_cycles"], job["stats_digest"]]
                        for label, job in sorted(res["jobs"].items())}
                 for name, res in results.items()},
    }, indent=1, sort_keys=True) + "\n")
    print(f"bench: wrote {EXPECTED}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run this workload (repeatable; default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"how long one workload measures (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add a traced pass and report the per-layer metrics")
    parser.add_argument("--out", metavar="FILE", help="write the full results here as JSON")
    parser.add_argument("--quick", action="store_true",
                        help="self-test mode: one pass, tiny scale, 10 serve jobs")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin bench/expected.json from this run (seed 1, all workloads)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    parser.add_argument("--child-work", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").exists():
        raise SystemExit(f"bench: no simulator to measure: {SRC / 'repro'} is missing")
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} (choose from {', '.join(WORKLOADS)})")

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        results = {name: run_workload(name, args, work) for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    cross_check_replay(results)
    stamp = provenance(args)
    print_report(results, stamp)
    if args.update_expected:
        update_expected(results, args)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"provenance": stamp, "workloads": results}, indent=1) + "\n"
        )
    print(driver_line(results, bool(args.trace)))
    return 1 if any(res["failed"] for res in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
