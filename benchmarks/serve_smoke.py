#!/usr/bin/env python
"""The serve chaos ladder, end to end (CI: the `serve-smoke` job).

Drives a real ``repro serve`` daemon through the full failure drill from
DESIGN.md §13 and proves the serve contract holds:

1. Direct-run every job spec into an isolated baseline store (ground truth).
2. Start the daemon and serve the first few jobs one at a time on the
   idle pool, printing each round trip, the record's
   ``provenance.wall_time_s`` and their difference: the serve overhead.
   Its median must stay under the supervision loop's safety-net period
   (``TICK_PERIOD_S``) — a hot path that waited for ticks would pay about
   two half-periods per job on top of the work.
3. Submit the remaining jobs over the HTTP API, all at once.
4. SIGKILL one worker process mid-run (a crashed leaseholder).
5. SIGTERM the daemon itself mid-run (an interrupted incarnation).
6. Restart the daemon: recovery must re-lease every orphan.
7. Every job must land DONE — no losses, no duplicate rows — and every
   served record's deterministic fields must be byte-identical to the
   direct-run baseline (compared via ``cmp`` on dumped files).

Exit status is 0 only when every rung holds.  Usage::

    python benchmarks/serve_smoke.py --out smoke-out [--jobs 8 --workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.jobs.execute import execute  # noqa: E402
from repro.jobs.spec import JobSpec, spec_to_dict  # noqa: E402
from repro.jobs.store import ResultStore  # noqa: E402
from repro.jobs.supervisor import TICK_PERIOD_S  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

#: Jobs served one at a time for the overhead rung; the rest go in at once
#: for the chaos rungs.
LATENCY_JOBS = 4

#: The deterministic slice of a record that must survive any failure path
#: bit-for-bit.  Provenance (wall time, engine, timestamps) may differ.
DETERMINISTIC_FIELDS = (
    "job_key", "completed", "execution_cycles", "global_time", "instructions",
    "host_time", "kips", "violations", "workload_violations", "output_sha256",
    "output_len", "stats", "stats_digest", "snapshots",
)


def log(msg: str) -> None:
    print(f"serve-smoke: {msg}", flush=True)


def fatal(msg: str) -> "None":
    log(f"FAIL: {msg}")
    sys.exit(1)


def deterministic_dump(record: dict) -> bytes:
    return json.dumps(
        {f: record[f] for f in DETERMINISTIC_FIELDS}, sort_keys=True, indent=1
    ).encode() + b"\n"


def start_daemon(cache_dir: Path, workers: int) -> subprocess.Popen:
    env = {**os.environ, "REPRO_CACHE_DIR": str(cache_dir),
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--workers", str(workers), "--seed", "7"],
        env=env,
    )
    endpoint = cache_dir / "serve" / "endpoint.json"
    deadline = time.time() + 60
    while time.time() < deadline:
        if proc.poll() is not None:
            fatal(f"daemon exited early with {proc.returncode}")
        try:
            if json.loads(endpoint.read_text()).get("pid") == proc.pid:
                return proc
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.1)
    fatal("daemon never published its endpoint")


def serve_overhead(client: ServeClient, specs: list) -> float:
    """Serve *specs* one at a time; the median of (round trip - run time).

    The first job is the worker's cold start (engine import, program load)
    and is printed but left out of the median.
    """
    overheads = []
    for i, spec in enumerate(specs):
        start = time.perf_counter()
        job = client.submit_and_wait(spec_to_dict(spec), timeout=120)
        if job["state"] != "DONE":
            fatal(f"idle-pool job {i} ended {job['state']}: {job.get('error')}")
        record = client.fetch(job["job_key"])
        trip = time.perf_counter() - start
        ran = record["provenance"]["wall_time_s"]
        overheads.append(trip - ran)
        log(f"job {i:02d}: round trip {1e3 * trip:6.1f} ms, ran "
            f"{1e3 * ran:6.1f} ms, overhead {1e3 * (trip - ran):5.1f} ms"
            + ("  (cold start, not counted)" if i == 0 else ""))
    return statistics.median(overheads[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=Path, default=Path("serve-smoke-out"))
    args = parser.parse_args()

    out = args.out
    cache_dir = out / "cache"
    baseline_dir = out / "baseline"
    served_dir = out / "served"
    for d in (cache_dir, baseline_dir, served_dir):
        d.mkdir(parents=True, exist_ok=True)

    specs = [
        JobSpec.build("fft", "tiny", scheme="s9", seed=seed, host_cores=4)
        for seed in range(1, args.jobs + 1)
    ]

    # Rung 0: ground truth, computed without the daemon.
    log(f"direct-running {len(specs)} baseline job(s)")
    baseline_store = ResultStore(out / "baseline-store")
    keys = []
    for i, spec in enumerate(specs):
        outcome = execute(spec, store=baseline_store, trace=None)
        keys.append(outcome.key)
        (baseline_dir / f"{i:02d}.json").write_bytes(
            deterministic_dump(outcome.record)
        )

    # Rung 1: the idle-pool round trip must not be paced by the tick.
    daemon = start_daemon(cache_dir, args.workers)
    client = ServeClient(serve_dir=cache_dir / "serve")
    if len(specs) > LATENCY_JOBS:
        overhead = serve_overhead(client, specs[:LATENCY_JOBS])
        log(f"idle-pool median overhead {1e3 * overhead:.1f} ms "
            f"(safety-net tick period {1e3 * TICK_PERIOD_S:.0f} ms)")
        if overhead > TICK_PERIOD_S:
            fatal("serve overhead exceeds the tick period: is the hot path "
                  "polling again?")

    # Rung 2: serve the rest, all at once (resubmissions attach).
    for spec in specs:
        client.submit(spec_to_dict(spec))
    log(f"submitted {len(specs)} job(s) to pid {daemon.pid}")

    # Rung 3: SIGKILL a worker the moment one is busy.
    deadline = time.time() + 60
    victim = None
    while time.time() < deadline and victim is None:
        for worker in client.status()["workers"]:
            if worker["busy"] and worker["alive"]:
                victim = worker
                break
        time.sleep(0.05)
    if victim is None:
        fatal("no worker ever went busy")
    os.kill(victim["pid"], signal.SIGKILL)
    log(f"SIGKILLed worker pid {victim['pid']} "
        f"(job {victim['job_key'][:16]})")

    # Rung 4: SIGTERM the daemon while work is still in flight.
    time.sleep(0.5)
    daemon.send_signal(signal.SIGTERM)
    rc = daemon.wait(timeout=120)
    log(f"daemon drained and exited with {rc}")
    if rc != 0:
        fatal("daemon did not shut down cleanly on SIGTERM")

    # Rung 5: restart; recovery must finish everything.
    daemon = start_daemon(cache_dir, args.workers)
    client = ServeClient(serve_dir=cache_dir / "serve")
    deadline = time.time() + 300
    while time.time() < deadline:
        counts = client.status()["queue"]
        if counts["DONE"] == len(specs):
            break
        if counts["FAILED"] or counts["DEAD"]:
            states = {j["job_key"][:16]: j["state"] for j in client.jobs()}
            fatal(f"jobs failed: {states}")
        time.sleep(0.2)
    else:
        fatal(f"jobs still unfinished: {client.status()['queue']}")
    log("all jobs DONE across crash + restart")

    rows = client.jobs()
    if len(rows) != len(specs):
        fatal(f"expected {len(specs)} rows, found {len(rows)} (duplicates?)")

    # Rung 6: served records equal the direct-run baseline, via cmp.
    for i, key in enumerate(keys):
        (served_dir / f"{i:02d}.json").write_bytes(
            deterministic_dump(client.fetch(key))
        )
    client.drain()
    daemon.wait(timeout=120)
    failures = 0
    for i in range(len(specs)):
        rc = subprocess.run(
            ["cmp", str(baseline_dir / f"{i:02d}.json"),
             str(served_dir / f"{i:02d}.json")]
        ).returncode
        if rc != 0:
            log(f"FAIL: job {i:02d} served result differs from baseline")
            failures += 1
    if failures:
        return 1
    log(f"OK: {len(specs)} served result(s) byte-identical to direct runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
