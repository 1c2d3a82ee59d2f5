"""End-to-end serve tests: a real ``repro serve`` daemon subprocess, real
worker processes, real signals.  This is the chaos ladder from DESIGN.md
§13 in miniature — crash a worker, kill the daemon, poison a job, overflow
the queue — each rung asserting the serve contract: nothing lost, nothing
duplicated, failures explicit."""

import time
from pathlib import Path

import pytest

from repro.jobs import ResultStore
from repro.jobs.execute import execute
from repro.jobs.spec import job_key, spec_to_dict

from tests.serve.conftest import tiny_spec, wait_terminal

#: Deterministic fields a served record must share with a direct run —
#: provenance (wall time, engine, timestamps) legitimately differs.
IDENTICAL_FIELDS = ("metrics", "stats", "stats_digest", "stats_dump",
                    "output_sha256", "cores", "completed")


def process_running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def direct_baseline(spec, tmp_path):
    """Run *spec* in-process against an isolated store: the ground truth a
    served result must reproduce byte-for-byte on deterministic fields."""
    store = ResultStore(tmp_path / "baseline-store")
    return execute(spec, store=store, trace=None).record


@pytest.mark.slow
def test_served_results_match_direct_runs(daemon, tmp_path):
    daemon.start("--workers", "2")
    client = daemon.client()
    specs = [tiny_spec(seed=s) for s in (1, 2, 3)]
    keys = [client.submit(spec_to_dict(s))["job_key"] for s in specs]
    for key in keys:
        assert wait_terminal(client, key)["state"] == "DONE"
    for spec, key in zip(specs, keys):
        served = client.fetch(key)
        baseline = direct_baseline(spec, tmp_path)
        for field in IDENTICAL_FIELDS:
            assert served[field] == baseline[field], field
    # Idempotent resubmission attaches to the finished row.
    again = client.submit(spec_to_dict(specs[0]))
    assert again["state"] == "DONE" and not again["created"]


@pytest.mark.slow
def test_sigkilled_worker_retries_to_identical_result(daemon, tmp_path):
    """Rung (a): SIGKILL a worker mid-job → the job retries on a fresh
    worker and the final record equals the direct run exactly."""
    spec = tiny_spec(seed=11)
    key = job_key(spec)
    marker = tmp_path / "crashed-once"
    daemon.start(
        "--workers", "2",
        env={
            "REPRO_WORKER_CRASH_KEY": key[:12],
            "REPRO_WORKER_CRASH_ONCE": str(marker),
        },
    )
    client = daemon.client()
    out = client.submit(spec_to_dict(spec))
    job = wait_terminal(client, out["job_key"])
    assert job["state"] == "DONE"
    assert job["attempts"] == 1  # exactly one worker-loss charge
    assert marker.exists()       # the crash really fired
    status = client.status()
    assert status["telemetry"]["workers_replaced"] >= 1
    served = client.fetch(key)
    baseline = direct_baseline(spec, tmp_path)
    for field in IDENTICAL_FIELDS:
        assert served[field] == baseline[field], field


@pytest.mark.slow
def test_poison_job_dead_letters_without_stalling_others(daemon):
    """Rung (c): a job that crashes its worker every time exhausts the
    retry budget into DEAD — with the captured error — while healthy jobs
    sharing the pool still complete."""
    poison = tiny_spec(seed=21)
    daemon.start(
        "--workers", "2",
        "--max-retries", "1",
        env={"REPRO_WORKER_CRASH_KEY": job_key(poison)[:12]},
    )
    client = daemon.client()
    poison_key = client.submit(spec_to_dict(poison))["job_key"]
    healthy_keys = [
        client.submit(spec_to_dict(tiny_spec(seed=s)))["job_key"]
        for s in (22, 23, 24)
    ]
    dead = wait_terminal(client, poison_key, timeout=120)
    assert dead["state"] == "DEAD"
    assert dead["attempts"] == 2  # budget of 1 retry: two crashes, then dead
    assert dead["error"]          # stderr/diagnosis captured, not silent
    for key in healthy_keys:
        assert wait_terminal(client, key, timeout=120)["state"] == "DONE"


@pytest.mark.slow
def test_daemon_sigkill_restart_recovers_orphans(daemon, tmp_path):
    """Rung (b): SIGKILL the daemon with work in flight; a restart re-leases
    every orphaned job and completes it, attempts uncharged, results exact —
    and the killed daemon's workers notice they are orphans and exit."""
    specs = [tiny_spec(seed=s) for s in (31, 32, 33, 34)]
    daemon.start("--workers", "2")
    client = daemon.client()
    keys = [client.submit(spec_to_dict(s))["job_key"] for s in specs]
    orphans = [w["pid"] for w in client.status()["workers"]]
    assert len(orphans) == 2
    daemon.sigkill()  # no drain, no cleanup — leases die with the daemon
    daemon.wait()
    daemon.start("--workers", "2")
    client = daemon.client()
    for key in keys:
        job = wait_terminal(client, key, timeout=120)
        assert job["state"] == "DONE"
        assert job["attempts"] == 0  # daemon death never charges the budget
    # No duplicates: one row per submitted key, even across incarnations.
    assert sorted(j["job_key"] for j in client.jobs()) == sorted(keys)
    for spec, key in zip(specs, keys):
        served = client.fetch(key)
        baseline = direct_baseline(spec, tmp_path)
        for field in IDENTICAL_FIELDS:
            assert served[field] == baseline[field], field
    deadline = time.time() + 30
    while any(map(process_running, orphans)) and time.time() < deadline:
        time.sleep(0.1)
    assert not [pid for pid in orphans if process_running(pid)]


@pytest.mark.slow
def test_queue_full_backpressure_is_explicit(daemon):
    """Rung (d): a full queue answers 429 + Retry-After — clients are told
    to back off; submissions are never silently dropped."""
    from repro.serve.client import ServeRejected

    blocker = tiny_spec(seed=41)
    daemon.start(
        "--workers", "1",
        "--max-depth", "1",
        "--max-retries", "8",
        # The blocker crashes its worker every attempt, so it cycles
        # through backoff requeues and holds the queue at depth 1.
        env={"REPRO_WORKER_CRASH_KEY": job_key(blocker)[:12]},
    )
    client = daemon.client()
    client.submit(spec_to_dict(blocker))
    with pytest.raises(ServeRejected) as exc_info:
        client.submit(spec_to_dict(tiny_spec(seed=42)))
    assert exc_info.value.status == 429
    assert float(exc_info.value.retry_after) >= 1
    # The refused job left no trace — explicit rejection, not a half-insert.
    assert len(client.jobs()) == 1


@pytest.mark.slow
def test_sigterm_drains_gracefully(daemon):
    """SIGTERM finishes in-flight (leased) work before exit: the daemon
    drains instead of dropping what its workers already hold."""
    import time

    daemon.start("--workers", "2")
    client = daemon.client()
    keys = [
        client.submit(spec_to_dict(tiny_spec(seed=s)))["job_key"]
        for s in (51, 52)
    ]
    # Wait until both jobs are actually in flight — drain only promises to
    # finish *leased* work; anything still QUEUED waits for the next boot.
    deadline = time.time() + 60
    while time.time() < deadline:
        if all(client.poll(k)["state"] != "QUEUED" for k in keys):
            break
        time.sleep(0.05)
    daemon.sigterm()
    assert daemon.wait(timeout=120) == 0
    # The daemon is gone but its durable state answers for it.
    from repro.jobs.queue import JobQueue

    queue = JobQueue(daemon.serve_dir / "queue.sqlite")
    try:
        states = {j["job_key"]: j["state"] for j in queue.jobs()}
    finally:
        queue.close()
    assert [states[k] for k in keys] == ["DONE", "DONE"]
