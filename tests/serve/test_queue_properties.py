"""Property tests: the durable queue against a pure-Python reference model.

Hypothesis drives random transition sequences — submits, leases, verdicts
under live, stale and never-issued tokens, worker-loss requeues,
daemon-restart recovery, operator retries, cancels, and logical-clock jumps
— and after every step the sqlite queue must agree with the model exactly.
The three headline invariants from the serve contract fall out of that
agreement:

* **No job lost** — every submitted key is always present, in exactly the
  state the model predicts; no transition sequence can drop a row.
* **No double-complete** — ``complete`` is fenced by the live lease token,
  and completing clears the token, so a second completion (from anyone)
  must raise; DONE is absorbing.
* **Only the live token acts** — a verdict (complete, fail or requeue)
  under a token whose assignment has ended (finished, requeued or
  recovered) or that was never issued must raise and change nothing,
  however the races interleave.

The queue runs on its logical clock (explicit ``now``), so sequences are
fully deterministic and shrinkable."""

from hypothesis import given, settings, strategies as st

from repro.jobs.queue import JobQueue, QueueError, TERMINAL

KEYS = ("job-a", "job-b", "job-c")
MAX_RETRIES = 2
LIVE = ("RUNNING",)


class Model:
    """Pure-Python twin of the queue's documented state machine."""

    def __init__(self):
        self.jobs = {}      # key -> {state, attempts, lease, not_before}
        self.order = []     # submission order (rowid FIFO)
        self.clock = 0.0
        self.tokens = []    # every lease token ever minted: (key, token)

    def job_of(self, token):
        for key, t in self.tokens:
            if t == token:
                return key
        return None

    def live(self, key, token):
        job = self.jobs.get(key)
        return job is not None and job["lease"] == token

    def submit(self, key):
        if key in self.jobs:
            return False
        self.jobs[key] = {
            "state": "QUEUED", "attempts": 0,
            "lease": None, "not_before": 0.0,
        }
        self.order.append(key)
        return True

    def lease(self, token):
        for key in self.order:
            job = self.jobs[key]
            if job["state"] == "QUEUED" and job["not_before"] <= self.clock:
                job.update(state="RUNNING", lease=token)
                self.tokens.append((key, token))
                return key
        return None

    def _fenced_live(self, key, token):
        if key is None or not self.live(key, token):
            raise QueueError("stale")
        if self.jobs[key]["state"] not in LIVE:
            raise QueueError("not live")
        return self.jobs[key]

    def complete(self, key, token):
        job = self._fenced_live(key, token)
        job.update(state="DONE", lease=None)

    def fail(self, key, token):
        job = self._fenced_live(key, token)
        job.update(state="FAILED", lease=None)

    def requeue(self, key, token, delay, charge=True):
        job = self._fenced_live(key, token)
        job["attempts"] += 1 if charge else 0
        if job["attempts"] > MAX_RETRIES:
            job.update(state="DEAD", lease=None)
        else:
            job.update(state="QUEUED", lease=None, not_before=self.clock + delay)

    def recover(self):
        for job in self.jobs.values():
            if job["state"] in LIVE:
                job.update(state="QUEUED", lease=None, not_before=0.0)

    def retry(self, key):
        job = self.jobs.get(key)
        if job is None or job["state"] not in ("FAILED", "DEAD"):
            raise QueueError("retry wants FAILED|DEAD")
        job.update(state="QUEUED", attempts=0, not_before=0.0)

    def cancel(self, key):
        job = self.jobs.get(key)
        if job is None:
            raise QueueError("unknown")
        if job["state"] == "QUEUED":
            job["state"] = "FAILED"


def token_for(model, ops_token):
    """Map a hypothesis-drawn index onto a real minted token (possibly a
    stale one — that's the point) or a never-issued token."""
    if not model.tokens or ops_token is None:
        return "never-issued"
    return model.tokens[ops_token % len(model.tokens)][1]


OPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from(KEYS)),
    st.tuples(st.just("lease")),
    st.tuples(st.just("complete"), st.integers(min_value=0, max_value=64)),
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=64)),
    st.tuples(st.just("requeue"), st.integers(min_value=0, max_value=64),
              st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("recover")),
    st.tuples(st.just("retry"), st.sampled_from(KEYS)),
    st.tuples(st.just("cancel"), st.sampled_from(KEYS)),
    st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=30.0)),
)


def apply_both(q, model, op):
    """Apply *op* to the queue and the model; they must agree on outcome
    (value vs value, or both raising QueueError)."""
    kind = op[0]
    if kind == "submit":
        _, created = q.submit(op[1], "{}", max_retries=MAX_RETRIES,
                              now=model.clock)
        assert created == model.submit(op[1])
        return
    if kind == "lease":
        view = q.lease("w", now=model.clock)
        if view is None:
            assert model.lease("x") is None
        else:
            assert model.lease(view["lease_id"]) == view["job_key"]
        return
    if kind == "tick":
        model.clock += op[1]
        return
    if kind == "recover":
        q.recover(now=model.clock)
        model.recover()
        return
    if kind in ("retry", "cancel"):
        verb = {"retry": (q.retry, model.retry),
                "cancel": (q.request_cancel, model.cancel)}[kind]
        real_exc = model_exc = False
        try:
            verb[0](op[1], now=model.clock)
        except QueueError:
            real_exc = True
        try:
            verb[1](op[1])
        except QueueError:
            model_exc = True
        assert real_exc == model_exc
        return
    # Lease-fenced verbs: complete/fail/requeue.
    token = token_for(model, op[1])
    key = model.job_of(token)
    real_exc = model_exc = False
    try:
        if kind == "complete":
            q.complete(key or "?", token, now=model.clock)
        elif kind == "fail":
            q.fail(key or "?", token, "boom", now=model.clock)
        elif kind == "requeue":
            q.requeue(key or "?", token, "lost", delay=op[2], now=model.clock)
    except QueueError:
        real_exc = True
    try:
        if kind == "complete":
            model.complete(key, token)
        elif kind == "fail":
            model.fail(key, token)
        elif kind == "requeue":
            model.requeue(key, token, op[2])
    except QueueError:
        model_exc = True
    assert real_exc == model_exc, f"{kind}: queue/{real_exc} model/{model_exc}"


def check_agreement(q, model, done_ever):
    views = {v["job_key"]: v for v in q.jobs()}
    # No job lost: exactly the submitted keys, nothing more or less.
    assert set(views) == set(model.jobs)
    for key, job in model.jobs.items():
        view = views[key]
        assert view["state"] == job["state"], key
        assert view["attempts"] == job["attempts"], key
        assert view["lease_id"] == job["lease"], key
    # DONE is absorbing: anything ever completed stays completed.
    for key in done_ever:
        assert views[key]["state"] == "DONE"


@settings(max_examples=60, deadline=None)
@given(st.lists(OPS, min_size=1, max_size=60))
def test_queue_agrees_with_reference_model(ops):
    q = JobQueue(":memory:")
    model = Model()
    done_ever = set()
    try:
        for op in ops:
            apply_both(q, model, op)
            done_ever |= {
                k for k, j in model.jobs.items() if j["state"] == "DONE"
            }
            check_agreement(q, model, done_ever)
    finally:
        q.close()
