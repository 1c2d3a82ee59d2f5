"""What the daemon refuses at the door: a spec this build cannot run is a
400 at submit, not a lease burnt on a job that can only FAIL in a worker."""

import pytest

from repro.jobs.spec import spec_to_dict
from repro.serve.client import ServeError

from tests.serve.conftest import client_of, tiny_spec


@pytest.mark.parametrize(
    "retired", [{"mode": "functional"}, {"workload_args": [["nthreads", 1]]}]
)
def test_retired_functional_job_is_a_400_and_never_queued(idle_daemon, retired):
    client = client_of(idle_daemon)
    with pytest.raises(ServeError, match="400") as refused:
        client.submit({**spec_to_dict(tiny_spec(seed=71)), **retired})
    assert next(iter(retired)) in str(refused.value)
    assert idle_daemon.queue.jobs() == []
    # The constants an older client still sends name the same job as none.
    legacy = {**spec_to_dict(tiny_spec(seed=71)), "mode": "timing", "workload_args": []}
    queued = client.submit(legacy)
    assert queued["state"] == "QUEUED"
    assert client.submit(spec_to_dict(tiny_spec(seed=71)))["job_key"] == queued["job_key"]
