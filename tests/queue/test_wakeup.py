"""In-process wake-ups: waiters hear a job change state at once.

Every case sets a 5 s poll, so the poll fallback cannot explain a pass:
only the shared change signal of the queue file can end the wait within
the 0.5 s budget.
"""

import sys
import threading
import time

import pytest

from repro.queue import JobQueue, QueueConfig, QueueWorker

POLL = 5.0
BUDGET = 0.5
SPEC = {"kind": "synth", "order": 6, "ports": 2, "seed": 3, "task": "check"}


@pytest.fixture()
def queue_path(tmp_path):
    return tmp_path / "queue.sqlite3"


def _enqueue(queue, job_id):
    return queue.enqueue(
        job_id=job_id,
        task="check",
        name=f"check-{job_id}",
        kind="synth",
        spec=SPEC,
    )


def _idle_worker(queue_path, **kwargs):
    """A registered worker thread, given time to reach its idle wait."""
    worker = QueueWorker(
        queue_path,
        backend="serial",
        queue_config=QueueConfig(poll_seconds=POLL),
        **kwargs,
    )
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    with JobQueue(queue_path) as probe:
        deadline = time.monotonic() + 10.0
        while not any(w["state"] == "idle" for w in probe.workers()):
            assert time.monotonic() < deadline, "worker never went idle"
            time.sleep(0.01)
    time.sleep(0.1)  # past the empty first claim
    return worker, thread


class TestChangeSignal:
    def test_instances_on_one_file_share_the_signal(self, queue_path):
        with JobQueue(queue_path) as first, JobQueue(
            queue_path.parent / "." / queue_path.name
        ) as second:
            assert first.changes is second.changes

    def test_other_files_have_their_own_signal(self, tmp_path):
        with JobQueue(tmp_path / "a.sqlite3") as first, JobQueue(
            tmp_path / "b.sqlite3"
        ) as second:
            assert first.changes is not second.changes

    def test_concurrent_notifies_are_all_counted(self, queue_path):
        threads, rounds = 8, 300
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with JobQueue(queue_path) as queue:
                start = queue.changes.generation
                notifiers = [
                    threading.Thread(
                        target=lambda: [
                            queue.changes.notify() for _ in range(rounds)
                        ]
                    )
                    for _ in range(threads)
                ]
                for thread in notifiers:
                    thread.start()
                for thread in notifiers:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in notifiers)
                assert queue.changes.generation - start == threads * rounds
        finally:
            sys.setswitchinterval(switch)

    def test_wait_returns_at_once_when_the_generation_moved(self, queue_path):
        with JobQueue(queue_path) as queue:
            seen = queue.changes.generation
            _enqueue(queue, "j1")
            started = time.monotonic()
            queue.changes.wait(seen, POLL)
            assert time.monotonic() - started < BUDGET
            assert queue.changes.generation > seen


class TestWakeUps:
    def test_idle_worker_claims_a_job_enqueued_by_another_instance(
        self, queue_path
    ):
        worker, thread = _idle_worker(queue_path, max_jobs=1)
        try:
            with JobQueue(queue_path) as submitter:
                enqueued = time.monotonic()
                _enqueue(submitter, "j1")
                while submitter.get("j1").state == "queued":
                    assert time.monotonic() - enqueued < BUDGET, (
                        "idle worker did not wake on the enqueue"
                    )
                    time.sleep(0.005)
        finally:
            worker.request_stop()
            thread.join(timeout=60.0)
        assert not thread.is_alive()

    def test_wait_for_version_wakes_on_an_ack_from_another_instance(
        self, queue_path
    ):
        with JobQueue(queue_path) as waiter, JobQueue(queue_path) as acker:
            _enqueue(acker, "j1")
            claimed = acker.claim("w1")
            acked_at = []

            def ack():
                acked_at.append(time.monotonic())
                acker.ack(claimed.id, "w1", state="done", result={})

            timer = threading.Timer(0.2, ack)
            timer.start()
            try:
                row = waiter.wait_for_version(
                    "j1", since=claimed.version, timeout=30.0, poll=POLL
                )
            finally:
                timer.join()
            returned = time.monotonic()
        assert row.state == "done"
        assert returned - acked_at[0] < BUDGET

    def test_request_stop_ends_an_idle_worker_promptly(self, queue_path):
        worker, thread = _idle_worker(queue_path)
        asked = time.monotonic()
        worker.request_stop()
        thread.join(timeout=POLL * 2)
        assert not thread.is_alive()
        assert time.monotonic() - asked < BUDGET
