"""Tests for the crash-safe write primitive every artifact producer shares
(compile cache, stats dumps, sweep documents, checkpoints)."""

import os

import pytest

from repro._util import (
    Backoff,
    atomic_write_bytes,
    atomic_write_text,
    retry_with_backoff,
)


def test_writes_new_file_and_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    atomic_write_bytes(path, b"\x00\x01payload")
    assert path.read_bytes() == b"\x00\x01payload"


def test_replaces_existing_content_wholesale(tmp_path):
    path = tmp_path / "doc.json"
    atomic_write_text(path, "old " * 1000)
    atomic_write_text(path, "new")
    assert path.read_text() == "new"


def test_no_tempfile_left_behind(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "hello")
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_write_keeps_old_content_and_cleans_up(tmp_path):
    """A crash mid-write (here: encoding error before any bytes land) leaves
    the published file untouched and no orphan tempfile."""
    path = tmp_path / "out.txt"
    atomic_write_text(path, "original")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(path, "\udc80 unpaired surrogate")
    assert path.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_accepts_str_and_pathlike(tmp_path):
    atomic_write_text(str(tmp_path / "s.txt"), "via str")
    atomic_write_text(tmp_path / "p.txt", "via Path")
    assert (tmp_path / "s.txt").read_text() == "via str"
    assert (tmp_path / "p.txt").read_text() == "via Path"


# ----------------------------------------------------- retry-pacing helpers
class TestBackoff:
    def test_unjittered_schedule_doubles_to_cap(self):
        b = Backoff(base=0.5, cap=8.0, jitter=0.0)
        assert [b.next() for _ in range(6)] == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0]

    def test_jitter_stays_within_band(self):
        b = Backoff(base=1.0, cap=1.0, jitter=0.25, seed=1)
        for _ in range(200):
            assert 0.75 <= b.next() <= 1.25

    def test_seeded_schedules_are_deterministic(self):
        one = Backoff(base=0.5, cap=8.0, seed=42)
        two = Backoff(base=0.5, cap=8.0, seed=42)
        assert [one.next() for _ in range(8)] == [two.next() for _ in range(8)]

    def test_peek_does_not_advance(self):
        b = Backoff(base=2.0, cap=16.0, jitter=0.0)
        assert b.peek() == b.peek() == 2.0
        b.next()
        assert b.peek() == 4.0


class TestRetryWithBackoff:
    def test_returns_first_success(self):
        calls = []
        assert retry_with_backoff(lambda: calls.append(1) or "ok") == "ok"
        assert len(calls) == 1

    def test_retries_matching_errors_then_succeeds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise ConnectionRefusedError("not yet")
            return attempts["n"]

        observed = []
        result = retry_with_backoff(
            flaky,
            retries=5,
            retry_on=ConnectionRefusedError,
            backoff=Backoff(base=0.0, cap=0.0),
            on_retry=lambda attempt, exc, delay: observed.append(attempt),
        )
        assert result == 3
        assert observed == [1, 2]

    def test_exhausted_budget_raises_last_error(self):
        def always():
            raise ConnectionRefusedError("down")

        with pytest.raises(ConnectionRefusedError):
            retry_with_backoff(
                always, retries=2, retry_on=ConnectionRefusedError,
                backoff=Backoff(base=0.0, cap=0.0),
            )

    def test_non_matching_error_propagates_immediately(self):
        calls = []

        def wrong_kind():
            calls.append(1)
            raise ValueError("deterministic bug")

        with pytest.raises(ValueError):
            retry_with_backoff(
                wrong_kind, retries=5, retry_on=ConnectionRefusedError,
                backoff=Backoff(base=0.0, cap=0.0),
            )
        assert len(calls) == 1  # never retried: not a transient failure
