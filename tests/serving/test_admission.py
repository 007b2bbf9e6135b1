"""Unit tests for queue-based admission control."""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionError, ParameterError
from repro.serving.admission import AdmissionController


class TestOfferTake:
    def test_fifo_order(self):
        adm = AdmissionController(8)
        for i in range(3):
            adm.offer(i)
        assert [adm.take(timeout=0) for _ in range(3)] == [0, 1, 2]

    def test_queue_full_rejects_with_reason(self):
        adm = AdmissionController(2)
        adm.offer("a")
        adm.offer("b")
        with pytest.raises(AdmissionError) as err:
            adm.offer("c")
        assert err.value.reason == "queue_full"
        assert adm.stats()["rejected"]["queue_full"] == 1
        # room frees up once an item is taken
        adm.take(timeout=0)
        adm.offer("c")

    def test_take_empty_polls_none(self):
        adm = AdmissionController(2)
        assert adm.take(timeout=0) is None

    def test_take_timeout_none(self):
        adm = AdmissionController(2)
        assert adm.take(timeout=0.01) is None

    def test_blocking_take_wakes_on_offer(self):
        adm = AdmissionController(2)
        got = []

        def consumer():
            got.append(adm.take(timeout=5))

        t = threading.Thread(target=consumer)
        t.start()
        adm.offer("x")
        t.join(timeout=5)
        assert got == ["x"]


class TestLifecycle:
    def test_close_returns_backlog_and_rejects_new(self):
        adm = AdmissionController(8)
        adm.offer("a")
        adm.offer("b")
        leftovers = adm.close()
        assert leftovers == ["a", "b"]
        with pytest.raises(AdmissionError) as err:
            adm.offer("c")
        assert err.value.reason == "shutdown"
        assert adm.take(timeout=0) is None
        # the backlog rejection is counted, never silent
        assert adm.stats()["rejected"]["shutdown"] >= 2

    def test_close_wakes_blocked_take(self):
        adm = AdmissionController(2)
        got = []

        def consumer():
            got.append(adm.take(timeout=5))

        t = threading.Thread(target=consumer)
        t.start()
        adm.close()
        t.join(timeout=5)
        assert got == [None]

    def test_validation(self):
        with pytest.raises(ParameterError):
            AdmissionController(0)
