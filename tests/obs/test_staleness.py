"""StalenessTracker: exact pending-write accounting under a fake clock."""

from __future__ import annotations

import pytest

from repro.obs import StalenessTracker


@pytest.fixture()
def clocked():
    now = [100.0]
    tracker = StalenessTracker(clock=lambda: now[0])
    return now, tracker


class TestPendingWrites:
    def test_untracked_table_is_fresh(self, clocked):
        _, tracker = clocked
        assert tracker.staleness_s("R") == 0.0
        assert tracker.max_staleness_s() == 0.0
        assert tracker.quiesced()

    def test_staleness_is_age_of_oldest_pending_write(self, clocked):
        now, tracker = clocked
        tracker.note_write("R")  # at 100
        now[0] = 104.0
        tracker.note_write("R")  # at 104
        now[0] = 110.0
        assert tracker.staleness_s("R") == pytest.approx(10.0)
        assert tracker.max_staleness_s() == pytest.approx(10.0)
        assert not tracker.quiesced()

    def test_note_applied_clears_through_not_beyond(self, clocked):
        now, tracker = clocked
        first = tracker.note_write("R")
        now[0] = 105.0
        tracker.note_write("R")
        # the epoch only covered the first write
        tracker.note_applied("R", through=first)
        now[0] = 106.0
        assert tracker.staleness_s("R") == pytest.approx(1.0)
        tracker.note_applied("R", through=105.0)
        assert tracker.staleness_s("R") == 0.0
        assert tracker.quiesced()

    def test_retract_removes_the_shed_write(self, clocked):
        now, tracker = clocked
        when = tracker.note_write("R")
        tracker.retract_write("R", when)
        now[0] = 200.0
        assert tracker.staleness_s("R") == 0.0
        assert tracker.status()["tables"]["R"]["writes"] == 0

    def test_retract_unknown_is_a_no_op(self, clocked):
        _, tracker = clocked
        tracker.retract_write("R", 1.0)
        tracker.note_write("R", when=5.0)
        tracker.retract_write("R", 4.0)
        assert tracker.status()["tables"]["R"]["writes"] == 1

    def test_staleness_for_is_the_worst_over_tables(self, clocked):
        now, tracker = clocked
        tracker.note_write("R", when=90.0)
        tracker.note_write("S", when=99.0)
        assert tracker.staleness_for(["R", "S"]) == pytest.approx(10.0)
        assert tracker.staleness_for(["S"]) == pytest.approx(1.0)
        assert tracker.staleness_for(["T"]) == 0.0


class TestSurfacing:
    def test_metrics_shape(self, clocked):
        now, tracker = clocked
        tracker.note_write("R", when=95.0)
        tracker.note_write("S", when=100.0)
        tracker.note_applied("S", through=100.0)
        assert tracker.metrics() == {
            "tables_pending": 1.0,
            "staleness_s_max": pytest.approx(5.0),
        }

    def test_status_is_json_ready(self, clocked):
        import json

        _, tracker = clocked
        tracker.note_write("R")
        tracker.note_applied("R", through=100.0)
        status = tracker.status()
        json.dumps(status)
        assert status["tables"]["R"] == {
            "writes": 1,
            "applied_epochs": 1,
            "staleness_s": 0.0,
        }
