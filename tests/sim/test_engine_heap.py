"""Heap compaction: cancelled events must not accumulate."""

from repro.sim.engine import _COMPACT_MIN_HEAP, SimulationEngine, Timer


class TestHeapCompaction:
    def test_cancel_heavy_workload_has_bounded_heap(self):
        """The reallocate-style pattern (schedule, cancel, reschedule) leaks
        without compaction: the heap grew by one dead entry per cycle.  With
        compaction it stays within a small multiple of the live event count."""
        engine = SimulationEngine()
        live = 8
        events = [engine.schedule(float(i + 1), lambda: None) for i in range(live)]
        for cycle in range(10_000):
            index = cycle % live
            events[index].cancel()
            events[index] = engine.schedule(float(cycle % 97 + 1), lambda: None)
        # 10k cancellations; without compaction pending_events would be ~10k.
        assert engine.pending_events <= max(2 * live, _COMPACT_MIN_HEAP)
        assert engine.cancelled_pending <= engine.pending_events

    def test_compaction_preserves_execution_order(self):
        engine = SimulationEngine()
        fired = []
        keep = []
        cancel = []
        for i in range(200):
            keep.append(engine.schedule(float(i), lambda i=i: fired.append(i)))
            cancel.append(engine.schedule(float(i) + 0.5, lambda i=i: fired.append(-i)))
        for event in cancel:
            event.cancel()
        while engine.step():
            pass
        assert fired == list(range(200))
        assert engine.pending_events == 0

    def test_cancelled_pending_tracks_pops(self):
        engine = SimulationEngine()
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        a.cancel()
        assert engine.cancelled_pending == 1
        engine.run()
        assert engine.cancelled_pending == 0

    def test_double_cancel_counts_once(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert engine.cancelled_pending == 1

    def test_cancel_after_drain_stays_sound(self):
        engine = SimulationEngine()
        event = engine.schedule(1.0, lambda: None)
        engine.drain()
        event.cancel()
        assert engine.cancelled_pending == 0
        assert engine.pending_events == 0

    def test_timer_rearm_churn_stays_bounded(self):
        engine = SimulationEngine()
        timer = Timer(engine)
        for i in range(5_000):
            timer.start(float(i % 13 + 1), lambda: None)
        assert engine.pending_events <= _COMPACT_MIN_HEAP


class TestDetachOnDispatch:
    """A dispatched event leaves its engine: cancelling it later is a no-op."""

    def test_cancel_after_fire_does_not_count(self):
        engine = SimulationEngine()
        a = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run(until=1.5)
        a.cancel()
        assert a.cancelled and a.owner is None
        assert engine.pending_events == 1
        assert engine.cancelled_pending == 0
        engine.run()
        assert engine.pending_events == 0
        assert engine.cancelled_pending == 0

    def test_cancel_after_step_does_not_count(self):
        engine = SimulationEngine()
        a = engine.schedule(1.0, lambda: None)
        b = engine.schedule(2.0, lambda: None)
        assert engine.step()
        a.cancel()
        assert engine.cancelled_pending == 0
        b.cancel()
        assert engine.cancelled_pending == 1
        assert not engine.step()
        assert engine.cancelled_pending == 0

    def test_event_cancelling_itself_while_firing(self):
        engine = SimulationEngine()
        events = []
        events.append(engine.schedule(1.0, lambda: events[0].cancel()))
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.cancelled_pending == 0
        assert engine.processed_events == 2
