"""Tests for the discrete-event engine and resource primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine, Timer
from repro.sim.resources import ResourcePool, ServiceCenter


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(10.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]
        assert engine.now == 10.0

    def test_ties_break_by_priority_then_insertion(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, lambda: order.append("second"), priority=1)
        engine.schedule(1.0, lambda: order.append("first"), priority=0)
        engine.schedule(1.0, lambda: order.append("third"), priority=1)
        engine.run()
        assert order == ["first", "second", "third"]

    def test_run_until_stops_clock_at_bound(self):
        engine = SimulationEngine()
        engine.schedule(100.0, lambda: None)
        engine.run(until=50.0)
        assert engine.now == 50.0
        assert engine.pending_events == 1

    def test_max_events_bound(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        engine.run(max_events=3)
        assert engine.processed_events == 3

    def test_cancelled_event_is_skipped(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_events_scheduled_during_run_execute(self):
        engine = SimulationEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(2.0, lambda: order.append("nested"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "nested"]
        assert engine.now == 3.0

    def test_cannot_schedule_in_the_past(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            SimulationEngine().schedule(-1.0, lambda: None)

    def test_timer_rearm_cancels_previous(self):
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine)
        timer.start(1.0, lambda: fired.append("first"))
        timer.start(2.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["second"]

    def test_timer_disarms_after_firing(self):
        # Regression: ``armed`` used to stay True forever after the timer
        # fired because the internal event was never cleared.
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine)
        timer.start(1.0, lambda: fired.append(engine.now))
        assert timer.armed
        engine.run()
        assert fired == [1.0]
        assert not timer.armed

    def test_timer_can_rearm_from_its_own_callback(self):
        engine = SimulationEngine()
        fired = []
        timer = Timer(engine)

        def on_fire():
            fired.append(engine.now)
            if len(fired) < 3:
                timer.start(1.0, on_fire)

        timer.start(1.0, on_fire)
        engine.run()
        assert fired == [1.0, 2.0, 3.0]
        assert not timer.armed

    def test_timer_cancel_after_firing_is_noop(self):
        engine = SimulationEngine()
        timer = Timer(engine)
        timer.start(1.0, lambda: None)
        engine.run()
        timer.cancel()
        assert not timer.armed


class TestResourcePool:
    def test_grants_up_to_capacity_immediately(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 2)
        grants = []
        pool.acquire(lambda: grants.append(1))
        pool.acquire(lambda: grants.append(2))
        pool.acquire(lambda: grants.append(3))
        assert grants == [1, 2]
        assert pool.queue_length == 1

    def test_release_unblocks_waiter(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 1)
        grants = []
        pool.acquire(lambda: grants.append("a"))
        pool.acquire(lambda: grants.append("b"))
        pool.release()
        assert grants == ["a", "b"]

    def test_release_without_acquire_raises(self):
        engine = SimulationEngine()
        pool = ResourcePool(engine, 1)
        with pytest.raises(SimulationError):
            pool.release()

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            ResourcePool(SimulationEngine(), 0)


class TestServiceCenter:
    def test_serial_jobs_on_single_server(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        done = []
        center.submit(10.0, lambda: done.append(engine.now))
        center.submit(10.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [10.0, 20.0]

    def test_parallel_jobs_on_two_servers(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 2)
        done = []
        center.submit(10.0, lambda: done.append(engine.now))
        center.submit(10.0, lambda: done.append(engine.now))
        engine.run()
        assert done == [10.0, 10.0]

    def test_utilisation_and_wait_statistics(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        for _ in range(4):
            center.submit(5.0)
        engine.run()
        assert center.stats.jobs_served == 4
        assert center.stats.utilisation(engine.now) == pytest.approx(1.0)
        assert center.stats.mean_wait() == pytest.approx((0 + 5 + 10 + 15) / 4)

    def test_statistics_exact_for_idle_start_and_resubmit_from_completion(self):
        engine = SimulationEngine()
        center = ServiceCenter(engine, 1)
        done = []

        def first_done():
            done.append(("a", engine.now))
            # Submitted while "b" is queued and the server is momentarily
            # free: it must queue behind "b", not start ahead of it.
            center.submit(4.0, lambda: done.append(("c", engine.now)))

        center.submit(4.0, first_done)
        # An immediate start still passes through a queue of length one.
        assert center.stats.max_queue_length == 1
        assert (center.busy, center.queue_length) == (1, 0)
        center.submit(4.0, lambda: done.append(("b", engine.now)))
        engine.run()
        assert done == [("a", 4.0), ("b", 8.0), ("c", 12.0)]
        stats = center.stats
        assert (stats.jobs_served, stats.busy_time, stats.total_wait) == (3, 12.0, 8.0)
        assert stats.max_queue_length == 2

    def test_throughput_per_us(self):
        center = ServiceCenter(SimulationEngine(), 4)
        assert center.throughput_per_us(122.0) == pytest.approx(4 / 122.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            ServiceCenter(SimulationEngine(), 1).submit(-1.0)
