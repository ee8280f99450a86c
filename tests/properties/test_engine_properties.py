"""Property test for the discrete-event kernel against a naive reference.

Random interleavings of ``schedule``/``schedule_at`` (with ties on time and
priority), ``cancel`` (of pending, fired and drained events alike),
``run(until=...)``, ``run(max_events=...)``, ``step`` and ``drain`` must
dispatch events in exactly the order a plain sort by ``(time, priority,
sequence)`` gives.  Fired events may cancel others — including every pending
event at once, which compacts the heap from inside a callback.  After every
operation the engine's ``cancelled_pending`` must equal the cancelled entries
actually left in its heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine

delays = st.sampled_from([0.0, 0.5, 1.0, 2.0])
priorities = st.integers(min_value=-1, max_value=1)
actions = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
    st.just(("cancel_all",)),
)
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, priorities, actions),
    st.tuples(st.just("schedule_at"), delays, priorities, actions),
    # Bursts grow the heap past the compaction threshold.
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=80), priorities, actions),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=500)),
    st.tuples(st.just("run_until"), delays),
    st.tuples(st.just("run_max"), st.integers(min_value=0, max_value=3)),
    st.just(("run",)),
    st.just(("step",)),
    st.just(("drain",)),
)


class _Harness:
    """Drives the engine and a sorted-list reference through the same operations."""

    def __init__(self) -> None:
        self.engine = SimulationEngine()
        self.events = []
        self.actions = []
        self.fired = []
        # Reference state: live (scheduled, not cancelled, not fired) keys.
        self.ref_now = 0.0
        self.ref_live = {}
        self.ref_fired = []

    # -- engine side ---------------------------------------------------------------

    def _callback(self, index):
        def fire():
            self.fired.append(index)
            action = self.actions[index]
            if action is None:
                return
            if action[0] == "cancel":
                self.events[action[1] % len(self.events)].cancel()
            else:
                for event in self.events:
                    event.cancel()

        return fire

    def schedule(self, time, priority, action, *, absolute):
        index = len(self.events)
        self.actions.append(action)
        callback = self._callback(index)
        if absolute:
            event = self.engine.schedule_at(time, callback, priority=priority)
        else:
            event = self.engine.schedule(time, callback, priority=priority)
            time = self.ref_now + time
        assert event.sequence == index and event.time == time and event.priority == priority
        self.events.append(event)
        self.ref_live[index] = (time, priority, index)

    # -- reference side ------------------------------------------------------------

    def _ref_fire_next(self, until=None):
        if not self.ref_live:
            return False
        key = min(self.ref_live.values())
        if until is not None and key[0] > until:
            self.ref_now = until
            return False
        index = key[2]
        del self.ref_live[index]
        self.ref_now = key[0]
        self.ref_fired.append(index)
        action = self.actions[index]
        if action is not None:
            if action[0] == "cancel":
                self.ref_live.pop(action[1] % len(self.events), None)
            else:
                self.ref_live.clear()
        return True

    # -- operations ----------------------------------------------------------------

    def apply(self, op):
        kind = op[0]
        engine = self.engine
        if kind == "schedule":
            self.schedule(op[1], op[2], op[3], absolute=False)
        elif kind == "schedule_at":
            self.schedule(engine.now + op[1], op[2], op[3], absolute=True)
        elif kind == "burst":
            for offset in range(op[1]):
                self.schedule(float(offset % 5) / 2.0, op[2], op[3], absolute=False)
        elif kind == "cancel":
            if self.events:
                index = op[1] % len(self.events)
                self.events[index].cancel()
                self.ref_live.pop(index, None)
        elif kind == "run_until":
            until = engine.now + op[1]
            assert engine.run(until=until) == engine.now
            while self._ref_fire_next(until):
                pass
        elif kind == "run_max":
            engine.run(max_events=op[1])
            for _ in range(op[1]):
                if not self._ref_fire_next():
                    break
        elif kind == "run":
            engine.run()
            while self._ref_fire_next():
                pass
        elif kind == "step":
            assert engine.step() == self._ref_fire_next()
        else:
            engine.drain()
            self.ref_live.clear()

    def check(self):
        engine = self.engine
        assert self.fired == self.ref_fired
        assert engine.now == self.ref_now
        assert engine.processed_events == len(self.fired)
        in_heap = sum(1 for entry in engine._heap if entry[3].cancelled)
        assert engine.cancelled_pending == in_heap
        assert engine.pending_events - engine.cancelled_pending == len(self.ref_live)


@given(ops=st.lists(operations, max_size=60))
@settings(max_examples=300, deadline=None)
def test_dispatch_order_and_cancel_accounting_match_reference(ops):
    harness = _Harness()
    for op in ops:
        harness.apply(op)
        harness.check()
    # Whatever is left drains in reference order too.
    harness.apply(("run",))
    harness.check()
    assert harness.engine.cancelled_pending == 0
