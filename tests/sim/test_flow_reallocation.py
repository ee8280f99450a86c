"""The fluid transport reallocates once per simulated instant.

``start()`` and a completion only mark the transport dirty; one deferred
engine event per instant runs ``FlowTransport._reallocate``.  These tests
count the calls under every allocator.
"""

import pytest

from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import ALLOCATORS, FlowTransport
from repro.sim.machine import QuantumMachine

#: Distinct endpoint pairs on a 4x4 mesh; they share teleporters and links.
PAIRS = (
    ((0, 0), (3, 3)),
    ((0, 3), (3, 0)),
    ((1, 0), (1, 3)),
    ((0, 2), (3, 2)),
    ((2, 0), (2, 3)),
    ((0, 1), (3, 1)),
)


@pytest.fixture
def realloc_times(monkeypatch):
    """Record the simulated time of every ``_reallocate`` call."""
    times = []
    original = FlowTransport._reallocate

    def counted(self):
        times.append(self.engine.now)
        original(self)

    monkeypatch.setattr(FlowTransport, "_reallocate", counted)
    return times


def _transport(allocator):
    machine = QuantumMachine(4)
    engine = SimulationEngine()
    return machine, engine, FlowTransport(engine, machine, allocator=allocator)


def _planned(machine, index):
    (sx, sy), (dx, dy) = PAIRS[index]
    source, dest = Coordinate(sx, sy), Coordinate(dx, dy)
    return PlannedCommunication(
        request=CommRequest(source=source, dest=dest, qubit=index),
        plan=machine.planner.plan(source, dest),
    )


def _rate(transport, flow_id):
    return transport._pack.rate_of(flow_id)


@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_start_storm_at_one_instant_reallocates_once(allocator, realloc_times):
    machine, engine, transport = _transport(allocator)
    for index in range(len(PAIRS)):
        engine.schedule(0.0, lambda i=index: transport.start(_planned(machine, i), lambda: None))
    engine.run(until=0.0)
    assert realloc_times == [0.0]
    assert transport.active_flows == len(PAIRS)
    assert all(_rate(transport, flow_id) > 0.0 for flow_id in transport._flows)
    engine.run()
    assert transport.active_flows == 0
    # Every later instant (each completion) reallocates once, too.
    assert len(realloc_times) == len(set(realloc_times))


@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_completion_starting_dependents_reallocates_once(allocator, realloc_times):
    machine, engine, transport = _transport(allocator)
    finished = []

    def start(index):
        transport.start(_planned(machine, index), lambda: None)

    def start_dependents():
        # Half start inside the completion, half from later same-time events.
        finished.append(engine.now)
        for index in range(1, len(PAIRS)):
            if index % 2:
                start(index)
            else:
                engine.schedule(0.0, lambda i=index: start(i))

    transport.start(_planned(machine, 0), start_dependents)
    engine.run(until=0.0)
    assert realloc_times == [0.0]
    engine.step()  # the first flow's completion
    assert len(finished) == 1 and finished[0] > 0.0
    engine.run(until=finished[0])
    assert transport.active_flows == len(PAIRS) - 1
    assert realloc_times == [0.0, finished[0]]
    assert all(_rate(transport, flow_id) > 0.0 for flow_id in transport._flows)


@pytest.mark.parametrize("allocator", ALLOCATORS)
def test_direct_reallocate_flushes_the_pending_event(allocator, realloc_times):
    machine, engine, transport = _transport(allocator)
    transport.start(_planned(machine, 0), lambda: None)
    transport._reallocate()
    engine.run(until=0.0)
    assert realloc_times == [0.0]
