"""Minimal discrete-event simulation kernel.

A deliberately small, dependency-free engine: events are (time, priority,
sequence) ordered callbacks on a binary heap.  Both the detailed per-pair
simulator and the flow simulator drive their state machines through this
kernel, so simulated time handling, determinism and stop conditions live in
one place.

The heap holds ``(time, priority, sequence, event)`` tuples rather than the
events themselves, so every ordering comparison runs in C; ``sequence`` is
unique, so the trailing event is never compared.  Cancellation is lazy: a
cancelled event keeps its heap slot until it is popped or the heap is
compacted.  An event is *detached* from its engine (``owner = None``) when it
leaves the heap — dispatched, or discarded by :meth:`SimulationEngine.drain`
— so cancelling it afterwards only sets its flag and never touches the
engine's ``cancelled_pending`` count, which therefore always equals the
cancelled entries still in the heap.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from ..errors import SimulationError
from ..trace.records import EventDispatched

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..trace import TraceBus

#: Compaction trigger: never compact heaps smaller than this (the rebuild
#: would cost more than the dead entries), and above it only when more than
#: half the heap is cancelled — which bounds the heap at ~2x the live events.
_COMPACT_MIN_HEAP = 64

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A scheduled callback.

    Ordering is by time, then priority (lower first), then insertion sequence,
    which makes simulations fully deterministic.  The engine orders its heap
    entries by that key; events themselves are not comparable.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        owner: Optional["SimulationEngine"],
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False
        #: The engine whose heap holds this event; None once it has left it.
        self.owner = owner

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, cancelled={self.cancelled!r})"
        )

    def cancel(self) -> None:
        """Prevent the event from firing.

        The entry stays in its engine's heap (removing from the middle of a
        binary heap is O(n)) but the engine is told, so it can compact the
        heap once cancelled entries dominate — without that accounting a
        workload that reschedules aggressively (the flow transport cancels
        and reissues a completion event per reallocation) leaks heap entries
        linearly in event count.  An event that already left the heap has no
        owner, so cancelling it is a no-op for the engine.
        """
        if not self.cancelled:
            self.cancelled = True
            if self.owner is not None:
                self.owner._note_cancellation()


class SimulationEngine:
    """Heap-based discrete-event loop with deterministic ordering.

    ``trace`` optionally attaches a :class:`~repro.trace.TraceBus`; components
    driving their state machines through the engine discover it there, so one
    constructor argument wires observability through a whole simulation.
    """

    def __init__(self, *, trace: Optional["TraceBus"] = None) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = 0
        self._processed = 0
        self._cancelled_pending = 0
        self.trace = trace

    # -- clock -----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (compaction input)."""
        return self._cancelled_pending

    # -- scheduling ----------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, self)
        _heappush(self._heap, (time, priority, sequence, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], *, priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, self)
        _heappush(self._heap, (time, priority, sequence, event))
        return event

    # -- cancellation accounting ------------------------------------------------------

    def _note_cancellation(self) -> None:
        # Only events still in the heap have an owner, so the count is exact.
        self._cancelled_pending += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heap keys are a total order (time, priority, unique sequence), so
        ``heapify`` reproduces exactly the pop order the thinned heap would
        have had — compaction is invisible to the simulation.  It replaces
        the heap list, so loops holding a reference must re-read it.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0

    # -- execution --------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        return self._dispatch(None, 1) == 1

    def _trace_dispatch(self, event: Event) -> None:
        if self.trace.wants(EventDispatched.kind):
            self.trace.emit(
                EventDispatched(t_us=event.time, sequence=event.sequence, priority=event.priority)
            )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event heap drains, ``until`` is reached, or ``max_events``.

        Returns the simulated time at which the run stopped.
        """
        self._dispatch(until, float("inf") if max_events is None else max_events)
        return self._now

    def _dispatch(self, until: Optional[float], limit: float) -> int:
        """The event loop: execute up to ``limit`` events; returns how many ran."""
        heappop = _heappop
        trace = self.trace
        executed = 0
        heap = self._heap
        while heap and executed < limit:
            entry = heappop(heap)
            event = entry[3]
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                # Put it back: the key is unchanged, so the pop order is too.
                _heappush(heap, entry)
                self._now = until
                break
            event.owner = None
            self._now = time
            self._processed += 1
            if trace is not None:
                self._trace_dispatch(event)
            event.callback()
            executed += 1
            # A cancellation inside the callback may have compacted the heap
            # into a new list.
            heap = self._heap
        return executed

    def drain(self) -> None:
        """Discard all pending events (used when aborting a simulation)."""
        for entry in self._heap:
            entry[3].owner = None
        self._heap.clear()
        self._cancelled_pending = 0


class Timer:
    """Convenience wrapper: a cancellable one-shot timer on an engine."""

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine
        self._event: Optional[Event] = None

    def start(self, delay: float, callback: Callable[[], None]) -> None:
        """(Re)arm the timer; any previously armed timer is cancelled."""
        self.cancel()

        def _fire() -> None:
            # Disarm before invoking so ``armed`` is accurate inside the
            # callback and a callback may re-arm the timer.
            self._event = None
            callback()

        self._event = self._engine.schedule(delay, _fire)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled
