"""The per-layer ledger: spans and counts taken around calls into each layer.

The program carries no tracing of its own yet, so the ledger wraps the class
attributes (and module globals) that form each layer's entry points, from
the benchmark's side.  Two rules keep the wrapping honest:

* ``repro.scenarios.run`` is shadowed by the ``run`` function the package
  re-exports, so the module is reached through :func:`importlib.import_module`;
* a name bound with ``from ... import`` is a separate binding in the importing
  module, so module functions are patched where they are *called*, and
  methods are patched on their class, which every importer shares.

Spans (name, start, end, parent, run id) are kept in memory and written out
by the caller when the benchmark ends.  A call into a layer that is already
open on the stack (``AdaptiveBalancer.choose`` calling ``EcmpBalancer.choose``)
is not a new span, so no layer's time is counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names, one per wrapped entry point; several attributes may share one.
BUILD_MACHINE = "scenarios.build_machine"
BUILD_STREAM = "workloads.build_stream"
PLAN = "core.plan"
CANDIDATES = "core.candidates"
CHOOSE = "network.choose"
ISSUE_MESSAGES = "sim.control.issue_messages"
FLOW_START = "sim.flow.start"
REALLOCATE = "sim.flow.reallocate"
ENGINE_RUN = "sim.engine.run"
DETAILED_START = "sim.detailed.start"
SERVICE_RUN = "service.run"
TRACE_EMIT = "trace.emit"


class Ledger:
    """Installs the wrappers, records spans and counters, then restores everything."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: [name, start, end, parent index or -1, run id]
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.instants: set = set()
        self.peak_flows = 0
        self.run_id = 0
        #: Index of the first span of each run id (units are contiguous).
        self._unit_starts: List[int] = [0]
        self._stack: List[int] = []
        self._open: Counter = Counter()
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapping ----------------------------------------------------------------------

    def _replace(self, owner: Any, attr: str, wrapper: Any) -> Any:
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        return original

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        ledger = self
        original: Any = None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if ledger._open[name]:
                return original(*args, **kwargs)
            stack = ledger._stack
            index = len(ledger.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, ledger.run_id]
            ledger.spans.append(span)
            stack.append(index)
            ledger._open[name] += 1
            span[1] = ledger.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = ledger.clock()
                ledger._open[name] -= 1
                stack.pop()
            ledger.counts[name] += 1
            if after is not None:
                after(args, result)
            return result

        original = self._replace(owner, attr, traced)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot paths)."""
        counts = self.counts
        original: Any = None

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return original(*args, **kwargs)

        original = self._replace(owner, attr, counted)

    def install(self) -> None:
        """Wrap every layer entry point the ledger reports on."""
        from repro.core.planner import ChannelPlanner
        from repro.network.routing import create_balancer, list_balancers
        from repro.service.engine import ServiceSimulator
        from repro.sim.control import ControlUnit
        from repro.sim.detailed import DetailedTransport
        from repro.sim.engine import SimulationEngine
        from repro.sim.flow import FlowTransport
        from repro.sim.resources import ServiceCenter
        from repro.trace.bus import TraceBus

        run_module = importlib.import_module("repro.scenarios.run")
        self.span(run_module, "build_machine", BUILD_MACHINE)
        self.span(run_module, "build_stream", BUILD_STREAM)
        self.span(ChannelPlanner, "plan", PLAN)
        self.span(ChannelPlanner, "plan_via", PLAN)
        self.span(ChannelPlanner, "candidates", CANDIDATES)
        for policy in list_balancers():
            self.span(type(create_balancer(policy)), "choose", CHOOSE)
        self.span(ControlUnit, "issue_messages", ISSUE_MESSAGES, self._after_messages)
        self.span(FlowTransport, "start", FLOW_START)
        self.span(FlowTransport, "_reallocate", REALLOCATE, self._after_reallocate)
        self.span(SimulationEngine, "run", ENGINE_RUN, self._after_engine)
        self.span(DetailedTransport, "start", DETAILED_START)
        self.count(ServiceCenter, "submit", "sim.detailed.center_submits")
        self.span(ServiceSimulator, "run", SERVICE_RUN, self._after_service)
        self.span(TraceBus, "emit", TRACE_EMIT)

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters read off results -------------------------------------------------------

    def _after_messages(self, args: tuple, result: Any) -> None:
        self.counts["sim.control.messages"] += len(result)

    def _after_reallocate(self, args: tuple, result: Any) -> None:
        # The engine object itself (not its id, which a later run may reuse)
        # keys the instant; the set keeps it alive until the next unit.
        transport = args[0]
        engine = transport.engine
        self.instants.add((engine, engine.now))
        self.peak_flows = max(self.peak_flows, transport.active_flows)

    def _after_engine(self, args: tuple, result: Any) -> None:
        self.counts["sim.engine.events"] += args[0].processed_events

    def _after_service(self, args: tuple, result: Any) -> None:
        self.counts["service.requests"] += int(result.metadata["requests"])

    # -- reduction ---------------------------------------------------------------------

    def begin_unit(self) -> None:
        """Start a new run id; counters are read per unit by :meth:`unit_counters`."""
        self.run_id += 1
        self._unit_starts.append(len(self.spans))
        self.counts.clear()
        self.instants.clear()
        self.peak_flows = 0

    def unit_counters(self) -> Dict[str, int]:
        """The deterministic counters of the current unit (must repeat exactly)."""
        counts = self.counts
        return {
            "core.plan_calls": counts[PLAN],
            "network.choose_calls": counts[CHOOSE],
            "sim.control.messages": counts["sim.control.messages"],
            "sim.flow.reallocations": counts[REALLOCATE],
            "sim.flow.instants": len(self.instants),
            "sim.flow.peak_flows": self.peak_flows,
            "sim.engine.events": counts["sim.engine.events"],
            "sim.detailed.center_submits": counts["sim.detailed.center_submits"],
            "service.requests": counts["service.requests"],
            "trace.records": counts[TRACE_EMIT],
        }

    def unit_times(self, run_id: int) -> Dict[str, float]:
        """Inclusive seconds per span name, plus self seconds, for one unit."""
        first = self._unit_starts[run_id]
        last = self._unit_starts[run_id + 1] if run_id + 1 < len(self._unit_starts) else None
        spans = self.spans[first:last]
        inclusive: Dict[str, float] = Counter()
        children: Dict[int, float] = Counter()
        for name, start, end, parent, _ in spans:
            inclusive[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        self_s: Dict[str, float] = Counter()
        for index, (name, start, end, _, _) in enumerate(spans, start=first):
            self_s[name] += (end - start) - children[index]
        times = {f"{name}_s": value for name, value in inclusive.items()}
        times.update({f"{name}.self_s": value for name, value in self_s.items()})
        return times

    def write_spans(self, path: str) -> None:
        """A header line naming the fields, then one JSON array per span in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "run"]}))
            handle.write("\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span]) + "\n")
