"""Flow-based (fluid) transport backend for large simulations.

Each active logical communication is modelled as a *flow* that must push a
fixed amount of work through every resource along its path:

* one teleportation (``t_teleport`` of teleporter time) per transiting EPR
  pair at every intermediate T' node, charged to that node's X or Y teleporter
  set depending on the outgoing direction (the Figure 6 router split);
* one pair generation (``t_gen`` of generator time) per transiting pair on
  every virtual-wire link it crosses;
* ``2**rounds - 1`` purification rounds per good pair at each endpoint's
  queue purifiers;
* the data-qubit teleportations at the endpoints once the channel is up,
  charged to the X or Y router half that the endpoint's link uses.

Concurrent flows share each resource max-min fairly (progressive filling), so
when many channels cross the same T' node — the Home Base workload — the
teleporters become the bottleneck, and when channels are short and disjoint —
the Mobile Qubit workload — the endpoint purifiers do.  That is precisely the
contention effect Figure 16 sweeps resource allocation to expose.

Every flow also has a latency *floor*: the channel-setup pipeline latency plus
the final data teleportation, which bounds how fast a communication can finish
even with unlimited bandwidth (the paper's t = g = p = 1024 normalisation
point).

All three allocators share one data plane.  Every flow's fluid state and its
demand entries live in one :class:`~repro.sim.flowpack.FlowPack`; the usage
integral advances from the pack's per-kind rate sums, the ``FlowRateChanged``
stream comes from the rows whose rate changed, and one chained
next-completion event stands for every flow's completion: each reallocation
stores every flow's finish time, and the earliest (ties to the lowest flow
id, the event-priority order ``1 + flow_id``) is the one pending event.  The
allocator name selects only the rate kernel, and all three compute
*bitwise-identical* rates — degenerate max-min ties would otherwise break
differently and cascade into diverging makespans:

* ``incremental`` (the default) is the pack's pure-Python kernel: it builds
  the column member lists from the live entries once per reallocation and
  each progressive-filling round re-sums only the columns touched by newly
  frozen flows.
* ``vectorized`` runs the same filling as numpy passes over the pack's
  buffers (:class:`~repro.sim.flowpack.NumpyFlowPack`); it needs numpy.
* ``reference`` recomputes every rate from scratch over
  ``ChannelFlow.demands``, scanning every flow for every resource each round
  (the original seed behaviour).  It is the oracle the benchmarks and
  property tests compare the kernels against.

Reallocation is deferred to the end of the simulated instant.  ``start`` and
a completion only mark the transport dirty; the first mark at an instant
schedules one engine event at ``now`` with priority
``_REALLOCATE_PRIORITY``, above every completion priority (``1 + flow_id``),
so it runs after all of the instant's completions and starts and a storm of
N starts costs one progressive filling instead of N.  This is exact: rates
are a pure function of the flow set, no rate is read before the instant
ends (load balancers read per-link flow *counts*), and with zero elapsed
time the skipped intermediate rates would have moved no work.  Between the
mark and the reallocation, the completion chain keeps re-arming from the
finish times stored at the last reallocation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..errors import SimulationError
from ..trace.records import FlowRateChanged
from .control import PlannedCommunication
from .engine import Event, SimulationEngine
from .flowpack import FlowPack, NumpyFlowPack, ResourceKey
from .machine import QuantumMachine
from .transport import ALLOCATORS, DEFAULT_ALLOCATOR, TransportBackend, register_backend

#: Resource identifiers are (kind, *coordinates) tuples; kinds used below.
KIND_TELEPORTER_X = "teleporter_x"
KIND_TELEPORTER_Y = "teleporter_y"
KIND_GENERATOR = "generator"
KIND_PURIFIER = "purifier"

#: Residual capacity below which a resource counts as saturated.
_SATURATION_EPS = 1e-12
#: Residual work below which a flow counts as finished.  Completion
#: *scheduling* and the completion handler use this same epsilon: a flow whose
#: residue is at or below it schedules an immediate completion that the
#: handler then accepts.  (They used to disagree — scheduling tested the far
#: tighter ``_SATURATION_EPS`` — so a flow with residue in between scheduled
#: an immediate event that no-op'd and was left stalled.)
_COMPLETION_EPS = 1e-9
#: Priority of the deferred per-instant reallocation event: above every
#: completion priority (``1 + flow_id``), so it fires after the instant's
#: completions and the starts they trigger.
_REALLOCATE_PRIORITY = sys.maxsize


@dataclass
class ChannelFlow:
    """One in-flight logical communication; its fluid state lives in the pack."""

    flow_id: int
    planned: PlannedCommunication
    demands: Dict[ResourceKey, float]
    pairs_transited: float
    start_us: float
    done: Callable[[], None]


@register_backend
class FlowTransport(TransportBackend):
    """Shares machine bandwidth among concurrent channel flows."""

    name = "fluid"
    description = (
        "Max-min fair fluid flows over teleporter/generator/purifier "
        "bandwidth; fast, scales to large grids and full sweeps."
    )
    uses_allocator = True

    def __init__(
        self,
        engine: SimulationEngine,
        machine: QuantumMachine,
        *,
        allocator: str = DEFAULT_ALLOCATOR,
    ) -> None:
        if allocator not in ALLOCATORS:
            raise SimulationError(
                f"unknown allocator {allocator!r}; expected one of {ALLOCATORS}"
            )
        super().__init__(engine, machine)
        self.allocator = allocator
        self._flows: Dict[int, ChannelFlow] = {}
        self._last_update = 0.0
        self._usage_integral: Dict[str, float] = {}
        #: Capacity is a pure function of the resource *kind* (three values),
        #: so it is memoized per kind.
        self._kind_capacity: Dict[str, float] = {}
        try:
            self._pack = (NumpyFlowPack if allocator == "vectorized" else FlowPack)(
                self._capacity
            )
        except ImportError as exc:
            raise SimulationError(
                "the 'vectorized' allocator requires numpy; install it or "
                "use the 'incremental' allocator"
            ) from exc
        self._rates: Callable[[float], Sequence[float]] = (
            self._reference_rates if allocator == "reference" else self._pack.max_min_rates
        )
        #: The one pending completion event: the earliest stored finish.
        self._next_completion: Optional[Event] = None
        #: The pending end-of-instant reallocation, if the flow set changed.
        self._realloc_event: Optional[Event] = None
        #: Flows whose completion fired but no-op'd since the last
        #: reallocation; the chain skips them until it re-arms them.
        self._spent_completions: Set[int] = set()

    # -- public API ---------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def start(
        self,
        planned: PlannedCommunication,
        done: Callable[[], None],
    ) -> None:
        """Begin servicing a planned communication; ``done`` fires at completion."""
        self._advance_time()
        flow_id, planned = self._open_channel(planned)
        profile = self.machine.flow_profile(planned.plan.hops)
        flow = ChannelFlow(
            flow_id=flow_id,
            planned=planned,
            demands=self._build_demands(planned),
            pairs_transited=profile.pairs,
            start_us=self.engine.now,
            done=done,
        )
        self._flows[flow_id] = flow
        self._pack.add_flow(
            flow_id, flow.demands, start_us=flow.start_us, floor_us=profile.floor_us
        )
        self._mark_dirty()

    def utilisation_report(self, elapsed_us: float, *, clamp: bool = True) -> Dict[str, float]:
        """Average utilisation per resource *class* over ``elapsed_us``.

        With ``clamp=False`` the raw usage/capacity ratio is returned; on a
        well-formed run it never exceeds 1 (the property tests assert this),
        so the default clamp only guards against float round-off.
        """
        if elapsed_us <= 0:
            return {}
        pack = self._pack
        totals: Dict[str, float] = {}
        for kind, usage in self._usage_integral.items():
            cap = pack.kind_capacity[pack.kinds.index(kind)]
            if cap > 0:
                ratio = usage / (cap * elapsed_us)
                totals[kind] = min(ratio, 1.0) if clamp else ratio
        return totals

    def resource_loads(self) -> Dict[ResourceKey, float]:
        """Instantaneous per-resource load: sum of rate x work over active flows."""
        return self._pack.loads()

    def capacity_of(self, key: ResourceKey) -> float:
        """Bandwidth of one resource (public for invariant checks)."""
        return self._capacity(key)

    # -- demand construction -----------------------------------------------------------

    def _build_demands(self, planned: PlannedCommunication) -> Dict[ResourceKey, float]:
        """Demand vector for a planned communication, warm-cache aware.

        The demand dict is a pure function of the traversed path for a fixed
        machine structure, and it is read-only once built, so machines
        attached to a warm-start entry share one dict per endpoint pair
        across flows and across runs.  Under a load balancer the same pair
        may take different paths, so the cache keys on the full node
        sequence instead (the ``network`` section is part of the warm-start
        structural key, so balanced and unbalanced runs never share entries).
        """
        cache = self.machine.demand_cache
        if cache is None:
            return self._compute_demands(planned)
        path = planned.plan.path
        if self.balancer is not None:
            cache_key = tuple(node.as_tuple() for node in path.nodes)
        else:
            cache_key = (path.source.as_tuple(), path.destination.as_tuple())
        demands = cache.get(cache_key)
        if demands is None:
            demands = self._compute_demands(planned)
            cache[cache_key] = demands
        return demands

    def _compute_demands(self, planned: PlannedCommunication) -> Dict[ResourceKey, float]:
        plan = planned.plan
        assert plan is not None
        profile = self.machine.flow_profile(plan.hops)
        demands: Dict[ResourceKey, float] = {}

        def _add(key: ResourceKey, work: float) -> None:
            if work > 0:
                demands[key] = demands.get(key, 0.0) + work

        path = plan.path
        nodes = path.nodes
        # Chained-teleportation swaps at every intermediate node, charged to
        # the X or Y teleporter set by the outgoing direction (Figure 6).
        for node, nxt in zip(nodes[1:], nodes[2:]):
            kind = KIND_TELEPORTER_X if nxt.y == node.y else KIND_TELEPORTER_Y
            _add((kind, node.as_tuple()), profile.swap_work)
        # Virtual-wire pair generation on every traversed link.
        for link in path.links:
            _add((KIND_GENERATOR, link.a.as_tuple(), link.b.as_tuple()), profile.generator_work)
        # Endpoint purification and data teleports.  The data teleport uses
        # the router half matching the endpoint's link direction, exactly as
        # the swap loop above does for intermediate hops.
        for endpoint, neighbour in (
            (path.source, nodes[1] if len(nodes) > 1 else None),
            (path.destination, nodes[-2] if len(nodes) > 1 else None),
        ):
            _add((KIND_PURIFIER, endpoint.as_tuple()), profile.purifier_work)
            kind = (
                KIND_TELEPORTER_X
                if neighbour is None or neighbour.y == endpoint.y
                else KIND_TELEPORTER_Y
            )
            _add((kind, endpoint.as_tuple()), profile.data_teleport_work)
        return demands

    def _capacity(self, key: ResourceKey) -> float:
        kind = key[0]
        value = self._kind_capacity.get(kind)
        if value is None:
            machine = self.machine
            if kind in (KIND_TELEPORTER_X, KIND_TELEPORTER_Y):
                value = machine.teleporter_bandwidth_per_direction()
            elif kind == KIND_GENERATOR:
                value = machine.generator_bandwidth_per_link()
            elif kind == KIND_PURIFIER:
                value = machine.purifier_bandwidth_per_node()
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown resource kind {kind!r}")
            self._kind_capacity[kind] = value
        return value

    # -- fluid dynamics ---------------------------------------------------------------------

    def _advance_time(self) -> None:
        """Account for progress made since the last rate change."""
        now = self.engine.now
        elapsed = now - self._last_update
        if elapsed > 0:
            pack = self._pack
            pack.advance(elapsed)
            for kind, total in zip(pack.kinds, pack.kind_rate):
                if total > 0.0:
                    self._usage_integral[kind] = (
                        self._usage_integral.get(kind, 0.0) + total * elapsed
                    )
        self._last_update = now

    def _mark_dirty(self) -> None:
        """Schedule the instant's single reallocation unless one is pending."""
        if self._realloc_event is None:
            self._realloc_event = self.engine.schedule_at(
                self.engine.now, self._reallocate, priority=_REALLOCATE_PRIORITY
            )

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and re-arm the completion chain.

        Normally run by the deferred end-of-instant event; a direct call
        flushes it, cancelling the pending event.
        """
        event = self._realloc_event
        if event is not None:
            self._realloc_event = None
            event.cancel()
        pack = self._pack
        changed = pack.store_rates(self._rates(_SATURATION_EPS))
        trace = self.engine.trace
        if changed and trace is not None and trace.wants(FlowRateChanged.kind):
            # Only genuine changes are emitted, so the rate timeline is a pure
            # function of the fluid dynamics — identical across allocators
            # (they compute bitwise-equal rates) and across re-runs, which is
            # what the differential harness diffs.
            now = self.engine.now
            for row in changed:
                trace.emit(
                    FlowRateChanged(t_us=now, flow_id=pack.row_flow_id[row], rate=pack.rate[row])
                )
        self._spent_completions.clear()
        pack.set_finish_times(self.engine.now, _COMPLETION_EPS)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        """Keep exactly one pending completion event: the earliest one.

        The pick is over the finish times stored at the last reallocation.
        Ties resolve to the lowest flow id, and the event's ``1 + flow_id``
        priority orders it against same-time events; each completion re-arms
        the chain, so simultaneous completions fire one by one in flow order.
        An unchanged pick keeps its pending event.
        """
        nxt = self._pack.next_completion(self._spent_completions)
        event = self._next_completion
        if nxt is None:
            if event is not None:
                event.cancel()
                self._next_completion = None
            return
        flow_id, finish = nxt
        priority = 1 + flow_id
        if (
            event is not None
            and not event.cancelled
            and event.priority == priority
            and event.time == finish
        ):
            return
        if event is not None:
            event.cancel()
        flow = self._flows[flow_id]
        self._next_completion = self.engine.schedule_at(
            finish, lambda f=flow: self._complete(f), priority=priority
        )

    def _reference_rates(self, saturation_eps: float) -> List[float]:
        """From-scratch progressive filling over ``ChannelFlow.demands``: the oracle."""
        flows = list(self._flows.values())
        rates: Dict[int, float] = {flow.flow_id: 0.0 for flow in flows}
        remaining_cap: Dict[ResourceKey, float] = {}
        for flow in flows:
            for key in flow.demands:
                remaining_cap.setdefault(key, self._capacity(key))
        unfrozen = {flow.flow_id: flow for flow in flows}
        while unfrozen:
            best_delta = float("inf")
            for key, cap_left in remaining_cap.items():
                denom = sum(flow.demands.get(key, 0.0) for flow in unfrozen.values())
                if denom <= 0.0:
                    continue
                best_delta = min(best_delta, cap_left / denom)
            if best_delta == float("inf"):
                for flow_id in unfrozen:
                    rates[flow_id] += 1.0
                break
            for flow_id in unfrozen:
                rates[flow_id] += best_delta
            for key in remaining_cap:
                denom = sum(flow.demands.get(key, 0.0) for flow in unfrozen.values())
                remaining_cap[key] -= best_delta * denom
            saturated = {key for key, cap in remaining_cap.items() if cap <= saturation_eps}
            newly_frozen = [
                flow_id
                for flow_id, flow in unfrozen.items()
                if any(key in saturated for key in flow.demands)
            ]
            if not newly_frozen:
                break
            for flow_id in newly_frozen:
                del unfrozen[flow_id]
        row_rates = [0.0] * len(self._pack.rate)
        for flow_id, rate in rates.items():
            row_rates[self._pack.row_of(flow_id)] = rate
        return row_rates

    # -- completion -----------------------------------------------------------------------

    def _complete(self, flow: ChannelFlow) -> None:
        self._next_completion = None  # the fired event is spent
        self._advance_time()
        pack = self._pack
        if pack.remaining_of(flow.flow_id) > _COMPLETION_EPS:
            # Float residue left the flow short of done at its stored finish;
            # the next reallocation re-arms it, and the other flows'
            # completions stay armed meanwhile.
            self._spent_completions.add(flow.flow_id)
            self._schedule_next_completion()
            return
        del self._flows[flow.flow_id]
        pack.remove_flow(flow.flow_id)
        # Flows finishing later in this instant fire before the deferred
        # reallocation, from the finish times stored at the last one.
        self._schedule_next_completion()
        self._close_channel(
            flow.flow_id,
            flow.planned,
            start_us=flow.start_us,
            pairs_transited=flow.pairs_transited,
        )
        flow.done()
        self._mark_dirty()
