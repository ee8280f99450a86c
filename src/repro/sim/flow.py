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

Three allocators are available:

* ``incremental`` (the default) maintains a persistent resource→flows index
  so each progressive-filling iteration recomputes a resource's demand only
  over the flows actually registered on it, freezes bottlenecked flows
  through the index, and advances the utilisation integral from per-kind rate
  sums instead of walking every flow's demand vector.  An event costs
  O(iterations · (resources + index entries)) instead of the from-scratch
  O(flows² · resources).  The arithmetic is ordered to be *bitwise identical*
  to the reference allocator — skipping a flow's denominators contributes
  exact zeros — so both allocators produce the same event trace, not merely
  statistically similar ones (degenerate max-min ties would otherwise break
  differently and cascade into diverging makespans).
* ``vectorized`` moves the whole data plane into flat numpy arrays
  (:mod:`repro.sim.flowpack`): demand sums become sequential ``bincount``
  accumulations in flow-id order, the bottleneck delta a vectorized
  ``cap_left / denom`` min-reduction, freezing a boolean mask — all ordered
  to stay bitwise identical to the other two allocators.  It also collapses
  the per-flow completion events into a single chained next-completion event
  (the event-loop compaction for the reallocate/complete storm): every
  reallocation recomputes and stores each flow's finish time exactly as
  ``_schedule_completion`` would, takes the argmin (ties resolve to the
  lowest flow id, which is also the event-priority order the per-flow heap
  uses), and keeps one pending event instead of N.
* ``reference`` recomputes every rate by scanning every flow for every
  resource on every reallocation (the original seed behaviour).  It is kept
  as the oracle the benchmarks and property tests compare the fast
  allocators against.

Reallocation is deferred to the end of the simulated instant.  ``start`` and
a completion only mark the transport dirty; the first mark at an instant
schedules one engine event at ``now`` with priority
``_REALLOCATE_PRIORITY``, above every completion priority (``1 + flow_id``),
so it runs after all of the instant's completions and starts and a storm of
N starts costs one progressive filling instead of N.  This is exact: rates
are a pure function of the flow set, no rate is read before the instant
ends (load balancers read per-link flow *counts*), and with zero elapsed
time the skipped intermediate rates would have moved no work.  Between the
mark and the reallocation, pending completions keep the finish times fixed
at the last reallocation — the per-flow heap holds them as events, and the
chained mode re-arms from the finish times the pack stored then.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..errors import SimulationError
from ..trace.records import FlowRateChanged
from .control import PlannedCommunication
from .engine import Event, SimulationEngine
from .machine import QuantumMachine
from .transport import TransportBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .flowpack import FlowPack

#: Resource identifiers are (kind, *coordinates) tuples; kinds used below.
KIND_TELEPORTER_X = "teleporter_x"
KIND_TELEPORTER_Y = "teleporter_y"
KIND_GENERATOR = "generator"
KIND_PURIFIER = "purifier"

#: All resource kinds, in the order the vectorized pack accounts for them.
RESOURCE_KINDS = (KIND_TELEPORTER_X, KIND_TELEPORTER_Y, KIND_GENERATOR, KIND_PURIFIER)

ResourceKey = Tuple

#: The allocator names FlowTransport accepts (mirrored by the scenario codec).
ALLOCATORS = ("incremental", "reference", "vectorized")

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
    """One in-flight logical communication in the fluid model.

    Under the ``vectorized`` allocator the scalar ``remaining``/``rate``
    fields are *not* advanced — the flowpack arrays are authoritative — and
    ``completion_event`` stays unused (the transport keeps a single chained
    next-completion event instead).
    """

    flow_id: int
    planned: PlannedCommunication
    demands: Dict[ResourceKey, float]
    floor_us: float
    pairs_transited: float
    start_us: float
    done: Callable[["ChannelFlow"], None]
    remaining: float = 1.0
    rate: float = 0.0
    completion_event: Optional[Event] = None

    @property
    def hops(self) -> int:
        return self.planned.hops


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
        allocator: str = "incremental",
    ) -> None:
        if allocator not in ALLOCATORS:
            raise SimulationError(
                f"unknown allocator {allocator!r}; expected one of {ALLOCATORS}"
            )
        super().__init__(engine, machine)
        self.allocator = allocator
        self._incremental = allocator == "incremental"
        self._vectorized = allocator == "vectorized"
        self._flows: Dict[int, ChannelFlow] = {}
        self._last_update = 0.0
        self._usage_integral: Dict[str, float] = {}
        #: Persistent resource → {flow_id: demand work} index.
        self._members: Dict[ResourceKey, Dict[int, float]] = {}
        #: Per-kind sum of rate * work over active flows (usage accounting).
        self._kind_rate_sum: Dict[str, float] = {}
        #: Capacity is a pure function of the resource *kind* (three values),
        #: so it is memoized per kind; the per-kind capacity *totals* are
        #: accumulated key by key as resources are first used, preserving the
        #: exact summation order the old per-key cache walk produced.
        self._kind_capacity: Dict[str, float] = {}
        self._kind_capacity_total: Dict[str, float] = {}
        self._seen_keys: Set[ResourceKey] = set()
        self._pack: Optional["FlowPack"] = None
        self._next_completion: Optional[Event] = None
        #: The pending end-of-instant reallocation, if the flow set changed.
        self._realloc_event: Optional[Event] = None
        #: Flows whose chained completion fired but no-op'd since the last
        #: reallocation (mirrors the per-flow heap, where a fired event is
        #: spent until the next reallocation re-schedules it).
        self._spent_completions: Set[int] = set()
        if self._vectorized:
            try:
                from .flowpack import FlowPack
            except ImportError as exc:  # pragma: no cover - env without numpy
                raise SimulationError(
                    "the 'vectorized' allocator requires numpy; install it or "
                    "use the 'incremental' allocator"
                ) from exc
            self._pack = FlowPack(self._capacity, RESOURCE_KINDS)

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
            floor_us=profile.floor_us,
            pairs_transited=profile.pairs,
            start_us=self.engine.now,
            done=lambda f, cb=done: cb(),
        )
        self._flows[flow.flow_id] = flow
        for key, work in flow.demands.items():
            self._members.setdefault(key, {})[flow.flow_id] = work
            if key not in self._seen_keys:
                self._seen_keys.add(key)
                kind = key[0]
                self._kind_capacity_total[kind] = (
                    self._kind_capacity_total.get(kind, 0.0) + self._capacity(key)
                )
        if self._pack is not None:
            self._pack.add_flow(
                flow.flow_id,
                flow.demands,
                remaining=flow.remaining,
                start_us=flow.start_us,
                floor_us=flow.floor_us,
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
        totals: Dict[str, float] = {}
        for kind, usage in self._usage_integral.items():
            cap = self._kind_capacity_total.get(kind, 0.0)
            if cap > 0:
                ratio = usage / (cap * elapsed_us)
                totals[kind] = min(ratio, 1.0) if clamp else ratio
        return totals

    def resource_loads(self) -> Dict[ResourceKey, float]:
        """Instantaneous per-resource load: sum of rate x work over active flows."""
        if self._pack is not None:
            return self._pack.loads()
        loads: Dict[ResourceKey, float] = {}
        for key, members in self._members.items():
            load = 0.0
            for flow_id, work in members.items():
                load += self._flows[flow_id].rate * work
            if load > 0.0:
                loads[key] = load
        return loads

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
            if self._pack is not None:
                self._pack.advance(elapsed)
            else:
                # Per-flow progress uses the same arithmetic in all modes so
                # the allocators stay bitwise comparable.
                for flow in self._flows.values():
                    flow.remaining = max(flow.remaining - flow.rate * elapsed, 0.0)
            if self._incremental or self._vectorized:
                # The usage integral advances from per-kind rate sums
                # maintained at rate changes: O(kinds) instead of walking
                # every flow's demand vector.
                for kind, total in self._kind_rate_sum.items():
                    if total > 0.0:
                        self._usage_integral[kind] = (
                            self._usage_integral.get(kind, 0.0) + total * elapsed
                        )
            else:
                for flow in self._flows.values():
                    for key, work in flow.demands.items():
                        kind = key[0]
                        self._usage_integral[kind] = (
                            self._usage_integral.get(kind, 0.0) + flow.rate * work * elapsed
                        )
        self._last_update = now

    def _mark_dirty(self) -> None:
        """Schedule the instant's single reallocation unless one is pending."""
        if self._realloc_event is None:
            self._realloc_event = self.engine.schedule_at(
                self.engine.now, self._reallocate, priority=_REALLOCATE_PRIORITY
            )

    def _reallocate(self) -> None:
        """Recompute max-min fair rates and reschedule completion events.

        Normally run by the deferred end-of-instant event; a direct call
        flushes it, cancelling the pending event.
        """
        event = self._realloc_event
        if event is not None:
            self._realloc_event = None
            event.cancel()
        if self._pack is not None:
            self._reallocate_vectorized()
            return
        allocate = self._max_min_rates if self._incremental else self._max_min_rates_reference
        rates = allocate(list(self._flows.values()))
        trace = self.engine.trace
        if trace is not None and not trace.wants(FlowRateChanged.kind):
            trace = None
        for flow in self._flows.values():
            new_rate = rates[flow.flow_id]
            if self._incremental and new_rate != flow.rate:
                delta = new_rate - flow.rate
                for key, work in flow.demands.items():
                    kind = key[0]
                    self._kind_rate_sum[kind] = (
                        self._kind_rate_sum.get(kind, 0.0) + delta * work
                    )
            if trace is not None and new_rate != flow.rate:
                # Only genuine changes are emitted, so the rate timeline is a
                # pure function of the fluid dynamics — identical across
                # allocators (they compute bitwise-equal rates) and across
                # re-runs, which is what the differential harness diffs.
                trace.emit(
                    FlowRateChanged(t_us=self.engine.now, flow_id=flow.flow_id, rate=new_rate)
                )
            flow.rate = new_rate
            self._schedule_completion(flow)

    def _reallocate_vectorized(self) -> None:
        """Vectorized rates plus the single chained next-completion event."""
        pack = self._pack
        assert pack is not None
        self._spent_completions.clear()
        trace = self.engine.trace
        if trace is not None and not trace.wants(FlowRateChanged.kind):
            trace = None
        changes = pack.reallocate(_SATURATION_EPS, collect_changes=trace is not None)
        if trace is not None:
            now = self.engine.now
            for flow_id, rate in changes:
                trace.emit(FlowRateChanged(t_us=now, flow_id=flow_id, rate=rate))
        self._kind_rate_sum = pack.kind_rate_sums()
        pack.set_finish_times(self.engine.now, _COMPLETION_EPS)
        self._schedule_next_completion()

    def _schedule_next_completion(self) -> None:
        """Keep exactly one pending completion event: the earliest one.

        The pick is over the finish times stored at the last reallocation,
        which is what the per-flow heap would fire.  Ties resolve to the
        lowest flow id — the same order the per-flow heap's ``1 + flow_id``
        priorities impose — and each completion re-arms the chain, so
        simultaneous completions still fire one by one in identical order.
        """
        pack = self._pack
        assert pack is not None
        nxt = pack.next_completion(exclude_flow_ids=self._spent_completions or None)
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

    # -- incremental allocator ----------------------------------------------------------

    def _max_min_rates(self, flows: List[ChannelFlow]) -> Dict[int, float]:
        """Progressive filling accelerated by the resource→flows index.

        Each iteration recomputes a resource's unfrozen demand by walking only
        the flows registered on it, and finds the flows to freeze from the
        saturated resources' member lists.  Skipped flows would contribute
        exact ``0.0`` terms, so every float operation matches the reference
        allocator bit for bit — the two produce identical rates, merely at
        O(iterations · index entries) instead of O(iterations · resources ·
        flows).
        """
        rates: Dict[int, float] = {flow.flow_id: 0.0 for flow in flows}
        if not flows:
            return rates
        remaining_cap: Dict[ResourceKey, float] = {}
        for flow in flows:
            for key in flow.demands:
                remaining_cap.setdefault(key, self._capacity(key))
        # Unfrozen members per resource, seeded from the persistent index
        # (flow-id ordered) and thinned as flows freeze; demand sums then walk
        # exactly the flows still being filled.
        alive: Dict[ResourceKey, Dict[int, float]] = {
            key: dict(self._members[key]) for key in remaining_cap
        }
        unfrozen = {flow.flow_id: flow for flow in flows}
        # Per-resource demand sums are cached between iterations and only
        # recomputed for keys whose membership changed (a resummed unchanged
        # key would give the bitwise-same float, so caching is exact).
        denom: Dict[ResourceKey, float] = {}
        dirty = set(remaining_cap)
        # Progressive filling: all unfrozen rates rise together until the
        # bottleneck resource saturates; its users freeze (found through the
        # index), and the rest keep rising.
        for _ in range(len(flows) + 1):
            if not unfrozen:
                break
            for key in sorted(dirty):
                d = 0.0
                for work in alive[key].values():
                    d += work
                denom[key] = d
            dirty = set()
            best_delta = float("inf")
            for key, cap_left in remaining_cap.items():
                d = denom[key]
                if d > 0.0:
                    delta = cap_left / d
                    if delta < best_delta:
                        best_delta = delta
            if best_delta == float("inf"):
                # No shared resource constrains the remaining flows; give them
                # an effectively unconstrained rate (their floor dominates).
                for flow_id in unfrozen:
                    rates[flow_id] += 1.0
                break
            for flow_id in unfrozen:
                rates[flow_id] += best_delta
            newly_frozen = set()
            for key, d in denom.items():
                if d > 0.0:
                    remaining_cap[key] -= best_delta * d
                    if remaining_cap[key] <= _SATURATION_EPS:
                        newly_frozen.update(alive[key])
            if not newly_frozen:
                break
            for flow_id in sorted(newly_frozen):
                flow = unfrozen.pop(flow_id)
                for key in flow.demands:
                    alive[key].pop(flow_id, None)
                    dirty.add(key)
        return rates

    # -- reference (from-scratch) allocator ----------------------------------------------

    def _max_min_rates_reference(self, flows: List[ChannelFlow]) -> Dict[int, float]:
        rates: Dict[int, float] = {flow.flow_id: 0.0 for flow in flows}
        if not flows:
            return rates
        remaining_cap: Dict[ResourceKey, float] = {}
        for flow in flows:
            for key in flow.demands:
                remaining_cap.setdefault(key, self._capacity(key))
        unfrozen = {flow.flow_id: flow for flow in flows}
        for _ in range(len(flows) + 1):
            if not unfrozen:
                break
            best_delta = float("inf")
            for key, cap_left in remaining_cap.items():
                denom = sum(
                    flow.demands.get(key, 0.0) for flow in unfrozen.values()
                )
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
            saturated = {key for key, cap in remaining_cap.items() if cap <= _SATURATION_EPS}
            newly_frozen = [
                flow_id
                for flow_id, flow in unfrozen.items()
                if any(key in saturated for key in flow.demands)
            ]
            if not newly_frozen:
                break
            for flow_id in newly_frozen:
                del unfrozen[flow_id]
        return rates

    # -- completion -----------------------------------------------------------------------

    def _schedule_completion(self, flow: ChannelFlow) -> None:
        """(Re-)arm a flow's completion event, keeping it when unchanged.

        The finish time is recomputed from the current rate on every
        reallocation; if it lands bitwise on the already-pending event's time
        the event is kept instead of cancelled and re-pushed, which cuts the
        reallocate/complete storm's heap churn without changing a single
        observable (the kept event has the identical time and priority the
        fresh push would get).
        """
        now = self.engine.now
        if flow.remaining <= _COMPLETION_EPS:
            finish = now
        elif flow.rate <= 0.0:
            # Stalled; will be rescheduled at the next reallocation.
            if flow.completion_event is not None:
                flow.completion_event.cancel()
                flow.completion_event = None
            return
        else:
            finish = now + flow.remaining / flow.rate
        finish = max(finish, flow.start_us + flow.floor_us)
        event = flow.completion_event
        if event is not None:
            if not event.cancelled and event.time == finish:
                return
            event.cancel()
        # Priority encodes the flow id so simultaneous completions execute in
        # flow order by construction rather than by heap insertion sequence,
        # keeping the event order deterministic and identical across
        # allocators even if one of them ever reschedules less eagerly.
        flow.completion_event = self.engine.schedule_at(
            finish, lambda f=flow: self._complete(f), priority=1 + flow.flow_id
        )

    def _complete(self, flow: ChannelFlow) -> None:
        if flow.flow_id not in self._flows:
            return
        if self._pack is not None:
            # The fired event was the single chained one; it is spent.
            self._next_completion = None
        else:
            # The fired event must never be cancelled or kept again.
            flow.completion_event = None
        self._advance_time()
        remaining = (
            self._pack.remaining_of(flow.flow_id) if self._pack is not None else flow.remaining
        )
        if remaining > _COMPLETION_EPS:
            # A reallocation slowed the flow after this event was scheduled;
            # let the next reallocation re-arm it.  In chained mode the other
            # flows' completions must stay armed, so re-arm the chain with
            # this flow excluded (its per-flow event would be spent too).
            if self._pack is not None:
                self._spent_completions.add(flow.flow_id)
                self._schedule_next_completion()
            return
        del self._flows[flow.flow_id]
        if self._pack is not None:
            self._pack.remove_flow(flow.flow_id)
            # Flows finishing later in this instant fire before the deferred
            # reallocation, as their per-flow events would.
            self._schedule_next_completion()
        for key in flow.demands:
            if self._incremental:
                work = flow.demands[key]
                kind = key[0]
                self._kind_rate_sum[kind] = self._kind_rate_sum.get(kind, 0.0) - flow.rate * work
            members = self._members.get(key)
            if members is not None:
                members.pop(flow.flow_id, None)
                if not members:
                    del self._members[key]
        self._close_channel(
            flow.flow_id,
            flow.planned,
            start_us=flow.start_us,
            pairs_transited=flow.pairs_transited,
        )
        flow.done(flow)
        self._mark_dirty()
