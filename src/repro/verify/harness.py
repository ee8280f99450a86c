"""Differential verification: replay one scenario several ways, diff the runs.

The paper's credibility rests on independent implementations of the same
physics agreeing: the max-min allocators must produce *bitwise identical*
dynamics, and the fluid flow backend must stay consistent with the detailed
per-pair backend.  One core turns that agreement into a harness:
:func:`replay` coerces the spec, validates the values of one :class:`Axis`
(allocator, backend, or routing policy), runs the first value as the
baseline and the others after it (each through :func:`traced_run`, which
returns the trace next to the result), and concatenates what each
*comparator* — a function ``(baseline, other) -> List[Divergence]`` — finds.
The ``verify_*`` functions are presets, one axis plus its comparators:

* :func:`verify_scenario` — allocators, :func:`compare_runs`: makespan,
  channel and flow-rate timelines bitwise, op completion order exact,
  utilisation to 1e-9 relative (summation order differs by allocator);
* :func:`verify_backends` — backends, :func:`compare_backend_runs`:
  makespan and op order within documented tolerances (the backends share
  only the control loop above the transport contract, so agreement is
  evidence, not tautology);
* :func:`verify_fidelity` — backends with parity noise applied,
  :func:`compare_fidelity_runs`: delivered per-channel fidelities;
* :func:`verify_traffic` — backends on a service scenario,
  :func:`compare_traffic_runs`: identical offered streams, equal drop and
  completion sets, completion order and delivered load within tolerance;
* :func:`verify_routing` — routing policies, each itself a backend replay;
  route records are checked per run, completion sets per policy pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ScenarioError
from ..network.routing import list_balancers
from ..scenarios.run import build_machine, build_stream
from ..scenarios.spec import BACKEND_NAMES, ScenarioSpec
from ..sim.results import SimulationResult
from ..sim.simulator import CommunicationSimulator
from ..sim.transport import ALLOCATORS
from ..trace import (
    CANONICAL_KINDS,
    ChannelClosed,
    ChannelOpened,
    FlowRateChanged,
    OperationRetired,
    RequestArrived,
    RequestCompleted,
    RequestDropped,
    RouteChosen,
    TraceBus,
    TraceRecord,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.engine import ServiceResult

#: Kinds a differential run records: the canonical stream plus rate changes.
DIFFERENTIAL_KINDS = frozenset(CANONICAL_KINDS) | {FlowRateChanged.kind}

#: Relative tolerance for final utilisation reports (summation-order noise).
UTILISATION_REL_TOL = 1e-9

#: Documented makespan agreement between transport backends: the fluid and
#: detailed granularities model the same physics at different resolutions
#: (max-min fair rates against FIFO queueing and pipeline fill), so their
#: makespans agree to a small factor, not to the bit.  Catalog scenarios
#: currently land within ~1.3x; 1.5 leaves headroom without letting a broken
#: backend slip through.
BACKEND_MAKESPAN_RATIO = 1.5

#: Allowed disorder between the backends' operation completion sequences:
#: the normalized Kendall (pairwise-inversion) distance between the two
#: orders.  Queueing noise legitimately swaps near-simultaneous completions;
#: wholesale reordering means the backends disagree about the dynamics.
BACKEND_ORDER_TOLERANCE = 0.25

#: Documented agreement between the backends' delivered channel fidelities.
#: The fluid backend evaluates the purification recurrence analytically once
#: per distance; the detailed backend replays it per EPR pair through the
#: event-driven queue purifiers and averages the delivered pairs.  The
#: physics is the same exact Bell-diagonal algebra, so the only divergence
#: is float summation order in the per-pair average — parts in 1e15; 1e-6
#: leaves five orders of magnitude of headroom while still catching any
#: model change on either side.
FIDELITY_ABS_TOL = 1e-6

#: Noise section applied by :func:`verify_fidelity` to scenarios that do not
#: carry one: a slightly degraded EPR source with an explicit target, which
#: keeps every catalog scenario inside the purifying regime (purification
#: level >= 1) where both backends exercise their full fidelity paths.
PARITY_NOISE = {"base_fidelity": 0.999, "target_fidelity": 0.9999}

#: The policy axis :func:`verify_routing` sweeps (every registered balancer).
ROUTING_POLICIES = ("ecmp", "least_loaded", "adaptive")

#: Allowed relative excess of the least-loaded makespan over the ECMP one.
#: On congested workloads load-aware placement should win (and does, by a
#: wide margin, on the multi-path catalog scenarios); on uncongested or
#: single-path fabrics the two policies land on identical paths and the
#: makespans tie exactly.  The band only absorbs near-tie noise — a genuine
#: inversion means the load view or the policy is broken.
ROUTING_MAKESPAN_TOL = 0.05


@dataclass
class TracedRun:
    """One simulated scenario with its trace attached.

    ``result`` is a :class:`~repro.sim.results.SimulationResult` for batch
    scenarios and a :class:`~repro.service.engine.ServiceResult` for service
    scenarios — the comparison helpers only touch the members the two share
    (``makespan_us``, ``channels``, ``resource_utilisation``, counts).
    """

    spec: ScenarioSpec
    allocator: str
    result: Union[SimulationResult, "ServiceResult"]
    records: List[TraceRecord]
    backend: str = "fluid"

    @property
    def makespan_us(self) -> float:
        return self.result.makespan_us

    @property
    def policy(self) -> Optional[str]:
        """The load-balancing policy the spec selects (None: single-path)."""
        network = self.spec.network
        return network.routing.policy if network and network.routing else None

    def of_kind(self, kind: str) -> List[TraceRecord]:
        return [record for record in self.records if record.kind == kind]


def traced_run(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    allocator: Optional[str] = None,
    backend: Optional[str] = None,
    kinds: Optional[Sequence[str]] = None,
) -> TracedRun:
    """Run one scenario with a trace bus attached.

    ``allocator`` and ``backend`` override the spec's runtime choices;
    ``kinds`` limits which record kinds are kept (default: the differential
    set — canonical plus flow-rate changes).  A spec with a ``traffic``
    section runs through the open-loop service simulator; everything else
    runs the workload's instruction stream through the batch simulator.
    """
    spec = ScenarioSpec.coerce(spec)
    allocator = allocator or spec.runtime.allocator
    backend = backend or spec.runtime.backend
    machine = build_machine(spec)
    bus = TraceBus(kinds=DIFFERENTIAL_KINDS if kinds is None else kinds)
    result: Union[SimulationResult, "ServiceResult"]
    if spec.traffic is not None:
        from ..service import ServiceSimulator

        result = ServiceSimulator(machine, allocator=allocator, backend=backend).run(
            spec.traffic, trace=bus
        )
    else:
        result = CommunicationSimulator(machine, allocator=allocator, backend=backend).run(
            build_stream(spec), max_events=spec.runtime.max_events, trace=bus
        )
    return TracedRun(
        spec=spec, allocator=allocator, result=result, records=bus.records, backend=backend
    )


@dataclass(frozen=True)
class Divergence:
    """One disagreement between two runs of the same scenario."""

    scenario: str
    aspect: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.scenario}] {self.aspect}: {self.detail}"


@dataclass
class ScenarioVerdict:
    """Outcome of differentially verifying one scenario."""

    scenario: str
    allocators: Tuple[str, ...]
    makespan_us: float
    operations: int
    channels: int
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences


# -- the replay core ----------------------------------------------------------------

#: Diffs a run against the baseline; an empty list means agreement.
Comparator = Callable[[TracedRun, TracedRun], List[Divergence]]


@dataclass(frozen=True)
class Axis:
    """One dimension a scenario is replayed along.

    ``point(spec, value)`` runs the spec at one value and returns the run
    plus any divergences found producing it (a nested replay's).
    """

    noun: str
    nouns: str
    known: Tuple[str, ...]
    point: Callable[[ScenarioSpec, str], Tuple[TracedRun, List[Divergence]]]


ALLOCATOR_AXIS = Axis(
    "allocator", "allocators", ALLOCATORS, lambda spec, v: (traced_run(spec, allocator=v), [])
)
BACKEND_AXIS = Axis(
    "backend", "backends", BACKEND_NAMES, lambda spec, v: (traced_run(spec, backend=v), [])
)


def replay(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    axis: Axis,
    values: Sequence[str],
    comparators: Sequence[Comparator],
    *,
    purpose: str,
    minimum: int = 2,
    prepare: Optional[Callable[[ScenarioSpec], ScenarioSpec]] = None,
    check: Optional[Callable[[TracedRun], List[Divergence]]] = None,
) -> Tuple[List[TracedRun], List[Divergence]]:
    """Replay ``spec`` at every value of ``axis``; diff each run against the first.

    Returns the runs (baseline first) and every divergence found.
    ``prepare`` transforms or rejects the coerced spec before the values are
    validated; ``purpose`` names the check in the too-few-values error.
    ``check`` vets each run on its own; then each comparator diffs every run
    after the baseline against it.
    """
    spec = ScenarioSpec.coerce(spec)
    if prepare is not None:
        spec = prepare(spec)
    values = tuple(values)
    if len(values) < minimum:
        count, noun = ("one", axis.noun) if minimum == 1 else ("two", axis.nouns)
        raise ScenarioError(f"{purpose} needs at least {count} {noun}, got {list(values)}")
    unknown = sorted(set(values) - set(axis.known))
    if unknown:
        raise ScenarioError(f"unknown {axis.nouns} {unknown}; available: {sorted(axis.known)}")
    runs: List[TracedRun] = []
    divergences: List[Divergence] = []
    for value in values:
        run, found = axis.point(spec, value)
        if check is not None:
            divergences.extend(check(run))
        divergences.extend(found)
        runs.append(run)
    for other in runs[1:]:
        for compare in comparators:
            divergences.extend(compare(runs[0], other))
    return runs, divergences


# -- shared comparison helpers ------------------------------------------------------


def _first_index(xs: Sequence[Any], ys: Sequence[Any]) -> int:
    """The first position at which two (unequal) sequences differ."""
    return next(
        (i for i, (x, y) in enumerate(zip(xs, ys)) if x != y), min(len(xs), len(ys))
    )


def _first_difference(xs: Sequence[Any], ys: Sequence[Any]) -> str:
    first = _first_index(xs, ys)
    got = xs[first] if first < len(xs) else "<missing>"
    want = ys[first] if first < len(ys) else "<missing>"
    return f"first difference at index {first}: {got} vs {want}"


def _compare_positive_ratio(
    a: TracedRun, b: TracedRun, x: float, y: float, bound: float, aspect: str, what: str, unit: str
) -> List[Divergence]:
    """Both values positive, and ``y`` (of ``b``) within ``1/bound..bound`` times ``x`` (of ``a``)."""
    if x <= 0 or y <= 0:
        detail = f"non-positive {what}: {a.backend}={x!r} vs {b.backend}={y!r}"
    elif 1.0 / bound <= y / x <= bound:
        return []
    else:
        detail = (
            f"{a.backend}={x:.3f}{unit} vs {b.backend}={y:.3f}{unit} "
            f"(ratio {y / x:.3f} outside 1/{bound:g}..{bound:g})"
        )
    return [Divergence(a.spec.name, aspect, detail)]


# -- allocator parity ---------------------------------------------------------------


def _op_completion_order(run: TracedRun) -> List[int]:
    return [record.op_index for record in run.of_kind(OperationRetired.kind)]


def compare_runs(a: TracedRun, b: TracedRun) -> List[Divergence]:
    """Diff two runs of the same scenario; empty list means agreement."""
    name = a.spec.name
    divergences: List[Divergence] = []

    # lint-ok: FLT001 -- allocator parity is a *bitwise* contract: both allocators
    # run the same float program, so any difference at all is a divergence
    if a.makespan_us != b.makespan_us:
        divergences.append(
            Divergence(
                name,
                "makespan",
                f"{a.allocator}={a.makespan_us!r} vs {b.allocator}={b.makespan_us!r}",
            )
        )

    order_a, order_b = _op_completion_order(a), _op_completion_order(b)
    if order_a != order_b:
        first = _first_index(order_a, order_b)
        divergences.append(
            Divergence(
                name,
                "op_order",
                f"completion orders differ at position {first} "
                f"({order_a[first:first + 3]} vs {order_b[first:first + 3]})",
            )
        )

    for kind, aspect in (
        (ChannelOpened.kind, "channel_open_timeline"),
        (ChannelClosed.kind, "channel_close_timeline"),
        (FlowRateChanged.kind, "rate_timeline"),
        # Request lifecycles only exist on service runs; on batch runs both
        # sides are empty and the comparison is vacuously bitwise.
        (RequestArrived.kind, "request_arrival_timeline"),
        (RequestDropped.kind, "request_drop_timeline"),
        (RequestCompleted.kind, "request_completion_timeline"),
    ):
        recs_a, recs_b = a.of_kind(kind), b.of_kind(kind)
        if recs_a != recs_b:
            divergences.append(
                Divergence(
                    name,
                    aspect,
                    f"{len(recs_a)} vs {len(recs_b)} records; "
                    f"{_first_difference(recs_a, recs_b)}",
                )
            )

    util_a = a.result.resource_utilisation
    util_b = b.result.resource_utilisation
    if set(util_a) != set(util_b):
        divergences.append(
            Divergence(
                name,
                "utilisation",
                f"resource classes differ: {sorted(util_a)} vs {sorted(util_b)}",
            )
        )
    else:
        for kind in sorted(util_a):
            x, y = util_a[kind], util_b[kind]
            scale = max(abs(x), abs(y), 1.0)
            if abs(x - y) > UTILISATION_REL_TOL * scale:
                divergences.append(
                    Divergence(
                        name,
                        "utilisation",
                        f"{kind}: {a.allocator}={x!r} vs {b.allocator}={y!r}",
                    )
                )
    return divergences


def verify_scenario(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    allocators: Sequence[str] = ALLOCATORS,
) -> ScenarioVerdict:
    """Replay ``spec`` under every allocator and diff the dynamics."""
    runs, divergences = replay(
        spec, ALLOCATOR_AXIS, allocators, [compare_runs], purpose="differential verification"
    )
    baseline = runs[0]
    return ScenarioVerdict(
        scenario=baseline.spec.name,
        allocators=tuple(run.allocator for run in runs),
        makespan_us=baseline.makespan_us,
        operations=baseline.result.operation_count,
        channels=baseline.result.channel_count,
        divergences=divergences,
    )


# -- backend cross-check ------------------------------------------------------------


def _order_distance(a: List[int], b: List[int]) -> float:
    """Normalized Kendall distance: fraction of pairwise inversions (0..1)."""
    position = {op: index for index, op in enumerate(a)}
    sequence = [position[op] for op in b]
    n = len(sequence)
    if n < 2:
        return 0.0
    inversions = 0
    for i in range(n):
        left = sequence[i]
        for j in range(i + 1, n):
            if left > sequence[j]:
                inversions += 1
    return inversions / (n * (n - 1) / 2)


def _compare_completions(
    a: TracedRun,
    b: TracedRun,
    order_of: Callable[[TracedRun], List[int]],
    tolerance: float,
    aspects: Tuple[str, str],
    items: str,
    orders: str = "completion orders",
) -> List[Divergence]:
    """The same ``items`` completed (else ``aspects[0]``), in orders within
    ``tolerance`` normalized pairwise inversions (else ``aspects[1]``).
    """
    order_a, order_b = order_of(a), order_of(b)
    if sorted(order_a) != sorted(order_b):
        detail = f"completed {items} differ: {len(order_a)} ({a.backend}) vs {len(order_b)} ({b.backend})"
        return [Divergence(a.spec.name, aspects[0], detail)]
    disorder = _order_distance(order_a, order_b)
    if disorder <= tolerance:
        return []
    detail = f"{orders} differ by {disorder:.3f} normalized inversions (tolerance {tolerance:g})"
    return [Divergence(a.spec.name, aspects[1], detail)]


def compare_backend_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff two runs of one scenario on different backends, within tolerances.

    Unlike :func:`compare_runs` (which demands bitwise agreement between
    allocators of the *same* model), backends model different granularities:
    makespans must agree within ``makespan_ratio``, the operation/channel
    structure must match exactly, and the operation completion orders may
    differ by at most ``order_tolerance`` normalized pairwise inversions.
    """
    divergences = _compare_positive_ratio(
        a, b, a.makespan_us, b.makespan_us, makespan_ratio, "backend_makespan", "makespan", " us"
    )
    if a.makespan_us <= 0 or b.makespan_us <= 0:
        return divergences

    divergences += _compare_completions(
        a, b, _op_completion_order, order_tolerance, ("backend_op_set", "backend_op_order"), "operations"
    )

    opens_a = len(a.of_kind(ChannelOpened.kind))
    opens_b = len(b.of_kind(ChannelOpened.kind))
    if opens_a != opens_b:
        divergences.append(
            Divergence(
                a.spec.name,
                "backend_channels",
                f"channel counts differ: {opens_a} ({a.backend}) vs {opens_b} ({b.backend})",
            )
        )
    return divergences


def verify_backends(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backends: Sequence[str] = BACKEND_NAMES,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Replay ``spec`` under every backend and diff the runs pairwise.

    The first backend is the baseline; every other backend's makespan must
    agree within ``makespan_ratio`` and its operation completion order
    within ``order_tolerance`` (see :func:`compare_backend_runs`).  Works on
    any catalog or file-defined scenario the backends can execute.
    """
    compare = partial(compare_backend_runs, makespan_ratio=makespan_ratio, order_tolerance=order_tolerance)
    return replay(spec, BACKEND_AXIS, backends, [compare], purpose="the backend cross-check")[1]


# -- fidelity parity ----------------------------------------------------------------


def _fidelity_by_hops(run: TracedRun) -> Dict[int, List[float]]:
    """Delivered fidelities grouped by hop count (order-independent key).

    Flow ids are allocated in service order, which legitimately differs
    between backends, but a channel's delivered fidelity is a function of its
    distance alone — so hop count is the stable join key for parity.
    """
    grouped: Dict[int, List[float]] = {}
    for channel in run.result.channels:
        if channel.delivered_fidelity is not None:
            grouped.setdefault(channel.hops, []).append(channel.delivered_fidelity)
    return grouped


def compare_fidelity_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    tolerance: float = FIDELITY_ABS_TOL,
) -> List[Divergence]:
    """Diff the delivered-fidelity accounting of two runs of one scenario.

    Every channel must carry a delivered fidelity on both runs, the two runs
    must service the same channel population per hop count, and the
    per-hop-count fidelity extremes must agree within ``tolerance``
    (analytical Werner algebra vs per-pair purification outcomes).
    """
    name = a.spec.name
    divergences: List[Divergence] = []
    for run in (a, b):
        untracked = sum(
            1 for channel in run.result.channels if channel.delivered_fidelity is None
        )
        if untracked:
            divergences.append(
                Divergence(
                    name,
                    "fidelity_missing",
                    f"{untracked}/{len(run.result.channels)} channels on "
                    f"{run.backend} carry no delivered fidelity",
                )
            )
    if divergences:
        return divergences
    by_hops_a, by_hops_b = _fidelity_by_hops(a), _fidelity_by_hops(b)
    if set(by_hops_a) != set(by_hops_b):
        divergences.append(
            Divergence(
                name,
                "fidelity_channels",
                f"hop populations differ: {sorted(by_hops_a)} ({a.backend}) "
                f"vs {sorted(by_hops_b)} ({b.backend})",
            )
        )
        return divergences
    for hops in sorted(by_hops_a):
        values_a, values_b = by_hops_a[hops], by_hops_b[hops]
        if len(values_a) != len(values_b):
            divergences.append(
                Divergence(
                    name,
                    "fidelity_channels",
                    f"{len(values_a)} vs {len(values_b)} channels at {hops} hops",
                )
            )
            continue
        for aspect, reduce in (("min", min), ("max", max)):
            x, y = reduce(values_a), reduce(values_b)
            if abs(x - y) > tolerance:
                divergences.append(
                    Divergence(
                        name,
                        "fidelity_value",
                        f"{aspect} delivered fidelity at {hops} hops: "
                        f"{a.backend}={x!r} vs {b.backend}={y!r} "
                        f"(|diff| {abs(x - y):.3e} > {tolerance:g})",
                    )
                )
    return divergences


def verify_fidelity(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backends: Sequence[str] = BACKEND_NAMES,
    tolerance: float = FIDELITY_ABS_TOL,
    noise: Optional[Mapping[str, Any]] = None,
) -> List[Divergence]:
    """Fluid-vs-detailed fidelity parity for one scenario.

    The scenario is replayed under every backend with fidelity accounting on
    — scenarios without a ``noise`` section get :data:`PARITY_NOISE` (or the
    ``noise`` argument) applied — and the delivered per-channel fidelities
    must agree within ``tolerance`` (see :func:`compare_fidelity_runs`).
    """

    def with_parity_noise(spec: ScenarioSpec) -> ScenarioSpec:
        if noise is None and spec.noise is not None:
            return spec
        return spec.with_noise(dict(PARITY_NOISE if noise is None else noise))

    compare = partial(compare_fidelity_runs, tolerance=tolerance)
    return replay(
        spec, BACKEND_AXIS, backends, [compare], purpose="the fidelity parity check", prepare=with_parity_noise
    )[1]


# -- routing-policy diff ------------------------------------------------------------


def _check_route_records(run: TracedRun) -> List[Divergence]:
    """One well-formed ``route`` record, naming the policy, per channel open."""
    details = []
    routes, opens = run.of_kind(RouteChosen.kind), run.of_kind(ChannelOpened.kind)
    if len(routes) != len(opens):
        details.append(f"{run.policy}: {len(routes)} route records for {len(opens)} channel opens")
    bad = [r for r in routes if r.policy != run.policy or r.candidates < 1]
    if bad:
        details.append(f"{run.policy}: {len(bad)} route records malformed (first: {bad[0]})")
    return [Divergence(run.spec.name, "routing_records", detail) for detail in details]


def _completion_identity(run: TracedRun) -> List[int]:
    """What the run completed, order-independent: op indices or request ids."""
    if run.spec.traffic is not None:
        return sorted(_request_completion_order(run))
    return sorted(_op_completion_order(run))


def _compare_completion_sets(a: TracedRun, b: TracedRun) -> List[Divergence]:
    completed, other = _completion_identity(a), _completion_identity(b)
    if other == completed:
        return []
    detail = f"{b.policy} completed {len(other)} items vs {len(completed)} under {a.policy}"
    return [Divergence(a.spec.name, "routing_completion_set", detail)]


def _compare_routing_makespans(ecmp: TracedRun, least_loaded: TracedRun, tolerance: float) -> List[Divergence]:
    if least_loaded.makespan_us <= ecmp.makespan_us * (1.0 + tolerance):
        return []
    detail = (
        f"least_loaded={least_loaded.makespan_us:.3f} us exceeds "
        f"ecmp={ecmp.makespan_us:.3f} us by more than {tolerance:.0%}"
    )
    return [Divergence(ecmp.spec.name, "routing_makespan_order", detail)]


def _backend_parity(a: TracedRun, b: TracedRun, **tolerances: float) -> List[Divergence]:
    """The backend comparator for the run's mode: traffic or batch parity."""
    compare = compare_traffic_runs if a.spec.traffic is not None else compare_backend_runs
    return compare(a, b, **tolerances)


def verify_routing(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    policies: Sequence[str] = ROUTING_POLICIES,
    backends: Sequence[str] = BACKEND_NAMES,
    makespan_tolerance: float = ROUTING_MAKESPAN_TOL,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff load-balancing policies against each other on one scenario.

    The scenario is replayed once per policy (its ``network.routing`` section
    overridden; the rest of the spec untouched) and the runs must agree on
    *what* completed — path choice may reshape contention and therefore
    timing, but never the delivered computation:

    * every policy completes the identical operation (or, for service
      scenarios, request) set;
    * every channel open is preceded by exactly one ``route`` record naming
      the policy, and each record's candidate count covers the chosen path;
    * the least-loaded makespan never exceeds the ECMP one by more than
      ``makespan_tolerance`` (load-aware placement must not lose to
      oblivious hashing — they tie exactly on single-path fabrics);
    * per policy, the scenario is replayed under every backend (the first
      is the baseline the policy checks see) and the runs agree within the
      standard cross-backend tolerances (:func:`compare_backend_runs` /
      :func:`compare_traffic_runs`): the load view is channel counts, which
      both granularities maintain identically, so a policy must not open a
      divergence the unbalanced backends do not already have.
    """
    parity = partial(_backend_parity, makespan_ratio=makespan_ratio, order_tolerance=order_tolerance)

    def at_policy(spec: ScenarioSpec, policy: str) -> Tuple[TracedRun, List[Divergence]]:
        pspec = spec.with_network({"routing": {"policy": policy}})
        runs, divergences = replay(pspec, BACKEND_AXIS, backends, [parity], purpose="the routing diff", minimum=1)
        return runs[0], divergences

    runs, divergences = replay(
        spec,
        Axis("policy", "policies", tuple(list_balancers()), at_policy),
        policies,
        [_compare_completion_sets],
        purpose="the routing diff",
        minimum=1,
        check=_check_route_records,
    )
    by_policy = {run.policy: run for run in runs}
    if "ecmp" in by_policy and "least_loaded" in by_policy:
        divergences += _compare_routing_makespans(by_policy["ecmp"], by_policy["least_loaded"], makespan_tolerance)
    return divergences


# -- traffic parity -----------------------------------------------------------------


def _request_completion_order(run: TracedRun) -> List[int]:
    return [record.request_id for record in run.of_kind(RequestCompleted.kind)]


def _delivered_load_per_ms(run: TracedRun) -> float:
    """Delivered channel-load, recomputed from the trace alone."""
    channels = sum(record.channels for record in run.of_kind(RequestCompleted.kind))
    if run.makespan_us <= 0:
        return 0.0
    return channels / run.makespan_us * 1000.0


def compare_traffic_runs(
    a: TracedRun,
    b: TracedRun,
    *,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Diff two service runs of one scenario on different backends.

    The offered load is pre-generated from the spec, so the arrival record
    streams must be *bitwise identical* — any difference means the backends
    were not fed the same traffic and the rest of the comparison is
    meaningless.  Given identical offers, the two backends must drop and
    complete the same request populations, complete them in nearly the same
    order (``order_tolerance`` normalized pairwise inversions) and deliver
    load at rates whose ratio stays within ``makespan_ratio``.
    """
    name = a.spec.name
    arrivals_a, arrivals_b = a.of_kind(RequestArrived.kind), b.of_kind(RequestArrived.kind)
    if arrivals_a != arrivals_b:
        return [
            Divergence(
                name,
                "traffic_arrivals",
                f"offered streams differ ({len(arrivals_a)} vs {len(arrivals_b)} "
                f"arrivals); {_first_difference(arrivals_a, arrivals_b)}",
            )
        ]
    divergences: List[Divergence] = []

    drops_a = {record.request_id for record in a.of_kind(RequestDropped.kind)}
    drops_b = {record.request_id for record in b.of_kind(RequestDropped.kind)}
    if drops_a != drops_b:
        divergences.append(
            Divergence(
                name,
                "traffic_drop_set",
                f"dropped requests differ: {sorted(drops_a ^ drops_b)} "
                f"({len(drops_a)} on {a.backend} vs {len(drops_b)} on {b.backend})",
            )
        )

    divergences += _compare_completions(
        a, b, _request_completion_order, order_tolerance, ("traffic_completion_set", "traffic_completion_order"),
        "requests", "request completion orders",
    )

    divergences += _compare_positive_ratio(
        a, b, _delivered_load_per_ms(a), _delivered_load_per_ms(b), makespan_ratio,
        "traffic_delivered_load", "delivered load", "/ms",
    )
    return divergences


def _require_traffic(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.traffic is None:
        raise ScenarioError(
            f"scenario {spec.name!r} has no traffic section; "
            "the traffic parity check needs an open-loop service scenario"
        )
    return spec


def verify_traffic(
    spec: Union[ScenarioSpec, Mapping[str, Any]],
    *,
    backends: Sequence[str] = BACKEND_NAMES,
    makespan_ratio: float = BACKEND_MAKESPAN_RATIO,
    order_tolerance: float = BACKEND_ORDER_TOLERANCE,
) -> List[Divergence]:
    """Fluid-vs-detailed parity for one open-loop service scenario.

    Requires a spec with a ``traffic`` section.  The scenario is replayed
    under every backend with the identical pre-generated request stream and
    the runs are diffed pairwise against the first backend (see
    :func:`compare_traffic_runs`).
    """
    compare = partial(compare_traffic_runs, makespan_ratio=makespan_ratio, order_tolerance=order_tolerance)
    return replay(
        spec, BACKEND_AXIS, backends, [compare], purpose="the traffic parity check", prepare=_require_traffic
    )[1]
