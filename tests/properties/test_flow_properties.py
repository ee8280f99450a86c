"""Property-based tests for the fluid transport's max-min fairness invariants.

Random concurrent channel mixes are pushed through :class:`FlowTransport` and
the fairness invariants are checked after *every* event:

* rate conservation — no resource is ever allocated beyond its capacity;
* the incremental and vectorized allocators agree with the from-scratch
  reference **bitwise**: identical flow-rate timelines and identical channel
  event traces, not merely close makespans;
* ``utilisation_report`` never needs its ``min(..., 1.0)`` clamp on a
  well-formed run (the usage integral stays within physical capacity);
* the flow store round-trips: adding and removing flows then rebuilding
  from scratch reproduces the compacted buffers exactly, and the numpy
  kernels match the pure-Python ones bit for bit.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.network.nodes import ResourceAllocation
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.machine import QuantumMachine
from repro.trace import FlowRateChanged, RouteChosen, TraceBus

ALL_ALLOCATORS = ("incremental", "reference", "vectorized")

GRID_SIDE = 5
#: Relative head-room for float round-off in capacity checks.
EPS = 1e-9

coords = st.builds(
    Coordinate,
    x=st.integers(min_value=0, max_value=GRID_SIDE - 1),
    y=st.integers(min_value=0, max_value=GRID_SIDE - 1),
)

#: (source, destination, start-delay) triples describing one channel each.
channel_specs = st.lists(
    st.tuples(coords, coords, st.floats(min_value=0.0, max_value=5000.0)),
    min_size=1,
    max_size=8,
)

allocations = st.sampled_from(
    [
        ResourceAllocation(1, 1, 1),
        ResourceAllocation(2, 2, 1),
        ResourceAllocation(8, 8, 1),
        ResourceAllocation(4, 2, 3),
    ]
)


def _planned(machine, source, dest, qubit):
    plan = machine.planner.plan(source, dest)
    request = CommRequest(source=source, dest=dest, qubit=qubit)
    return PlannedCommunication(request=request, plan=plan)


def _run_transport(allocation, specs, allocator, check=None, trace=None):
    """Drive a FlowTransport through ``specs``; call ``check`` after each event."""
    machine = QuantumMachine(GRID_SIDE, allocation=allocation)
    engine = SimulationEngine(trace=trace)
    transport = FlowTransport(engine, machine, allocator=allocator)
    for qubit, (source, dest, delay) in enumerate(specs):
        planned = _planned(machine, source, dest, qubit)
        engine.schedule(delay, lambda p=planned: transport.start(p, lambda: None))
    while engine.step():
        if check is not None:
            check(transport)
    return transport, engine


def _assert_rates_conserve_capacity(transport):
    for key, load in transport.resource_loads().items():
        capacity = transport.capacity_of(key)
        assert load <= capacity * (1.0 + EPS) + EPS, (
            f"resource {key} over capacity: load={load}, capacity={capacity}"
        )


class TestMaxMinFairnessInvariants:
    @given(allocations, channel_specs)
    @settings(max_examples=40, deadline=None)
    def test_rates_never_exceed_capacity(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        transport, _ = _run_transport(
            allocation, specs, "incremental", check=_assert_rates_conserve_capacity
        )
        assert transport.active_flows == 0
        assert len(transport.records) == len(specs)

    @given(allocations, channel_specs)
    @settings(max_examples=40, deadline=None)
    def test_reference_allocator_conserves_capacity_too(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        _run_transport(
            allocation, specs, "reference", check=_assert_rates_conserve_capacity
        )

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_reference_makespan(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        results = {}
        for allocator in ALL_ALLOCATORS:
            transport, engine = _run_transport(allocation, specs, allocator)
            results[allocator] = (engine.now, len(transport.records))
        for allocator in ALL_ALLOCATORS[1:]:
            assert results[allocator][1] == results["incremental"][1]
            assert abs(results[allocator][0] - results["incremental"][0]) <= 1e-6

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_all_allocators_bitwise_identical(self, allocation, specs):
        """reference/incremental/vectorized: bitwise-equal rate timelines,
        channel records, completion order and makespan on random scenarios."""
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        outcomes = {}
        for allocator in ALL_ALLOCATORS:
            bus = TraceBus(kinds=[FlowRateChanged.kind])
            transport, engine = _run_transport(allocation, specs, allocator, trace=bus)
            outcomes[allocator] = {
                # FlowRateChanged is a frozen dataclass: == is exact field
                # (bitwise float) equality, so this pins the full rate dict
                # timeline, not just the makespan.
                "rates": list(bus.records),
                "channels": [tuple(sorted(vars(r).items())) for r in transport.records],
                "now": engine.now,
            }
        baseline = outcomes["reference"]
        for allocator in ("incremental", "vectorized"):
            assert outcomes[allocator]["rates"] == baseline["rates"], allocator
            assert outcomes[allocator]["channels"] == baseline["channels"], allocator
            assert outcomes[allocator]["now"] == baseline["now"], allocator

    @given(allocations, channel_specs)
    @settings(max_examples=25, deadline=None)
    def test_utilisation_report_never_needs_its_clamp(self, allocation, specs):
        specs = [(s, d, t) for s, d, t in specs if s != d]
        if not specs:
            return
        transport, engine = _run_transport(allocation, specs, "incremental")
        elapsed = engine.now
        if elapsed <= 0:
            return
        raw = transport.utilisation_report(elapsed, clamp=False)
        clamped = transport.utilisation_report(elapsed)
        for kind, value in raw.items():
            assert 0.0 <= value <= 1.0 + EPS, f"{kind} utilisation {value} needs the clamp"
            assert clamped[kind] <= 1.0


# --------------------------------------------------------------------------
# Three-way allocator parity on multi-path fabrics under every routing policy

#: (fabric kwargs, host count) — small instances so hypothesis stays fast.
FABRIC_CONFIGS = (
    ({"topology_kind": "fat_tree", "width": 4}, 16),
    ({"topology_kind": "leaf_spine", "width": 3, "height": 2,
      "topology_options": {"hosts_per_leaf": 2}}, 6),
)

ROUTING_POLICIES = ("ecmp", "least_loaded", "adaptive")

#: (host-index pair, start-delay) triples; indices reduced mod host count.
fabric_channel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=1023),
        st.floats(min_value=0.0, max_value=5000.0),
    ),
    min_size=1,
    max_size=8,
)


def _run_fabric_transport(config, policy, specs, allocator, trace=None):
    kwargs, hosts = config
    machine = QuantumMachine(
        allocation=ResourceAllocation(2, 2, 1),
        routing_policy=policy,
        **kwargs,
    )
    engine = SimulationEngine(trace=trace)
    transport = FlowTransport(engine, machine, allocator=allocator)
    for qubit, (ia, ib, delay) in enumerate(specs):
        source = machine.topology.host(ia % hosts)
        dest = machine.topology.host(ib % hosts)
        planned = _planned(machine, source, dest, qubit)
        engine.schedule(delay, lambda p=planned: transport.start(p, lambda: None))
    engine.run()
    return transport, engine


class TestFabricAllocatorParity:
    @given(
        st.sampled_from(FABRIC_CONFIGS),
        st.sampled_from(ROUTING_POLICIES),
        fabric_channel_specs,
    )
    # Two flows on one host pair, 1e-5 us apart: between a completion and the
    # instant's deferred reallocation, the completion chain must fire the
    # finish times fixed at the last reallocation; recomputing them from
    # ``remaining`` dropped a FlowRateChanged when only one allocator chained
    # (all three share the chain now, so the goldens pin that behaviour).
    @example(FABRIC_CONFIGS[0], "ecmp", [(0, 1, 0.0), (0, 1, 1e-05)])
    @settings(max_examples=30, deadline=None)
    def test_all_allocators_bitwise_identical_under_balancing(
        self, config, policy, specs
    ):
        """Load-balanced multi-path routing must not break the allocator
        equivalence: on random fat-tree/leaf-spine channel mixes, every
        policy yields bitwise-equal rate timelines, channel records and
        makespans across reference/incremental/vectorized."""
        hosts = config[1]
        specs = [(a, b, t) for a, b, t in specs if a % hosts != b % hosts]
        if not specs:
            return
        outcomes = {}
        for allocator in ALL_ALLOCATORS:
            bus = TraceBus(kinds=[FlowRateChanged.kind, RouteChosen.kind])
            transport, engine = _run_fabric_transport(
                config, policy, specs, allocator, trace=bus
            )
            outcomes[allocator] = {
                "trace": list(bus.records),
                "channels": [tuple(sorted(vars(r).items())) for r in transport.records],
                "now": engine.now,
            }
        baseline = outcomes["reference"]
        routes = [r for r in baseline["trace"] if r.kind == RouteChosen.kind]
        assert len(routes) == len(specs)
        assert all(r.policy == policy for r in routes)
        for allocator in ("incremental", "vectorized"):
            assert outcomes[allocator]["trace"] == baseline["trace"], allocator
            assert outcomes[allocator]["channels"] == baseline["channels"], allocator
            assert outcomes[allocator]["now"] == baseline["now"], allocator


# --------------------------------------------------------------------------
# FlowPack structure and numpy-twin properties

pytest.importorskip("numpy")

from repro.errors import SimulationError  # noqa: E402
from repro.sim.flowpack import FlowPack, NumpyFlowPack  # noqa: E402

PACK_KINDS = ("alpha", "beta")

#: Every buffer and table a compaction must reproduce.
PACK_LAYOUT = (
    "row_flow_id",
    "active",
    "remaining",
    "rate",
    "start_us",
    "floor_us",
    "finish",
    "row_ptr",
    "entry_col",
    "entry_work",
    "col_keys",
    "col_cap",
    "col_kind",
    "kinds",
    "kind_capacity",
)

#: Per-flow demand maps over a small interned key space.  Work values are
#: drawn from a fixed palette so exact float comparison is meaningful.
pack_demands = st.lists(
    st.dictionaries(
        st.tuples(st.sampled_from(PACK_KINDS), st.integers(min_value=0, max_value=5)),
        st.sampled_from([0.5, 1.0, 2.0, 3.25]),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=12,
)


def _capacity_of(key):
    kind, index = key
    return 4.0 + index + (0.5 if kind == "beta" else 0.0)


def _build_pack(demand_maps, pack_class=FlowPack):
    pack = pack_class(_capacity_of)
    for flow_id, demands in enumerate(demand_maps):
        pack.add_flow(flow_id, demands, start_us=10.0 * flow_id, floor_us=float(flow_id % 3))
        pack.remaining[pack.row_of(flow_id)] = 1.0 + flow_id
    return pack


def _reallocate(pack):
    return pack.store_rates(pack.max_min_rates(1e-12))


def _rebuild(pack, demands_of):
    """Fresh pack holding only the live flows: the compaction oracle.

    Columns are never dropped, so the fresh pack interns the old column
    table first and then re-adds the survivors with their fluid state.
    """
    fresh = FlowPack(_capacity_of)
    for key in pack.col_keys:
        fresh._intern(key)
    for row, flow_id in enumerate(pack.row_flow_id):
        if pack.active[row]:
            fresh.add_flow(
                flow_id,
                demands_of(flow_id),
                start_us=pack.start_us[row],
                floor_us=pack.floor_us[row],
            )
            for name in ("remaining", "rate", "finish"):
                getattr(fresh, name)[fresh.row_of(flow_id)] = getattr(pack, name)[row]
    return fresh


doomed_flows = st.lists(st.integers(min_value=0, max_value=11), unique=True)


class TestFlowPackStructure:
    @given(pack_demands, doomed_flows)
    @settings(max_examples=60, deadline=None)
    def test_remove_compact_matches_fresh_rebuild(self, demand_maps, doomed):
        """add → remove subset → compact yields the exact buffers a fresh
        build over only the survivors would produce."""
        doomed = [flow_id for flow_id in doomed if flow_id < len(demand_maps)]
        pack = _build_pack(demand_maps)
        # Finite rates and stored finish times, so both must survive compaction.
        _reallocate(pack)
        pack.set_finish_times(0.0, 1e-9)
        for flow_id in doomed:
            pack.remove_flow(flow_id)
        rebuilt = _rebuild(pack, lambda fid: demand_maps[fid])
        pack.compact()
        for name in PACK_LAYOUT:
            assert getattr(pack, name) == getattr(rebuilt, name), name
        assert pack.n_flows == len(demand_maps) - len(doomed)

    @given(pack_demands, doomed_flows)
    @settings(max_examples=60, deadline=None)
    def test_numpy_twins_match_the_pure_kernels_bitwise(self, demand_maps, doomed):
        """Same rates, changed rows, per-kind rate sums, finish times and
        remaining work — before and after flows leave (so rate deltas start
        from nonzero rates)."""
        pure, twin = _build_pack(demand_maps), _build_pack(demand_maps, NumpyFlowPack)
        for leaving in ([], [flow_id for flow_id in doomed if flow_id < len(demand_maps)]):
            for flow_id in leaving:
                pure.remove_flow(flow_id)
                twin.remove_flow(flow_id)
            assert list(pure.max_min_rates(1e-12)) == twin.max_min_rates(1e-12).tolist()
            assert _reallocate(pure) == _reallocate(twin)
            assert pure.rate == twin.rate
            assert pure.kind_rate == twin.kind_rate
            pure.set_finish_times(2.0, 1e-9)
            twin.set_finish_times(2.0, 1e-9)
            assert pure.finish == twin.finish
            pure.advance(0.37)
            twin.advance(0.37)
            assert pure.remaining == twin.remaining

    @given(pack_demands)
    @settings(max_examples=40, deadline=None)
    def test_advance_clamps_remaining_at_zero(self, demand_maps):
        pack = _build_pack(demand_maps)
        _reallocate(pack)
        pack.advance(1e12)
        assert min(pack.remaining) >= 0.0

    def test_duplicate_and_non_monotonic_flow_ids_rejected(self):
        pack = FlowPack(_capacity_of)
        pack.add_flow(3, {("alpha", 0): 1.0})
        with pytest.raises(SimulationError):
            pack.add_flow(3, {("alpha", 0): 1.0})
        with pytest.raises(SimulationError):
            pack.add_flow(2, {("alpha", 1): 1.0})
