"""Allocator scaling on a big multi-path fabric: 10k flows, 1024 hosts.

``bench_allocator_scaling.py`` pinned the vectorized allocator at 1000
concurrent flows on a flat mesh.  The big-fabric library multiplies both
axes: a k=16 fat tree has 1024 hosts and 1344 nodes, ECMP spreads every
cross-pod flow over 64 equal-cost six-hop candidates, and a realistic storm
holds 10,000 flows in flight at once.  The transport reallocates once per
simulated instant, so a storm of 10k starts at one instant costs one
progressive filling, not 10k.  This benchmark times two things:

* **the storm, end to end** — 10k flows are admitted at one instant through
  the real ``start()`` (balancer choice, route bookkeeping, demand
  construction, pack insertion), then one engine step runs the instant's
  single deferred reallocation over all of them.  Admission plus that first
  allocation must finish within ``STORM_WALL_BOUND_S``;
* **reallocation at depth** — the progressive-filling kernel is then timed
  again at the full 10k-flow incidence, where the gate holds: the vectorized
  allocator is **>=5x** faster than incremental (measured ~8x), and the two
  produce **bitwise**-identical per-flow rates and per-resource loads.

A second test pins the routing-policy makespan ordering end to end on a
small fat tree: ``least_loaded`` never loses to ``ecmp`` beyond tolerance,
and every balanced policy beats the unbalanced single-path baseline.

Set ``BENCH_FABRIC_OUT`` to a path to emit a ``BENCH_<sha>_fabric.json``
payload (CI does; the artifact records walls, the speedup and the per-policy
makespans for the perf trajectory).

Run with:  pytest benchmarks/bench_fabric_scaling.py -s -q
"""

import os
import random
import time

from repro.network.layout import CommRequest
from repro.scenarios import run
from repro.scenarios.bench import bench_payload, write_bench_file
from repro.scenarios.spec import ScenarioSpec
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.machine import QuantumMachine
from repro.network.nodes import ResourceAllocation

#: The storm: 10k random host-to-host flows on a k=16 fat tree (1024 hosts,
#: 1344 nodes) with the paper's scarce (2, 2, 1) per-node allocation.
FAT_TREE_ARITY = 16
FLOW_COUNT = 10_000
PAIR_SEED = 20060618

#: Timed reallocation repetitions; the best wall is compared (both
#: allocators recompute rates from scratch per call, so reps are identical).
REALLOC_REPS = 3

REQUIRED_VECTORIZED_SPEEDUP = 5.0

#: Absolute bound on the storm wall (admission + first allocation), either
#: allocator.  Measured 13.4 s incremental / 11.6 s vectorized on a 2-vCPU
#: 2.1 GHz Xeon VM, where admission dominates (fat-tree path enumeration);
#: the bound leaves ~2.2x headroom for slower runners.
STORM_WALL_BOUND_S = 30.0

#: Policy-ordering scale: the fattree_smoke machine (k=4, 16 hosts).
POLICY_MAKESPAN_TOL = 0.05


def _fabric_machine():
    return QuantumMachine(
        FAT_TREE_ARITY,
        topology_kind="fat_tree",
        allocation=ResourceAllocation(2, 2, 1),
        routing_policy="ecmp",
    )


def _random_host_pairs(machine, count, seed=PAIR_SEED):
    hosts = machine.topology.qubit_capacity
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        a, b = rng.randrange(hosts), rng.randrange(hosts)
        if a != b:
            pairs.append((machine.topology.host(a), machine.topology.host(b)))
    return pairs


def _admit_storm(allocator, count=FLOW_COUNT):
    """Start ``count`` flows at one instant, then run its one reallocation.

    Every start goes through the real transport path — ECMP candidate
    enumeration and choice, per-link flow bookkeeping, demand-vector
    construction, pack insertion — and only marks the transport dirty.  The
    first engine event is then the instant's deferred reallocation over all
    ``count`` flows.  Returns the transport and the wall of both together.
    """
    machine = _fabric_machine()
    pairs = _random_host_pairs(machine, count)
    engine = SimulationEngine()
    transport = FlowTransport(engine, machine, allocator=allocator)
    start = time.perf_counter()
    for qubit, (source, dest) in enumerate(pairs):
        plan = machine.planner.plan(source, dest)
        planned = PlannedCommunication(
            request=CommRequest(source=source, dest=dest, qubit=qubit), plan=plan
        )
        transport.start(planned, lambda: None)
    assert engine.step()
    storm_wall = time.perf_counter() - start
    # Exactly one event ran, and it was the one reallocation: rates are set.
    assert engine.processed_events == 1 and engine.now == 0.0
    assert transport.resource_loads()
    return transport, storm_wall


def _time_reallocation(transport, reps=REALLOC_REPS):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        transport._reallocate()
        best = min(best, time.perf_counter() - start)
    return best


def _flow_rates(transport):
    return {fid: transport._pack.rate_of(fid) for fid in transport._flows}


def test_vectorized_speedup_at_10k_flows_on_1024_host_fat_tree():
    walls = {}
    states = {}
    storms = {}
    for allocator in ("incremental", "vectorized"):
        transport, storm_wall = _admit_storm(allocator)
        assert transport.active_flows == FLOW_COUNT
        # The balancer really routed: per-link flow counts cover the fabric.
        assert transport._link_flows and max(transport._link_flows.values()) > 1
        storms[allocator] = storm_wall
        states[allocator] = (_flow_rates(transport), transport.resource_loads())
        walls[allocator] = _time_reallocation(transport)
    speedup = walls["incremental"] / walls["vectorized"]
    print(
        f"\n10k-flow reallocation (k={FAT_TREE_ARITY} fat tree, 1024 hosts, 2/2/1):\n"
        f"  storm      : {storms['incremental']:6.2f}s / {storms['vectorized']:6.2f}s"
        f" (incremental / vectorized; admission + first allocation)\n"
        f"  incremental: {walls['incremental']:6.3f}s per reallocation\n"
        f"  vectorized : {walls['vectorized']:6.3f}s per reallocation\n"
        f"  speedup    : {speedup:6.1f}x"
    )
    # Bitwise parity over all 10k concurrent flows, rates and loads.
    assert states["vectorized"][0] == states["incremental"][0]
    assert states["vectorized"][1] == states["incremental"][1]
    assert speedup >= REQUIRED_VECTORIZED_SPEEDUP
    for allocator, storm_wall in storms.items():
        assert storm_wall <= STORM_WALL_BOUND_S, (allocator, storm_wall)
    _maybe_emit(walls, speedup, _policy_makespans_cached())


def _policy_spec(policy):
    data = {
        "name": f"fattree_policy_{policy or 'none'}",
        "topology": {"kind": "fat_tree", "width": 4},
        "workload": {"kind": "qft", "num_qubits": 12},
        "physics": {"teleporters": 2, "generators": 2, "purifiers": 1},
        "runtime": {"layout": "home_base"},
    }
    if policy is not None:
        data["network"] = {"routing": {"policy": policy}}
    return ScenarioSpec.from_dict(data)


_POLICY_MAKESPANS = {}


def _policy_makespans_cached():
    if not _POLICY_MAKESPANS:
        for policy in (None, "ecmp", "least_loaded", "adaptive"):
            result = run(_policy_spec(policy))
            _POLICY_MAKESPANS[policy or "none"] = result.batch.makespan_us
    return dict(_POLICY_MAKESPANS)


def test_policy_makespan_ordering_on_small_fat_tree():
    """End-to-end policy sanity on the k=4 fat tree: load-aware routing
    helps, ECMP helps, and nothing loses to the single-path baseline."""
    makespans = _policy_makespans_cached()
    print("\nfat-tree k=4 qft-12 makespans (us):")
    for policy, makespan in makespans.items():
        print(f"  {policy:12s} {makespan:14.3f}")
    assert makespans["least_loaded"] <= makespans["ecmp"] * (1.0 + POLICY_MAKESPAN_TOL)
    for policy in ("ecmp", "least_loaded", "adaptive"):
        assert makespans[policy] <= makespans["none"]


def _maybe_emit(walls, speedup, makespans):
    """Emit the trajectory payload when CI asks for it (BENCH_FABRIC_OUT)."""
    out = os.environ.get("BENCH_FABRIC_OUT")
    if not out:
        return
    write_bench_file(out, fabric_payload(walls, speedup, makespans))
    print(f"  payload    : {out}")


def fabric_payload(walls, speedup, makespans):
    record = {
        "scenario": "fabric_fattree_10k",
        "flows": FLOW_COUNT,
        "arity": FAT_TREE_ARITY,
        "hosts": FAT_TREE_ARITY**3 // 4,
        "wall_time_s": walls["vectorized"],
        "incremental_wall_time_s": walls["incremental"],
        "vectorized_speedup": speedup,
        "policy_makespans_us": makespans,
    }
    return bench_payload([record])


def test_fabric_payload_records_speedup_and_policies(tmp_path):
    """The payload writer is deterministic plumbing — cover it without the storm."""
    payload = fabric_payload(
        {"incremental": 1.0, "vectorized": 0.1}, 10.0, {"ecmp": 123.0}
    )
    assert payload["scenarios"][0]["vectorized_speedup"] == 10.0
    assert payload["scenarios"][0]["policy_makespans_us"] == {"ecmp": 123.0}
    path = write_bench_file(str(tmp_path / "BENCH_test_fabric.json"), payload)
    assert os.path.exists(path)
