"""Flow-core scaling: incremental and vectorized vs from-scratch allocation.

The seed allocator recomputed every flow's max-min fair rate from scratch over
every flow and resource on every start/completion event — O(flows² ·
resources) per event; it survives as the ``reference`` oracle.  The
incremental allocator's pure-Python kernel builds each resource's member
list once per reallocation and re-sums only the resources whose members
froze, so each progressive-filling round walks only the flows registered on
them; the vectorized allocator runs the same filling as numpy passes over
the same :class:`~repro.sim.flowpack.FlowPack` buffers.  This benchmark pins
down the two claims that matter:

* **speed** — the vectorized allocator is ≥12x faster than the from-scratch
  reference on a Home Base contention scenario with 64 concurrent channels
  (the regime Figure 16's big grids live in; it sustains ~25-30x on the
  reference machine), with the incremental allocator keeping its historical
  ≥5x floor;
* **fidelity** — makespans identical across all three allocators (±1e-6 us
  here; ``repro verify`` and the property suite pin the stronger bitwise
  contract) on the Figure 16 benchmark configurations and on Figure 9-style
  chained long-distance channels.

See ``bench_allocator_scaling.py`` for the 1000-concurrent-flow regime.

Run with:  pytest benchmarks/bench_flow_scaling.py --benchmark-only -s
"""

import time

from repro.analysis.fig16 import allocation_for_ratio
from repro.network.geometry import Coordinate
from repro.network.layout import CommRequest
from repro.network.nodes import ResourceAllocation
from repro.sim.control import PlannedCommunication
from repro.sim.engine import SimulationEngine
from repro.sim.flow import FlowTransport
from repro.sim.machine import QuantumMachine
from repro.sim.simulator import CommunicationSimulator
from repro.workloads.qft import qft_stream
from repro.workloads.synthetic import permutation_stream

#: Contention scenario: 128 logical qubits on a 12x12 Home Base grid, one
#: random perfect matching => 64 independent operations, each holding one
#: channel at a time => 64 concurrent channels crossing the mesh centre.
CONTENTION_GRID = 12
CONTENTION_QUBITS = 128
CONTENTION_ALLOCATION = ResourceAllocation(2, 2, 1)

MAKESPAN_TOLERANCE_US = 1e-6
#: The headline gate, now held by the vectorized allocator (raised from the
#: incremental allocator's historical 5.0 once the numpy data plane landed).
REQUIRED_SPEEDUP = 12.0
#: The incremental allocator must not regress below its original bar either.
INCREMENTAL_REQUIRED_SPEEDUP = 5.0


def _contention_run(allocator):
    machine = QuantumMachine(
        CONTENTION_GRID,
        num_qubits=CONTENTION_QUBITS,
        allocation=CONTENTION_ALLOCATION,
        layout="home_base",
    )
    stream = permutation_stream(CONTENTION_QUBITS)
    return CommunicationSimulator(machine, allocator=allocator).run(stream)


def test_backend_dispatch_resolves_to_the_direct_flow_transport():
    """The registry-selected fluid backend *is* the direct FlowTransport.

    The transport refactor (pluggable backends behind
    :mod:`repro.sim.transport`) dispatches once per run and must hand back
    the plain FlowTransport object with the allocator wired through — no
    wrapper, no indirection on the per-event path.  The actual trace-off
    hot-path timing gate is the >=5x speedup test below, which now runs
    through this dispatch; a registry-layer slowdown would surface there as
    a lost speedup margin.
    """
    from repro.sim.transport import create_transport

    machine = QuantumMachine(
        CONTENTION_GRID,
        num_qubits=CONTENTION_QUBITS,
        allocation=CONTENTION_ALLOCATION,
        layout="home_base",
    )
    engine = SimulationEngine()
    transport = create_transport("fluid", engine, machine, allocator="incremental")
    assert type(transport) is FlowTransport
    assert transport.allocator == "incremental"
    assert transport.engine is engine and transport.machine is machine


def test_incremental_allocator_speedup_on_64_channels(benchmark):
    start = time.perf_counter()
    reference = _contention_run("reference")
    reference_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    incremental = benchmark.pedantic(_contention_run, args=("incremental",), rounds=1, iterations=1)
    incremental_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = _contention_run("vectorized")
    vectorized_elapsed = time.perf_counter() - start

    incremental_speedup = reference_elapsed / incremental_elapsed
    vectorized_speedup = reference_elapsed / vectorized_elapsed
    print(
        f"\n64-channel contention ({CONTENTION_GRID}x{CONTENTION_GRID} Home Base, "
        f"{CONTENTION_QUBITS} qubits, {CONTENTION_ALLOCATION.label}):"
    )
    print(
        f"  reference  : {reference_elapsed:7.2f}s  makespan={reference.makespan_us:.6f} us\n"
        f"  incremental: {incremental_elapsed:7.2f}s  speedup={incremental_speedup:.1f}x\n"
        f"  vectorized : {vectorized_elapsed:7.2f}s  speedup={vectorized_speedup:.1f}x"
    )
    # The scenario really does keep 64 channels in flight.
    assert incremental.max_concurrent_channels() == 64
    # Same fluid dynamics, just computed incrementally / in numpy: the
    # makespans are bitwise identical, not merely within tolerance.
    assert incremental.makespan_us == reference.makespan_us
    assert vectorized.makespan_us == reference.makespan_us
    assert incremental.channel_count == reference.channel_count
    assert vectorized.channel_count == reference.channel_count
    # The headline: the numpy data plane is at least 12x faster under
    # contention, and the incremental core keeps its historical 5x floor.
    assert incremental_speedup >= INCREMENTAL_REQUIRED_SPEEDUP
    assert vectorized_speedup >= REQUIRED_SPEEDUP


def test_allocators_agree_on_fig16_benchmark_configs():
    """Figure 16 sweep configurations: identical makespans (±1e-6 us)."""
    stream = qft_stream(36)
    print("\nFigure 16 configs (6x6 QFT):")
    for layout in ("home_base", "mobile_qubit"):
        for ratio in (1, 4, 8):
            allocation = allocation_for_ratio(ratio, 18)
            makespans = {}
            for allocator in ("reference", "incremental", "vectorized"):
                machine = QuantumMachine(6, allocation=allocation, layout=layout)
                makespans[allocator] = (
                    CommunicationSimulator(machine, allocator=allocator)
                    .run(stream)
                    .makespan_us
                )
            difference = max(
                abs(makespans[allocator] - makespans["reference"])
                for allocator in ("incremental", "vectorized")
            )
            print(
                f"  {layout:13s} ratio={ratio}  makespan={makespans['incremental']:.3f} us  "
                f"|diff|={difference:.3e} us"
            )
            assert difference <= MAKESPAN_TOLERANCE_US


def test_allocators_agree_on_fig9_style_chained_channels():
    """Figure 9-style chained teleportation: staggered 64-hop channels."""
    machine = QuantumMachine(33, allocation=ResourceAllocation(2, 2, 1))
    # Eight long corner-to-corner channels sharing the mesh spine, started at
    # staggered times so flows join and leave an already-allocated system.
    specs = []
    for i in range(8):
        source = Coordinate(0, i)
        dest = Coordinate(32, 32 - i)
        specs.append((source, dest, 1000.0 * i))
    finals = {}
    for allocator in ("reference", "incremental", "vectorized"):
        engine = SimulationEngine()
        transport = FlowTransport(engine, machine, allocator=allocator)
        for qubit, (source, dest, delay) in enumerate(specs):
            plan = machine.planner.plan(source, dest)
            planned = PlannedCommunication(
                request=CommRequest(source=source, dest=dest, qubit=qubit), plan=plan
            )
            engine.schedule(delay, lambda p=planned: transport.start(p, lambda: None))
        engine.run()
        finals[allocator] = (engine.now, len(transport.records))
    print(
        f"\nChained 64-hop channels: makespan={finals['incremental'][0]:.3f} us, "
        f"|diff|={abs(finals['incremental'][0] - finals['reference'][0]):.3e} us"
    )
    for allocator in ("incremental", "vectorized"):
        assert finals[allocator][1] == finals["reference"][1] == len(specs)
        assert abs(finals[allocator][0] - finals["reference"][0]) <= MAKESPAN_TOLERANCE_US
