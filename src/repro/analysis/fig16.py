"""Figure 16: benchmark runtime vs. interconnect resource allocation.

The paper runs the QFT communication pattern on a 16x16 grid of logical
qubits under the Home Base and Mobile Qubit layouts, fixes the area dedicated
to the interconnect (T', G and P nodes) and varies how that area is split
between teleporters/generators and queue purifiers (t = g = {1, 2, 4, 8} x p).
Runtimes are normalised to a machine with effectively unlimited resources
(t = g = p = 1024 in the paper).

Expected shape: the Home Base workload keeps many channels sharing each T'
node, so it is teleporter-bandwidth bound and tolerates (or benefits from)
taking area away from purifiers, while the Mobile Qubit workload is mostly
nearest-neighbour, leaves the teleporters idle and suffers when the purifiers
shrink (t = g = 8p worse than t = g = 4p).

Grid size defaults to 8x8 so the sweep is fast enough for a benchmark run;
pass ``grid_side=16`` and ``num_qubits=256`` for the paper-scale machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..network.nodes import ResourceAllocation
from ..physics.parameters import IonTrapParameters
from ..sim.machine import QuantumMachine
from ..sim.results import SimulationResult
from ..sim.simulator import CommunicationSimulator
from ..sim.transport import DEFAULT_ALLOCATOR
from ..workloads.qft import qft_stream
from .series import FigureData, Series

#: t = g = ratio x p configurations swept (the paper highlights 1, 2, 4, 8).
DEFAULT_RATIOS = (1, 2, 4, 8)
#: Interconnect area units per tile split between t, g and p in the sweep.
DEFAULT_AREA_UNITS = 18
#: Layouts compared.
DEFAULT_LAYOUTS = ("home_base", "mobile_qubit")


@dataclass(frozen=True)
class Fig16Point:
    """One simulated configuration of the Figure 16 sweep."""

    layout: str
    ratio: int
    allocation: ResourceAllocation
    result: SimulationResult
    normalised_runtime: float


def allocation_for_ratio(ratio: int, area_units: int = DEFAULT_AREA_UNITS) -> ResourceAllocation:
    """Split a fixed per-tile area between t = g = ratio x p and p.

    Solving ``2 * (ratio * p) + p = area`` for integer p >= 1.
    """
    if ratio < 1:
        raise ConfigurationError(f"ratio must be >= 1, got {ratio}")
    if area_units < 3:
        raise ConfigurationError(f"area_units must be >= 3, got {area_units}")
    purifiers = max(area_units // (2 * ratio + 1), 1)
    teleporters = max(ratio * purifiers, 1)
    return ResourceAllocation(
        teleporters_per_node=teleporters,
        generators_per_node=teleporters,
        purifiers_per_node=purifiers,
    )


def baseline_allocation(count: int = 1024) -> ResourceAllocation:
    """The effectively unlimited allocation used for normalisation."""
    return ResourceAllocation.uniform(count)


def run_configuration(
    layout: str,
    allocation: ResourceAllocation,
    *,
    grid_side: int = 8,
    num_qubits: Optional[int] = None,
    params: Optional[IonTrapParameters] = None,
    logical_gate_us: float = 300.0,
    allocator: str = DEFAULT_ALLOCATOR,
) -> SimulationResult:
    """Simulate the QFT on one (layout, allocation) configuration."""
    machine = QuantumMachine(
        grid_side,
        allocation=allocation,
        layout=layout,
        num_qubits=num_qubits,
        params=params,
        logical_gate_us=logical_gate_us,
    )
    qubits = num_qubits or (grid_side * grid_side)
    stream = qft_stream(qubits)
    return CommunicationSimulator(machine, allocator=allocator).run(stream)


def figure16(
    *,
    grid_side: int = 8,
    num_qubits: Optional[int] = None,
    ratios: Sequence[int] = DEFAULT_RATIOS,
    area_units: int = DEFAULT_AREA_UNITS,
    layouts: Sequence[str] = DEFAULT_LAYOUTS,
    baseline_count: int = 1024,
    params: Optional[IonTrapParameters] = None,
) -> Tuple[FigureData, List[Fig16Point]]:
    """Regenerate Figure 16: normalised runtime per allocation and layout.

    Returns the figure series plus the raw per-configuration points (useful
    for inspecting utilisation and bottlenecks).
    """
    points: List[Fig16Point] = []
    series: List[Series] = []
    baselines: Dict[str, SimulationResult] = {}
    for layout in layouts:
        baselines[layout] = run_configuration(
            layout,
            baseline_allocation(baseline_count),
            grid_side=grid_side,
            num_qubits=num_qubits,
            params=params,
        )
    for layout in layouts:
        normalised: List[float] = []
        for ratio in ratios:
            allocation = allocation_for_ratio(ratio, area_units)
            result = run_configuration(
                layout,
                allocation,
                grid_side=grid_side,
                num_qubits=num_qubits,
                params=params,
            )
            value = result.normalised_to(baselines[layout])
            normalised.append(value)
            points.append(
                Fig16Point(
                    layout=layout,
                    ratio=ratio,
                    allocation=allocation,
                    result=result,
                    normalised_runtime=value,
                )
            )
        series.append(Series.from_points(layout, list(ratios), normalised))
    figure = FigureData(
        name="figure16",
        title="QFT runtime vs interconnect resource allocation (fixed area)",
        x_label="t = g = ratio x p",
        y_label=f"runtime normalised to t=g=p={baseline_count}",
        series=tuple(series),
        log_y=False,
        notes=(
            f"{grid_side}x{grid_side} grid, area {area_units} units/tile. Home Base is "
            "teleporter-bound and tolerates small purifiers; Mobile Qubit is "
            "purifier-bound and degrades as p shrinks."
        ),
    )
    return figure, points
