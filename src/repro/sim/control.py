"""High-level classical control unit (paper Section 3.2, "Route Planning").

The control unit sits between the scheduler and the transport backends: it
translates a two-logical-qubit operation into the long-distance communications
the machine layout requires, plans each one on the mesh (path, seed generator,
budget) and accounts for the classical ID packets that accompany the EPR
qubits.  Only the number of packets feeds the classical-network bandwidth
argument, so packets are counted, not built: each communication is handed a
contiguous block of per-run packet IDs.  It tracks logical qubit positions
through the layout object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.planner import ChannelPlan
from ..network.layout import CommRequest
from ..workloads.instructions import TwoQubitOp
from .machine import QuantumMachine


@dataclass(frozen=True)
class PlannedCommunication:
    """A communication request together with its channel plan."""

    request: CommRequest
    plan: Optional[ChannelPlan]

    @property
    def is_local(self) -> bool:
        return self.plan is None

    @property
    def hops(self) -> int:
        return 0 if self.plan is None else self.plan.hops


class ControlUnit:
    """Translates operations into planned communications on a machine."""

    def __init__(self, machine: QuantumMachine) -> None:
        self.machine = machine
        self._messages_issued = 0

    def reset(self) -> None:
        """Reset logical qubit positions and packet IDs (start of a new program)."""
        self.machine.layout.reset()
        self._messages_issued = 0

    def plan_operation(self, op: TwoQubitOp) -> List[PlannedCommunication]:
        """Plan every long-distance communication an operation requires.

        The layout decides *which* movements are needed (visit/return for Home
        Base, walk/return-home for Mobile Qubit); the planner decides *how*
        each one is routed and what it will cost.
        """
        requests = self.machine.layout.communications_for(op.qubit_a, op.qubit_b)
        planned: List[PlannedCommunication] = []
        for request in requests:
            if request.is_local:
                planned.append(PlannedCommunication(request=request, plan=None))
                continue
            plan = self.machine.planner.plan(request.source, request.dest)
            planned.append(PlannedCommunication(request=request, plan=plan))
        return planned

    def issue_messages(self, planned: PlannedCommunication) -> range:
        """Assign the ID packets that accompany a communication's EPR qubits.

        One packet per good pair that must reach the endpoints; the packet
        count is what the classical-network bandwidth estimate is based on.
        Returns the block of packet IDs assigned (empty for a local
        communication); IDs restart at 0 on :meth:`reset`.
        """
        first = self._messages_issued
        if planned.plan is not None:
            self._messages_issued += self.machine.good_pairs_per_logical_communication()
        return range(first, self._messages_issued)

    @property
    def messages_issued(self) -> int:
        """Total ID packets issued since the last reset."""
        return self._messages_issued
