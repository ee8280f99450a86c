"""T'-node simulation process: the two time-multiplexed teleporter sets.

Each T' node's router (Figure 6) splits its ``t`` teleporters into an X set
and a Y set; qubits passing straight through use the set matching their travel
dimension, turning qubits are ballistically moved between sets.  Incoming
storage is ``t`` cells per link (4t per node), and the paper avoids deadlock
by never multiplexing that storage.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConfigurationError, SimulationError
from ..network.geometry import Coordinate
from ..network.nodes import TeleporterSpec
from ..network.router import QuantumRouter
from ..physics.parameters import IonTrapParameters
from ..trace.records import TeleportPerformed
from .engine import SimulationEngine
from .resources import ServiceCenter


def swap_routing(
    previous: Coordinate, node: Coordinate, nxt: Coordinate
) -> "tuple[str, bool]":
    """Which teleporter set a transiting swap uses, and whether it turns.

    A pair extending from ``previous`` through ``node`` toward ``nxt`` is
    serviced by ``node``'s X set when it leaves horizontally and its Y set
    otherwise (the Figure 6 router split); it *turns* — paying the ballistic
    move between the sets — when the incoming and outgoing dimensions differ.
    Both per-pair simulations (the single-channel study and the detailed
    transport backend) route through this one expression, so the physics
    cannot drift between them.
    """
    dimension = "x" if nxt.y == node.y else "y"
    turn = (previous.y == node.y) != (nxt.y == node.y)
    return dimension, turn


class TeleporterNodeSim:
    """Event-level model of one T' node's teleporter sets and storage."""

    def __init__(
        self,
        engine: SimulationEngine,
        position: Coordinate,
        *,
        spec: Optional[TeleporterSpec] = None,
        params: Optional[IonTrapParameters] = None,
        name: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.position = position
        self.spec = spec or TeleporterSpec()
        self.params = params or IonTrapParameters.default()
        self.router = QuantumRouter(position, self.spec)
        label = name or f"T'{position}"
        self._sets: Dict[str, ServiceCenter] = {
            "x": ServiceCenter(engine, self.router.x_teleporters, name=f"{label}.x"),
            "y": ServiceCenter(engine, self.router.y_teleporters, name=f"{label}.y"),
        }
        self._stored = 0
        self._turns = 0
        self._teleports = 0
        #: Constant per-swap service times (the router gate, the X<->Y move).
        self._teleport_us = self.params.times.teleport(0.0)
        self._turn_us = self.params.times.ballistic(self.router.turn_cells)

    # -- state ----------------------------------------------------------------------

    @property
    def stored_qubits(self) -> int:
        return self._stored

    @property
    def storage_cells(self) -> int:
        return self.router.storage_cells

    @property
    def teleports_performed(self) -> int:
        return self._teleports

    @property
    def turns_performed(self) -> int:
        return self._turns

    def service_for(self, dimension: str) -> ServiceCenter:
        if dimension not in self._sets:
            raise ConfigurationError(f"dimension must be 'x' or 'y', got {dimension!r}")
        return self._sets[dimension]

    def utilisation(self, elapsed_us: float) -> float:
        """Combined utilisation of both teleporter sets."""
        x = self._sets["x"].stats.utilisation(elapsed_us)
        y = self._sets["y"].stats.utilisation(elapsed_us)
        return (x + y) / 2.0

    # -- operations ------------------------------------------------------------------------

    def store_incoming(self) -> None:
        """Hold an incoming qubit in the storage area while its swap completes."""
        if self._stored >= self.storage_cells:
            raise SimulationError(
                f"storage overflow at {self.position}: {self._stored} qubits held, "
                f"capacity {self.storage_cells}"
            )
        self._stored += 1

    def release_storage(self) -> None:
        if self._stored <= 0:
            raise SimulationError(f"storage underflow at {self.position}")
        self._stored -= 1

    def teleport_through(
        self,
        dimension: str,
        done: Callable[[], None],
        *,
        turn: bool = False,
    ) -> None:
        """Perform one chained-teleportation swap through the given set.

        ``turn`` adds the intra-router ballistic move between the X and Y sets
        before the swap is serviced.
        """
        duration = self._teleport_us
        if turn:
            self._turns += 1
            duration += self._turn_us
        self._teleports += 1
        trace = self.engine.trace
        if trace is not None and trace.wants(TeleportPerformed.kind):
            trace.emit(
                TeleportPerformed(
                    t_us=self.engine.now,
                    node=self.position.as_tuple(),
                    dimension=dimension,
                    turn=turn,
                )
            )
        self.service_for(dimension).submit(duration, done)
