"""EPR pair generation model (paper Section 4.4, Eq. 4).

A generator (G) node produces an EPR pair from two freshly initialised qubits
with one single-qubit and one two-qubit gate.  The resulting fidelity is

    F_gen ∝ (1 - p_1q) (1 - p_2q) F_zero

where ``F_zero`` is the fidelity of the zero-prepared inputs.  We also provide
an :class:`EPRPair` value object that carries the full Bell-diagonal state
plus provenance useful for the simulator (identity, generator location,
accumulated movement).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .fidelity import validate_fidelity
from .parameters import IonTrapParameters
from .states import BellDiagonalState


def generation_fidelity(
    params: IonTrapParameters | None = None,
    zero_prep_fidelity: Optional[float] = None,
) -> float:
    """Fidelity of a freshly generated EPR pair (Eq. 4)."""
    params = params or IonTrapParameters.default()
    f_zero = params.zero_prep_fidelity if zero_prep_fidelity is None else zero_prep_fidelity
    f_zero = validate_fidelity(f_zero, name="zero_prep_fidelity")
    return (1.0 - params.errors.one_qubit_gate) * (1.0 - params.errors.two_qubit_gate) * f_zero


def generation_state(
    params: IonTrapParameters | None = None,
    zero_prep_fidelity: Optional[float] = None,
) -> BellDiagonalState:
    """Bell-diagonal state of a freshly generated EPR pair.

    The imperfection of the preparation is unbiased, so the generated state is
    Werner-like with fidelity :func:`generation_fidelity`.
    """
    return BellDiagonalState.werner(generation_fidelity(params, zero_prep_fidelity))


def generation_time(params: IonTrapParameters | None = None) -> float:
    """Time to generate one EPR pair (Table 1 lists ~122 us)."""
    params = params or IonTrapParameters.default()
    return params.times.generate


@dataclass(frozen=True)
class EPRPair:
    """A tracked EPR pair: Bell-diagonal state plus provenance.

    Attributes
    ----------
    state:
        Current Bell-diagonal state of the pair.
    pair_id:
        Identifier assigned by the caller at generation; mirrors the classical
        ID packet the paper's G-node control attaches to each pair.
    generator:
        Optional label of the generator node that produced the pair.
    left_location / right_location:
        Optional labels of where each half currently resides.
    moved_cells:
        Total ballistic distance (cells) accumulated by both halves.
    teleport_hops:
        Number of chained teleportations the pair has undergone.
    purification_rounds:
        Number of successful purification rounds applied to the pair.
    """

    state: BellDiagonalState
    pair_id: int = 0
    generator: Optional[str] = None
    left_location: Optional[str] = None
    right_location: Optional[str] = None
    moved_cells: float = 0.0
    teleport_hops: int = 0
    purification_rounds: int = 0

    @property
    def fidelity(self) -> float:
        """Fidelity of the pair's current state."""
        return self.state.fidelity

    @property
    def error(self) -> float:
        """Error (1 - fidelity) of the pair's current state."""
        return self.state.error

    @property
    def locations(self) -> Tuple[Optional[str], Optional[str]]:
        """Current locations of the two halves."""
        return (self.left_location, self.right_location)

    def with_state(self, state: BellDiagonalState) -> "EPRPair":
        """Return a copy with a different quantum state."""
        return replace(self, state=state)

    def after_move(self, cells: float, params: IonTrapParameters | None = None) -> "EPRPair":
        """Return the pair after ballistically moving one half by ``cells``."""
        params = params or IonTrapParameters.default()
        new_state = self.state.movement_decay(params.errors.move_cell, cells)
        return replace(self, state=new_state, moved_cells=self.moved_cells + cells)

    def after_teleport_hop(self, state: BellDiagonalState) -> "EPRPair":
        """Return the pair after one chained-teleportation hop with ``state``."""
        return replace(self, state=state, teleport_hops=self.teleport_hops + 1)

    def after_purification(self, state: BellDiagonalState) -> "EPRPair":
        """Return the pair after one successful purification round."""
        return replace(self, state=state, purification_rounds=self.purification_rounds + 1)

    def at_locations(self, left: Optional[str], right: Optional[str]) -> "EPRPair":
        """Return a copy with updated endpoint locations."""
        return replace(self, left_location=left, right_location=right)

    def meets_threshold(self, params: IonTrapParameters | None = None) -> bool:
        """True if the pair's fidelity satisfies the fault-tolerance threshold."""
        params = params or IonTrapParameters.default()
        return self.fidelity >= params.threshold_fidelity


def generate_pair(
    params: IonTrapParameters | None = None,
    *,
    generator: Optional[str] = None,
    zero_prep_fidelity: Optional[float] = None,
    pair_id: int = 0,
) -> EPRPair:
    """Generate a fresh :class:`EPRPair` with ID ``pair_id`` at a G node."""
    params = params or IonTrapParameters.default()
    state = generation_state(params, zero_prep_fidelity)
    return EPRPair(state=state, pair_id=pair_id, generator=generator, left_location=generator, right_location=generator)
