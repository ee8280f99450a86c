"""Classical control messages and Pauli correction frames (paper Section 3.2).

Every EPR qubit moving through the network is shadowed by a classical message
carrying its identity, its destination, its partner's destination and the
cumulative correction information accumulated over chained teleportations.
Corrections are Pauli operators, so the cumulative record is a *Pauli frame*:
two bits (X component, Z component) that compose by XOR.

The simulator never builds these packets: the control unit only counts them
and hands each communication a contiguous range of packet IDs.
:class:`ClassicalMessage` is the explicit model of one packet, and
:data:`ID_PACKET_BITS` its size for bandwidth estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..errors import ConfigurationError

#: Approximate size of an ID packet in classical bits: 32-bit ID, two 16-bit
#: destinations, 2 correction bits and an 8-bit hop counter -- a concrete
#: stand-in for estimating classical network bandwidth requirements.
ID_PACKET_BITS = 32 + 16 + 16 + 2 + 8


@dataclass(frozen=True)
class PauliFrame:
    """Accumulated Pauli correction (X and Z components compose by XOR)."""

    x: bool = False
    z: bool = False

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        """Combine with another frame (group operation of the Pauli group mod phase)."""
        return PauliFrame(self.x ^ other.x, self.z ^ other.z)

    def apply_teleport_outcome(self, bit_x: int, bit_z: int) -> "PauliFrame":
        """Fold in the two classical bits produced by one teleportation."""
        if bit_x not in (0, 1) or bit_z not in (0, 1):
            raise ConfigurationError("teleport outcome bits must be 0 or 1")
        return self.compose(PauliFrame(bool(bit_x), bool(bit_z)))

    @property
    def identity(self) -> bool:
        """True when no correction is pending."""
        return not (self.x or self.z)

    @property
    def label(self) -> str:
        if self.x and self.z:
            return "Y"
        if self.x:
            return "X"
        if self.z:
            return "Z"
        return "I"

    @property
    def bits(self) -> Tuple[int, int]:
        return (int(self.x), int(self.z))


@dataclass(frozen=True)
class ClassicalMessage:
    """The ID packet that travels alongside an EPR qubit.

    Attributes mirror the paper's description: the ID assigned by the G node,
    the qubit's destination, its partner's destination (needed for endpoint
    purification pairing) and the cumulative correction frame.  The ID is
    assigned by the caller (e.g. from a control unit's per-run ID block).
    """

    qubit_id: int = 0
    destination: Optional[object] = None
    partner_destination: Optional[object] = None
    correction: PauliFrame = field(default_factory=PauliFrame)
    hop_count: int = 0

    def advanced(self, bit_x: int, bit_z: int) -> "ClassicalMessage":
        """Message after one more chained teleportation hop."""
        return replace(
            self,
            correction=self.correction.apply_teleport_outcome(bit_x, bit_z),
            hop_count=self.hop_count + 1,
        )

    def retargeted(self, destination: object, partner_destination: object) -> "ClassicalMessage":
        """Message with (re)assigned endpoint destinations."""
        return replace(
            self, destination=destination, partner_destination=partner_destination
        )

    @property
    def size_bits(self) -> int:
        """Approximate size of the packet in classical bits (:data:`ID_PACKET_BITS`)."""
        return ID_PACKET_BITS
