"""Classical control network model (paper Sections 3.2 and 6).

Teleportation and purification both require classical bits to be exchanged
between channel endpoints, and every moving EPR qubit is shadowed by an ID
packet.  The paper concludes the classical network must sustain one in-flight
message per physical qubit plus the teleportation/purification bits.  This
module provides a latency model (used by the timing formulas) and a bandwidth
estimator (used in reports).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..physics.parameters import IonTrapParameters
from .messages import ID_PACKET_BITS


@dataclass(frozen=True)
class ClassicalTrafficEstimate:
    """Classical bandwidth needed to support a communication workload."""

    messages_per_second: float
    bits_per_second: float
    in_flight_messages: float

    def describe(self) -> str:
        return (
            f"ClassicalTraffic(msgs/s={self.messages_per_second:.3g}, "
            f"bits/s={self.bits_per_second:.3g}, in-flight={self.in_flight_messages:.3g})"
        )


class ClassicalNetworkModel:
    """Latency and bandwidth model of the parallel classical network."""

    def __init__(self, params: IonTrapParameters | None = None) -> None:
        self.params = params or IonTrapParameters.default()

    def latency_us(self, distance_cells: float) -> float:
        """One-way classical latency across ``distance_cells``."""
        if distance_cells < 0:
            raise ConfigurationError(f"distance_cells must be non-negative, got {distance_cells}")
        return self.params.times.classical(distance_cells)

    def round_trip_us(self, distance_cells: float) -> float:
        """Round-trip classical latency across ``distance_cells``."""
        return 2.0 * self.latency_us(distance_cells)

    def teleport_bits(self) -> int:
        """Classical bits transmitted per teleportation (two measurement bits)."""
        return 2

    def purification_bits(self) -> int:
        """Classical bits exchanged per purification round (one each way)."""
        return 2

    def estimate_traffic(
        self,
        teleports_per_second: float,
        purifications_per_second: float,
        pairs_in_flight: float,
    ) -> ClassicalTrafficEstimate:
        """Estimate the classical bandwidth a workload needs.

        ``pairs_in_flight`` is the number of EPR qubits simultaneously moving
        through the network, each shadowed by one ID packet.
        """
        if min(teleports_per_second, purifications_per_second, pairs_in_flight) < 0:
            raise ConfigurationError("traffic rates must be non-negative")
        packet_bits = ID_PACKET_BITS
        messages = teleports_per_second + purifications_per_second + pairs_in_flight
        bits = (
            teleports_per_second * (self.teleport_bits() + packet_bits)
            + purifications_per_second * self.purification_bits()
            + pairs_in_flight * packet_bits
        )
        return ClassicalTrafficEstimate(
            messages_per_second=messages,
            bits_per_second=bits,
            in_flight_messages=pairs_in_flight,
        )
