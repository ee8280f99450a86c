"""Tests for classical messages, the classical network model and machine layouts."""

import pytest

from repro.errors import ConfigurationError
from repro.network.classical import ClassicalNetworkModel
from repro.network.geometry import Coordinate
from repro.network.layout import HomeBaseLayout, MobileQubitLayout, build_layout
from repro.network.messages import ID_PACKET_BITS, ClassicalMessage, PauliFrame
from repro.network.topology import square_mesh
from repro.physics.parameters import IonTrapParameters


class TestPauliFrame:
    def test_identity_by_default(self):
        assert PauliFrame().identity
        assert PauliFrame().label == "I"

    def test_compose_is_xor(self):
        frame = PauliFrame(x=True).compose(PauliFrame(x=True, z=True))
        assert frame.label == "Z"

    def test_apply_teleport_outcome(self):
        frame = PauliFrame().apply_teleport_outcome(1, 0).apply_teleport_outcome(0, 1)
        assert frame.label == "Y"
        assert frame.bits == (1, 1)

    def test_double_application_cancels(self):
        frame = PauliFrame().apply_teleport_outcome(1, 1).apply_teleport_outcome(1, 1)
        assert frame.identity

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            PauliFrame().apply_teleport_outcome(2, 0)


class TestClassicalMessage:
    def test_qubit_id_is_caller_assigned(self):
        # No hidden process-global counter: the ID is what the caller gives.
        assert ClassicalMessage().qubit_id == ClassicalMessage().qubit_id == 0
        message = ClassicalMessage(qubit_id=7).advanced(1, 0).retargeted((1, 2), (3, 4))
        assert message.qubit_id == 7

    def test_advanced_accumulates_corrections_and_hops(self):
        message = ClassicalMessage().advanced(1, 0).advanced(0, 1)
        assert message.hop_count == 2
        assert message.correction.label == "Y"

    def test_retargeted(self):
        message = ClassicalMessage().retargeted((1, 2), (3, 4))
        assert message.destination == (1, 2)
        assert message.partner_destination == (3, 4)

    def test_size_bits_constant(self):
        assert ClassicalMessage().size_bits == ID_PACKET_BITS == 74


class TestClassicalNetworkModel:
    def test_latency_linear(self):
        model = ClassicalNetworkModel(IonTrapParameters.default())
        assert model.round_trip_us(1000) == pytest.approx(2 * model.latency_us(1000))

    def test_classical_much_faster_than_quantum_ops(self):
        model = ClassicalNetworkModel()
        assert model.latency_us(18_000) < 10.0

    def test_traffic_estimate(self):
        model = ClassicalNetworkModel()
        estimate = model.estimate_traffic(100.0, 50.0, 1000.0)
        assert estimate.messages_per_second == pytest.approx(1150.0)
        # teleports carry 2 bits + a packet, purifications 2 bits, pairs a packet
        assert estimate.bits_per_second == pytest.approx(100 * (2 + 74) + 50 * 2 + 1000 * 74)
        assert "in-flight" in estimate.describe()

    def test_rejects_negative_rates(self):
        with pytest.raises(ConfigurationError):
            ClassicalNetworkModel().estimate_traffic(-1, 0, 0)


class TestHomeBaseLayout:
    def test_home_sites_are_row_major(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        assert layout.home_site(1) == Coordinate(0, 0)
        assert layout.home_site(5) == Coordinate(0, 1)
        assert layout.home_site(16) == Coordinate(3, 3)

    def test_operation_is_a_round_trip(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        requests = layout.communications_for(1, 7)
        assert len(requests) == 2
        assert requests[0].source == layout.home_site(7)
        assert requests[0].dest == layout.home_site(1)
        assert requests[1].source == layout.home_site(1)
        assert requests[1].dest == layout.home_site(7)

    def test_positions_unchanged_after_round_trip(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        layout.communications_for(1, 7)
        assert layout.position_of(7) == layout.home_site(7)

    def test_rejects_same_qubit_twice(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        with pytest.raises(ConfigurationError):
            layout.communications_for(3, 3)

    def test_rejects_out_of_range_qubit(self):
        layout = HomeBaseLayout(square_mesh(4), 16)
        with pytest.raises(ConfigurationError):
            layout.communications_for(1, 17)

    def test_too_many_qubits_for_grid(self):
        with pytest.raises(ConfigurationError):
            HomeBaseLayout(square_mesh(2), 5)


class TestMobileQubitLayout:
    def test_snake_placement_makes_consecutive_qubits_adjacent(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        for qubit in range(1, 16):
            a = layout.home_site(qubit)
            b = layout.home_site(qubit + 1)
            assert a.manhattan(b) == 1

    def test_walk_moves_one_hop(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        requests = layout.communications_for(1, 2)
        assert len(requests) == 1
        assert requests[0].hops() == 1
        assert layout.position_of(1) == layout.home_site(2)

    def test_qft_walk_is_mostly_nearest_neighbour(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        hops = []
        for partner in range(2, 17):
            for request in layout.communications_for(1, partner):
                if request.purpose == "walk":
                    hops.append(request.hops())
        assert all(h == 1 for h in hops)

    def test_final_interaction_triggers_return_home(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        for partner in range(2, 16):
            layout.communications_for(1, partner)
        requests = layout.communications_for(1, 16)
        purposes = [r.purpose for r in requests]
        assert "return_home" in purposes
        assert layout.position_of(1) == layout.home_site(1)

    def test_average_hops_smaller_than_home_base(self):
        from repro.workloads.qft import qft_pairs

        mesh = square_mesh(4)
        pairs = qft_pairs(16)
        mobile = MobileQubitLayout(mesh, 16).average_hops(pairs)
        home = HomeBaseLayout(mesh, 16).average_hops(pairs)
        assert mobile < home

    def test_reset_restores_home_positions(self):
        layout = MobileQubitLayout(square_mesh(4), 16)
        layout.communications_for(1, 5)
        layout.reset()
        assert layout.position_of(1) == layout.home_site(1)


class TestLayoutFactory:
    def test_build_by_name(self):
        mesh = square_mesh(4)
        assert isinstance(build_layout("home_base", mesh, 16), HomeBaseLayout)
        assert isinstance(build_layout("mobile", mesh, 16), MobileQubitLayout)

    def test_unknown_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            build_layout("torus", square_mesh(4), 16)
