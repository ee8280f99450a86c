"""Tests for EPR generation, the noise model helpers and threshold checks."""

import pytest

from repro.physics.epr import EPRPair, generate_pair, generation_fidelity, generation_state, generation_time
from repro.physics.gates import NoiseModel
from repro.physics.parameters import IonTrapParameters
from repro.physics.states import BellDiagonalState
from repro.physics.threshold import check_fidelity, check_state, meets_threshold


class TestGeneration:
    def test_eq4_formula(self):
        params = IonTrapParameters.default()
        expected = (1 - 1e-8) * (1 - 1e-7) * params.zero_prep_fidelity
        assert generation_fidelity(params) == pytest.approx(expected)

    def test_zero_prep_override(self):
        params = IonTrapParameters.default()
        assert generation_fidelity(params, zero_prep_fidelity=0.9) < 0.91

    def test_generation_state_is_werner(self):
        state = generation_state()
        assert state.psi_plus == pytest.approx(state.phi_minus)

    def test_generation_time_matches_table1(self):
        assert generation_time() == pytest.approx(122.0, rel=0.02)


class TestEPRPair:
    def test_generate_pair_takes_explicit_id(self):
        # No hidden process-global counter: the ID is what the caller gives.
        assert generate_pair().pair_id == generate_pair().pair_id == 0
        pair = generate_pair(pair_id=41)
        assert pair.pair_id == 41
        assert pair.after_move(10).after_teleport_hop(pair.state).pair_id == 41

    def test_after_move_accumulates_distance_and_error(self):
        pair = generate_pair()
        moved = pair.after_move(600)
        assert moved.moved_cells == 600
        assert moved.fidelity < pair.fidelity

    def test_after_teleport_hop_increments_counter(self):
        pair = generate_pair()
        hopped = pair.after_teleport_hop(pair.state)
        assert hopped.teleport_hops == 1

    def test_after_purification_increments_counter(self):
        pair = generate_pair()
        purified = pair.after_purification(BellDiagonalState.werner(0.9999))
        assert purified.purification_rounds == 1

    def test_meets_threshold(self):
        good = EPRPair(state=BellDiagonalState.werner(0.99999))
        bad = EPRPair(state=BellDiagonalState.werner(0.99))
        assert good.meets_threshold()
        assert not bad.meets_threshold()

    def test_locations_tracking(self):
        pair = generate_pair(generator="G(1,1)").at_locations("T(0,0)", "T(2,2)")
        assert pair.locations == ("T(0,0)", "T(2,2)")


class TestNoiseModel:
    def test_two_qubit_gate_noise_reduces_fidelity(self):
        noise = NoiseModel(IonTrapParameters.default())
        state = BellDiagonalState.perfect()
        assert noise.after_two_qubit_gate(state).fidelity < 1.0

    def test_measurement_flip_probability_small(self):
        noise = NoiseModel(IonTrapParameters.default())
        assert noise.measurement_flip_probability(2) == pytest.approx(2e-8, rel=0.01)

    def test_measurement_flip_zero_measurements(self):
        noise = NoiseModel(IonTrapParameters.default())
        assert noise.measurement_flip_probability(0) == 0.0

    def test_teleport_operation_noise_bounded(self):
        noise = NoiseModel(IonTrapParameters.default())
        out = noise.teleport_operation_noise(BellDiagonalState.perfect())
        assert 1 - out.fidelity < 1e-6


class TestThreshold:
    def test_check_fidelity_margin(self):
        check = check_fidelity(1 - 1e-5)
        assert check.satisfied
        assert check.margin > 0

    def test_check_fidelity_failure(self):
        check = check_fidelity(1 - 1e-3)
        assert not check.satisfied
        assert check.margin < 0

    def test_check_state(self):
        assert check_state(BellDiagonalState.werner(0.99999)).satisfied

    def test_meets_threshold_uses_params(self):
        lenient = IonTrapParameters(threshold_error=0.01)
        assert meets_threshold(0.995, lenient)
        assert not meets_threshold(0.995)
