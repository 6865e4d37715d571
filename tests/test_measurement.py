import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import SX, SY, SZ, random_qubit_matrix
from triuncert.errors import DomainError, ShapeError
from triuncert.measurement import (
    MeasurementBasis,
    basis_from_json,
    basis_to_json,
    measurement_ensemble,
    outcome_distribution,
    overlap_c,
    pauli_basis,
    post_measurement_state,
    q_mu,
)
from triuncert.states import (
    DensityMatrix,
    make_ghz,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_state,
)

X = pauli_basis("x")
Y = pauli_basis("y")
Z = pauli_basis("z")


def rotated_basis(phi: float) -> MeasurementBasis:
    c, s = math.cos(phi / 2), math.sin(phi / 2)
    return MeasurementBasis("rot", np.array([[c, -s], [s, c]], dtype=complex))


def test_z_basis_vectors():
    assert np.array_equal(Z.vectors, np.eye(2))


def test_x_basis_amplitudes():
    assert np.allclose(np.abs(X.vectors) ** 2, 0.5, atol=1e-12)


@pytest.mark.parametrize("basis,pauli", [(X, SX), (Y, SY), (Z, SZ)])
def test_each_basis_diagonalizes_its_pauli(basis, pauli):
    d = basis.vectors.conj().T @ pauli @ basis.vectors
    off = d - np.diag(np.diag(d))
    assert np.max(np.abs(off)) <= 1e-12


def test_unknown_pauli_name_rejected():
    with pytest.raises(DomainError):
        pauli_basis("w")


def test_non_orthonormal_basis_rejected():
    with pytest.raises(DomainError):
        MeasurementBasis("bad", np.array([[1, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_basis_rejected(bad):
    with pytest.raises(DomainError, match="non-finite"):
        MeasurementBasis("bad", np.array([[1, bad], [0, 1]], dtype=complex))


class TestOverlap:
    def test_x_vs_z_is_half(self):
        assert abs(overlap_c(X, Z) - 0.5) <= 1e-12

    def test_self_overlap_is_one(self):
        assert abs(overlap_c(Z, Z) - 1.0) <= 1e-12

    @given(st.floats(min_value=0.0, max_value=math.pi))
    def test_rotated_closed_form(self, phi):
        expected = max(math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2)
        assert abs(overlap_c(Z, rotated_basis(phi)) - expected) <= 1e-12

    def test_symmetry(self):
        b = rotated_basis(0.9)
        assert overlap_c(Z, b) == pytest.approx(overlap_c(b, Z), abs=1e-15)

    def test_dimension_mismatch(self):
        big = MeasurementBasis("four", np.eye(4, dtype=complex))
        with pytest.raises(ShapeError):
            overlap_c(Z, big)


class TestQMu:
    def test_pauli_pair_is_one(self):
        assert abs(q_mu(X, Z) - 1.0) <= 1e-12

    def test_identical_bases_zero(self):
        assert abs(q_mu(Z, Z)) <= 1e-12

    def test_x_y_mub_pair(self):
        assert abs(q_mu(X, Y) - 1.0) <= 1e-12


class TestPostMeasurement:
    def test_z_diagonal_state_unchanged(self):
        rho = DensityMatrix((2, 2), np.diag([0.4, 0.1, 0.2, 0.3]))
        out = post_measurement_state(rho, Z)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_ghz_reduction_under_z(self):
        rho_ab = partial_trace(make_ghz(math.pi / 4), (0, 1))
        out = post_measurement_state(rho_ab, Z)
        assert np.allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_no_cross_outcome_coherence(self):
        rho, _ = random_state(4)
        out = post_measurement_state(partial_trace(rho, (0, 1)), X)
        # rotate A into the measurement basis; off-diagonal A-blocks must vanish
        u = np.kron(X.vectors.conj().T, np.eye(2))
        blocks = u @ out.matrix @ u.conj().T
        assert np.max(np.abs(blocks[:2, 2:])) <= 1e-12

    def test_idempotent(self):
        rho, _ = random_state(8)
        rho_ab = partial_trace(rho, (0, 1))
        once = post_measurement_state(rho_ab, X)
        twice = post_measurement_state(once, X)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-12
        assert abs(np.trace(once.matrix).real - 1.0) <= 1e-10

    def test_measure_second_subsystem(self):
        rng = np.random.default_rng(5)
        a, b = random_qubit_matrix(rng), random_qubit_matrix(rng)
        rho = DensityMatrix((2, 2), np.kron(a, b))
        out = post_measurement_state(rho, Z, subsystem=1)
        expected = np.kron(a, np.diag(np.diag(b)))
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12

    def test_basis_mismatch_rejected(self):
        big = MeasurementBasis("four", np.eye(4, dtype=complex))
        rho = maximally_mixed((2, 2))
        with pytest.raises(ShapeError):
            post_measurement_state(rho, big)


class TestEnsemble:
    def test_product_state_conditionals_equal_rho_b(self):
        rng = np.random.default_rng(6)
        a, b = random_qubit_matrix(rng), random_qubit_matrix(rng)
        ens = measurement_ensemble(DensityMatrix((2, 2), np.kron(a, b)), X)
        for cond in ens.cond_states:
            assert np.max(np.abs(cond.matrix - b)) <= 1e-12

    def test_ghz_reduction_under_z(self):
        rho_ab = partial_trace(make_ghz(math.pi / 4), (0, 1))
        ens = measurement_ensemble(rho_ab, Z)
        assert np.allclose(ens.probs, [0.5, 0.5], atol=1e-12)
        assert np.allclose(ens.cond_states[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ens.cond_states[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)

    def test_probs_match_reduced_outcome_distribution(self):
        rho, _ = random_state(10)
        rho_ab = partial_trace(rho, (0, 1))
        ens = measurement_ensemble(rho_ab, X)
        dist = outcome_distribution(partial_trace(rho_ab, (0,)), X)
        assert np.max(np.abs(ens.probs - dist)) <= 1e-10

    def test_zero_probability_outcome_gets_placeholder(self):
        rho = pure_state([1, 0, 0, 0], (2, 2))
        ens = measurement_ensemble(rho, Z)
        assert ens.probs[1] <= 1e-12
        assert np.allclose(ens.cond_states[1].matrix, np.eye(2) / 2, atol=0)


class TestOutcomeDistribution:
    def test_maximally_mixed_uniform(self):
        for basis in (X, Y, Z):
            assert np.allclose(outcome_distribution(maximally_mixed((2,)), basis), 0.5, atol=1e-12)

    def test_ground_state_in_z(self):
        rho = pure_state([1, 0], (2,))
        assert np.allclose(outcome_distribution(rho, Z), [1.0, 0.0], atol=1e-12)

    def test_ground_state_in_x(self):
        rho = pure_state([1, 0], (2,))
        assert np.allclose(outcome_distribution(rho, X), [0.5, 0.5], atol=1e-12)

    def test_multi_subsystem_rejected(self):
        with pytest.raises(ShapeError):
            outcome_distribution(maximally_mixed((2, 2)), Z)


def test_basis_json_round_trip():
    again = basis_from_json(json.loads(json.dumps(basis_to_json(Y))))
    assert again.label == "Y"
    assert np.array_equal(again.vectors, Y.vectors)


def test_basis_json_structure_errors():
    with pytest.raises(DomainError):
        basis_from_json({"label": "oops"})
    with pytest.raises(DomainError):
        basis_from_json({"vectors": [{"re": [1, 0]}]})


def test_basis_json_non_finite_rejected():
    obj = json.loads('{"vectors": [{"re": [1, 0], "im": [0, 0]}, {"re": [NaN, 1], "im": [0, 0]}]}')
    with pytest.raises(DomainError, match="non-finite"):
        basis_from_json(obj)
