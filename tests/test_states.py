import json
import math

import numpy as np
import pytest

from helpers import random_qubit_dm, random_qubit_matrix
from triuncert.errors import DomainError, ShapeError
from triuncert.states import (
    DensityMatrix,
    XStateParams,
    density_matrix_from_json,
    density_matrix_to_json,
    make_ghz,
    make_w,
    make_werner,
    make_x_state,
    maximally_mixed,
    partial_trace,
    pure_state,
    purity,
    random_pure_state,
    random_state,
    werner_params,
)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(DomainError, match="Hermitian"):
            DensityMatrix((2,), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError, match="trace"):
            DensityMatrix((2,), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="min eigenvalue"):
            DensityMatrix((2,), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix((2,), m)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(ShapeError):
            DensityMatrix((2, 2), np.eye(2) / 2)

    def test_matrix_is_frozen(self):
        rho = maximally_mixed((2,))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3

    def test_spectrum_is_ascending(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
        assert np.allclose(rho.spectrum, [0.25, 0.75], atol=1e-14)


class TestGHZ:
    def test_beta_zero_is_000(self):
        rho = make_ghz(0.0)
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-15)

    def test_beta_quarter_pi_entries(self):
        rho = make_ghz(math.pi / 4)
        for i, j in ((0, 0), (7, 7), (0, 7), (7, 0)):
            assert abs(rho.matrix[i, j] - 0.5) <= 1e-12

    @pytest.mark.parametrize("beta", [0.0, 0.3, math.pi / 4, 1.2, math.pi / 2])
    def test_always_pure(self, beta):
        assert abs(purity(make_ghz(beta)) - 1.0) <= 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            make_ghz(-0.1)
        with pytest.raises(DomainError):
            make_ghz(math.pi / 2 + 0.1)


class TestW:
    def test_theta_zero_is_001(self):
        rho = make_w(0.0, 0.7)
        assert abs(rho.matrix[1, 1] - 1.0) <= 1e-12

    def test_theta_half_pi_alpha_zero_is_010(self):
        rho = make_w(math.pi / 2, 0.0)
        assert abs(rho.matrix[2, 2] - 1.0) <= 1e-12

    def test_standard_w_has_equal_populations(self):
        rho = make_w(math.acos(1 / math.sqrt(3)), math.pi / 4)
        for idx in (1, 2, 4):
            assert abs(rho.matrix[idx, idx] - 1 / 3) <= 1e-12


class TestWerner:
    def test_p_zero_is_ghz(self):
        assert np.allclose(make_werner(0.0).matrix, make_ghz(math.pi / 4).matrix, atol=1e-15)

    def test_p_one_is_maximally_mixed(self):
        assert np.allclose(make_werner(1.0).matrix, np.eye(8) / 8, atol=1e-15)

    def test_p_half_entries(self):
        # entrywise evaluation of the convex mixture at p = 1/2
        rho = make_werner(0.5)
        assert abs(rho.matrix[0, 0] - 5 / 16) <= 1e-14
        assert abs(rho.matrix[7, 7] - 5 / 16) <= 1e-14
        assert abs(rho.matrix[0, 7] - 1 / 4) <= 1e-14
        for i in range(1, 7):
            assert abs(rho.matrix[i, i] - 1 / 16) <= 1e-14

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            make_werner(1.2)


class TestXState:
    def test_uniform_diag_is_maximally_mixed(self):
        params = XStateParams(diag=(0.125,) * 8, offdiag=(0.0,) * 4)
        assert np.allclose(make_x_state(params).matrix, np.eye(8) / 8, atol=1e-15)

    def test_werner_params_match_constructor(self):
        assert np.allclose(
            make_x_state(werner_params(0.5)).matrix, make_werner(0.5).matrix, atol=1e-15
        )

    def test_ghz_params(self):
        params = XStateParams(diag=(0.5, 0, 0, 0, 0, 0, 0, 0.5), offdiag=(0.5, 0, 0, 0))
        assert np.allclose(make_x_state(params).matrix, make_ghz(math.pi / 4).matrix, atol=1e-15)

    def test_rejects_unnormalized_diag(self):
        with pytest.raises(DomainError):
            XStateParams(diag=(0.5,) * 8, offdiag=(0.0,) * 4)

    def test_rejects_block_psd_violation(self):
        with pytest.raises(DomainError, match="PSD"):
            XStateParams(diag=(0.5, 0, 0, 0, 0, 0, 0, 0.5), offdiag=(0.6, 0, 0, 0))


class TestRandomState:
    def test_output_is_valid_state(self):
        rho, _ = random_state(7)
        assert rho.dims == (2, 2, 2)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10

    def test_spectrum_matches_recipe_probs(self):
        for seed in range(20):
            rho, recipe = random_state(seed)
            assert np.max(np.abs(rho.spectrum - recipe.probs[::-1])) <= 1e-9

    def test_recipe_probs_descending_and_normalized(self):
        _, recipe = random_state(42)
        assert np.all(np.diff(recipe.probs) <= 0)
        assert abs(recipe.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.abs(recipe.t_matrix) <= 1.0)

    def test_state_reconstructs_from_recipe(self):
        rho, recipe = random_state(5)
        e = recipe.unitary
        rebuilt = (e * recipe.probs) @ e.conj().T
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-12

    def test_fixed_seed_is_byte_identical(self):
        a, _ = random_state(42)
        b, _ = random_state(42)
        assert np.array_equal(a.matrix, b.matrix)

    def test_purity_range(self):
        for seed in range(50):
            rho, _ = random_state(seed)
            assert 1 / 8 - 1e-10 <= purity(rho) <= 1 + 1e-10

    def test_pure_variant_is_rank_one(self):
        for seed in range(10):
            rho, recipe = random_pure_state(seed)
            assert abs(purity(rho) - 1.0) <= 1e-12
            assert recipe.probs[0] == 1.0


class TestPartialTrace:
    def test_maximally_mixed_reduces_to_qubit(self):
        out = partial_trace(maximally_mixed(), (0,))
        assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-15)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(21)
        a, b, c = (random_qubit_matrix(rng) for _ in range(3))
        rho = DensityMatrix((2, 2, 2), np.kron(np.kron(a, b), c))
        out = partial_trace(rho, (0, 1))
        assert np.max(np.abs(out.matrix - np.kron(a, b))) <= 1e-12

    def test_ghz_traced_over_middle_qubit(self):
        # coherences vanish: index contraction by hand gives diag(1/2, 0, 0, 1/2)
        out = partial_trace(make_ghz(math.pi / 4), (0, 2))
        assert np.allclose(out.matrix, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_preserves_trace_and_hermiticity(self):
        rho, _ = random_state(9)
        out = partial_trace(rho, (1, 2))
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) <= 1e-12

    @pytest.mark.parametrize("keep", [(), (3,), (-1,), (1, 0), (0, 0)])
    def test_rejects_bad_subsets(self, keep):
        with pytest.raises(DomainError):
            partial_trace(maximally_mixed(), keep)


class TestPurity:
    def test_maximally_mixed(self):
        assert abs(purity(maximally_mixed()) - 0.125) <= 1e-12

    def test_pure_state(self):
        assert abs(purity(pure_state([1, 0], (2,))) - 1.0) <= 1e-12

    def test_qubit_mixture(self):
        rho = DensityMatrix((2,), np.diag([0.75, 0.25]))
        assert abs(purity(rho) - 10 / 16) <= 1e-12


class TestJsonRoundTrip:
    def test_round_trip_preserves_entries(self):
        rho, _ = random_state(3)
        again = density_matrix_from_json(json.loads(json.dumps(density_matrix_to_json(rho))))
        assert again.dims == rho.dims
        assert np.array_equal(again.matrix, rho.matrix)

    def test_missing_keys_rejected(self):
        with pytest.raises(DomainError, match="missing"):
            density_matrix_from_json({"dims": [2]})

    def test_non_numeric_rejected(self):
        with pytest.raises(DomainError):
            density_matrix_from_json({"dims": [2], "re": [["a", 0], [0, 1]], "im": [[0, 0], [0, 0]]})

    def test_non_finite_rejected(self):
        payload = json.loads('{"dims": [2], "re": [[0.5, NaN], [NaN, 0.5]], "im": [[0, 0], [0, 0]]}')
        with pytest.raises(DomainError, match="non-finite"):
            density_matrix_from_json(payload)
