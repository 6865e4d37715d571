"""The batched report path: bit-identity with the scalar reports, independence
of the batch size, stack validation with the scalar messages, the eigenvalue
slack policy, and entropy inequalities on random basis pairs."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from triuncert.bounds import BOUND_REPORT_COLUMNS, full_report, full_report_batch
from triuncert.entropy import von_neumann
from triuncert.errors import DomainError, ShapeError
from triuncert.experiments import random_x_params
from triuncert.keyrate import KEY_REPORT_COLUMNS, key_report, key_report_batch
from triuncert.measurement import MeasurementBasis, pauli_basis
from triuncert.states import (
    DensityMatrix,
    make_ghz,
    make_w,
    make_werner,
    make_x_state,
    maximally_mixed,
    random_pure_state,
    random_state,
    random_states,
    validate_density_stack,
)

X = pauli_basis("x")
Z = pauli_basis("z")
NUMERIC_BOUND_COLUMNS = [name for name in BOUND_REPORT_COLUMNS if name != "seed"]
TOL = 1e-9


def qr_basis(seed: int) -> MeasurementBasis:
    """Haar-random qubit basis: QR of a complex Gaussian matrix, phases fixed by R."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return MeasurementBasis(f"qr{seed}", q * (np.diag(r) / np.abs(np.diag(r))))


def bits(values) -> np.ndarray:
    """The IEEE-754 bit patterns of float64 values (so -0.0 != 0.0)."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def all_states() -> list[DensityMatrix]:
    states = [random_state(s)[0] for s in range(2000)]
    states += [random_pure_state(s)[0] for s in range(100)]
    states += [make_ghz(float(b)) for b in np.linspace(0.0, math.pi / 2, 21)]
    states += [make_w(float(t), math.pi / 4) for t in np.linspace(0.0, math.pi, 21)]
    states += [make_werner(float(p)) for p in np.linspace(0.0, 1.0, 21)]
    states += [make_x_state(random_x_params(s)) for s in range(100)]
    states.append(maximally_mixed())
    return states


def basis_groups(states, size: int = 100):
    """(stack, states, x, z): every state with Pauli x/z in one batch, and in
    groups of ``size`` with a seeded QR basis pair per group."""
    yield np.array([rho.matrix for rho in states]), states, X, Z
    for k, start in enumerate(range(0, len(states), size)):
        group = states[start:start + size]
        yield np.array([rho.matrix for rho in group]), group, qr_basis(2 * k), qr_basis(2 * k + 1)


@pytest.fixture(scope="module")
def states():
    return all_states()


def test_full_report_batch_is_bitwise_the_scalar_report(states):
    for stack, group, x, z in basis_groups(states):
        cols = full_report_batch(stack, x, z)
        assert list(cols) == list(BOUND_REPORT_COLUMNS)
        scalar = [full_report(rho, x, z) for rho in group]
        for name in NUMERIC_BOUND_COLUMNS:
            expected = [getattr(rep, name) for rep in scalar]
            assert np.array_equal(bits(cols[name]), bits(expected)), (x.label, z.label, name)


def test_key_report_batch_is_bitwise_the_scalar_report(states):
    for stack, group, x, z in basis_groups(states):
        cols = key_report_batch(stack, x, z)
        assert list(cols) == list(KEY_REPORT_COLUMNS)
        scalar = [key_report(rho, x, z) for rho in group]
        for name in KEY_REPORT_COLUMNS[:-1]:
            expected = [getattr(rep, name) for rep in scalar]
            assert np.array_equal(bits(cols[name]), bits(expected)), (x.label, z.label, name)
        assert cols["symmetric"].tolist() == [rep.symmetric for rep in scalar]


def test_key_report_batch_reuses_given_bound_columns():
    stack = random_states(range(40))
    bounds = full_report_batch(stack, X, Z)
    with_bounds = key_report_batch(stack, X, Z, bounds=bounds)
    without = key_report_batch(stack, X, Z)
    for name in KEY_REPORT_COLUMNS:
        assert np.array_equal(with_bounds[name], without[name]), name


def test_row_does_not_depend_on_batch_size():
    seeds = range(300, 450)
    whole = full_report_batch(random_states(seeds), X, Z, seeds=seeds)
    whole_keys = key_report_batch(random_states(seeds), X, Z)
    for size in (1, 7):
        for start in range(0, len(seeds), size):
            chunk = seeds[start:start + size]
            cols = full_report_batch(random_states(chunk), X, Z, seeds=chunk)
            keys = key_report_batch(random_states(chunk), X, Z)
            assert cols["seed"].tolist() == list(chunk)
            for name in NUMERIC_BOUND_COLUMNS:
                assert bits(cols[name]).tobytes() == bits(whole[name][start:start + size]).tobytes()
            for name in KEY_REPORT_COLUMNS:
                assert keys[name].tobytes() == whole_keys[name][start:start + size].tobytes()


def test_random_states_match_random_state_bitwise():
    seeds = [0, 1, 2, 17, 999, 123456, 2**31 - 1]
    stack = random_states(seeds)
    assert stack.shape == (len(seeds), 8, 8)
    for seed, m in zip(seeds, stack):
        assert m.tobytes() == random_state(seed)[0].matrix.tobytes()
    assert random_states([]).shape == (0, 8, 8)


def scalar_message(matrix) -> str:
    with pytest.raises(DomainError) as info:
        DensityMatrix((2, 2, 2), matrix)
    return str(info.value)


def corrupt(kind: str) -> np.ndarray:
    m = random_state(5)[0].matrix.copy()
    if kind == "nan":
        m[2, 3] = np.nan
    elif kind == "non-hermitian":
        m[0, 1] += 1e-3
    else:  # non-PSD: a negative eigenvalue well beyond the slack, trace kept at 1
        m = np.diag([0.6, 0.5, 0.0, -0.1, 0.0, 0.0, 0.0, 0.0]).astype(np.complex128)
    return m


@pytest.mark.parametrize("kind", ["nan", "non-hermitian", "non-psd"])
def test_one_bad_state_in_a_stack_raises_the_scalar_message(kind):
    bad = corrupt(kind)
    stack = random_states(range(6))
    stack[3] = bad
    expected = scalar_message(bad)
    with pytest.raises(DomainError) as info:
        validate_density_stack(stack)
    assert str(info.value) == expected
    with pytest.raises(DomainError) as info:
        full_report_batch(stack, X, Z)
    assert str(info.value) == expected


def slack_state(eps: float = 5e-10) -> np.ndarray:
    """Diagonal three-qubit state with eigenvalue -eps on |011>."""
    d = np.zeros(8)
    d[0], d[3], d[7] = 0.5 + eps, -eps, 0.5
    return np.diag(d).astype(np.complex128)


def test_eigenvalue_slack_is_kept_and_weighs_nothing():
    eps = 5e-10
    rho = DensityMatrix((2, 2, 2), slack_state(eps))
    # accepted, kept as computed: not clipped to zero, not renormalized away
    assert rho.spectrum[0] == -eps
    assert rho.spectrum[-1] == 0.5 + eps
    positive = rho.spectrum[rho.spectrum > 1e-12]
    assert von_neumann(rho) == float(-(positive * np.log2(positive)).sum())

    cols = full_report_batch(slack_state(eps)[None], X, Z)
    rep = full_report(rho, X, Z)
    for name in NUMERIC_BOUND_COLUMNS:
        assert np.isfinite(cols[name][0]), name
        assert bits(cols[name][0]) == bits(getattr(rep, name)), name
    # rho_AB = diag(0.5 + eps, -eps, 0, 0.5): S(AB) takes only the two positive
    # eigenvalues, and S(A) = S(B) = 1 up to rounding
    s_ab = -((0.5 + eps) * math.log2(0.5 + eps) + 0.5 * math.log2(0.5))
    assert abs((rep.s_a + 1.0 - rep.i_ab) - s_ab) <= 1e-15


# --- entropic inequalities on random basis pairs, through the batch ---------

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def batch_for(state_seed: int, pure: bool) -> np.ndarray:
    chunk = range(state_seed, state_seed + 4)
    if pure:
        return np.array([random_pure_state(s)[0].matrix for s in chunk])
    return random_states(chunk)


def entropies(spectra: np.ndarray) -> np.ndarray:
    w = np.where(spectra > 1e-12, spectra, 1.0)
    return -(w * np.log2(w)).sum(axis=-1)


@given(seeds, seeds, st.booleans())
def test_uncertainty_chain_on_random_bases(state_seed, basis_seed, pure):
    x, z = qr_basis(basis_seed), qr_basis(basis_seed + 1)
    cols = full_report_batch(batch_for(state_seed, pure), x, z)
    q = cols["q_mu"]
    assert np.all(cols["u_left"] >= cols["u_right"] - TOL)
    assert np.all(cols["u_right"] >= q - TOL)


@given(seeds, seeds, st.booleans())
def test_bipartite_memory_bounds_on_random_bases(state_seed, basis_seed, pure):
    x, z = qr_basis(basis_seed), qr_basis(basis_seed + 1)
    cols = full_report_batch(batch_for(state_seed, pure), x, z)
    q, s_a = cols["q_mu"], cols["s_a"]
    s_a_given_b = s_a - cols["i_ab"]  # S(A|B) = S(AB) - S(B) = S(A) - I(A:B)
    # Berta et al.: S(X|B) + S(Z|B) >= q_MU + S(A|B)
    assert np.all(cols["s_xb"] + cols["s_zb"] >= q + s_a_given_b - TOL)
    # the memoryless case: H(X) + H(Z) >= q_MU + S(A)
    assert np.all(cols["h_x"] + cols["h_z"] >= q + s_a - TOL)


@given(seeds, seeds, st.booleans())
def test_holevo_below_mutual_information_on_random_bases(state_seed, basis_seed, pure):
    x, z = qr_basis(basis_seed), qr_basis(basis_seed + 1)
    cols = full_report_batch(batch_for(state_seed, pure), x, z)
    i_xb = cols["h_x"] - cols["s_xb"]
    assert np.all(i_xb <= cols["i_ab"] + TOL)
    assert np.all(cols["i_zb"] <= cols["i_ab"] + TOL)
    assert np.all(cols["i_xc"] <= cols["i_ac"] + TOL)


@given(seeds, st.booleans())
def test_strong_subadditivity(state_seed, pure):
    stack = batch_for(state_seed, pure)
    t = stack.reshape(-1, 2, 2, 2, 2, 2, 2)
    rho_ab = np.einsum("nabcdec->nabde", t).reshape(-1, 4, 4)
    rho_bc = np.einsum("nabcaef->nbcef", t).reshape(-1, 4, 4)
    rho_b = np.einsum("nabcaec->nbe", t)
    s_abc, s_ab, s_bc, s_b = (
        entropies(validate_density_stack(m)) for m in (stack, rho_ab, rho_bc, rho_b)
    )
    assert np.all(s_abc + s_b <= s_ab + s_bc + TOL)


def test_empty_and_malformed_stacks():
    empty = np.zeros((0, 8, 8), dtype=np.complex128)
    assert all(col.shape == (0,) for col in full_report_batch(empty, X, Z).values())
    assert all(col.shape == (0,) for col in key_report_batch(empty, X, Z).values())
    with pytest.raises(ShapeError, match=r"\(N, 8, 8\)"):
        full_report_batch(maximally_mixed().matrix, X, Z)
