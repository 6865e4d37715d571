import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import SY, SZ, random_hermitian
from triuncert.errors import DomainError, ShapeError
from triuncert.linalg import dagger, eig_hermitian, kron

finite_complex = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
complex_2x2 = arrays(np.complex128, (2, 2), elements=finite_complex)


def test_dagger_fixes_real_symmetric():
    a = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(dagger(a), a)


@given(complex_2x2)
def test_dagger_is_an_involution(a):
    assert np.array_equal(dagger(dagger(a)), a)


def test_dagger_sigma_y():
    assert np.array_equal(dagger(SY), SY)


def test_kron_identities():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_diagonal_case():
    out = kron(np.diag([2.0, 3.0]), np.eye(2))
    assert np.array_equal(out, np.diag([2.0, 2.0, 3.0, 3.0]))


@given(complex_2x2, complex_2x2)
def test_kron_trace_multiplies(a, b):
    lhs = np.trace(kron(a, b))
    rhs = np.trace(a) * np.trace(b)
    assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


def test_kron_associative_on_integer_matrices():
    rng = np.random.default_rng(3)
    a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(np.complex128) for _ in range(3))
    assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_eig_identity_eigenvalues_all_one():
    dec = eig_hermitian(np.eye(8))
    assert np.allclose(dec.eigenvalues, 1.0, atol=0)


def test_eig_sigma_z():
    dec = eig_hermitian(SZ)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h = random_hermitian(rng)
        dec = eig_hermitian(h)
        v, w = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10
        # eigenvalue sum equals the trace
        assert abs(w.sum() - np.trace(h).real) <= 1e-10
        assert np.all(np.diff(w) >= 0)


def test_eig_diagonalization_residual():
    # off-diagonal Frobenius norm of V^dag H V, relative to the input scale
    rng = np.random.default_rng(12)
    h = random_hermitian(rng)
    dec = eig_hermitian(h)
    d = dec.eigenvectors.conj().T @ h @ dec.eigenvectors
    off = d - np.diag(np.diag(d))
    assert np.linalg.norm(off) <= 1e-13 * (1 + np.linalg.norm(h))


def test_eig_is_deterministic():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng)
    a = eig_hermitian(h)
    b = eig_hermitian(h.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_rejects_non_square():
    with pytest.raises(ShapeError):
        eig_hermitian(np.ones((2, 3)))


def test_eig_rejects_non_hermitian():
    with pytest.raises(DomainError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
