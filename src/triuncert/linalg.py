"""Dense complex-matrix kernel: adjoints, tensor products, Hermitian spectra.

Everything here operates on plain ``numpy`` arrays (complex128) and is sized
for the small matrices this package needs (dimension <= 64). The Hermitian
helpers also accept stacks of shape (..., d, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

HERMITICITY_TOL = 1e-10


def as_complex_matrix(a) -> np.ndarray:
    """Coerce array-like input to a 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"matrix dimensions must be >= 1, got {m.shape}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted ascending; the columns of
    ``eigenvectors`` are the matching unit-norm eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermiticity_defect(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of m - m^dagger, per matrix of a (..., d, d) stack."""
    return np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))


def eig_hermitian(h, tol: float = HERMITICITY_TOL) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix or (..., d, d) stack.

    Raises ShapeError for non-square input and DomainError when the input
    deviates from Hermitian by more than ``tol`` (max-absolute-entry norm).
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] < 1:
        raise ShapeError(f"eigendecomposition needs a square matrix, got {h.shape}")
    defect = float(np.max(hermiticity_defect(h), initial=0.0))
    if defect > tol:
        raise DomainError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.0e}")
    w, v = np.linalg.eigh(h)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)
