"""Density matrices: named three-qubit families, X-structure states, a seeded
random-state generator, partial trace, and purity.

Basis convention: product basis |abc> ordered lexicographically with subsystem
A as the most significant digit (|000>, |001>, ..., |111>).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import HERMITICITY_TOL, dagger, eig_hermitian, hermiticity_defect

TRACE_TOL = 1e-10
MIN_EIGENVALUE_SLACK = -1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive-semidefinite, unit-trace operator over a list of subsystems.

    ``dims`` records the subsystem dimensions in order (e.g. ``(2, 2, 2)``);
    ``matrix`` is the full operator on the product space. Validation happens at
    construction; instances are immutable. ``spectrum`` holds the ascending
    eigenvalues computed during validation.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0 or any(d < 1 for d in dims):
            raise DomainError(f"subsystem dimensions must be >= 1, got {dims}")
        total = math.prod(dims)
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape != (total, total):
            raise ShapeError(f"matrix shape {m.shape} does not match dims {dims}")
        if not np.isfinite(m).all():
            raise DomainError("matrix has non-finite (NaN or infinite) entries")
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise DomainError(f"not Hermitian: defect {defect:.3e} > {HERMITICITY_TOL:.0e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace {tr:.12g} differs from 1 by more than {TRACE_TOL:.0e}")
        w = np.linalg.eigvalsh(m)
        if w[0] < MIN_EIGENVALUE_SLACK:
            raise DomainError(f"min eigenvalue {w[0]:.3g} < {MIN_EIGENVALUE_SLACK:.0e}")
        m.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", w)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.matrix.shape[0]

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)


def pure_state(amplitudes, dims) -> DensityMatrix:
    """Density matrix |psi><psi| of a (normalized) amplitude vector."""
    v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise DomainError("amplitude vector has (near-)zero norm")
    v = v / norm
    return DensityMatrix(tuple(dims), np.outer(v, v.conj()))


def maximally_mixed(dims=(2, 2, 2)) -> DensityMatrix:
    """Identity / dimension on the given subsystem layout."""
    total = math.prod(dims)
    return DensityMatrix(tuple(dims), np.eye(total) / total)


def make_ghz(beta: float) -> DensityMatrix:
    """Pure state cos(beta)|000> + sin(beta)|111> as a density matrix."""
    if not 0.0 <= beta <= math.pi / 2:
        raise DomainError(f"beta must lie in [0, pi/2], got {beta}")
    amp = np.zeros(8, dtype=np.complex128)
    amp[0] = math.cos(beta)
    amp[7] = math.sin(beta)
    return pure_state(amp, (2, 2, 2))


def make_w(theta: float, alpha: float) -> DensityMatrix:
    """Pure state cos(theta)|001> + sin(theta)cos(alpha)|010> + sin(theta)sin(alpha)|100>."""
    amp = np.zeros(8, dtype=np.complex128)
    amp[1] = math.cos(theta)
    amp[2] = math.sin(theta) * math.cos(alpha)
    amp[4] = math.sin(theta) * math.sin(alpha)
    return pure_state(amp, (2, 2, 2))


def make_werner(p: float) -> DensityMatrix:
    """Mixture (1-p)|Phi><Phi| + (p/8) I with |Phi> the beta=pi/4 GHZ state."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing weight p must lie in [0, 1], got {p}")
    ghz = make_ghz(math.pi / 4).matrix
    return DensityMatrix((2, 2, 2), (1.0 - p) * ghz + (p / 8.0) * np.eye(8))


# Anti-diagonal partner of each diagonal slot (0-based): pairs (0,7), (1,6), (2,5), (3,4).
_X_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))


@dataclass(frozen=True)
class XStateParams:
    """Parameters of a three-qubit state whose only nonzero entries sit on the
    main diagonal and the anti-diagonal.

    ``diag`` holds the eight diagonal entries; ``offdiag`` the four real
    anti-diagonal entries pairing slots (1,8), (2,7), (3,6), (4,5) in 1-based
    numbering. Each 2x2 diagonal/anti-diagonal block must be PSD.
    """

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]

    def __post_init__(self):
        diag = tuple(float(x) for x in self.diag)
        offdiag = tuple(float(x) for x in self.offdiag)
        if len(diag) != 8 or len(offdiag) != 4:
            raise ShapeError("need 8 diagonal and 4 anti-diagonal entries")
        total = math.fsum(diag)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"diagonal sums to {total:.15g}, expected 1")
        for (i, j), off in zip(_X_PAIRS, offdiag):
            if diag[i] < -1e-12 or diag[j] < -1e-12:
                raise DomainError(f"diagonal entries {i + 1},{j + 1} must be non-negative")
            if off * off > diag[i] * diag[j] + 1e-12:
                raise DomainError(
                    f"block ({i + 1},{j + 1}) violates PSD: "
                    f"{off:.6g}^2 > {diag[i]:.6g}*{diag[j]:.6g}"
                )
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)


def make_x_state(params: XStateParams) -> DensityMatrix:
    """Assemble the 8x8 state with the X sparsity pattern from its parameters."""
    m = np.diag(np.asarray(params.diag, dtype=np.complex128))
    for (i, j), off in zip(_X_PAIRS, params.offdiag):
        m[i, j] = off
        m[j, i] = off
    return DensityMatrix((2, 2, 2), m)


def werner_params(p: float) -> XStateParams:
    """X-state parameters of make_werner(p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing weight p must lie in [0, 1], got {p}")
    corner = (1.0 - p) / 2.0 + p / 8.0
    return XStateParams(
        diag=(corner, p / 8, p / 8, p / 8, p / 8, p / 8, p / 8, corner),
        offdiag=((1.0 - p) / 2.0, 0.0, 0.0, 0.0),
    )


@dataclass(frozen=True, eq=False)
class RandomStateRecipe:
    """Ingredients of one random-state draw: the seed, the eight cascade
    probabilities (descending), the raw real matrix T, and the unitary whose
    columns are the eigenvectors of the Hermitian matrix derived from T."""

    seed: int
    probs: np.ndarray
    t_matrix: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (8,):
            raise ShapeError("expected 8 probabilities")
        if np.any(probs < 0.0):
            raise DomainError("probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1")
        if np.any(np.diff(probs) > 0.0):
            raise DomainError("probabilities must be in descending order")
        e = np.asarray(self.unitary, dtype=np.complex128)
        gram_defect = float(np.max(np.abs(e.conj().T @ e - np.eye(e.shape[1]))))
        if gram_defect > 1e-10:
            raise DomainError(f"eigenvector matrix is not unitary: defect {gram_defect:.3e}")
        for arr in (probs, e):
            arr.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "unitary", e)


def _hermitian_from_real(t: np.ndarray) -> np.ndarray:
    # H = D + (U^T + U) + i(L^T - L) with D/L/U the diagonal, strictly lower,
    # and strictly upper triangular parts of T.
    d = np.diag(np.diag(t))
    upper = np.triu(t, 1)
    lower = np.tril(t, -1)
    return d + upper.T + upper + 1j * (lower.T - lower)


def _assemble_random(seed: int, probs: np.ndarray, t: np.ndarray):
    h = _hermitian_from_real(t)
    evecs = eig_hermitian(h).eigenvectors
    rho = (evecs * probs) @ dagger(evecs)
    recipe = RandomStateRecipe(seed=seed, probs=probs, t_matrix=t, unitary=evecs)
    return DensityMatrix((2, 2, 2), rho), recipe


def random_state(seed: int):
    """Draw one random three-qubit density matrix, reproducibly.

    The generator is numpy's PCG64 seeded with ``seed``. Eight probabilities
    come from a multiplicative cascade of uniforms on [0, 1) (each successive
    value is the previous one scaled by a fresh uniform), normalized to sum to
    one -- automatically descending. An 8x8 real matrix T with uniform entries
    on [-1, 1) is folded into a Hermitian matrix whose eigenvectors supply the
    random unitary; the state is the probability mixture of its columns.

    Returns (DensityMatrix, RandomStateRecipe).
    """
    rng = np.random.default_rng(seed)
    cascade = np.cumprod(rng.uniform(0.0, 1.0, size=8))
    probs = cascade / cascade.sum()
    t = rng.uniform(-1.0, 1.0, size=(8, 8))
    return _assemble_random(seed, probs, t)


def random_pure_state(seed: int):
    """Rank-1 variant of random_state: probability 1 on a single random
    eigenvector (the cascade is replaced by the degenerate distribution)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=(8, 8))
    probs = np.zeros(8)
    probs[0] = 1.0
    return _assemble_random(seed, probs, t)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the kept subsystems (indices strictly increasing)."""
    keep = tuple(int(k) for k in keep)
    n = rho.subsystem_count
    if len(keep) == 0:
        raise DomainError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise DomainError(f"subsystem indices must lie in [0, {n}), got {keep}")
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise DomainError(f"subsystem indices must be strictly increasing, got {keep}")
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    row_sub = list(range(n))
    col_sub = [n + i if i in keep else i for i in range(n)]
    out_sub = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, row_sub + col_sub, out_sub)
    kept_dims = tuple(rho.dims[i] for i in keep)
    total = math.prod(kept_dims)
    return DensityMatrix(kept_dims, reduced.reshape(total, total))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def density_matrix_to_json(rho: DensityMatrix) -> dict:
    """JSON-ready dict {"dims": [...], "re": [[...]], "im": [[...]]}."""
    return {
        "dims": list(rho.dims),
        "re": rho.matrix.real.tolist(),
        "im": rho.matrix.imag.tolist(),
    }


def density_matrix_from_json(obj) -> DensityMatrix:
    """Inverse of density_matrix_to_json; validates structure and state invariants."""
    if not isinstance(obj, dict):
        raise DomainError("expected a JSON object with keys 'dims', 're', 'im'")
    missing = [k for k in ("dims", "re", "im") if k not in obj]
    if missing:
        raise DomainError(f"state object is missing keys: {', '.join(missing)}")
    try:
        re = np.asarray(obj["re"], dtype=np.float64)
        im = np.asarray(obj["im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"matrix entries are not numeric: {exc}") from None
    if re.shape != im.shape or re.ndim != 2:
        raise ShapeError(f"'re' and 'im' must be equal-shaped 2-D arrays, got {re.shape} and {im.shape}")
    return DensityMatrix(tuple(obj["dims"]), re + 1j * im)
