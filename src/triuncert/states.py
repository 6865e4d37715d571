"""Density matrices: named three-qubit families, X-structure states, a seeded
random-state generator, partial trace, and purity.

Basis convention: product basis |abc> ordered lexicographically with subsystem
A as the most significant digit (|000>, |001>, ..., |111>).

Validation and the random generator work on stacks: ``validate_density_stack``
checks any (..., d, d) array of density matrices, and ``random_states`` draws
an (N, 8, 8) stack with one seeded generator per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import HERMITICITY_TOL, eig_hermitian, hermiticity_defect

TRACE_TOL = 1e-10
MIN_EIGENVALUE_SLACK = -1e-9


def validate_density_stack(matrices: np.ndarray) -> np.ndarray:
    """Check a complex (..., d, d) stack of density matrices and return its
    ascending spectra, shape (..., d).

    Every matrix must have finite entries, be Hermitian within
    ``HERMITICITY_TOL`` (largest absolute entry of m - m^dagger), have unit
    trace within ``TRACE_TOL``, and have no eigenvalue below
    ``MIN_EIGENVALUE_SLACK``. Each check runs over the whole stack before the
    next; the first failing matrix in stack order names the DomainError.

    Eigenvalue slack: eigenvalues in [-1e-9, 1e-12] are accepted and kept in
    the returned spectrum as computed; the entropy functionals give every
    eigenvalue at or below ``entropy.EIGENVALUE_CUTOFF`` (1e-12) zero weight.
    They are neither clipped to zero nor renormalized away: pure states
    routinely yield eigenvalues near -1e-17, and either alternative would
    change the bits of their reports.
    """
    if not np.isfinite(matrices).all():
        raise DomainError("matrix has non-finite (NaN or infinite) entries")
    defect = hermiticity_defect(matrices)
    bad = defect > HERMITICITY_TOL
    if bad.any():
        raise DomainError(f"not Hermitian: defect {defect[bad][0]:.3e} > {HERMITICITY_TOL:.0e}")
    tr = np.trace(matrices, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if bad.any():
        raise DomainError(f"trace {tr[bad][0]:.12g} differs from 1 by more than {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh(matrices)
    lowest = w[..., 0]
    bad = lowest < MIN_EIGENVALUE_SLACK
    if bad.any():
        raise DomainError(f"min eigenvalue {lowest[bad][0]:.3g} < {MIN_EIGENVALUE_SLACK:.0e}")
    return w


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive-semidefinite, unit-trace operator over a list of subsystems.

    ``dims`` records the subsystem dimensions in order (e.g. ``(2, 2, 2)``);
    ``matrix`` is the full operator on the product space. Validation happens at
    construction; instances are immutable. ``spectrum`` holds the ascending
    eigenvalues computed during validation (``validate_density_stack`` on a
    stack of one).
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
        w = validate_density_stack(m[None])[0]
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
        e = np.asarray(self.unitary, dtype=np.complex128)
        _check_recipes(probs[None], e[None])
        for arr in (probs, e):
            arr.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "unitary", e)


def _check_recipes(probs: np.ndarray, unitaries: np.ndarray) -> None:
    """RandomStateRecipe invariants over stacks: probs (N, 8) non-negative,
    summing to one and descending; unitaries (N, 8, 8) with Gram defect at
    most 1e-10."""
    if np.any(probs < 0.0):
        raise DomainError("probabilities must be non-negative")
    if np.any(np.abs(probs.sum(axis=-1) - 1.0) > 1e-12):
        raise DomainError("probabilities must sum to 1")
    if np.any(np.diff(probs, axis=-1) > 0.0):
        raise DomainError("probabilities must be in descending order")
    eye = np.eye(unitaries.shape[-1])
    gram_defect = np.max(np.abs(np.swapaxes(unitaries, -1, -2).conj() @ unitaries - eye), axis=(-2, -1))
    bad = gram_defect > 1e-10
    if bad.any():
        raise DomainError(f"eigenvector matrix is not unitary: defect {gram_defect[bad][0]:.3e}")


def _hermitian_from_real(t: np.ndarray) -> np.ndarray:
    # H = D + (U^T + U) + i(L^T - L) with D/L/U the diagonal, strictly lower,
    # and strictly upper triangular parts of each matrix T of the stack.
    d = np.triu(np.tril(t))
    upper = np.triu(t, 1)
    lower = np.tril(t, -1)
    return d + np.swapaxes(upper, -1, -2) + upper + 1j * (np.swapaxes(lower, -1, -2) - lower)


def _assemble_random(probs: np.ndarray, t: np.ndarray):
    """State and eigenvector stacks of random draws with probs (N, 8) and
    raw matrices t (N, 8, 8): each state mixes the eigenvectors of the
    Hermitian matrix folded from its T with its probabilities."""
    evecs = eig_hermitian(_hermitian_from_real(t)).eigenvectors
    rho = (evecs * probs[:, None, :]) @ np.swapaxes(evecs.conj(), -1, -2)
    return rho, evecs


def _one_random(seed: int, probs: np.ndarray, t: np.ndarray):
    rho, evecs = _assemble_random(probs[None], t[None])
    recipe = RandomStateRecipe(seed=seed, probs=probs, t_matrix=t, unitary=evecs[0])
    return DensityMatrix((2, 2, 2), rho[0]), recipe


def _draw_mixed(seed: int):
    rng = np.random.default_rng(seed)
    cascade = np.cumprod(rng.uniform(0.0, 1.0, size=8))
    probs = cascade / cascade.sum()
    return probs, rng.uniform(-1.0, 1.0, size=(8, 8))


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
    return _one_random(seed, *_draw_mixed(seed))


def random_states(seeds) -> np.ndarray:
    """The (N, 8, 8) stack of ``random_state(seed)[0].matrix`` over ``seeds``,
    bit for bit: one PCG64 draw per seed, then one batched eigendecomposition.

    The recipe invariants are checked on the whole stack; the density-matrix
    checks are left to the consumer (``full_report_batch`` validates its input
    stack)."""
    draws = [_draw_mixed(int(seed)) for seed in seeds]
    probs = np.array([p for p, _ in draws]).reshape(-1, 8)
    t = np.array([m for _, m in draws]).reshape(-1, 8, 8)
    rho, evecs = _assemble_random(probs, t)
    _check_recipes(probs, evecs)
    return rho


def random_pure_state(seed: int):
    """Rank-1 variant of random_state: probability 1 on a single random
    eigenvector (the cascade is replaced by the degenerate distribution)."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, size=(8, 8))
    probs = np.zeros(8)
    probs[0] = 1.0
    return _one_random(seed, probs, t)


def _trace_out(matrices: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a (..., D, D) stack over subsystems ``dims``, keeping
    ``keep`` (strictly increasing indices)."""
    n = len(dims)
    lead = matrices.shape[:-2]
    tensor = matrices.reshape(lead + dims + dims)
    row_sub = list(range(n))
    col_sub = [n + i if i in keep else i for i in range(n)]
    out_sub = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(tensor, [Ellipsis] + row_sub + col_sub, [Ellipsis] + out_sub)
    total = math.prod(dims[i] for i in keep)
    return reduced.reshape(lead + (total, total))


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
    kept_dims = tuple(rho.dims[i] for i in keep)
    return DensityMatrix(kept_dims, _trace_out(rho.matrix, rho.dims, keep))


def _purities(matrices: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each matrix of an (..., d, d) stack."""
    return np.einsum("...ij,...ji->...", matrices, matrices).real


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2), between 1/dim (maximally mixed) and 1 (pure)."""
    return float(_purities(rho.matrix))


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
