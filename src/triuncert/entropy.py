"""Entropy functionals, all in bits (base-2 logarithms).

Eigenvalues/probabilities at or below ``EIGENVALUE_CUTOFF`` contribute zero
(the 0 log 0 := 0 convention); negative conditional entropies are legitimate
outputs for entangled states and are never clamped. The private kernels
(``_plogp_sum``, ``_shannon_rows``, ``_classical_conditional``) reduce over the
last axis of a stack; the public functions apply them to one state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .measurement import MeasurementBasis, measurement_ensemble
from .states import DensityMatrix, partial_trace

EIGENVALUE_CUTOFF = 1e-12


def _plogp_sum(values: np.ndarray) -> np.ndarray:
    """-sum v log2 v over the last axis, skipping entries at or below
    EIGENVALUE_CUTOFF (masked before the logarithm, so no warning)."""
    kept = values > EIGENVALUE_CUTOFF
    safe = np.where(kept, values, 1.0)
    return -np.where(kept, safe * np.log2(safe), 0.0).sum(axis=-1)


def von_neumann(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho), evaluated on the state's eigenvalues."""
    if not isinstance(rho, DensityMatrix):
        raise DomainError("von_neumann expects a validated DensityMatrix")
    return float(_plogp_sum(rho.spectrum))


def _normalized_subset(rho: DensityMatrix, subset, what: str) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in subset))
    n = rho.subsystem_count
    if len(idx) == 0:
        raise DomainError(f"{what} must name at least one subsystem")
    if len(set(idx)) != len(idx) or any(i < 0 or i >= n for i in idx):
        raise DomainError(f"{what} must be distinct subsystem indices in [0, {n}), got {subset}")
    return idx


def conditional_entropy(rho: DensityMatrix, conditioning) -> float:
    """S(rest | conditioning) = S(rho) - S(reduced state on the conditioning subsystems)."""
    idx = _normalized_subset(rho, conditioning, "conditioning set")
    if len(idx) == rho.subsystem_count:
        raise DomainError("conditioning set must be a proper subset of the subsystems")
    return von_neumann(rho) - von_neumann(partial_trace(rho, idx))


def mutual_information(rho: DensityMatrix, cut) -> float:
    """I(G1:G2) = S(G1) + S(G2) - S(rho) for the bipartition (cut, complement)."""
    g1 = _normalized_subset(rho, cut, "cut")
    g2 = tuple(i for i in range(rho.subsystem_count) if i not in g1)
    if len(g2) == 0:
        raise DomainError("cut must leave a non-empty complement")
    return von_neumann(partial_trace(rho, g1)) + von_neumann(partial_trace(rho, g2)) - von_neumann(rho)


def _shannon_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropies of the distributions along the last axis of ``p``;
    the first row with a negative entry or a sum off one names the error."""
    if p.shape[-1] == 0:
        raise DomainError("empty distribution")
    low = p.min(axis=-1)
    bad = low < -EIGENVALUE_CUTOFF
    if bad.any():
        raise DomainError(f"negative probability {low[bad][0]:.3e}")
    total = p.sum(axis=-1)
    bad = np.abs(total - 1.0) > 1e-10
    if bad.any():
        raise DomainError(f"distribution sums to {total[bad][0]:.12g}, expected 1")
    return _plogp_sum(p)


def shannon(dist) -> float:
    """Shannon entropy of a probability distribution."""
    return float(_shannon_rows(np.asarray(dist, dtype=np.float64).reshape(-1)))


def binary_entropy(y: float) -> float:
    """-y log2 y - (1-y) log2(1-y) with endpoints mapping to 0."""
    if y < -EIGENVALUE_CUTOFF or y > 1.0 + EIGENVALUE_CUTOFF:
        raise DomainError(f"binary entropy argument {y} outside [0, 1]")
    y = min(max(y, 0.0), 1.0)
    out = 0.0
    if y > EIGENVALUE_CUTOFF:
        out -= y * math.log2(y)
    if 1.0 - y > EIGENVALUE_CUTOFF:
        out -= (1.0 - y) * math.log2(1.0 - y)
    return out


def holevo(rho: DensityMatrix, basis: MeasurementBasis, subsystem: int = 0) -> float:
    """Accessible-information bound S(rho_rest) - sum_i p_i S(rho_i_rest) for a
    measurement on one subsystem; rho_rest is the ensemble's average state."""
    ensemble = measurement_ensemble(rho, basis, subsystem)
    rest = sum(p * c.matrix for p, c in zip(ensemble.probs, ensemble.cond_states))
    out = float(_plogp_sum(np.linalg.eigvalsh(rest)))
    for p, cond in zip(ensemble.probs, ensemble.cond_states):
        if p > EIGENVALUE_CUTOFF:
            out -= p * von_neumann(cond)
    return out


def _joint_tables(rho_ab: np.ndarray, basis_a: MeasurementBasis, basis_b: MeasurementBasis) -> np.ndarray:
    """Joint outcome tables p(i, j), shape (N, k, l), of an (N, kl, kl) stack
    of two-subsystem states with dims (k, l) = the basis dimensions."""
    dims = (basis_a.dim, basis_b.dim)
    tensor = rho_ab.reshape((-1,) + dims + dims)
    va, vb = basis_a.vectors, basis_b.vectors
    table = np.einsum(
        "nabcd,ai,bj,ci,dj->nij", tensor, va.conj(), vb.conj(), va, vb
    ).real
    return np.maximum(table, 0.0)


def _classical_conditional(tables: np.ndarray) -> np.ndarray:
    """H(A outcome | B outcome) of each (k, l) joint table in an (N, k, l) stack."""
    flat = tables.reshape(tables.shape[:-2] + (tables.shape[-2] * tables.shape[-1],))
    return _plogp_sum(flat) - _plogp_sum(tables.sum(axis=-2))


def _check_joint_outcomes(
    rho: DensityMatrix, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> None:
    if rho.subsystem_count != 2:
        raise DomainError(f"joint outcomes need exactly two subsystems, got dims {rho.dims}")
    if rho.dims[0] != basis_a.dim or rho.dims[1] != basis_b.dim:
        raise ShapeError(
            f"basis dimensions ({basis_a.dim}, {basis_b.dim}) do not match state dims {rho.dims}"
        )


def joint_outcome_table(
    rho: DensityMatrix, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> np.ndarray:
    """Joint probabilities p(i, j) of measuring subsystems 0 and 1 of a
    two-subsystem state in the given bases."""
    _check_joint_outcomes(rho, basis_a, basis_b)
    return _joint_tables(rho.matrix[None], basis_a, basis_b)[0]


def classical_conditional_entropy(
    rho: DensityMatrix, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> float:
    """Conditional Shannon entropy H(A outcome | B outcome) of the joint
    outcome table of local measurements on a two-subsystem state."""
    _check_joint_outcomes(rho, basis_a, basis_b)
    return float(_classical_conditional(_joint_tables(rho.matrix[None], basis_a, basis_b))[0])
