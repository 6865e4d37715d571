"""Entropy functionals, all in bits (base-2 logarithms).

Eigenvalues/probabilities at or below ``EIGENVALUE_CUTOFF`` contribute zero
(the 0 log 0 := 0 convention); negative conditional entropies are legitimate
outputs for entangled states and are never clamped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .measurement import MeasurementBasis, MeasurementEnsemble, measurement_ensemble
from .states import DensityMatrix, partial_trace

EIGENVALUE_CUTOFF = 1e-12


def _plogp_sum(values: np.ndarray) -> float:
    vals = values[values > EIGENVALUE_CUTOFF]
    if vals.size == 0:
        return 0.0
    return float(-(vals * np.log2(vals)).sum())


def von_neumann(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho), evaluated on the state's eigenvalues."""
    if not isinstance(rho, DensityMatrix):
        raise DomainError("von_neumann expects a validated DensityMatrix")
    return _plogp_sum(rho.spectrum)


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


def shannon(dist) -> float:
    """Shannon entropy of a probability distribution."""
    p = np.asarray(dist, dtype=np.float64).reshape(-1)
    if p.size == 0:
        raise DomainError("empty distribution")
    if np.any(p < -EIGENVALUE_CUTOFF):
        raise DomainError(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"distribution sums to {total:.12g}, expected 1")
    return _plogp_sum(p)


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


def _holevo_sum(ensemble: MeasurementEnsemble, s_rest: float) -> float:
    """I(outcome : rest) = S(rest) - sum_i p_i S(rho_i_rest) of a measurement
    ensemble whose average state, the unmeasured rest, has entropy ``s_rest``."""
    out = s_rest
    for p, cond in zip(ensemble.probs, ensemble.cond_states):
        if p > EIGENVALUE_CUTOFF:
            out -= p * von_neumann(cond)
    return out


def holevo(rho: DensityMatrix, basis: MeasurementBasis, subsystem: int = 0) -> float:
    """Accessible-information bound S(rho_rest) - sum_i p_i S(rho_i_rest) for a
    measurement on one subsystem; rho_rest is the ensemble's average state."""
    ensemble = measurement_ensemble(rho, basis, subsystem)
    rest = sum(p * c.matrix for p, c in zip(ensemble.probs, ensemble.cond_states))
    return _holevo_sum(ensemble, _plogp_sum(np.linalg.eigvalsh(rest)))


def joint_outcome_table(
    rho: DensityMatrix, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> np.ndarray:
    """Joint probabilities p(i, j) of measuring subsystems 0 and 1 of a
    two-subsystem state in the given bases."""
    if rho.subsystem_count != 2:
        raise DomainError(f"joint outcomes need exactly two subsystems, got dims {rho.dims}")
    if rho.dims[0] != basis_a.dim or rho.dims[1] != basis_b.dim:
        raise ShapeError(
            f"basis dimensions ({basis_a.dim}, {basis_b.dim}) do not match state dims {rho.dims}"
        )
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    va, vb = basis_a.vectors, basis_b.vectors
    table = np.einsum(
        "abcd,ai,bj,ci,dj->ij", tensor, va.conj(), vb.conj(), va, vb
    ).real
    return np.maximum(table, 0.0)


def classical_conditional_entropy(
    rho: DensityMatrix, basis_a: MeasurementBasis, basis_b: MeasurementBasis
) -> float:
    """Conditional Shannon entropy H(A outcome | B outcome) of the joint
    outcome table of local measurements on a two-subsystem state."""
    table = joint_outcome_table(rho, basis_a, basis_b)
    marginal_b = table.sum(axis=0)
    return _plogp_sum(table.reshape(-1)) - _plogp_sum(marginal_b)
