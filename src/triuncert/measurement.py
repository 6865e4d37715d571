"""Projective measurement bases, basis incompatibility, and post-measurement states.

Measurements act on one subsystem of a multi-part state (index 0, particle A,
by default). Outcomes with probability below ``PROB_CUTOFF`` carry a maximally
mixed placeholder conditional state and are skipped in entropy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import dagger, kron
from .states import DensityMatrix

ORTHONORMALITY_TOL = 1e-10
PROB_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Orthonormal basis on one subsystem; columns of ``vectors`` are the
    rank-1 projector directions."""

    label: str
    vectors: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"basis must be a square column set, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DomainError("basis has non-finite (NaN or infinite) entries")
        d = v.shape[0]
        gram_defect = float(np.max(np.abs(dagger(v) @ v - np.eye(d))))
        if gram_defect > ORTHONORMALITY_TOL:
            raise DomainError(f"basis vectors are not orthonormal: defect {gram_defect:.3e}")
        completeness_defect = float(np.max(np.abs(v @ dagger(v) - np.eye(d))))
        if completeness_defect > ORTHONORMALITY_TOL:
            raise DomainError(f"basis is not complete: defect {completeness_defect:.3e}")
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def vector(self, i: int) -> np.ndarray:
        return self.vectors[:, i]


_SQ2 = 1.0 / math.sqrt(2.0)
_PAULI_VECTORS = {
    "x": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "y": np.array([[_SQ2, _SQ2], [1j * _SQ2, -1j * _SQ2]], dtype=np.complex128),
    "z": np.eye(2, dtype=np.complex128),
}


def pauli_basis(which: str) -> MeasurementBasis:
    """Eigenbasis of the named Pauli operator ('x', 'y', or 'z')."""
    key = which.lower()
    if key not in _PAULI_VECTORS:
        raise DomainError(f"unknown Pauli basis {which!r}; choose one of x, y, z")
    return MeasurementBasis(label=key.upper(), vectors=_PAULI_VECTORS[key])


def overlap_c(x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Largest squared overlap max_{j,k} |<x_j|z_k>|^2 between two bases."""
    if x.dim != z.dim:
        raise ShapeError(f"basis dimensions differ: {x.dim} vs {z.dim}")
    gram = dagger(x.vectors) @ z.vectors
    return float(np.max(np.abs(gram) ** 2))


def q_mu(x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Incompatibility -log2 of the largest squared basis overlap."""
    return -math.log2(overlap_c(x, z))


def _check_subsystem(rho: DensityMatrix, basis: MeasurementBasis, subsystem: int) -> None:
    if not 0 <= subsystem < rho.subsystem_count:
        raise DomainError(f"subsystem {subsystem} out of range for dims {rho.dims}")
    if rho.dims[subsystem] != basis.dim:
        raise ShapeError(
            f"basis dimension {basis.dim} does not match subsystem {subsystem} "
            f"dimension {rho.dims[subsystem]}"
        )


def _embedded_projectors(rho: DensityMatrix, basis: MeasurementBasis, subsystem: int):
    before = math.prod(rho.dims[:subsystem])
    after = math.prod(rho.dims[subsystem + 1:])
    eye_before = np.eye(before, dtype=np.complex128)
    eye_after = np.eye(after, dtype=np.complex128)
    for i in range(basis.dim):
        v = basis.vector(i)
        proj = np.outer(v, v.conj())
        yield kron(kron(eye_before, proj), eye_after)


def post_measurement_state(
    rho: DensityMatrix, basis: MeasurementBasis, subsystem: int = 0
) -> DensityMatrix:
    """Dephase the state in the measurement basis on one subsystem:
    sum_i (P_i (x) 1) rho (P_i (x) 1)."""
    if rho.subsystem_count < 2:
        raise DomainError("post-measurement state needs at least two subsystems")
    _check_subsystem(rho, basis, subsystem)
    out = np.zeros_like(rho.matrix)
    for proj in _embedded_projectors(rho, basis, subsystem):
        out += proj @ rho.matrix @ proj
    return DensityMatrix(rho.dims, out)


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """Outcome probabilities with the conditional states of the unmeasured rest."""

    probs: np.ndarray
    cond_states: tuple[DensityMatrix, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if np.any(p < -PROB_CUTOFF):
            raise DomainError(f"negative outcome probability: {p.min():.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-10:
            raise DomainError(f"outcome probabilities sum to {total:.12g}, expected 1")
        if len(self.cond_states) != p.shape[0]:
            raise ShapeError("one conditional state per outcome required")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "cond_states", tuple(self.cond_states))


def measurement_ensemble(
    rho: DensityMatrix, basis: MeasurementBasis, subsystem: int = 0
) -> MeasurementEnsemble:
    """Measure one subsystem: outcome probabilities and conditional states of
    the remaining subsystems."""
    if rho.subsystem_count < 2:
        raise DomainError("ensemble needs at least two subsystems")
    _check_subsystem(rho, basis, subsystem)
    n = rho.subsystem_count
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    rest = [i for i in range(n) if i != subsystem]
    rest_dims = tuple(rho.dims[i] for i in rest)
    rest_total = math.prod(rest_dims)
    row_sub = list(range(n))
    col_sub = [n + i for i in range(n)]
    out_sub = rest + [n + i for i in rest]

    probs = []
    blocks = []
    for i in range(basis.dim):
        v = basis.vector(i)
        block = np.einsum(
            tensor, row_sub + col_sub, v.conj(), [subsystem], v, [n + subsystem], out_sub
        ).reshape(rest_total, rest_total)
        probs.append(max(float(np.trace(block).real), 0.0))
        blocks.append(block)

    cond_states = []
    for p, block in zip(probs, blocks):
        if p > PROB_CUTOFF:
            cond_states.append(DensityMatrix(rest_dims, block / p))
        else:
            cond_states.append(DensityMatrix(rest_dims, np.eye(rest_total) / rest_total))
    return MeasurementEnsemble(probs=np.asarray(probs), cond_states=tuple(cond_states))


def outcome_distribution(rho: DensityMatrix, basis: MeasurementBasis) -> np.ndarray:
    """Probabilities <v_i|rho|v_i> of measuring a single-subsystem state."""
    if rho.subsystem_count != 1:
        raise ShapeError(f"expected a single-subsystem state, got dims {rho.dims}")
    if rho.dim != basis.dim:
        raise ShapeError(f"basis dimension {basis.dim} != state dimension {rho.dim}")
    p = np.einsum("ab,ai,bi->i", rho.matrix, basis.vectors.conj(), basis.vectors).real
    return np.maximum(p, 0.0)


def basis_to_json(basis: MeasurementBasis) -> dict:
    """JSON-ready dict {"label": ..., "vectors": [{"re": [...], "im": [...]}]}."""
    return {
        "label": basis.label,
        "vectors": [
            {"re": basis.vector(i).real.tolist(), "im": basis.vector(i).imag.tolist()}
            for i in range(basis.dim)
        ],
    }


def basis_from_json(obj) -> MeasurementBasis:
    """Inverse of basis_to_json; validates orthonormality and completeness."""
    if not isinstance(obj, dict) or "vectors" not in obj:
        raise DomainError("expected a JSON object with a 'vectors' list")
    cols = []
    for entry in obj["vectors"]:
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise DomainError("each vector needs 're' and 'im' lists")
        cols.append(np.asarray(entry["re"], dtype=np.float64) + 1j * np.asarray(entry["im"], dtype=np.float64))
    return MeasurementBasis(label=str(obj.get("label", "custom")), vectors=np.column_stack(cols))
