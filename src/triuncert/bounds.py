"""Tripartite uncertainty quantities for a state shared by A, B, C.

``u_left`` is the sum of the two post-measurement conditional entropies
S(X|B) + S(Z|C); ``u_right`` is the state-dependent lower bound
q_MU + max(0, delta), where ``delta`` combines mutual-information and
Holevo terms of the two-body reductions. Measuring A turns rho_AB into a
classical-quantum state, for which S(X|B) = H(X) - I(X:B) with I(X:B) the
Holevo quantity; every post-measurement entropy is therefore computed from
the outcome ensemble of rho_AB or rho_AC. Comparison bounds (the
state-independent incompatibility bound, the memory-assisted bipartite bound,
and the memoryless bound) live here too, along with the closed form that the
bound takes on X-structure states.

``full_report_batch`` is the one report implementation: it evaluates an
(N, 8, 8) stack of three-qubit states with batched eigensolves and returns
one array per report column. ``full_report`` is a batch of one, so its fields
are bit-identical to the matching row of any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    EIGENVALUE_CUTOFF,
    _plogp_sum,
    _shannon_rows,
    binary_entropy,
    conditional_entropy,
    von_neumann,
)
from .errors import DomainError, ShapeError
from .measurement import (
    MeasurementBasis,
    _check_outcome_probs,
    _ensemble_blocks,
    _outcome_probs,
    q_mu,
)
from .states import DensityMatrix, XStateParams, _purities, _trace_out, validate_density_stack

BOUND_REPORT_COLUMNS = (
    "seed",
    "purity",
    "u_left",
    "u_right",
    "delta",
    "q_mu",
    "renes",
    "s_xb",
    "s_zc",
    "s_zb",
    "s_xc",
    "i_ab",
    "i_ac",
    "i_zb",
    "i_xc",
    "h_x",
    "h_z",
    "s_a",
)


@dataclass(frozen=True)
class BoundReport:
    """Every quantity computed for one (state, X basis, Z basis) triple.

    All entropic fields are in bits. ``u_right`` always equals
    ``q_mu + max(0, delta)`` as computed; ``seed`` is carried through for
    batch bookkeeping and may be None for hand-built states.
    """

    u_left: float
    delta: float
    u_right: float
    q_mu: float
    renes: float
    s_xb: float
    s_zc: float
    s_zb: float
    s_xc: float
    i_ab: float
    i_ac: float
    i_zb: float
    i_xc: float
    h_x: float
    h_z: float
    s_a: float
    purity: float
    seed: int | None = None

    def to_dict(self) -> dict:
        """Flat mapping in the documented column order."""
        return {name: getattr(self, name) for name in BOUND_REPORT_COLUMNS}

    @classmethod
    def from_columns(cls, columns: dict, i: int = 0) -> BoundReport:
        """Row ``i`` of ``full_report_batch`` columns as a report."""
        fields = {name: float(columns[name][i]) for name in BOUND_REPORT_COLUMNS if name != "seed"}
        return cls(seed=columns["seed"][i], **fields)


def renes_bound(x: MeasurementBasis, z: MeasurementBasis) -> float:
    """State-independent tripartite bound: the incompatibility q_MU."""
    return q_mu(x, z)


def berta_bound(rho_ab: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Memory-assisted bipartite bound S(A|B) + q_MU for a two-subsystem state."""
    if rho_ab.subsystem_count != 2:
        raise DomainError(f"expected a two-subsystem state, got dims {rho_ab.dims}")
    return conditional_entropy(rho_ab, (1,)) + q_mu(x, z)


def memoryless_bound(rho_a: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Memoryless bound S(rho) + q_MU for a single-subsystem state."""
    if rho_a.subsystem_count != 1:
        raise DomainError(f"expected a single-subsystem state, got dims {rho_a.dims}")
    return von_neumann(rho_a) + q_mu(x, z)


def x_state_analytic(params: XStateParams) -> float:
    """Closed-form value of both sides of the uncertainty relation for an
    X-structure state measured in the Pauli x / z bases."""
    if not isinstance(params, XStateParams):
        raise DomainError("x_state_analytic expects XStateParams")
    d = params.diag
    c_zero = d[0] + d[2] + d[4] + d[6]
    value = 1.0 - binary_entropy(c_zero)
    for pair in (d[0] + d[2], d[1] + d[3], d[4] + d[6], d[5] + d[7]):
        if pair > EIGENVALUE_CUTOFF:
            value -= pair * np.log2(pair)
    return float(value)


THREE_QUBITS = (2, 2, 2)
TWO_QUBITS = (2, 2)


def _state_stack(rhos) -> np.ndarray:
    m = np.asarray(rhos, dtype=np.complex128)
    if m.ndim != 3 or m.shape[1:] != (8, 8):
        raise ShapeError(f"expected an (N, 8, 8) stack of three-qubit states, got shape {m.shape}")
    return m


def as_three_qubit_stack(rho_abc: DensityMatrix) -> np.ndarray:
    """The (1, 8, 8) stack of a three-qubit DensityMatrix, for the batch kernels."""
    if rho_abc.subsystem_count != 3:
        raise DomainError(f"expected a three-subsystem state, got dims {rho_abc.dims}")
    if rho_abc.dims != THREE_QUBITS:
        raise ShapeError(f"expected three qubits, got dims {rho_abc.dims}")
    return rho_abc.matrix[None]


def full_report_batch(rhos, x: MeasurementBasis, z: MeasurementBasis, seeds=None) -> dict:
    """Evaluate every report field for an (N, 8, 8) stack of three-qubit states.

    Returns {column: array of length N} in ``BOUND_REPORT_COLUMNS`` order; the
    ``seed`` column holds ``seeds`` (or None) for bookkeeping. The input stack
    is validated once, and every derived stack passes the same checks a
    DensityMatrix would: rho_AB, rho_AC, the one-qubit marginals and the
    conditional blocks of each measurement ensemble, plus the outcome
    probability and Shannon distribution checks.

    Only rho_AB and rho_AC are traced out of rho_ABC; the one-qubit marginals
    come from them. Each conditional entropy uses S(X|B) = H(X) - I(X:B), with
    the Holevo quantity I(X:B) = S(B) - sum_i p_i S(rho_B|i) taken from the
    outcome ensemble of rho_AB in the X basis (likewise for Z and for memory
    C); outcomes at or below EIGENVALUE_CUTOFF are skipped."""
    m = _state_stack(rhos)
    if x.dim != 2 or z.dim != 2:
        raise ShapeError(f"expected qubit bases, got dimensions {x.dim} and {z.dim}")
    n = m.shape[0]
    seed_column = np.empty(n, dtype=object)
    seed_column[:] = [None] * n if seeds is None else list(seeds)
    validate_density_stack(m)
    q = q_mu(x, z)
    # pairs[:, 0] = rho_AB, pairs[:, 1] = rho_AC; the second qubit of each is B or C
    pairs = np.stack([_trace_out(m, THREE_QUBITS, (0, 1)), _trace_out(m, THREE_QUBITS, (0, 2))], axis=1)
    s_ab, s_ac = _plogp_sum(validate_density_stack(pairs)).T
    rho_a = _trace_out(pairs[:, 0], TWO_QUBITS, (0,))
    singles = np.concatenate([rho_a[:, None], _trace_out(pairs, TWO_QUBITS, (1,))], axis=1)
    s_single = _plogp_sum(validate_density_stack(singles))
    s_a, s_memory = s_single[:, 0], s_single[:, 1:]
    s_b, s_c = s_memory.T
    h_x = _shannon_rows(_outcome_probs(rho_a, x))
    h_z = _shannon_rows(_outcome_probs(rho_a, z))

    # ensembles indexed [state, basis (x, z), memory (B, C), outcome]
    ensembles = [_ensemble_blocks(pairs, TWO_QUBITS, basis, 0) for basis in (x, z)]
    probs = np.stack([p for p, _ in ensembles], axis=1)
    _check_outcome_probs(probs)
    s_cond = _plogp_sum(validate_density_stack(np.stack([c for _, c in ensembles], axis=1)))
    holevo = s_memory[:, None, :]
    for i in range(probs.shape[-1]):
        p = probs[..., i]
        holevo = holevo - np.where(p > EIGENVALUE_CUTOFF, p * s_cond[..., i], 0.0)
    (i_xb, i_xc), (i_zb, i_zc) = holevo.transpose(1, 2, 0)
    s_xb, s_zb, s_zc, s_xc = h_x - i_xb, h_z - i_zb, h_z - i_zc, h_x - i_xc
    i_ab = s_a + s_b - s_ab
    i_ac = s_a + s_c - s_ac

    delta_val = q + 2.0 * s_a - (i_ab + i_ac) + (i_zb + i_xc) - h_x - h_z
    q_column = np.full(n, q)
    return {
        "seed": seed_column,
        "purity": _purities(m),
        "u_left": s_xb + s_zc,
        "u_right": q + np.where(delta_val > 0.0, delta_val, 0.0),
        "delta": delta_val,
        "q_mu": q_column,
        "renes": q_column,
        "s_xb": s_xb,
        "s_zc": s_zc,
        "s_zb": s_zb,
        "s_xc": s_xc,
        "i_ab": i_ab,
        "i_ac": i_ac,
        "i_zb": i_zb,
        "i_xc": i_xc,
        "h_x": h_x,
        "h_z": h_z,
        "s_a": s_a,
    }


def full_report(
    rho_abc: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    seed: int | None = None,
) -> BoundReport:
    """Every report field for one state: ``full_report_batch`` on a batch of one."""
    stack = as_three_qubit_stack(rho_abc)
    return BoundReport.from_columns(full_report_batch(stack, x, z, seeds=[seed]))


def u_left(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """S(X|B) + S(Z|C): total uncertainty of the two memory holders."""
    return full_report(rho_abc, x, z).u_left


def delta(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """State-dependent improvement term added to the incompatibility bound."""
    return full_report(rho_abc, x, z).delta


def u_right(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Lower bound q_MU + max(0, delta)."""
    return full_report(rho_abc, x, z).u_right
