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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    EIGENVALUE_CUTOFF,
    _holevo_sum,
    binary_entropy,
    conditional_entropy,
    shannon,
    von_neumann,
)
from .errors import DomainError
from .measurement import (
    MeasurementBasis,
    measurement_ensemble,
    outcome_distribution,
    q_mu,
)
from .states import DensityMatrix, XStateParams, partial_trace, purity

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


def full_report(
    rho_abc: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    seed: int | None = None,
) -> BoundReport:
    """Evaluate every report field in one pass over shared reductions.

    Only rho_AB and rho_AC are traced out of rho_ABC; the one-qubit marginals
    come from them. Each conditional entropy uses S(X|B) = H(X) - I(X:B), with
    the Holevo quantity I(X:B) taken from the outcome ensemble of rho_AB in
    the X basis (likewise for Z and for memory C)."""
    if rho_abc.subsystem_count != 3:
        raise DomainError(f"expected a three-subsystem state, got dims {rho_abc.dims}")
    q = q_mu(x, z)
    rho_ab = partial_trace(rho_abc, (0, 1))
    rho_ac = partial_trace(rho_abc, (0, 2))
    rho_a = partial_trace(rho_ab, (0,))
    s_a = von_neumann(rho_a)
    s_b = von_neumann(partial_trace(rho_ab, (1,)))
    s_c = von_neumann(partial_trace(rho_ac, (1,)))
    h_x = shannon(outcome_distribution(rho_a, x))
    h_z = shannon(outcome_distribution(rho_a, z))

    i_xb = _holevo_sum(measurement_ensemble(rho_ab, x), s_b)
    i_zb = _holevo_sum(measurement_ensemble(rho_ab, z), s_b)
    i_zc = _holevo_sum(measurement_ensemble(rho_ac, z), s_c)
    i_xc = _holevo_sum(measurement_ensemble(rho_ac, x), s_c)
    s_xb, s_zb, s_zc, s_xc = h_x - i_xb, h_z - i_zb, h_z - i_zc, h_x - i_xc
    i_ab = s_a + s_b - von_neumann(rho_ab)
    i_ac = s_a + s_c - von_neumann(rho_ac)

    delta_val = q + 2.0 * s_a - (i_ab + i_ac) + (i_zb + i_xc) - h_x - h_z
    return BoundReport(
        u_left=s_xb + s_zc,
        delta=delta_val,
        u_right=q + max(0.0, delta_val),
        q_mu=q,
        renes=q,
        s_xb=s_xb,
        s_zc=s_zc,
        s_zb=s_zb,
        s_xc=s_xc,
        i_ab=i_ab,
        i_ac=i_ac,
        i_zb=i_zb,
        i_xc=i_xc,
        h_x=h_x,
        h_z=h_z,
        s_a=s_a,
        purity=purity(rho_abc),
        seed=seed,
    )


def u_left(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """S(X|B) + S(Z|C): total uncertainty of the two memory holders."""
    return full_report(rho_abc, x, z).u_left


def delta(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """State-dependent improvement term added to the incompatibility bound."""
    return full_report(rho_abc, x, z).delta


def u_right(rho_abc: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """Lower bound q_MU + max(0, delta)."""
    return full_report(rho_abc, x, z).u_right
