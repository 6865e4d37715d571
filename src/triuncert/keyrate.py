"""Secret-key-rate lower bounds for a state rho_ABE shared by Alice, Bob, Eve.

``key_rate_berta`` is q_MU - S(X|B) - S(Z|B); ``key_rate_improved`` adds the
non-negative improvement term max(0, delta) with Eve's system playing the
third party's role; ``key_rate_measured`` replaces the quantum conditional
entropies by classical conditional entropies of the measured statistics.
Raw (possibly negative) values are returned; positivity is the caller's
success criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import full_report
from .entropy import classical_conditional_entropy
from .errors import DomainError
from .measurement import MeasurementBasis
from .states import DensityMatrix, partial_trace

KEY_REPORT_COLUMNS = (
    "k_berta",
    "k_improved",
    "k_measured",
    "delta",
    "s_xb",
    "s_zb",
    "s_xx",
    "s_zz",
    "symmetric",
)


@dataclass(frozen=True)
class KeyRateReport:
    """Key-rate bounds (bits per round) plus the entropies they are built from.

    ``symmetric`` flags whether the two classical conditional entropies agree
    within 1e-9, the usual symmetric-observable shortcut.
    """

    k_berta: float
    k_improved: float
    k_measured: float
    delta: float
    s_xb: float
    s_zb: float
    s_xx: float
    s_zz: float
    symmetric: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in KEY_REPORT_COLUMNS}


def _check_abe(rho_abe: DensityMatrix) -> None:
    if rho_abe.subsystem_count != 3:
        raise DomainError(f"expected a three-subsystem (A, B, E) state, got dims {rho_abe.dims}")


def _quantum_parts(rho_abe: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis):
    _check_abe(rho_abe)
    rep = full_report(rho_abe, x, z)
    return rep.q_mu, rep.delta, rep.s_xb, rep.s_zb, partial_trace(rho_abe, (0, 1))


def key_rate_berta(rho_abe: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """q_MU - S(X|B) - S(Z|B) with both conditional entropies on rho_AB."""
    q, _, s_xb, s_zb, _ = _quantum_parts(rho_abe, x, z)
    return q - s_xb - s_zb


def key_rate_improved(rho_abe: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """key_rate_berta plus the improvement term max(0, delta)."""
    q, delta_val, s_xb, s_zb, _ = _quantum_parts(rho_abe, x, z)
    return (q - s_xb - s_zb) + max(0.0, delta_val)


def key_rate_measured(
    rho_abe: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    x_prime: MeasurementBasis,
    z_prime: MeasurementBasis,
) -> float:
    """q_MU + max(0, delta) - S(X|X') - S(Z|Z') from the joint outcome tables
    of Alice's and Bob's local measurements."""
    q, delta_val, _, _, rho_ab = _quantum_parts(rho_abe, x, z)
    s_xx = classical_conditional_entropy(rho_ab, x, x_prime)
    s_zz = classical_conditional_entropy(rho_ab, z, z_prime)
    return q + max(0.0, delta_val) - s_xx - s_zz


def key_report(
    rho_abe: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    x_prime: MeasurementBasis | None = None,
    z_prime: MeasurementBasis | None = None,
) -> KeyRateReport:
    """All key-rate quantities at once; Bob's bases default to Alice's."""
    x_prime = x if x_prime is None else x_prime
    z_prime = z if z_prime is None else z_prime
    q, delta_val, s_xb, s_zb, rho_ab = _quantum_parts(rho_abe, x, z)
    s_xx = classical_conditional_entropy(rho_ab, x, x_prime)
    s_zz = classical_conditional_entropy(rho_ab, z, z_prime)
    k_berta = q - s_xb - s_zb
    improvement = max(0.0, delta_val)
    return KeyRateReport(
        k_berta=k_berta,
        k_improved=k_berta + improvement,
        k_measured=q + improvement - s_xx - s_zz,
        delta=delta_val,
        s_xb=s_xb,
        s_zb=s_zb,
        s_xx=s_xx,
        s_zz=s_zz,
        symmetric=abs(s_xx - s_zz) <= 1e-9,
    )
