"""Secret-key-rate lower bounds for a state rho_ABE shared by Alice, Bob, Eve.

``key_rate_berta`` is q_MU - S(X|B) - S(Z|B); ``key_rate_improved`` adds the
non-negative improvement term max(0, delta) with Eve's system playing the
third party's role; ``key_rate_measured`` replaces the quantum conditional
entropies by classical conditional entropies of the measured statistics.
Raw (possibly negative) values are returned; positivity is the caller's
success criterion.

``key_report_batch`` is the one key-report implementation: it takes the
quantum terms (q_MU, delta, S(X|B), S(Z|B)) from ``full_report_batch``
columns and computes the two outcome tables on the rho_AB stack.
``key_report`` and the three ``key_rate_*`` functions evaluate a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import THREE_QUBITS, _state_stack, as_three_qubit_stack, full_report_batch
from .entropy import _classical_conditional, _joint_tables
from .errors import DomainError
from .measurement import MeasurementBasis
from .states import DensityMatrix, _trace_out, validate_density_stack

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

    @classmethod
    def from_columns(cls, columns: dict, i: int = 0) -> KeyRateReport:
        """Row ``i`` of ``key_report_batch`` columns as a report."""
        fields = {name: float(columns[name][i]) for name in KEY_REPORT_COLUMNS if name != "symmetric"}
        return cls(symmetric=bool(columns["symmetric"][i]), **fields)


def key_report_batch(
    rhos,
    x: MeasurementBasis,
    z: MeasurementBasis,
    x_prime: MeasurementBasis | None = None,
    z_prime: MeasurementBasis | None = None,
    bounds: dict | None = None,
) -> dict:
    """Key-rate columns, in ``KEY_REPORT_COLUMNS`` order, for an (N, 8, 8)
    stack of states rho_ABE; Bob's bases default to Alice's.

    ``bounds`` are the ``full_report_batch(rhos, x, z)`` columns when the
    caller already has them (that call validated ``rhos``); without them they
    are computed here. The rho_AB stack of the outcome tables is validated
    like any reduced state."""
    x_prime = x if x_prime is None else x_prime
    z_prime = z if z_prime is None else z_prime
    if bounds is None:
        bounds = full_report_batch(rhos, x, z)
    rho_ab = _trace_out(_state_stack(rhos), THREE_QUBITS, (0, 1))
    validate_density_stack(rho_ab)
    s_xx = _classical_conditional(_joint_tables(rho_ab, x, x_prime))
    s_zz = _classical_conditional(_joint_tables(rho_ab, z, z_prime))
    q, delta_val = bounds["q_mu"], bounds["delta"]
    s_xb, s_zb = bounds["s_xb"], bounds["s_zb"]
    k_berta = q - s_xb - s_zb
    improvement = np.where(delta_val > 0.0, delta_val, 0.0)
    return {
        "k_berta": k_berta,
        "k_improved": k_berta + improvement,
        "k_measured": q + improvement - s_xx - s_zz,
        "delta": delta_val,
        "s_xb": s_xb,
        "s_zb": s_zb,
        "s_xx": s_xx,
        "s_zz": s_zz,
        "symmetric": np.abs(s_xx - s_zz) <= 1e-9,
    }


def key_report(
    rho_abe: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    x_prime: MeasurementBasis | None = None,
    z_prime: MeasurementBasis | None = None,
) -> KeyRateReport:
    """All key-rate quantities at once (a batch of one); Bob's bases default
    to Alice's."""
    if rho_abe.subsystem_count != 3:
        raise DomainError(f"expected a three-subsystem (A, B, E) state, got dims {rho_abe.dims}")
    stack = as_three_qubit_stack(rho_abe)
    return KeyRateReport.from_columns(key_report_batch(stack, x, z, x_prime, z_prime))


def key_rate_berta(rho_abe: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """q_MU - S(X|B) - S(Z|B) with both conditional entropies on rho_AB."""
    return key_report(rho_abe, x, z).k_berta


def key_rate_improved(rho_abe: DensityMatrix, x: MeasurementBasis, z: MeasurementBasis) -> float:
    """key_rate_berta plus the improvement term max(0, delta)."""
    return key_report(rho_abe, x, z).k_improved


def key_rate_measured(
    rho_abe: DensityMatrix,
    x: MeasurementBasis,
    z: MeasurementBasis,
    x_prime: MeasurementBasis,
    z_prime: MeasurementBasis,
) -> float:
    """q_MU + max(0, delta) - S(X|X') - S(Z|Z') from the joint outcome tables
    of Alice's and Bob's local measurements."""
    return key_report(rho_abe, x, z, x_prime, z_prime).k_measured
