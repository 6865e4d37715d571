"""The measurement-ensemble kernel behind full_report and key_report, checked
against the dephasing reference: S(X|B) is the entropy of the post-measurement
state minus that of the memory."""

import math
import sys

import numpy as np
import pytest

import triuncert.measurement
from triuncert.bounds import full_report
from triuncert.entropy import conditional_entropy, holevo, von_neumann
from triuncert.keyrate import key_report
from triuncert.measurement import MeasurementBasis, pauli_basis, post_measurement_state
from triuncert.states import (
    make_ghz,
    make_w,
    make_werner,
    maximally_mixed,
    partial_trace,
    random_pure_state,
    random_state,
)

TOL = 1e-12
X = pauli_basis("x")
Z = pauli_basis("z")


def qr_basis(seed: int) -> MeasurementBasis:
    """Haar-random qubit basis: QR of a complex Gaussian matrix, phases fixed by R."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return MeasurementBasis(f"qr{seed}", q * (np.diag(r) / np.abs(np.diag(r))))


@pytest.fixture(scope="module")
def cases():
    """(name, state, X basis, Z basis): every state once with Pauli x/z and
    once with its own seeded pair of random bases."""
    states = [(f"random {s}", random_state(s)[0]) for s in range(500)]
    states += [(f"pure {s}", random_pure_state(s)[0]) for s in range(50)]
    states += [(f"ghz {b:.3f}", make_ghz(float(b))) for b in np.linspace(0.0, math.pi / 2, 9)]
    states += [(f"w {t:.3f}", make_w(float(t), math.pi / 4)) for t in np.linspace(0.0, math.pi, 9)]
    states += [(f"werner {p:.2f}", make_werner(float(p))) for p in np.linspace(0.0, 1.0, 11)]
    states.append(("maximally mixed", maximally_mixed()))
    out = []
    for k, (name, rho) in enumerate(states):
        out.append((f"{name}, pauli x/z", rho, X, Z))
        out.append((f"{name}, qr {2 * k}/{2 * k + 1}", rho, qr_basis(2 * k), qr_basis(2 * k + 1)))
    return out


def test_full_report_matches_dephasing_reference(cases):
    for name, rho, x, z in cases:
        rep = full_report(rho, x, z)
        rho_ab = partial_trace(rho, (0, 1))
        rho_ac = partial_trace(rho, (0, 2))
        s_b = von_neumann(partial_trace(rho, (1,)))
        s_c = von_neumann(partial_trace(rho, (2,)))
        reference = {
            "s_xb": von_neumann(post_measurement_state(rho_ab, x)) - s_b,
            "s_zb": von_neumann(post_measurement_state(rho_ab, z)) - s_b,
            "s_zc": von_neumann(post_measurement_state(rho_ac, z)) - s_c,
            "s_xc": von_neumann(post_measurement_state(rho_ac, x)) - s_c,
        }
        for field, value in reference.items():
            assert abs(getattr(rep, field) - value) <= TOL, (name, field)
        # the public Holevo quantity satisfies the same identity H(X) = S(X|B) + I(X:B)
        assert abs(holevo(rho_ab, x) - (rep.h_x - reference["s_xb"])) <= TOL, name


def test_key_report_matches_dephasing_reference(cases):
    for name, rho, x, z in cases:
        rep = key_report(rho, x, z)
        rho_ab = partial_trace(rho, (0, 1))
        assert abs(rep.s_xb - conditional_entropy(post_measurement_state(rho_ab, x), (1,))) <= TOL, name
        assert abs(rep.s_zb - conditional_entropy(post_measurement_state(rho_ab, z), (1,))) <= TOL, name


def test_reports_do_not_dephase(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("post_measurement_state is the test reference, not a report path")

    original = triuncert.measurement.post_measurement_state
    for module_name, module in list(sys.modules.items()):
        if module_name == "triuncert" or module_name.startswith("triuncert."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
    rho, _ = random_state(0)
    full_report(rho, X, Z)
    key_report(rho, X, Z)
