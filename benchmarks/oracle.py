"""Independent plain-numpy re-derivation of what the triuncert CLI writes.

Nothing here imports triuncert. Every function works on a stack of N
three-qubit states at once, shape (N, 8, 8), with per-state measurement bases
of shape (N, 2, 2) whose columns are the basis vectors. Entropies are in bits
and drop eigenvalues at or below ``CUTOFF`` (the 0 log 0 convention).

The eigensolvers are bound at import, so the tracer's patches of
``numpy.linalg`` never see the oracle's own calls.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import eigh, eigvalsh

TOL = 1e-9  # the repository's theorem tolerance; every compared field must agree within it
CUTOFF = 1e-12

_SQ2 = 1.0 / math.sqrt(2.0)
PAULI = {
    "X": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=np.complex128),
    "Z": np.eye(2, dtype=np.complex128),
}

BOUND_FIELDS = (
    "purity", "u_left", "u_right", "delta", "q_mu", "renes", "s_xb", "s_zc", "s_zb",
    "s_xc", "i_ab", "i_ac", "i_zb", "i_xc", "h_x", "h_z", "s_a",
)
KEY_FIELDS = (
    "k_berta", "k_improved", "k_measured", "delta", "s_xb", "s_zb", "s_xx", "s_zz", "symmetric",
)


def program_random_states(seeds) -> np.ndarray:
    """The documented `random_state(seed)` recipe: PCG64(seed) draws an
    8-step multiplicative cascade of uniforms (normalized, descending) and an
    8x8 real matrix T on [-1, 1); the eigenvectors of the Hermitian matrix
    folded from T carry the cascade probabilities."""
    probs = np.empty((len(seeds), 8))
    herm = np.empty((len(seeds), 8, 8), dtype=np.complex128)
    for n, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        cascade = np.cumprod(rng.uniform(0.0, 1.0, size=8))
        probs[n] = cascade / cascade.sum()
        t = rng.uniform(-1.0, 1.0, size=(8, 8))
        lower = np.tril(t, -1)
        herm[n] = np.triu(t) + np.triu(t, 1).T + 1j * (lower.T - lower)
    _, vecs = eigh(herm)
    return (vecs * probs[:, None, :]) @ vecs.conj().transpose(0, 2, 1)


def _entropy(eigs: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis."""
    keep = eigs > CUTOFF
    safe = np.where(keep, eigs, 1.0)
    return -np.where(keep, eigs * np.log2(safe), 0.0).sum(axis=-1)


def _spectral_entropy(mats: np.ndarray) -> np.ndarray:
    return _entropy(eigvalsh(mats))


def _blocks(rho_2q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Unnormalized states of the second qubit after measuring the first in
    `basis`: <v_i| rho |v_i>, shape (N, 2, 2, 2) indexed (n, outcome, row, col)."""
    r = rho_2q.reshape(-1, 2, 2, 2, 2)
    return np.einsum("nai,nabde,ndi->nibe", basis.conj(), r, basis)


def _outcomes(rho_1q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return np.maximum(np.einsum("nai,nad,ndi->ni", basis.conj(), rho_1q, basis).real, 0.0)


def _classical_conditional(rho_2q: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """H(A outcome | B outcome) with both qubits measured in `basis`."""
    r = rho_2q.reshape(-1, 2, 2, 2, 2)
    table = np.einsum("nai,nbj,nabde,ndi,nej->nij", basis.conj(), basis.conj(), r, basis, basis)
    table = np.maximum(table.real, 0.0)
    return _entropy(table.reshape(-1, 4)) - _entropy(table.sum(axis=1))


def bound_and_key_fields(rho: np.ndarray, x: np.ndarray, z: np.ndarray) -> dict:
    """Every bound-report and key-rate field the program prints, per state.

    U_L = S(X|B) + S(Z|C); Delta = q + 2S(A) - I(A:B) - I(A:C) + I(Z:B)
    + I(X:C) - H(X) - H(Z); U_R = q + max(0, Delta). S(X|B) is the entropy of
    the dephased state (the union of the measured blocks' spectra) minus S(B),
    and each Holevo term is S(rest) - sum_i p_i S(block_i / p_i).
    """
    t = rho.reshape(-1, 2, 2, 2, 2, 2, 2)
    rho_ab = np.einsum("nabcdec->nabde", t).reshape(-1, 4, 4)
    rho_ac = np.einsum("nabcdbf->nacdf", t).reshape(-1, 4, 4)
    rho_a = np.einsum("nabcdbc->nad", t)
    rho_b = np.einsum("nabcaec->nbe", t)
    rho_c = np.einsum("nabcabf->ncf", t)
    s_a, s_b, s_c = (_spectral_entropy(m) for m in (rho_a, rho_b, rho_c))
    s_ab, s_ac = _spectral_entropy(rho_ab), _spectral_entropy(rho_ac)

    def dephased_entropy(rho_2q, basis):
        return _spectral_entropy(_blocks(rho_2q, basis)).sum(axis=1)

    s_x_ab, s_z_ab = dephased_entropy(rho_ab, x), dephased_entropy(rho_ab, z)
    s_z_ac, s_x_ac = dephased_entropy(rho_ac, z), dephased_entropy(rho_ac, x)
    h_x, h_z = _entropy(_outcomes(rho_a, x)), _entropy(_outcomes(rho_a, z))
    q = -np.log2(np.max(np.abs(x.conj().transpose(0, 2, 1) @ z) ** 2, axis=(1, 2)))

    s_xb, s_zb = s_x_ab - s_b, s_z_ab - s_b
    s_zc, s_xc = s_z_ac - s_c, s_x_ac - s_c
    i_ab, i_ac = s_a + s_b - s_ab, s_a + s_c - s_ac
    i_zb = s_b - (s_z_ab - h_z)
    i_xc = s_c - (s_x_ac - h_x)
    delta = q + 2.0 * s_a - (i_ab + i_ac) + (i_zb + i_xc) - h_x - h_z
    improvement = np.maximum(delta, 0.0)
    s_xx, s_zz = _classical_conditional(rho_ab, x), _classical_conditional(rho_ab, z)
    k_berta = q - s_xb - s_zb
    return {
        "purity": np.einsum("nij,nji->n", rho, rho).real,
        "u_left": s_xb + s_zc,
        "u_right": q + improvement,
        "delta": delta,
        "q_mu": q,
        "renes": q,
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
        "k_berta": k_berta,
        "k_improved": k_berta + improvement,
        "k_measured": q + improvement - s_xx - s_zz,
        "s_xx": s_xx,
        "s_zz": s_zz,
        "symmetric": (np.abs(s_xx - s_zz) <= 1e-9).astype(float),
    }


def pauli_fields(rho: np.ndarray) -> dict:
    """bound_and_key_fields with Pauli x / z on every state."""
    n = rho.shape[0]
    x = np.broadcast_to(PAULI["X"], (n, 2, 2))
    z = np.broadcast_to(PAULI["Z"], (n, 2, 2))
    return bound_and_key_fields(rho, x, z)


def row_mismatches(expected: dict, got: dict, fields) -> np.ndarray:
    """Boolean per row: some field differs by more than TOL, or is missing or
    not finite. `got` maps each field to an array-like over the same rows."""
    n = len(next(iter(expected.values())))
    bad = np.zeros(n, dtype=bool)
    for name in fields:
        values = np.asarray(got.get(name, np.full(n, np.nan)), dtype=np.float64)
        if values.shape != (n,):
            return np.ones(n, dtype=bool)
        bad |= ~(np.abs(values - expected[name]) <= TOL)
    return bad
