"""Seeded input files for the eval-files workload.

The pool mixes three kinds of three-qubit states, because the program's cost
and its numerical edge cases depend on the spectrum: full-rank mixed states
(Ginibre ensemble), pure states (seven zero eigenvalues) and X-states (the
sparse family with a closed form). About half of the states come with a
random non-Pauli basis file for `--basis-x`, so q_MU differs from 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import PAULI

KINDS = ("mixed", "pure", "xstate")
CUSTOM_BASIS_SHARE = 0.5
_X_PAIRS = ((0, 7), (1, 6), (2, 5), (3, 4))


@dataclass(frozen=True)
class EvalInput:
    """One state file, its optional basis file, and the arrays they hold."""

    kind: str
    state_path: Path
    basis_path: Path | None
    rho: np.ndarray
    basis_x: np.ndarray
    label_x: str


def _normalized(m: np.ndarray) -> np.ndarray:
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def random_density_matrix(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "mixed":
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        return _normalized(g @ g.conj().T)
    if kind == "pure":
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        return _normalized(np.outer(v, v.conj()))
    if kind == "xstate":
        cascade = np.cumprod(rng.uniform(0.05, 1.0, size=8))
        diag = rng.permutation(cascade / cascade.sum())
        m = np.diag(diag).astype(np.complex128)
        for i, j in _X_PAIRS:
            m[i, j] = m[j, i] = 0.999 * rng.uniform(-1.0, 1.0) * math.sqrt(diag[i] * diag[j])
        return _normalized(m)
    raise ValueError(f"unknown state kind {kind!r}")


def random_qubit_basis(rng: np.random.Generator) -> np.ndarray:
    """Columns of a Haar-random 2x2 unitary (QR of a complex Gaussian)."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def write_eval_inputs(seed: int, start: int, size: int, directory: Path) -> list[EvalInput]:
    """Write the state files (and basis files) numbered start .. start+size-1
    under `directory`. Input k depends only on (seed, k), so the files do not
    depend on how the numbers are split into calls of this function."""
    items = []
    for k in range(start, start + size):
        rng = np.random.default_rng([seed, k])
        kind = KINDS[int(rng.integers(len(KINDS)))]
        rho = random_density_matrix(kind, rng)
        state_path = directory / f"state{k:05d}.json"
        _write_json(state_path, {"dims": [2, 2, 2], "re": rho.real.tolist(), "im": rho.imag.tolist()})
        basis_path, basis_x, label = None, PAULI["X"], "X"
        if rng.random() < CUSTOM_BASIS_SHARE:
            basis_x, label = random_qubit_basis(rng), f"R{k:05d}"
            basis_path = directory / f"basis{k:05d}.json"
            vectors = [{"re": col.real.tolist(), "im": col.imag.tolist()} for col in basis_x.T]
            _write_json(basis_path, {"label": label, "vectors": vectors})
        items.append(EvalInput(kind, state_path, basis_path, rho, basis_x, label))
    return items
