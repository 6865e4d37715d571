"""Machine-speed references for the benchmark's timing metrics.

The benchmark runs on shared machines whose speed drifts by up to 2x between
phases lasting seconds to minutes, for every process alike. To keep the
timing metrics comparable between runs, a fixed reference mix of the kinds of
work the program does (small Hermitian eigensolves, an einsum partial trace,
a validated frozen dataclass, float formatting) runs after every timed call,
outside the timed region. Each call time is then scaled by NOMINAL_S over
the reference time measured right after it: it reads as the call time on a
machine where the mix takes NOMINAL_S.

Starting an interpreter does not track that mix, so each set-up spawn is
scaled the same way by a reference spawn just before it: a fresh interpreter
that imports numpy and nothing of the program (REFERENCE_SPAWN, nominally
NOMINAL_SPAWN_S). Both references are the benchmark's own code, so no change
to the program can move them; raw wall times are kept beside the scaled ones
in every result.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh

# about the references' times on the machine the benchmark was tuned on
NOMINAL_S = 1e-3
NOMINAL_SPAWN_S = 0.18
REFERENCE_SPAWN = ["-c", "import numpy"]
_ROUNDS = 20
REFERENCE_SHARE = 0.1

_G = np.random.default_rng(0).normal(size=(2, 8, 8))
_RHO = (_G[0] + 1j * _G[1]) @ (_G[0] + 1j * _G[1]).conj().T
_RHO /= np.trace(_RHO).real


@dataclass(frozen=True)
class _Checked:
    matrix: np.ndarray
    index: int

    def __post_init__(self):
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-10 or self.index < 0:
            raise ValueError("reference input is invalid")


def _reference_pass() -> None:
    for i in range(_ROUNDS):
        w = eigvalsh(_RHO)
        reduced = np.einsum(_RHO.reshape(2, 2, 2, 2, 2, 2), [0, 1, 2, 3, 4, 2], [0, 1, 3, 4]).reshape(4, 4)
        _Checked(reduced, i)
        v = eigvalsh(reduced)
        kept = np.concatenate([w, v])
        kept = kept[kept > 1e-12]
        "%.17g" % float(-(kept * np.log2(kept)).sum())


def reference_seconds(call_seconds: float = 0.0) -> float:
    """Median wall time of one pass of the fixed reference mix, over as many
    passes as take REFERENCE_SHARE of `call_seconds` (at least one), so that
    a long call is scaled by an equally well measured reference. The median
    ignores a pass that the machine preempted."""
    times = []
    while True:
        t0 = perf_counter()
        _reference_pass()
        times.append(perf_counter() - t0)
        if sum(times) >= REFERENCE_SHARE * call_seconds:
            return statistics.median(times)


def scaled(durations, references, nominal: float) -> np.ndarray:
    """Each duration scaled to the nominal machine speed by its own reference sample."""
    d = np.asarray(durations, dtype=np.float64)
    return d * nominal / np.asarray(references, dtype=np.float64)
