"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps each listed public function of triuncert wherever callers
look it up: the defining module, every module that imported the name, and
module-level dispatch tables such as `experiments.RUNNERS`. It also wraps
`numpy.linalg.eigh` and `eigvalsh`, keyed by matrix size. Spans are recorded
only inside a root span, i.e. inside one traced `cli.main` call, and are kept
in flat in-memory arrays (name, start, end, parent, call id) until the run
ends. Nothing under `src/` changes.

A listed function that no longer exists is reported in `absent`; the metrics
built on it read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, attribute): the public functions timed by the traced run. An
# attribute "Class.method" names a method of a class in that layer's module.
# Functions that no metric names are wrapped too, so that their time is not
# counted as their caller's self time.
TRACED = (
    ("cli", "build_parser"),
    ("cli", "resolve_basis"),
    ("cli", "render_eval"),
    ("experiments", "run_scenario"),
    ("experiments", "run_random_scatter"),
    ("experiments", "run_keyrate"),
    ("experiments", "run_eval"),
    ("experiments", "load_state_file"),
    ("experiments", "write_result"),
    ("experiments", "render_csv"),
    ("experiments", "render_json"),
    ("states", "random_state"),
    ("states", "partial_trace"),
    ("states", "purity"),
    ("states", "density_matrix_from_json"),
    ("states", "DensityMatrix.__post_init__"),
    ("measurement", "pauli_basis"),
    ("measurement", "q_mu"),
    ("measurement", "post_measurement_state"),
    ("measurement", "measurement_ensemble"),
    ("measurement", "outcome_distribution"),
    ("measurement", "basis_from_json"),
    ("measurement", "MeasurementBasis.__post_init__"),
    ("entropy", "von_neumann"),
    ("entropy", "conditional_entropy"),
    ("entropy", "holevo"),
    ("entropy", "shannon"),
    ("entropy", "classical_conditional_entropy"),
    ("linalg", "kron"),
    ("linalg", "eig_hermitian"),
    ("bounds", "full_report"),
    ("keyrate", "key_report"),
)
EIGENSOLVERS = ("eigh", "eigvalsh")
RENDERERS = ("experiments.render_csv", "experiments.render_json", "cli.render_eval")
RUNNERS = (
    "experiments.run_scenario",
    "experiments.run_random_scatter",
    "experiments.run_keyrate",
    "experiments.run_eval",
)
ROOT = "cli.main"


class Tracer:
    """Records spans of the wrapped functions; `install` patches them in,
    `uninstall` puts the originals back."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rendered_bytes = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._call_id = -1
        self._restore: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def root(self, fn):
        """Wrap the entry point: each call opens a root span with a new call id."""
        nid = self.name_id(ROOT)

        @functools.wraps(fn)
        def traced_root(*args, **kwargs):
            self._call_id += 1
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced_root

    def _wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_eigensolver(self, solver: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            if not stack:
                return fn(a, *args, **kwargs)
            idx = self._open(self.name_id(f"numpy.linalg.{solver}.{np.shape(a)[-1]}"))
            try:
                return fn(a, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _count_bytes(self, text) -> None:
        self.rendered_bytes += len(text.encode("utf-8"))

    def _patch_attr(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _patch_item(self, table: dict, key, value) -> None:
        original = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, original))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "triuncert" or n.startswith("triuncert.")]
        for layer, attr in TRACED:
            name = f"{layer}.{attr}"
            owner = sys.modules.get(f"triuncert.{layer}")
            cls_name, _, member = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, member, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, self._count_bytes if name in RENDERERS else None)
            if cls_name:
                self._patch_attr(owner, member, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch_attr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for item_key, item in list(value.items()):
                            if item is original:
                                self._patch_item(value, item_key, wrapper)
        for solver in EIGENSOLVERS:
            self._patch_attr(np.linalg, solver, self._wrap_eigensolver(solver, getattr(np.linalg, solver)))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, plus the name table."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "call": np.frombuffer(self.call, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def layer_metrics(tracer: Tracer, rows: int) -> dict:
    """Per-layer metrics {name: (value, unit)} from the recorded spans.

    `.ms` is the mean inclusive time per call of that function, `.self_ms` the
    mean time per call not covered by child spans, `calls_per_row` a count per
    row written (or state evaluated), and `_per_call` a count per CLI call.
    """
    s = tracer.spans()
    n_names = len(tracer.names)
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, s["parent"][has_parent], dur[has_parent])
    count = np.bincount(s["name"], minlength=n_names)
    total = np.bincount(s["name"], weights=dur, minlength=n_names)
    own = np.bincount(s["name"], weights=dur - covered, minlength=n_names)
    ids = tracer._ids

    def pick(arr, names):
        return float(sum(arr[ids[n]] for n in names if n in ids))

    def per_call_ms(name, arr=total):
        calls = pick(count, [name])
        return 1000.0 * pick(arr, [name]) / calls if calls else 0.0

    def eig_count(size):
        return pick(count, [f"numpy.linalg.{solver}.{size}" for solver in EIGENSOLVERS])

    cli_calls = max(pick(count, [ROOT]), 1.0)
    rows = max(rows, 1)
    key_reports = pick(count, ["keyrate.key_report"])

    # dephasings issued while a key_report span is open; key_report never nests
    dephasings_in_key = 0
    if key_reports and "measurement.post_measurement_state" in ids:
        kr = s["name"] == ids["keyrate.key_report"]
        kr_start, kr_end = s["start"][kr], s["end"][kr]
        deph_start = s["start"][s["name"] == ids["measurement.post_measurement_state"]]
        slot = np.searchsorted(kr_start, deph_start, side="right") - 1
        inside = (slot >= 0) & (deph_start < kr_end[np.maximum(slot, 0)])
        dephasings_in_key = int(inside.sum())

    return {
        "cli.main.self_ms": (1000.0 * pick(own, [ROOT]) / cli_calls, "ms"),
        "experiments.load_state_file.ms": (per_call_ms("experiments.load_state_file"), "ms"),
        "measurement.basis_validations_per_call": (
            pick(count, ["measurement.MeasurementBasis.__post_init__"]) / cli_calls, "count/call"),
        "experiments.runner.self_ms": (1000.0 * pick(own, RUNNERS) / cli_calls, "ms"),
        "experiments.render.ms": (1000.0 * pick(total, RENDERERS) / cli_calls, "ms"),
        "experiments.render.bytes": (tracer.rendered_bytes / cli_calls, "B"),
        "states.random_state.ms": (per_call_ms("states.random_state"), "ms"),
        "states.validations_per_row": (
            pick(count, ["states.DensityMatrix.__post_init__"]) / rows, "count/row"),
        "states.validation.ms": (per_call_ms("states.DensityMatrix.__post_init__"), "ms"),
        "states.partial_trace.calls_per_row": (pick(count, ["states.partial_trace"]) / rows, "count/row"),
        "measurement.post_measurement_state.calls_per_row": (
            pick(count, ["measurement.post_measurement_state"]) / rows, "count/row"),
        "measurement.post_measurement_state.ms": (per_call_ms("measurement.post_measurement_state"), "ms"),
        "measurement.measurement_ensemble.calls_per_row": (
            pick(count, ["measurement.measurement_ensemble"]) / rows, "count/row"),
        "measurement.measurement_ensemble.ms": (per_call_ms("measurement.measurement_ensemble"), "ms"),
        "entropy.holevo.ms": (per_call_ms("entropy.holevo"), "ms"),
        "entropy.classical_conditional_entropy.ms": (
            per_call_ms("entropy.classical_conditional_entropy"), "ms"),
        "entropy.von_neumann.calls_per_row": (pick(count, ["entropy.von_neumann"]) / rows, "count/row"),
        "linalg.eig_calls_per_row.8": (eig_count(8) / rows, "count/row"),
        "linalg.eig_calls_per_row.4": (eig_count(4) / rows, "count/row"),
        "linalg.eig_calls_per_row.2": (eig_count(2) / rows, "count/row"),
        "linalg.kron_calls_per_row": (pick(count, ["linalg.kron"]) / rows, "count/row"),
        "bounds.full_report.calls_per_row": (pick(count, ["bounds.full_report"]) / rows, "count/row"),
        "bounds.full_report.self_ms": (per_call_ms("bounds.full_report", own), "ms"),
        "keyrate.key_report.self_ms": (per_call_ms("keyrate.key_report", own), "ms"),
        "keyrate.dephasings_per_key_report": (
            dephasings_in_key / key_reports if key_reports else 0.0, "count"),
    }
