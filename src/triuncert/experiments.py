"""Scenario runners producing deterministic sweep tables as CSV or JSON.

Every runner is a pure function of its ScenarioConfig: the same config yields
byte-identical output files. Random scenarios assign seed + index to sample i
and write rows in index order. Each runner builds its states as one (N, 8, 8)
stack, evaluates it with one ``full_report_batch`` (or ``key_report_batch``)
call, and counts the rows that break the inequalities the scenario is
expected to satisfy with array comparisons; a nonzero count maps to CLI exit
code 3. ``run_eval`` takes both of its reports from one batch of one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import (
    BoundReport,
    as_three_qubit_stack,
    full_report_batch,
    x_state_analytic,
)
from .errors import DomainError
from .keyrate import KEY_REPORT_COLUMNS, KeyRateReport, key_report_batch
from .measurement import MeasurementBasis, pauli_basis
from .states import (
    DensityMatrix,
    XStateParams,
    _X_PAIRS,
    density_matrix_from_json,
    make_ghz,
    make_w,
    make_werner,
    make_x_state,
    maximally_mixed,
    random_pure_state,
    random_states,
    werner_params,
)

SCENARIOS = (
    "ghz",
    "w",
    "werner",
    "random-scatter",
    "random-purity",
    "xstate-check",
    "keyrate",
    "eval",
)

FORMATS = ("csv", "json")

THEOREM_TOL = 1e-9
RENES_TOL = 1e-12
XSTATE_TOL = 1e-8

PURITY_APPENDED_PURE = 10
PURITY_BINS = 10


@dataclass
class ScenarioConfig:
    """Knobs of one scenario run."""

    scenario: str
    points: int = 201
    samples: int = 10000
    seed: int = 0
    alpha: float = math.pi / 4
    output_path: str | None = None
    format: str = "csv"
    state_path: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DomainError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.format not in FORMATS:
            raise DomainError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if self.points < 2:
            raise DomainError(f"sweeps need points >= 2, got {self.points}")
        if self.samples < 1:
            raise DomainError(f"random batches need samples >= 1, got {self.samples}")


@dataclass
class SweepResult:
    """One scenario's table plus its metadata and violation count."""

    meta: dict
    columns: list[str]
    rows: list[tuple]
    violations: int = 0
    summary: dict = field(default_factory=dict)


def _meta(cfg: ScenarioConfig, **extra) -> dict:
    meta = {"scenario": cfg.scenario, "seed": cfg.seed, "version": __version__}
    meta.update(extra)
    return meta


def _pauli_xz() -> tuple[MeasurementBasis, MeasurementBasis]:
    return pauli_basis("x"), pauli_basis("z")


def _stack(states) -> np.ndarray:
    return np.array([rho.matrix for rho in states])


def _sweep_rows(grid, cols, *extra) -> list[tuple]:
    """Rows (grid point, u_left, u_right, renes, *extra columns)."""
    return list(zip(grid.tolist(), cols["u_left"].tolist(), cols["u_right"].tolist(),
                    cols["renes"].tolist(), *(e.tolist() for e in extra)))


def run_ghz(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the GHZ-family angle; all bound columns should equal one."""
    x, z = _pauli_xz()
    betas = np.linspace(0.0, math.pi / 2, cfg.points)
    cols = full_report_batch(_stack(make_ghz(float(b)) for b in betas), x, z)
    u_l, u_r = cols["u_left"], cols["u_right"]
    bad = (np.abs(u_l - 1.0) > THEOREM_TOL) | (np.abs(u_r - 1.0) > THEOREM_TOL)
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, beta_range="[0, pi/2]"),
        columns=["beta", "u_left", "u_right", "renes"],
        rows=_sweep_rows(betas, cols),
        violations=int(np.count_nonzero(bad)),
    )


def run_w(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the W-family angle theta at fixed alpha; the bound stays at one."""
    x, z = _pauli_xz()
    thetas = np.linspace(0.0, math.pi, cfg.points)
    cols = full_report_batch(_stack(make_w(float(t), cfg.alpha) for t in thetas), x, z)
    u_l, u_r = cols["u_left"], cols["u_right"]
    bad = (np.abs(u_r - 1.0) > THEOREM_TOL) | (u_l < 1.0 - THEOREM_TOL)
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, alpha=cfg.alpha, theta_range="[0, pi]"),
        columns=["theta", "u_left", "u_right", "renes"],
        rows=_sweep_rows(thetas, cols),
        violations=int(np.count_nonzero(bad)),
    )


def run_werner(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the Werner mixing weight; uncertainty, bound, and the closed form agree."""
    x, z = _pauli_xz()
    ps = np.linspace(0.0, 1.0, cfg.points)
    cols = full_report_batch(_stack(make_werner(float(p)) for p in ps), x, z)
    analytic = np.array([x_state_analytic(werner_params(float(p))) for p in ps])
    u_l, u_r, renes = cols["u_left"], cols["u_right"], cols["renes"]
    bad = (
        (np.abs(u_l - u_r) > XSTATE_TOL)
        | (np.abs(u_l - analytic) > XSTATE_TOL)
        | (u_r < renes - RENES_TOL)
    )
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, p_range="[0, 1]"),
        columns=["p", "u_left", "u_right", "renes", "analytic"],
        rows=_sweep_rows(ps, cols, analytic),
        violations=int(np.count_nonzero(bad)),
    )


def _random_seeds(cfg: ScenarioConfig) -> range:
    return range(cfg.seed, cfg.seed + cfg.samples)


def run_random_scatter(cfg: ScenarioConfig) -> SweepResult:
    """Random-state cloud: check u_left >= u_right and u_right >= renes bound."""
    x, z = _pauli_xz()
    seeds = _random_seeds(cfg)
    cols = full_report_batch(random_states(seeds), x, z, seeds=seeds)
    u_l, u_r, renes = cols["u_left"], cols["u_right"], cols["renes"]
    bad = (u_l < u_r - THEOREM_TOL) | (u_r < renes - RENES_TOL)
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples),
        columns=["index", "purity", "u_left", "u_right", "renes"],
        rows=list(zip(range(cfg.samples), cols["purity"].tolist(), u_l.tolist(),
                      u_r.tolist(), renes.tolist())),
        violations=int(np.count_nonzero(bad)),
    )


def run_random_purity(cfg: ScenarioConfig) -> SweepResult:
    """Bound versus purity, with explicit pure and maximally mixed endpoints
    appended after the random batch and per-bin means in the summary."""
    x, z = _pauli_xz()
    pure_seeds = range(cfg.seed + cfg.samples, cfg.seed + cfg.samples + PURITY_APPENDED_PURE)
    stack = np.concatenate([
        random_states(_random_seeds(cfg)),
        _stack(random_pure_state(s)[0] for s in pure_seeds),
        maximally_mixed().matrix[None],
    ])
    cols = full_report_batch(stack, x, z)
    pur, u_r = cols["purity"], cols["u_right"]
    rows = list(zip(pur.tolist(), u_r.tolist()))
    pure_bad = np.abs(u_r[cfg.samples:-1] - 1.0) > THEOREM_TOL
    mixed_bad = abs(pur[-1] - 0.125) > THEOREM_TOL or abs(u_r[-1] - 2.0) > THEOREM_TOL
    violations = int(np.count_nonzero(pure_bad)) + int(mixed_bad)

    edges = np.linspace(1.0 / 8.0, 1.0, PURITY_BINS + 1)
    counts = [0] * PURITY_BINS
    sums = [0.0] * PURITY_BINS
    for p, ur in rows[: cfg.samples]:
        k = min(int((p - edges[0]) / (edges[1] - edges[0])), PURITY_BINS - 1)
        k = max(k, 0)
        counts[k] += 1
        sums[k] += ur
    # the decreasing trend of the bin means is statistical, not pointwise, so
    # it is reported in the summary rather than counted as a violation
    means = [s / c if c else None for s, c in zip(sums, counts)]
    summary = {
        "bin_edges": [float(e) for e in edges],
        "bin_counts": counts,
        "bin_means": [None if m is None else float(m) for m in means],
        "appended_pure": PURITY_APPENDED_PURE,
        "appended_mixed": 1,
    }
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples),
        columns=["purity", "u_right"],
        rows=rows,
        violations=violations,
        summary=summary,
    )


def random_x_params(seed: int) -> XStateParams:
    """Random X-state parameters: diagonal from the multiplicative cascade,
    each anti-diagonal entry uniform within the PSD limit of its 2x2 block."""
    rng = np.random.default_rng(seed)
    cascade = np.cumprod(rng.uniform(0.0, 1.0, size=8))
    diag = cascade / cascade.sum()
    offdiag = []
    for i, j in _X_PAIRS:
        limit = math.sqrt(diag[i] * diag[j])
        offdiag.append(float(rng.uniform(-limit, limit)))
    return XStateParams(diag=tuple(float(v) for v in diag), offdiag=tuple(offdiag))


def run_xstate_check(cfg: ScenarioConfig) -> SweepResult:
    """Verify the closed form: u_left, u_right, and the analytic value must
    coincide on X-structure states (GHZ row, Werner grid, random samples)."""
    x, z = _pauli_xz()
    param_sets = [
        XStateParams(diag=(0.5, 0, 0, 0, 0, 0, 0, 0.5), offdiag=(0.5, 0, 0, 0)),
    ]
    param_sets.extend(werner_params(p) for p in np.linspace(0.0, 1.0, 21))
    param_sets.extend(random_x_params(cfg.seed + i) for i in range(cfg.samples))
    cols = full_report_batch(_stack(make_x_state(params) for params in param_sets), x, z)
    u_l, u_r = cols["u_left"], cols["u_right"]
    analytic = np.array([x_state_analytic(params) for params in param_sets])
    max_dev = np.maximum(np.maximum(np.abs(u_l - u_r), np.abs(u_l - analytic)), np.abs(u_r - analytic))
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples, fixed_rows=len(param_sets) - cfg.samples),
        columns=["u_left", "u_right", "analytic", "max_deviation"],
        rows=list(zip(u_l.tolist(), u_r.tolist(), analytic.tolist(), max_dev.tolist())),
        violations=int(np.count_nonzero(max_dev > XSTATE_TOL)),
    )


def run_keyrate(cfg: ScenarioConfig) -> SweepResult:
    """Key-rate bounds over random tripartite states with Bob measuring the
    same observables as Alice."""
    x, z = _pauli_xz()
    cols = key_report_batch(random_states(_random_seeds(cfg)), x, z)
    k_b, k_i, k_m = cols["k_berta"], cols["k_improved"], cols["k_measured"]
    improvement = np.where(cols["delta"] > 0.0, cols["delta"], 0.0)
    bad = (np.abs((k_i - k_b) - improvement) > 1e-12) | (k_m > k_i + THEOREM_TOL)
    # the symmetric flag is written as 0/1, not as a JSON boolean
    table = [cols[name].astype(int if name == "symmetric" else float).tolist() for name in KEY_REPORT_COLUMNS]
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples),
        columns=["index"] + list(KEY_REPORT_COLUMNS),
        rows=list(zip(range(cfg.samples), *table)),
        violations=int(np.count_nonzero(bad)),
    )


def load_state_file(path: str) -> DensityMatrix:
    """Read a JSON density matrix from disk (may raise OSError,
    json.JSONDecodeError, DomainError, or ShapeError)."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return density_matrix_from_json(payload)


def run_eval(
    cfg: ScenarioConfig,
    basis_x: MeasurementBasis | None = None,
    basis_z: MeasurementBasis | None = None,
) -> dict:
    """Evaluate the full bound report and key-rate report of a user-supplied
    three-subsystem state file."""
    if cfg.state_path is None:
        raise DomainError("the eval scenario needs a state file (--state)")
    rho = load_state_file(cfg.state_path)
    x = pauli_basis("x") if basis_x is None else basis_x
    z = pauli_basis("z") if basis_z is None else basis_z
    stack = as_three_qubit_stack(rho)
    bounds = full_report_batch(stack, x, z)
    keys = key_report_batch(stack, x, z, bounds=bounds)
    return {
        "meta": _meta(cfg, state=cfg.state_path, basis_x=x.label, basis_z=z.label),
        "bounds": BoundReport.from_columns(bounds).to_dict(),
        "keyrate": KeyRateReport.from_columns(keys).to_dict(),
    }


RUNNERS = {
    "ghz": run_ghz,
    "w": run_w,
    "werner": run_werner,
    "random-scatter": run_random_scatter,
    "random-purity": run_random_purity,
    "xstate-check": run_xstate_check,
    "keyrate": run_keyrate,
}


def run_scenario(cfg: ScenarioConfig) -> SweepResult:
    """Dispatch a sweep scenario (everything except eval)."""
    if cfg.scenario == "eval":
        raise DomainError("eval is handled by run_eval, not run_scenario")
    return RUNNERS[cfg.scenario](cfg)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def render_csv(result: SweepResult) -> str:
    """CSV text: '#'-prefixed metadata, one header row, data rows, then any
    summary entries as trailing comments."""
    lines = [f"# {key}={_format_cell(val) if isinstance(val, float) else val}"
             for key, val in result.meta.items()]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    for key, val in result.summary.items():
        if isinstance(val, list):
            rendered = ";".join("" if v is None else _format_cell(v) for v in val)
        else:
            rendered = _format_cell(val) if isinstance(val, (int, float)) else str(val)
        lines.append(f"# summary {key}={rendered}")
    return "\n".join(lines) + "\n"


def render_json(result: SweepResult) -> str:
    """JSON text: object {meta, rows} with the column names and any summary
    folded into meta."""
    meta = dict(result.meta)
    meta["columns"] = list(result.columns)
    if result.summary:
        meta["summary"] = result.summary
    payload = {"meta": meta, "rows": [list(row) for row in result.rows]}
    return json.dumps(payload, indent=2) + "\n"


def write_result(result: SweepResult, path: str, format: str) -> None:
    text = render_csv(result) if format == "csv" else render_json(result)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_csv(path: str):
    """Parse a CSV file written by write_result back into (meta, columns, rows)."""
    meta = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, val = body.split("=", 1)
                    meta[key.strip()] = val
                continue
            cells = line.split(",")
            if columns is None:
                columns = cells
            else:
                rows.append(tuple(float(c) if c else math.nan for c in cells))
    return meta, columns, rows
