"""Scenario runners producing deterministic sweep tables as CSV or JSON.

Every runner is a pure function of its ScenarioConfig: the same config yields
byte-identical output files. Random scenarios assign seed + index to sample i
and write rows in index order. Violation counters track rows that break the
inequalities each scenario is expected to satisfy; a nonzero count maps to CLI
exit code 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import (
    BOUND_REPORT_COLUMNS,
    full_report,
    renes_bound,
    x_state_analytic,
)
from .errors import DomainError
from .keyrate import KEY_REPORT_COLUMNS, key_report
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
    random_state,
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


def run_ghz(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the GHZ-family angle; all bound columns should equal one."""
    x, z = _pauli_xz()
    renes = renes_bound(x, z)
    betas = np.linspace(0.0, math.pi / 2, cfg.points)
    rows = []
    violations = 0
    for beta in betas:
        rep = full_report(make_ghz(float(beta)), x, z)
        rows.append((float(beta), rep.u_left, rep.u_right, renes))
        if abs(rep.u_left - 1.0) > THEOREM_TOL or abs(rep.u_right - 1.0) > THEOREM_TOL:
            violations += 1
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, beta_range="[0, pi/2]"),
        columns=["beta", "u_left", "u_right", "renes"],
        rows=rows,
        violations=violations,
    )


def run_w(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the W-family angle theta at fixed alpha; the bound stays at one."""
    x, z = _pauli_xz()
    renes = renes_bound(x, z)
    thetas = np.linspace(0.0, math.pi, cfg.points)
    rows = []
    violations = 0
    for theta in thetas:
        rep = full_report(make_w(float(theta), cfg.alpha), x, z)
        rows.append((float(theta), rep.u_left, rep.u_right, renes))
        if abs(rep.u_right - 1.0) > THEOREM_TOL or rep.u_left < 1.0 - THEOREM_TOL:
            violations += 1
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, alpha=cfg.alpha, theta_range="[0, pi]"),
        columns=["theta", "u_left", "u_right", "renes"],
        rows=rows,
        violations=violations,
    )


def run_werner(cfg: ScenarioConfig) -> SweepResult:
    """Sweep the Werner mixing weight; uncertainty, bound, and the closed form agree."""
    x, z = _pauli_xz()
    renes = renes_bound(x, z)
    ps = np.linspace(0.0, 1.0, cfg.points)
    rows = []
    violations = 0
    for p in ps:
        rep = full_report(make_werner(float(p)), x, z)
        analytic = x_state_analytic(werner_params(float(p)))
        rows.append((float(p), rep.u_left, rep.u_right, renes, analytic))
        if (
            abs(rep.u_left - rep.u_right) > XSTATE_TOL
            or abs(rep.u_left - analytic) > XSTATE_TOL
            or rep.u_right < renes - RENES_TOL
        ):
            violations += 1
    return SweepResult(
        meta=_meta(cfg, points=cfg.points, p_range="[0, 1]"),
        columns=["p", "u_left", "u_right", "renes", "analytic"],
        rows=rows,
        violations=violations,
    )


def run_random_scatter(cfg: ScenarioConfig) -> SweepResult:
    """Random-state cloud: check u_left >= u_right and u_right >= renes bound."""
    x, z = _pauli_xz()
    renes = renes_bound(x, z)
    rows = []
    violations = 0
    for i in range(cfg.samples):
        rho, _ = random_state(cfg.seed + i)
        rep = full_report(rho, x, z, seed=cfg.seed + i)
        rows.append((i, rep.purity, rep.u_left, rep.u_right, renes))
        if rep.u_left < rep.u_right - THEOREM_TOL or rep.u_right < renes - RENES_TOL:
            violations += 1
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples),
        columns=["index", "purity", "u_left", "u_right", "renes"],
        rows=rows,
        violations=violations,
    )


def run_random_purity(cfg: ScenarioConfig) -> SweepResult:
    """Bound versus purity, with explicit pure and maximally mixed endpoints
    appended after the random batch and per-bin means in the summary."""
    x, z = _pauli_xz()
    rows = []
    violations = 0
    batch = []
    for i in range(cfg.samples):
        rho, _ = random_state(cfg.seed + i)
        rep = full_report(rho, x, z, seed=cfg.seed + i)
        rows.append((rep.purity, rep.u_right))
        batch.append((rep.purity, rep.u_right))
    for i in range(PURITY_APPENDED_PURE):
        rho, _ = random_pure_state(cfg.seed + cfg.samples + i)
        rep = full_report(rho, x, z)
        rows.append((rep.purity, rep.u_right))
        if abs(rep.u_right - 1.0) > THEOREM_TOL:
            violations += 1
    rep = full_report(maximally_mixed(), x, z)
    rows.append((rep.purity, rep.u_right))
    if abs(rep.purity - 0.125) > THEOREM_TOL or abs(rep.u_right - 2.0) > THEOREM_TOL:
        violations += 1

    edges = np.linspace(1.0 / 8.0, 1.0, PURITY_BINS + 1)
    counts = [0] * PURITY_BINS
    sums = [0.0] * PURITY_BINS
    for pur, ur in batch:
        k = min(int((pur - edges[0]) / (edges[1] - edges[0])), PURITY_BINS - 1)
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
    rows = []
    violations = 0
    for params in param_sets:
        rep = full_report(make_x_state(params), x, z)
        analytic = x_state_analytic(params)
        max_dev = max(
            abs(rep.u_left - rep.u_right),
            abs(rep.u_left - analytic),
            abs(rep.u_right - analytic),
        )
        rows.append((rep.u_left, rep.u_right, analytic, max_dev))
        if max_dev > XSTATE_TOL:
            violations += 1
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples, fixed_rows=len(param_sets) - cfg.samples),
        columns=["u_left", "u_right", "analytic", "max_deviation"],
        rows=rows,
        violations=violations,
    )


def run_keyrate(cfg: ScenarioConfig) -> SweepResult:
    """Key-rate bounds over random tripartite states with Bob measuring the
    same observables as Alice."""
    x, z = _pauli_xz()
    rows = []
    violations = 0
    for i in range(cfg.samples):
        rho, _ = random_state(cfg.seed + i)
        rep = key_report(rho, x, z)
        rows.append(
            (
                i,
                rep.k_berta,
                rep.k_improved,
                rep.k_measured,
                rep.delta,
                rep.s_xb,
                rep.s_zb,
                rep.s_xx,
                rep.s_zz,
                int(rep.symmetric),
            )
        )
        if (
            abs((rep.k_improved - rep.k_berta) - max(0.0, rep.delta)) > 1e-12
            or rep.k_measured > rep.k_improved + THEOREM_TOL
        ):
            violations += 1
    return SweepResult(
        meta=_meta(cfg, samples=cfg.samples),
        columns=["index"] + list(KEY_REPORT_COLUMNS),
        rows=rows,
        violations=violations,
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
    bound = full_report(rho, x, z)
    keys = key_report(rho, x, z)
    return {
        "meta": _meta(cfg, state=cfg.state_path, basis_x=x.label, basis_z=z.label),
        "bounds": bound.to_dict(),
        "keyrate": keys.to_dict(),
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
