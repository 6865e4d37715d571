"""Command-line interface: `triuncert run ...` and `triuncert eval ...`.

Exit codes: 0 on success, 2 on validation/parse/IO errors, 3 when a scenario
detected violations of its expected inequalities.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounds import BOUND_REPORT_COLUMNS
from .errors import DomainError, ShapeError
from .experiments import (
    FORMATS,
    SCENARIOS,
    ScenarioConfig,
    _format_cell,
    run_eval,
    run_scenario,
    write_result,
)
from .keyrate import KEY_REPORT_COLUMNS
from .measurement import MeasurementBasis, basis_from_json, pauli_basis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triuncert",
        description="Tripartite entropic-uncertainty bounds and key-rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep scenario and write its table")
    run_p.add_argument("--scenario", required=True, choices=SCENARIOS)
    run_p.add_argument("--points", type=int, default=201, help="grid size for sweeps")
    run_p.add_argument("--samples", type=int, default=10000, help="batch size for random scenarios")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--alpha", type=float, default=math.pi / 4, help="W-family angle alpha")
    run_p.add_argument("--output", required=True, help="output file path")
    run_p.add_argument("--format", choices=FORMATS, default="csv")
    run_p.add_argument("--state", default=None, help="state file (only for --scenario eval)")

    eval_p = sub.add_parser("eval", help="evaluate bound and key-rate reports for one state file")
    eval_p.add_argument("--state", required=True, help="JSON density matrix with dims [2,2,2]")
    eval_p.add_argument("--format", choices=FORMATS, default="json")
    eval_p.add_argument("--output", default=None, help="write here instead of stdout")
    eval_p.add_argument("--basis-x", default="x", help="x, y, z, or a basis JSON file")
    eval_p.add_argument("--basis-z", default="z", help="x, y, z, or a basis JSON file")
    return parser


def resolve_basis(spec: str) -> MeasurementBasis:
    """Interpret a basis argument as a Pauli name or a JSON file path."""
    if spec.lower() in ("x", "y", "z"):
        return pauli_basis(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return basis_from_json(json.load(fh))


def render_eval(result: dict, format: str) -> str:
    if format == "json":
        return json.dumps(result, indent=2) + "\n"
    lines = [f"# {key}={val}" for key, val in result["meta"].items()]
    for section, columns in (("bounds", BOUND_REPORT_COLUMNS), ("keyrate", KEY_REPORT_COLUMNS)):
        lines.append(f"# {section}")
        lines.append(",".join(columns))
        lines.append(",".join(_format_cell(result[section][name]) for name in columns))
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = ScenarioConfig(
                scenario=args.scenario,
                points=args.points,
                samples=args.samples,
                seed=args.seed,
                alpha=args.alpha,
                output_path=args.output,
                format=args.format,
                state_path=args.state,
            )
            if cfg.scenario == "eval":
                _emit(render_eval(run_eval(cfg), cfg.format), args.output)
                return 0
            result = run_scenario(cfg)
            write_result(result, args.output, cfg.format)
            if result.violations:
                print(
                    f"{cfg.scenario}: {result.violations} row(s) violate the expected inequalities",
                    file=sys.stderr,
                )
                return 3
            return 0
        cfg = ScenarioConfig(scenario="eval", state_path=args.state, format=args.format)
        basis_x = resolve_basis(args.basis_x)
        basis_z = resolve_basis(args.basis_z)
        _emit(render_eval(run_eval(cfg, basis_x, basis_z), args.format), args.output)
        return 0
    except json.JSONDecodeError as exc:
        print(f"error: parse error at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return 2
    except (DomainError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = exc.filename or ""
        print(f"error: {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
