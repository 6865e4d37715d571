"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import oracle
import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _perturb_first_row(workload) -> None:
    """Shift one u_left / k_berta value of the output by 1e-6, far beyond TOL."""
    path = workload.output
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 1].split(",")
        col = lines[header].split(",").index("u_left")
        cells[col] = repr(float(cells[col]) + 1e-6)
        lines[header + 1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    payload = json.loads(text)
    if "rows" in payload:
        payload["rows"][0][1] += 1e-6
    else:
        payload["bounds"]["u_left"] += 1e-6
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_perturbed_output_row_counts_as_failure(name, cli, tmp_path):
    workload = run.make_workload(name, 3, tmp_path)
    assert workload.failed_rows(0, cli.main(workload.argv(0))) == 0
    _perturb_first_row(workload)
    assert workload.failed_rows(0, 0) == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_nonzero_exit_fails_every_row_of_the_call(name, tmp_path):
    workload = run.make_workload(name, 3, tmp_path)
    assert workload.failed_rows(0, 3) == workload.rows_per_call


def test_oracle_matches_program_on_random_bases(cli):
    from triuncert import DensityMatrix, MeasurementBasis, full_report, key_report, pauli_basis

    rng = np.random.default_rng(5)
    for kind in inputs.KINDS:
        rho = inputs.random_density_matrix(kind, rng)
        basis = inputs.random_qubit_basis(rng)
        expected = oracle.bound_and_key_fields(rho[None], basis[None], oracle.PAULI["Z"][None])
        state = DensityMatrix((2, 2, 2), rho)
        x, z = MeasurementBasis("R", basis), pauli_basis("z")
        got = {**full_report(state, x, z).to_dict(), **key_report(state, x, z).to_dict()}
        for field in oracle.BOUND_FIELDS + oracle.KEY_FIELDS:
            assert abs(float(got[field]) - expected[field][0]) <= oracle.TOL, (kind, field)


def test_program_random_states_follow_the_documented_recipe(cli):
    from triuncert import random_state

    seeds = [0, 7, 12345]
    stack = oracle.program_random_states(seeds)
    for n, seed in enumerate(seeds):
        assert np.max(np.abs(random_state(seed)[0].matrix - stack[n])) <= 1e-12


def _expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_printed_metrics_match_benchmark_json(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "4", "--seconds", "0.1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _expected("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(expected) <= printed and "error_rate" in printed
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_rows_per_s_counts_every_call():
    steady = run.rows_per_s([0.1] * 20, 150)
    assert steady == pytest.approx(1500.0)
    # one call in twenty ten times slower leaves the median as it was but costs ~30% throughput
    assert run.rows_per_s([0.1] * 19 + [1.0], 150) == pytest.approx(steady * 2.0 / 2.9)


def test_eval_inputs_are_fresh_and_independent_of_chunking(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    whole = inputs.write_eval_inputs(9, 0, 6, tmp_path / "a")
    part = inputs.write_eval_inputs(9, 4, 2, tmp_path / "b")
    for x, y in zip(whole[4:], part):
        assert np.array_equal(x.rho, y.rho) and np.array_equal(x.basis_x, y.basis_x)
    digests = {item.rho.tobytes() for item in whole}
    assert len(digests) == len(whole)


def test_eval_workload_keeps_only_first_and_current_chunk(cli, tmp_path):
    workload = run.make_workload("eval-files", 3, tmp_path)
    for j in (0, run.EVAL_CHUNK, 2 * run.EVAL_CHUNK):
        workload.argv(j)
    assert sorted(workload.chunks) == [0, 2]
    assert len(list(tmp_path.glob("state*.json"))) == 2 * run.EVAL_CHUNK


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tracer_reports_a_missing_function_as_absent(cli, monkeypatch):
    import triuncert.bounds

    original = triuncert.bounds.full_report
    monkeypatch.setattr(tracing, "TRACED", tracing.TRACED + (("bounds", "no_such_function"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert triuncert.bounds.full_report is not original
        assert tracer.absent == ["bounds.no_such_function"]
    finally:
        tracer.uninstall()
    assert triuncert.bounds.full_report is original
    metrics = tracing.layer_metrics(tracer, rows=0)
    assert all(value == 0.0 for value, _ in metrics.values())


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "scatter", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
