"""Byte-level golden digests of every scenario's output and of `eval`.

The SHA-256 digests below were captured from the scalar per-state report path
that preceded batched evaluation; any change to the bits of a report field,
to row order or to rendering changes a digest. Sizes follow
test_criterion_10 in test_acceptance.py, with seed 0.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from triuncert import cli
from triuncert.experiments import ScenarioConfig, run_scenario, write_result
from triuncert.measurement import MeasurementBasis, basis_to_json
from triuncert.states import density_matrix_to_json, make_ghz, random_state

SIZES = {
    "ghz": dict(points=21),
    "w": dict(points=21),
    "werner": dict(points=21),
    "random-scatter": dict(samples=150),
    "random-purity": dict(samples=120),
    "xstate-check": dict(samples=60),
    "keyrate": dict(samples=60),
}

RUN_DIGESTS = {
    ("ghz", "csv"): "d792e667d6b1547ede7a9f907e0095121c86e5a5fe1ad8d40825f2bba58fbe24",
    ("ghz", "json"): "4cc1a4a1717ccfb34167f68010d9863832abd650fd706ae36f1263a0198f7862",
    ("w", "csv"): "ba00234a2aabde6745fc529380513cfd5a41def48fab80d03f71378ee3a996f0",
    ("w", "json"): "299183d48078d75cfbeaef8e833dae2dab39ef2f29fb6d327a992ad19a9f2c10",
    ("werner", "csv"): "aa7ae0e9df42d1c54acdfadd490000300aaf0ac4bd5720fd0eb4191104859a76",
    ("werner", "json"): "fe1b06145ef58058506c1582c826693227e6c77f8c967d99fa94806124f50f26",
    ("random-scatter", "csv"): "58858d46ecea4367d68e2ebfa2d86146c31094f9c53d2751391f8d495b002eda",
    ("random-scatter", "json"): "ac4eb554650a774339ce052b3092c1f6e4d0d3bf659bdb757fddd20da60d83e7",
    ("random-purity", "csv"): "57db738f4eec0ad0d9c26e2fdff1c98fb7a67ca78ffef4ac237674c4b9d0d284",
    ("random-purity", "json"): "a4930d17af9d097d11f3d590a436c6385b9850482977c6cd95d44d9cb8834822",
    ("xstate-check", "csv"): "cff4140e59a0f246bc9c3fb3bedb5a37e6b5cfc829e1ca63faff0a6c41ca4d59",
    ("xstate-check", "json"): "91a956f88d8162c20cac19f1b0e91910341140ef25ad5d18d5ac136f6d10d306",
    ("keyrate", "csv"): "4b97c370f0f5d689c7e4f5cb0e5116cc20018114a1f49460cab44cdd3878eb7b",
    ("keyrate", "json"): "8ee09d23d66374ea38a677b22b9ab0f625da4dc3c15fcfb6af4476bbb90095cf",
}

EVAL_DIGESTS = {
    ("ghz", "csv"): "e3415fd7f7c9e10868adfc61909db632fe2a8d65b4aaaf04071d4c3c9dc49463",
    ("ghz", "json"): "4ed8dce83c15ee0f6d888273de0ae051b8044cd6a1020a8bb13be37897f7fe2f",
    ("random-qr", "csv"): "e7069428032034233ac055d2084c783ba579f9ae1cc861160f8e6084d3878b82",
    ("random-qr", "json"): "86906800c131b8b79426e28840f14c5c70ea2ebcd66549384f0b63c2ceec3bf0",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def qr_basis(seed: int) -> MeasurementBasis:
    """Haar-random qubit basis: QR of a complex Gaussian matrix, phases fixed by R."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return MeasurementBasis(f"qr{seed}", q * (np.diag(r) / np.abs(np.diag(r))))


@pytest.mark.parametrize("scenario,fmt", sorted(RUN_DIGESTS))
def test_run_output_digest(tmp_path, scenario, fmt):
    path = tmp_path / f"out.{fmt}"
    write_result(run_scenario(ScenarioConfig(scenario=scenario, seed=0, format=fmt, **SIZES[scenario])),
                 str(path), fmt)
    assert sha256(path) == RUN_DIGESTS[scenario, fmt]


@pytest.mark.parametrize("case,fmt", sorted(EVAL_DIGESTS))
def test_eval_output_digest(tmp_path, monkeypatch, case, fmt):
    # relative paths, because the state path is echoed in the output's meta
    monkeypatch.chdir(tmp_path)
    argv = ["eval", "--state", "state.json", "--format", fmt, "--output", "out"]
    if case == "ghz":
        rho = make_ghz(math.pi / 4)
    else:
        rho = random_state(17)[0]
        (tmp_path / "basis.json").write_text(json.dumps(basis_to_json(qr_basis(5))))
        argv += ["--basis-x", "basis.json"]
    (tmp_path / "state.json").write_text(json.dumps(density_matrix_to_json(rho)))
    assert cli.main(argv) == 0
    assert sha256(tmp_path / "out") == EVAL_DIGESTS[case, fmt]
