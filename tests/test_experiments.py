import json
import math

import numpy as np
import pytest

import triuncert.cli as cli
from triuncert.errors import DomainError
from triuncert.experiments import (
    ScenarioConfig,
    SweepResult,
    random_x_params,
    read_csv,
    run_eval,
    run_ghz,
    run_keyrate,
    run_random_purity,
    run_random_scatter,
    run_scenario,
    run_w,
    run_werner,
    run_xstate_check,
    write_result,
)
from triuncert.states import density_matrix_to_json, make_ghz, maximally_mixed

# `eval` CSV of the beta = pi/4 GHZ state in Pauli x/z: the empty seed cell, the
# %.17g floats and the 0/1 boolean come from the shared cell formatter.
GHZ_EVAL_CSV = """\
# scenario=eval
# seed=0
# version=0.1.0
# state={path}
# basis_x=X
# basis_z=Z
# bounds
seed,purity,u_left,u_right,delta,q_mu,renes,s_xb,s_zc,s_zb,s_xc,i_ab,i_ac,i_zb,i_xc,h_x,h_z,s_a
,1,0.99999999999999978,1.0000000000000002,0,1.0000000000000002,1.0000000000000002,\
0.99999999999999978,0,0,0.99999999999999978,1,1,1,2.2204460492503131e-16,1,1,1
# keyrate
k_berta,k_improved,k_measured,delta,s_xb,s_zb,s_xx,s_zz,symmetric
4.4408920985006262e-16,4.4408920985006262e-16,4.4408920985006262e-16,0,0.99999999999999978,0,\
0.99999999999999978,0,0
"""


def small_cfg(scenario, **kw):
    defaults = dict(points=11, samples=40, seed=0)
    defaults.update(kw)
    return ScenarioConfig(scenario=scenario, **defaults)


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(DomainError):
            ScenarioConfig(scenario="nope")

    def test_bad_points(self):
        with pytest.raises(DomainError):
            ScenarioConfig(scenario="ghz", points=1)

    def test_bad_samples(self):
        with pytest.raises(DomainError):
            ScenarioConfig(scenario="keyrate", samples=0)

    def test_bad_format(self):
        with pytest.raises(DomainError):
            ScenarioConfig(scenario="ghz", format="xml")


class TestGhzScenario:
    def test_rows_all_one(self):
        res = run_ghz(small_cfg("ghz", points=5))
        assert len(res.rows) == 5
        assert res.violations == 0
        assert res.rows[0][0] == 0.0
        assert abs(res.rows[-1][0] - math.pi / 2) <= 1e-15
        for row in res.rows:
            for value in row[1:]:
                assert abs(value - 1.0) <= 1e-9


class TestWScenario:
    def test_bound_constant_uncertainty_above(self):
        res = run_w(small_cfg("w", points=9))
        assert res.violations == 0
        for _, uleft, uright, renes in res.rows:
            assert abs(uright - 1.0) <= 1e-9
            assert abs(renes - 1.0) <= 1e-9
            assert uleft >= 1.0 - 1e-9


class TestWernerScenario:
    def test_endpoints_and_equality(self):
        res = run_werner(small_cfg("werner", points=21))
        assert res.violations == 0
        first, last = res.rows[0], res.rows[-1]
        assert abs(first[1] - 1.0) <= 1e-9 and abs(first[4] - 1.0) <= 1e-9
        assert abs(last[1] - 2.0) <= 1e-9 and abs(last[4] - 2.0) <= 1e-9
        for _, uleft, uright, renes, analytic in res.rows:
            assert abs(uleft - analytic) <= 1e-8
            assert uright >= renes - 1e-12


class TestRandomScatter:
    def test_no_violations_and_determinism(self):
        cfg = small_cfg("random-scatter")
        res1 = run_random_scatter(cfg)
        res2 = run_random_scatter(small_cfg("random-scatter"))
        assert res1.violations == 0
        assert res1.rows == res2.rows

    def test_different_seed_changes_rows(self):
        base = run_random_scatter(small_cfg("random-scatter", samples=5))
        other = run_random_scatter(small_cfg("random-scatter", samples=5, seed=77))
        assert base.rows != other.rows


class TestRandomPurity:
    def test_rows_and_summary(self):
        res = run_random_purity(small_cfg("random-purity", samples=60))
        assert res.violations == 0
        purities = [row[0] for row in res.rows]
        assert min(purities) >= 1 / 8 - 1e-12
        assert max(purities) <= 1 + 1e-12
        # appended pure states then the maximally mixed reference point
        assert abs(res.rows[-1][0] - 0.125) <= 1e-9
        assert abs(res.rows[-1][1] - 2.0) <= 1e-9
        for purity_val, uright in res.rows[-11:-1]:
            assert abs(purity_val - 1.0) <= 1e-9
            assert abs(uright - 1.0) <= 1e-9
        assert len(res.summary["bin_means"]) == 10


class TestXStateScenario:
    def test_fixed_rows_and_deviation(self):
        res = run_xstate_check(small_cfg("xstate-check", samples=30))
        assert res.violations == 0
        # first fixed row is the GHZ point
        assert all(abs(v - 1.0) <= 1e-9 for v in res.rows[0][:3])
        # Werner grid follows: p=0 then p=1 at the end of the grid block
        assert abs(res.rows[1][0] - 1.0) <= 1e-9
        assert abs(res.rows[21][0] - 2.0) <= 1e-9
        assert max(row[3] for row in res.rows) <= 1e-8

    def test_random_params_are_valid(self):
        for seed in range(20):
            params = random_x_params(seed)
            assert abs(math.fsum(params.diag) - 1.0) <= 1e-12


class TestKeyrateScenario:
    def test_identities_hold(self):
        res = run_keyrate(small_cfg("keyrate", samples=25))
        assert res.violations == 0
        for row in res.rows:
            _, k_berta, k_improved, k_measured, delta_val = row[:5]
            assert abs((k_improved - k_berta) - max(0.0, delta_val)) <= 1e-12
            assert k_measured <= k_improved + 1e-9


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        cfg = small_cfg("werner", points=7)
        res = run_scenario(cfg)
        path = tmp_path / "werner.csv"
        write_result(res, str(path), "csv")
        meta, columns, rows = read_csv(str(path))
        assert meta["scenario"] == "werner"
        assert columns == res.columns
        assert len(rows) == len(res.rows)
        for got, want in zip(rows, res.rows):
            for g, w in zip(got, want):
                assert g == w  # %.17g round-trips doubles exactly

    def test_json_shape(self, tmp_path):
        res = run_scenario(small_cfg("ghz", points=3))
        path = tmp_path / "ghz.json"
        write_result(res, str(path), "json")
        payload = json.loads(path.read_text())
        assert set(payload.keys()) == {"meta", "rows"}
        assert payload["meta"]["columns"] == res.columns
        assert len(payload["rows"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        for fmt in ("csv", "json"):
            paths = []
            for run in range(2):
                cfg = small_cfg("random-scatter", samples=12, format=fmt)
                path = tmp_path / f"scatter-{fmt}-{run}.{fmt}"
                write_result(run_scenario(cfg), str(path), fmt)
                paths.append(path)
            assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEval:
    def write_state(self, tmp_path, rho, name="state.json"):
        path = tmp_path / name
        path.write_text(json.dumps(density_matrix_to_json(rho)))
        return str(path)

    def test_maximally_mixed_file(self, tmp_path):
        cfg = ScenarioConfig(scenario="eval", state_path=self.write_state(tmp_path, maximally_mixed()))
        result = run_eval(cfg)
        assert abs(result["bounds"]["u_left"] - 2.0) <= 1e-9
        assert abs(result["bounds"]["u_right"] - 2.0) <= 1e-9
        assert abs(result["keyrate"]["k_berta"] + 1.0) <= 1e-9

    def test_ghz_file(self, tmp_path):
        cfg = ScenarioConfig(scenario="eval", state_path=self.write_state(tmp_path, make_ghz(math.pi / 4)))
        result = run_eval(cfg)
        for key in ("u_left", "u_right", "renes"):
            assert abs(result["bounds"][key] - 1.0) <= 1e-9

    def test_non_psd_file_names_the_invariant(self, tmp_path):
        bad = {
            "dims": [2, 2, 2],
            "re": np.diag([0.5, 0.5, 0.03, -0.03, 0, 0, 0, 0]).tolist(),
            "im": np.zeros((8, 8)).tolist(),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        cfg = ScenarioConfig(scenario="eval", state_path=str(path))
        with pytest.raises(DomainError, match="min eigenvalue"):
            run_eval(cfg)

    def test_malformed_file_raises_decode_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": [2,2,2], "re": [[')
        cfg = ScenarioConfig(scenario="eval", state_path=str(path))
        with pytest.raises(json.JSONDecodeError):
            run_eval(cfg)

    def test_csv_rendering_is_pinned(self, tmp_path):
        path = self.write_state(tmp_path, make_ghz(math.pi / 4))
        text = cli.render_eval(run_eval(ScenarioConfig(scenario="eval", state_path=path)), "csv")
        assert text == GHZ_EVAL_CSV.format(path=path)

    def test_missing_state_path(self):
        with pytest.raises(DomainError):
            run_eval(ScenarioConfig(scenario="eval"))


class TestCli:
    def test_run_ghz_succeeds(self, tmp_path):
        out = tmp_path / "ghz.csv"
        rc = cli.main(["run", "--scenario", "ghz", "--points", "5", "--output", str(out)])
        assert rc == 0
        assert out.exists()

    def test_run_scenario_eval(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(density_matrix_to_json(maximally_mixed())))
        out = tmp_path / "eval.json"
        rc = cli.main(
            ["run", "--scenario", "eval", "--state", str(state), "--output", str(out), "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert abs(payload["bounds"]["u_right"] - 2.0) <= 1e-9

    def test_eval_to_stdout(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(density_matrix_to_json(make_ghz(0.5))))
        rc = cli.main(["eval", "--state", str(state)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["bounds"]["u_right"] - 1.0) <= 1e-9

    def test_eval_csv_format(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(density_matrix_to_json(maximally_mixed())))
        rc = cli.main(["eval", "--state", str(state), "--format", "csv"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "# bounds" in text and "# keyrate" in text

    def test_custom_basis_file(self, tmp_path, capsys):
        from triuncert.measurement import basis_to_json, pauli_basis

        state = tmp_path / "state.json"
        state.write_text(json.dumps(density_matrix_to_json(maximally_mixed())))
        basis = tmp_path / "ybasis.json"
        basis.write_text(json.dumps(basis_to_json(pauli_basis("y"))))
        rc = cli.main(["eval", "--state", str(state), "--basis-x", str(basis)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["basis_x"] == "Y"

    def test_missing_state_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["eval", "--state", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_state_exits_2_with_offset(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dims": ')
        rc = cli.main(["eval", "--state", str(path)])
        assert rc == 2
        assert "byte offset" in capsys.readouterr().err

    def test_non_psd_state_exits_2(self, tmp_path, capsys):
        bad = {
            "dims": [2, 2, 2],
            "re": np.diag([0.55, 0.5, -0.05, 0, 0, 0, 0, 0]).tolist(),
            "im": np.zeros((8, 8)).tolist(),
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = cli.main(["eval", "--state", str(path)])
        assert rc == 2
        assert "min eigenvalue" in capsys.readouterr().err

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        payload = density_matrix_to_json(maximally_mixed())
        payload["re"][0][1] = payload["re"][1][0] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        rc = cli.main(["eval", "--state", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err

    def test_non_finite_basis_exits_2(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(density_matrix_to_json(maximally_mixed())))
        basis = tmp_path / "nan_basis.json"
        basis.write_text('{"vectors": [{"re": [1, 0], "im": [0, 0]}, {"re": [NaN, 1], "im": [0, 0]}]}')
        rc = cli.main(["eval", "--state", str(state), "--basis-x", str(basis)])
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err

    def test_violations_exit_3(self, tmp_path, monkeypatch, capsys):
        fake = SweepResult(meta={"scenario": "ghz"}, columns=["a"], rows=[(1.0,)], violations=2)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg: fake)
        rc = cli.main(["run", "--scenario", "ghz", "--output", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "violate" in capsys.readouterr().err

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "bogus", "--output", "x.csv"])
        assert exc.value.code == 2
