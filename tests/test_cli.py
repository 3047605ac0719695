import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cliffdesigns
from cliffdesigns.cli import main
from cliffdesigns.clifford import _act_words, _sample_words, random_clifford
from cliffdesigns.designs import MC_BLOCK, MC_BLOCK_BYTES, _mc_block, _overlap_powers
from cliffdesigns.fiducial import hoggar_fiducial, named_fiducial
from conftest import random_state


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def state_file(tmp_path, psi) -> str:
    """psi written as a state file; returns its path."""
    n = len(psi).bit_length() - 1
    path = tmp_path / f"state{n}.json"
    path.write_text(json.dumps({"n": n, "amplitudes": [[a.real, a.imag] for a in psi.tolist()]}))
    return str(path)


def assert_rejected(capsys, *argv):
    """Exit 2 with a one-line error and nothing on stdout; returns the error."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    return captured.err


class TestTables:
    def test_n1_ledger_row(self, capsys):
        code, out = run_cli(capsys, "tables", "--n", "1")
        assert code == 0
        data = json.loads(out)
        row = data["tables"][0]["rows"][0]
        assert row["partition"] == [4]
        assert (row["specht_dim"], row["weyl_dim"], row["code_part"], row["complement_part"]) == (
            1, 5, 2, 3,
        )

    def test_n2_group_sums(self, capsys):
        code, out = run_cli(capsys, "tables", "--n", "2")
        data = json.loads(out)
        entry = data["tables"][1]
        assert entry["multiplicity_sum_k4"]["fraction"] == "6/1"
        assert entry["frame_potential_t4"]["fraction"] == "29/1"

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "tables", "--n", "1", "--format", "csv")
        assert code == 0
        assert "tables.0.rows.0.weyl_dim,5" in out

    def test_deterministic_output(self, capsys):
        _, out1 = run_cli(capsys, "tables", "--n", "2")
        _, out2 = run_cli(capsys, "tables", "--n", "2")
        assert out1 == out2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_rejected(self, capsys, n):
        assert_rejected(capsys, "tables", "--n", n)

    @pytest.mark.parametrize("n", ["33", "100"])
    def test_n_past_cap_rejected_before_work(self, capsys, monkeypatch, n):
        from cliffdesigns import stabrep

        def no_table(n):
            raise AssertionError("table built before validating")

        monkeypatch.setattr(stabrep, "dimension_table", no_table)
        err = assert_rejected(capsys, "tables", "--n", n)
        assert f"1 <= --n <= 32, got --n {n}" in err

    def test_past_six_qubits(self, capsys):
        code, out = run_cli(capsys, "tables", "--n", "12")
        assert code == 0
        tables = json.loads(out)["tables"]
        for entry in tables[6:]:
            d = entry["d"]
            rows = entry["rows"]
            assert entry["string_orbit_oracle"] == [rows[0]["code_part"], rows[1]["code_part"]]
            assert sum(r["specht_dim"] * r["code_part"] for r in rows) == d * d
            assert entry["frame_potential_t4"]["fraction"] == "30/1"
            assert entry["multiplicity_sum_k4"]["fraction"] == "6/1"
        assert [e["n"] for e in tables[6:]] == list(range(7, 13))

    def test_fixed_dim_histogram(self, capsys):
        # counts of dim ker(F - 1) over Sp(2, F2) = S_3 and Sp(4, F2) = S_6
        code, out = run_cli(capsys, "tables", "--n", "2")
        assert code == 0
        tables = json.loads(out)["tables"]
        assert tables[0]["fixed_dim_histogram"] == [2, 3, 1]
        assert tables[1]["fixed_dim_histogram"] == [304, 300, 100, 15, 1]

    def test_histogram_disagreement_fails(self, capsys, monkeypatch):
        from cliffdesigns import f2lin

        monkeypatch.setattr(f2lin, "fixed_dim_histogram", lambda n: (1, 4, 1))
        code, out = run_cli(capsys, "tables", "--n", "1")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_exact_group_sums_for_every_n(self, capsys):
        code, out = run_cli(capsys, "tables", "--n", "6")
        assert code == 0
        tables = json.loads(out)["tables"]
        assert [e["frame_potential_t4"]["fraction"] for e in tables] == [
            "15/1", "29/1", "30/1", "30/1", "30/1", "30/1"]
        assert [e["multiplicity_sum_k4"]["fraction"] for e in tables] == [
            "5/1", "6/1", "6/1", "6/1", "6/1", "6/1"]


class TestCheck:
    def test_named_hoggar(self, capsys):
        code, out = run_cli(capsys, "check", "--named", "hoggar")
        assert code == 0
        data = json.loads(out)
        assert data["ell4"] == pytest.approx(16 / 9, abs=1e-10)
        assert data["epsilon"] == pytest.approx(-7 / 18, abs=1e-10)

    def test_named_psi_t(self, capsys):
        _, out = run_cli(capsys, "check", "--named", "psi_T")
        data = json.loads(out)
        assert data["epsilon"] == pytest.approx(-1 / 6, abs=1e-10)
        assert data["alpha_plus"] == pytest.approx(1 / 3, abs=1e-10)

    def test_stabilizer_file(self, capsys, tmp_path):
        path = tmp_path / "stab.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        code, out = run_cli(capsys, "check", "--file", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["epsilon"] == pytest.approx(0.25, abs=1e-12)
        assert not data["is_design_fiducial"]

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1,\n "amplitudes": [[1, 0], [0  0]]}')
        assert "line 2" in assert_rejected(capsys, "check", "--file", str(path))

    @pytest.mark.parametrize("content", [
        None,  # no such file
        "[1, 2]",
        '"state"',
        '{"amplitudes": [[1, 0], [0, 0]]}',
        '{"n": "1", "amplitudes": [[1, 0], [0, 0]]}',
        '{"n": 1.0, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n": true, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n": 0, "amplitudes": [[1, 0]]}',
        '{"n": 100000000000, "amplitudes": [[1, 0], [0, 0]]}',
        '{"n": 1}',
        '{"n": 1, "amplitudes": 5}',
        '{"n": 1, "amplitudes": [[1, 0, 0], [0, 0]]}',
        '{"n": 1, "amplitudes": [["1", 0], [0, 0]]}',
        '{"n": 1, "amplitudes": [[1, null], [0, 0]]}',
        '{"n": 2, "amplitudes": [[1, 0], [0, 0]]}',
    ])
    def test_bad_state_file_rejected(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        if content is not None:
            path.write_text(content)
        assert_rejected(capsys, "check", "--file", str(path))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_m2_vanishes_on_zero_state(self, capsys, tmp_path, n):
        path = tmp_path / "zero.json"
        amps = [[1.0, 0.0]] + [[0.0, 0.0]] * ((1 << n) - 1)
        path.write_text(json.dumps({"n": n, "amplitudes": amps}))
        code, out = run_cli(capsys, "check", "--file", str(path))
        assert code == 0
        assert abs(json.loads(out)["m2"]) <= 1e-15

    def test_m2_of_hoggar(self, capsys):
        _, out = run_cli(capsys, "check", "--named", "hoggar")
        assert json.loads(out)["m2"] == pytest.approx(math.log(9 / 2), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_m2_is_a_function_of_epsilon(self, capsys, tmp_path, n):
        # M_2 = -ln(||Xi||_4^4 / d) = -ln(4 (1 + epsilon) / (d + 3))
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": n, "amplitudes": [[a.real, a.imag] for a in psi]}))
        _, out = run_cli(capsys, "check", "--file", str(path))
        data = json.loads(out)
        d = 1 << n
        assert data["m2"] == pytest.approx(-math.log(4 * (1 + data["epsilon"]) / (d + 3)),
                                           abs=1e-12)

    @pytest.mark.parametrize("n", [11, 12])
    def test_past_cap_rejected_before_work(self, capsys, tmp_path, monkeypatch, n):
        from cliffdesigns import designs

        def no_work(*args):
            raise AssertionError("computed before validating")

        monkeypatch.setattr(designs, "design_report", no_work)
        path = state_file(tmp_path, np.eye(1 << n, dtype=complex)[0])
        err = assert_rejected(capsys, "check", "--file", path)
        assert f"check takes n <= 10, got n = {n}" in err

    def test_zero_norm_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[0, 0], [0, 0]]}))
        assert "zero norm" in assert_rejected(capsys, "check", "--file", str(path))


class TestConstruct:
    def test_alg1(self, capsys, tmp_path):
        out_path = tmp_path / "fid.json"
        code, _ = run_cli(
            capsys, "construct", "--alg1", "--base", "psi_T", "--n", "2", "--out", str(out_path)
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert abs(data["report"]["epsilon"]) <= 1e-9
        amps = np.array([complex(r, i) for r, i in data["state"]["amplitudes"]])
        assert np.linalg.norm(amps) == pytest.approx(1, abs=1e-10)

    def test_alg2(self, capsys):
        code, out = run_cli(capsys, "construct", "--alg2", "--n", "2", "--tol", "1e-8")
        assert code == 0
        data = json.loads(out)
        assert abs(data["report"]["epsilon"]) <= 1e-8

    @pytest.mark.parametrize("n", [4, 6])
    def test_alg2_any_cycler_size(self, capsys, n):
        # seeded by the (n-1)-qubit cycler, which the field construction gives for every n
        from cliffdesigns.designs import epsilon

        code, out = run_cli(capsys, "construct", "--alg2", "--n", str(n))
        assert code == 0
        state = json.loads(out)["state"]
        amps = np.array([complex(r, i) for r, i in state["amplitudes"]])
        assert state["n"] == n and len(amps) == 1 << n
        assert abs(epsilon(amps)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8,
                                   pytest.param(9, marks=pytest.mark.slow),
                                   pytest.param(10, marks=pytest.mark.slow)])
    def test_alg2_tight_tol(self, capsys, n):
        code, out = run_cli(capsys, "construct", "--alg2", "--n", str(n), "--tol", "1e-13")
        assert code == 0
        data = json.loads(out)
        root = data["root"]
        assert abs(data["report"]["epsilon"]) <= 1e-13
        assert root["tol_margin"] == 1e-13 - abs(data["report"]["epsilon"])
        assert root["sign_changes"] == 1
        assert 0 < root["theta"] < root["theta_end"]
        assert root["series_residual"] <= 1e-13
        assert "iteration_mode" not in data

    def test_alg2_secant_is_bisect(self, capsys):
        # the flags select nothing; regula falsi used to stall at n = 5
        _, bisect = run_cli(capsys, "construct", "--alg2", "--n", "5", "--mode", "bisect")
        code, secant = run_cli(capsys, "construct", "--alg2", "--n", "5", "--mode", "secant",
                               "--max-iter", "1")
        assert code == 0
        assert json.loads(secant)["state"] == json.loads(bisect)["state"]

    def test_help_says_the_iteration_flags_are_ignored(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.count("ignored: --alg2 solves for its root") == 2

    def test_weighted(self, capsys):
        code, out = run_cli(capsys, "construct", "--weighted", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["phi4"] == pytest.approx(0.2, abs=1e-9)

    def test_weighted_prints_the_design_orbit_sizes(self, capsys, monkeypatch):
        # equal weights on orbits of 6 and 8 states: counting the weights
        # equal to the first and the last would print [14, 14]
        from cliffdesigns import fiducial

        def equal_weights(psi1, psi2, n):
            return fiducial.WeightedDesign(orbit_weights=(6 / 14, 8 / 14), phi4=0.2,
                                           orbit_sizes=(6, 8), weights=(1 / 14, 1 / 14))

        monkeypatch.setattr(fiducial, "weighted_two_orbit", equal_weights)
        code, out = run_cli(capsys, "construct", "--weighted", "--n", "1")
        assert code == 0
        assert json.loads(out)["orbit_sizes"] == [6, 8]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weighted_every_n(self, capsys, n):
        # the closed form at every n; orbit sizes and per-state weights only
        # where the group is materialized (n <= 2)
        code, out = run_cli(capsys, "construct", "--weighted", "--n", str(n))
        data = json.loads(out)
        assert code == 0 and data["pass"]
        d = 1 << n
        assert abs(data["phi4"] * math.comb(d + 3, 4) - 1) <= 1e-12
        assert data["phi4_target"] == 1 / math.comb(d + 3, 4)
        assert sum(data["orbit_weights"]) == pytest.approx(1, abs=1e-15)
        if n <= 2:
            assert data["orbit_sizes"] == [[6, 8], [60, 640]][n - 1]
            for w, total, size in zip(data["weights"], data["orbit_weights"], data["orbit_sizes"]):
                assert w == pytest.approx(total / size, rel=1e-15)
        else:
            assert data["orbit_sizes"] is None and data["weights"] is None

    @pytest.mark.parametrize("rel", [-1e-11, 1e-11])
    def test_weighted_off_target_fails(self, capsys, monkeypatch, rel):
        # graded relative to 1/C(d+3, 4): at n = 8 the target is 5.5e-9, and
        # an absolute 1e-9 would pass both of these
        from cliffdesigns import fiducial

        target = 1 / math.comb(256 + 3, 4)

        def off_target(psi1, psi2, n):
            return fiducial.WeightedDesign(orbit_weights=(0.5, 0.5), phi4=target * (1 + rel),
                                           orbit_sizes=None, weights=None)

        monkeypatch.setattr(fiducial, "weighted_two_orbit", off_target)
        code, out = run_cli(capsys, "construct", "--weighted", "--n", "8")
        assert code == 1 and json.loads(out)["pass"] is False

    @pytest.mark.parametrize("n", ["11", "12"])
    def test_weighted_past_singer_range_rejected(self, capsys, monkeypatch, n):
        from cliffdesigns import fiducial

        def no_work(*args):
            raise AssertionError("computed before validating")

        monkeypatch.setattr(fiducial, "singer_eigenstates", no_work)
        err = assert_rejected(capsys, "construct", "--weighted", "--n", n)
        assert f"1 <= --n <= 10, got --n {n}" in err

    @pytest.mark.parametrize("n", ["11", "12"])
    @pytest.mark.parametrize("mode", ["alg1", "alg2"])
    def test_past_cap_rejected_before_work(self, capsys, monkeypatch, mode, n):
        from cliffdesigns import fiducial

        def no_work(*args, **kwargs):
            raise AssertionError("computed before validating")

        for name in ("tensor_completion", "singer_eigenstates", "bisection_root"):
            monkeypatch.setattr(fiducial, name, no_work)
        err = assert_rejected(capsys, "construct", f"--{mode}", "--n", n)
        assert f"construct --{mode} needs 2 <= --n <= 10, got --n {n}" in err

    @pytest.mark.parametrize("mode", ["alg2", "weighted"])
    def test_base_outside_alg1_rejected(self, capsys, mode):
        err = assert_rejected(capsys, "construct", f"--{mode}", "--n", "2", "--base", "psi_T")
        assert err == f"error: construct --base applies only to --alg1, not --{mode}\n"

    def test_alg2_needs_two_qubits(self, capsys):
        assert_rejected(capsys, "construct", "--alg2", "--n", "1")

    def test_alg1_needs_two_qubits(self, capsys):
        assert "--n 1" in assert_rejected(capsys, "construct", "--alg1", "--n", "1")

    def test_weighted_needs_one_qubit(self, capsys):
        assert "--n 0" in assert_rejected(capsys, "construct", "--weighted", "--n", "0")

    def test_requires_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["construct", "--n", "2"])

    def test_rejects_two_modes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--alg1", "--alg2", "--n", "2"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one_rejected(self, capsys, max_iter):
        err = assert_rejected(capsys, "construct", "--alg2", "--n", "2", "--max-iter", max_iter)
        assert f"--max-iter {max_iter}" in err

    def test_convergence_failure_reported(self, capsys):
        err = assert_rejected(capsys, "construct", "--alg2", "--n", "2", "--tol", "1e-300",
                              "--max-iter", "5")
        assert "did not converge" in err


class TestMoments:
    def test_report(self, capsys):
        code, out = run_cli(
            capsys, "moments", "--n", "2", "--samples", "20000", "--seed", "7",
            "--thresholds", "0.5",
        )
        assert code == 0
        data = json.loads(out)
        assert all(data["pass"].values())
        assert data["concentration"]["pass"]
        assert data["exact"]["alpha_second_moment"]["fraction"]
        assert data["config"]["seed"] == 7

    def test_seed_required(self):
        with pytest.raises(SystemExit):
            main(["moments", "--n", "2", "--samples", "1000"])

    def test_states_evaluated_once(self, capsys, monkeypatch):
        from cliffdesigns import moments

        rows = []
        batch = moments.alpha_plus_batch
        monkeypatch.setattr(moments, "alpha_plus_batch", lambda p: rows.append(len(p)) or batch(p))
        code, out = run_cli(capsys, "moments", "--n", "2", "--samples", "20000", "--seed", "7",
                            "--thresholds", "0.5")
        assert sum(rows) == 20000
        # the tail study reads the same states it would draw on its own
        con = moments.concentration_report(2, 20000, [0.5], seed=7)
        assert json.loads(out)["concentration"] == json.loads(json.dumps(con, default=float))

    @pytest.mark.parametrize("argv", [
        ("--n", "2", "--samples", "1"),
        ("--n", "2", "--samples", "0"),
        ("--n", "0", "--samples", "1000"),
        ("--n", "6", "--samples", "1000"),
        ("--n", "2", "--samples", "1000", "--thresholds", "0.5"),
        ("--n", "2", "--samples", "20000", "--thresholds", "0.5,0"),
        ("--n", "2", "--samples", "20000", "--thresholds", "abc"),
        ("--n", "2", "--samples", "20000", "--thresholds", "0.5,nan"),
        ("--n", "2", "--samples", "20000", "--thresholds", "0.5,inf"),
        ("--n", "2", "--samples", "20000", "--thresholds", "0.5,,1"),
    ])
    def test_bad_input_rejected_before_sampling(self, capsys, monkeypatch, argv):
        from cliffdesigns import moments

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(moments, "haar_alphas", no_sampling)
        code = main(["moments", *argv, "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "sampled" not in captured.err
        if "--thresholds" in argv and "--thresholds needs" not in captured.err:
            assert "--thresholds must be comma-separated positive numbers" in captured.err

    def test_negative_seed_rejected(self, capsys):
        err = assert_rejected(capsys, "moments", "--n", "2", "--samples", "100", "--seed", "-1")
        assert "--seed must be a non-negative integer, got -1" in err

    def test_replay_identical(self, capsys):
        args = ("moments", "--n", "2", "--samples", "5000", "--seed", "9")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2


class TestSinger:
    def test_n1(self, capsys):
        code, out = run_cli(capsys, "singer", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["minus_epsilon"] == pytest.approx(2 / 9, abs=1e-10)
        assert data["pass"]

    @pytest.mark.parametrize("n", [3, 5])
    def test_graded_against_closed_form(self, capsys, n):
        code, out = run_cli(capsys, "singer", "--n", str(n))
        d = 1 << n
        data = json.loads(out)
        assert data["reference"] == (d // 2 + 1) / (d + 1) ** 2
        assert data["tolerance"] == 1e-12
        assert code == 0 and data["pass"]

    def test_value_off_closed_form_fails(self, capsys, monkeypatch):
        # the paper's rounded -epsilon = 0.12 at n = 2 is 3/25; 0.124 is wrong
        from cliffdesigns import fiducial

        row = {"epsilon": -0.124, "spread": 0.0, "eigenstate_ell4": 48 / 25}
        monkeypatch.setattr(fiducial, "singer_epsilon_table", lambda n_list: [row])
        code, out = run_cli(capsys, "singer", "--n", "2")
        assert code == 1 and not json.loads(out)["pass"]

    @pytest.mark.parametrize("n", ["0", "11", "-1"])
    def test_n_outside_range_rejected(self, capsys, monkeypatch, n):
        from cliffdesigns import fiducial

        def no_table(*args, **kwargs):
            raise AssertionError("table built before validating")

        monkeypatch.setattr(fiducial, "singer_epsilon_table", no_table)
        assert "1 <= --n <= 10" in assert_rejected(capsys, "singer", "--n", n)


class TestOrbit:
    def test_stabilizer_orbit_t4(self, capsys):
        code, out = run_cli(capsys, "orbit", "--named", "bloch:0,0,1", "--t", "4")
        assert code == 0
        data = json.loads(out)
        assert data["phi"] == pytest.approx(5 / 24, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_exact_t4_is_check_phi4(self, capsys, tmp_path, n):
        # exact orbit --t 4 is the closed form that check prints, bit for bit
        path = state_file(tmp_path, random_state(1 << n, np.random.default_rng(60 + n)))
        code, out = run_cli(capsys, "orbit", "--file", path, "--t", "4")
        assert code == 0
        orbit = json.loads(out)
        _, out = run_cli(capsys, "check", "--file", path)
        assert orbit["phi"] == json.loads(out)["phi4"]

    @pytest.mark.parametrize("n, t", [(11, 4), (3, 5), (3, 3)])
    def test_exact_past_cap_rejected(self, capsys, tmp_path, monkeypatch, n, t):
        from cliffdesigns import designs

        def no_work(*args):
            raise AssertionError("computed before validating")

        monkeypatch.setattr(designs, "orbit_frame_potential", no_work)
        path = state_file(tmp_path, np.eye(1 << n, dtype=complex)[0])
        err = assert_rejected(capsys, "orbit", "--file", path, "--t", str(t))
        assert f"exact orbit at --t {t} takes n <= {10 if t == 4 else 2}, got n = {n}" in err

    @pytest.mark.parametrize("rel, ok", [(-1e-11, False), (-1e-13, True)])
    def test_exact_verdict_is_relative(self, capsys, tmp_path, monkeypatch, rel, ok):
        # at n = 10 the minimum 1/C(1027, 4) is about 2.2e-11, below an
        # absolute 1e-9, so only a relative bound can fail
        from cliffdesigns import designs

        minimum = 1 / math.comb(1024 + 3, 4)
        monkeypatch.setattr(designs, "orbit_frame_potential", lambda psi, t: minimum * (1 + rel))
        path = state_file(tmp_path, np.eye(1024, dtype=complex)[0])
        code, out = run_cli(capsys, "orbit", "--file", path, "--t", "4")
        assert json.loads(out)["pass"] is ok and code == (0 if ok else 1)

    def test_mc_mode_needs_seed(self, capsys):
        assert "requires --seed" in assert_rejected(capsys, "orbit", "--named", "psi_T",
                                                    "--mode", "mc")

    @pytest.mark.parametrize("t", ["0", "-1"])
    @pytest.mark.parametrize("mode", [[], ["--mode", "mc", "--samples", "10", "--seed", "1"]])
    def test_t_below_one_rejected(self, capsys, t, mode):
        err = assert_rejected(capsys, "orbit", "--named", "psi_T", "--t", t, *mode)
        assert err == f"error: orbit needs --t >= 1, got --t {t}\n"

    def test_mc_mode(self, capsys):
        code, out = run_cli(
            capsys, "orbit", "--named", "psi_T", "--mode", "mc", "--samples", "2000",
            "--seed", "5",
        )
        assert code == 0
        data = json.loads(out)
        exact = 0.2 * (1 + 4 * (1 / 6) ** 2 / 6)  # epsilon(psi_T) = -1/6
        assert abs(data["phi"] - exact) <= 5 * data["stderr"]

    def test_mc_verdict_allows_sampling_error(self, capsys):
        # phi_4(hoggar) exceeds the design minimum by only 2.2e-5; with this
        # seed the estimate lands 1.7 standard errors below the minimum
        code, out = run_cli(
            capsys, "orbit", "--named", "hoggar", "--mode", "mc", "--samples", "2000",
            "--seed", "1",
        )
        data = json.loads(out)
        assert data["phi"] < data["minimum"]
        assert -4 < data["margin_se"] < 0
        assert data["margin_se"] == pytest.approx(
            (data["phi"] - data["minimum"]) / data["stderr"], rel=1e-12)
        assert code == 0 and data["pass"]

    def test_mc_verdict_can_fail(self, capsys):
        # the minimum is 5.0e-32 and both samples underflow to 0: an absolute
        # slack would pass any estimate, the relative one fails this one
        code, out = run_cli(capsys, "orbit", "--named", "hoggar", "--t", "100000",
                            "--mode", "mc", "--seed", "1", "--samples", "2")
        data = json.loads(out)
        assert data["phi"] == 0.0 and data["stderr"] == 0.0
        assert 0 < data["minimum"] < 1e-31
        assert code == 1 and data["pass"] is False

    def test_mc_hoggar_pinned(self, capsys):
        # phi and stderr of this run, recorded when each block of words
        # first acted on the state
        code, out = run_cli(capsys, "orbit", "--named", "hoggar", "--mode", "mc",
                            "--samples", "2000", "--seed", "1")
        data = json.loads(out)
        assert data["phi"] == 0.002660122313671702
        assert data["stderr"] == 0.00022323219293144097

    @pytest.mark.parametrize("samples", [127, 128, 129])
    def test_mc_chunk_boundaries(self, capsys, samples):
        # the estimate is that of one dense random_clifford draw per
        # sample, up to the rounding of a dense lift against a state action
        code, out = run_cli(capsys, "orbit", "--named", "hoggar", "--mode", "mc",
                            "--samples", str(samples), "--seed", "9")
        data = json.loads(out)
        psi = hoggar_fiducial()
        rng = np.random.Generator(np.random.Philox(9))
        vals = np.array([np.abs(np.vdot(psi, random_clifford(3, rng).matrix @ psi)) ** 8
                         for _ in range(samples)])
        assert data["phi"] == pytest.approx(float(vals.mean()), rel=1e-14)
        assert data["stderr"] == pytest.approx(float(vals.std(ddof=1) / np.sqrt(samples)),
                                               rel=1e-14)

    @pytest.mark.parametrize("n,k", [(n, k) for n in (1, 3) for k in (-1, 0, 1)],
                             ids=[f"n{n}{k:+d}" for n in (1, 3) for k in (-1, 0, 1)])
    def test_mc_block_boundaries(self, capsys, n, k):
        # samples are drawn and acted on in blocks of _mc_block(n); the
        # estimate must not see where a block ends, so it equals one word
        # acting alone per sample, bit for bit (overlaps by the blocks' own
        # _overlap_powers, which sums rows)
        samples = _mc_block(n) + k
        name = {1: "psi_T", 3: "hoggar"}[n]
        code, out = run_cli(capsys, "orbit", "--named", name, "--mode", "mc",
                            "--samples", str(samples), "--seed", "4")
        data = json.loads(out)
        psi = named_fiducial(name)
        rng = np.random.Generator(np.random.Philox(4))
        vals = np.empty(samples)
        for i in range(samples):
            _, words, lengths, labels = _sample_words(n, rng, 1)
            phi = _act_words(n, words, lengths, psi[None, :], labels)[0]
            vals[i] = _overlap_powers(psi, phi, 4)[0]
        assert data["phi"] == float(vals.mean())
        assert data["stderr"] == float(vals.std(ddof=1) / np.sqrt(samples))

    @pytest.mark.parametrize("n", range(1, 16))
    def test_mc_block_bounds_its_tables(self, n):
        # MC_BLOCK samples, or as many as keep their coefficient tables of
        # 8 (4n + 1) 2^n bytes within MC_BLOCK_BYTES: 62 at n = 8
        block, table = _mc_block(n), 8 * (4 * n + 1) << n
        assert 1 <= block <= MC_BLOCK
        assert block == 1 or block * table <= MC_BLOCK_BYTES
        assert block == MC_BLOCK or (block + 1) * table > MC_BLOCK_BYTES
        assert _mc_block(3) == MC_BLOCK and _mc_block(8) == 62

    def test_mc_mode_zero_samples_rejected(self, capsys):
        assert "--samples >= 2" in assert_rejected(capsys, "orbit", "--named", "psi_T",
                                                   "--mode", "mc", "--samples", "0",
                                                   "--seed", "1")

    def test_mc_mode_negative_seed_rejected(self, capsys):
        err = assert_rejected(capsys, "orbit", "--named", "psi_T", "--mode", "mc",
                              "--samples", "10", "--seed", "-4")
        assert "--seed must be a non-negative integer, got -4" in err

    @pytest.mark.parametrize("option", [("--samples", "5"), ("--seed", "3")])
    def test_exact_mode_rejects_mc_options(self, capsys, option):
        err = assert_rejected(capsys, "orbit", "--named", "psi_T", *option)
        assert "only to --mode mc" in err

    def test_mc_mode_needs_two_samples(self, capsys):
        code = main(["orbit", "--named", "psi_T", "--mode", "mc", "--samples", "1",
                     "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().out == ""


def test_no_bare_assert_in_package():
    # python -O strips assert statements; invariants raise AssertionError instead
    sources = sorted(Path(cliffdesigns.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


def test_no_materialized_orbit_in_production():
    # projective_orbit forms every group image; it stays in clifford as the
    # n <= 2 oracle of the closed forms, and no other module calls it.
    # fiducial's weighted designs take phi4 from designs.fourth_moment, not
    # from overlap sums over orbit states
    package = Path(cliffdesigns.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem != "clifford":
            calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                     and getattr(node.func, "attr", getattr(node.func, "id", None))
                     == "projective_orbit"]
            assert not calls, f"{path.name}: projective_orbit called on lines {calls}"
        if path.stem == "fiducial":
            imports = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and any(alias.name == "_overlap_powers" for alias in node.names)]
            assert not imports, f"fiducial.py: _overlap_powers imported on lines {imports}"


def test_one_pauli_kernel_and_one_pairing_rule():
    # stabrep builds its dense objects from pauli._signed_perms, not from
    # Kronecker products of dense Paulis; f2lin completes a symplectic basis
    # by one Gram-map rule, with no branch on which form it was given
    package = Path(cliffdesigns.__file__).parent
    stabrep = ast.parse((package / "stabrep.py").read_text())
    dense = [node.lineno for node in ast.walk(stabrep) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("kron", "pauli_matrix")]
    assert not dense, f"stabrep.py: np.kron or pauli_matrix called on lines {dense}"
    f2lin = ast.parse((package / "f2lin.py").read_text())
    forks = [node.lineno for node in ast.walk(f2lin) if isinstance(node, ast.Compare)
             and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
             and any(isinstance(x, ast.Name) and x.id == "_omega"
                     for x in (node.left, *node.comparators))]
    assert not forks, f"f2lin.py: a form tested for identity with _omega on lines {forks}"


@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ("check", "--named", "psi_T"),
    ("construct", "--alg2", "--n", "2"),
    ("construct", "--weighted", "--n", "1"),
], ids=["check", "alg2", "weighted"])
def test_bad_tol_rejected_before_work(capsys, monkeypatch, argv, tol):
    from cliffdesigns import designs, fiducial

    def no_work(*args, **kwargs):
        raise AssertionError("computed before validating")

    for mod, name in ((fiducial, "bisection_root"), (fiducial, "weighted_two_orbit"),
                      (designs, "design_report")):
        monkeypatch.setattr(mod, name, no_work)
    err = assert_rejected(capsys, *argv, f"--tol={tol}")
    assert "--tol must be a finite non-negative number" in err


@pytest.mark.parametrize("spec", ["bloch:1,0", "bloch:1,0,0,0", "bloch:a,b,c", "bloch:nan,0,0"])
@pytest.mark.parametrize("argv", [
    ("check", "--named"),
    ("construct", "--alg1", "--n", "2", "--base"),
], ids=["check", "alg1"])
def test_malformed_bloch_name_rejected(capsys, argv, spec):
    err = assert_rejected(capsys, *argv, spec)
    assert f"fiducial name '{spec}' needs three finite numbers" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(capsys, monkeypatch, threads):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in names:
        monkeypatch.setenv(var, "7")
    err = assert_rejected(capsys, "--threads", threads, "tables", "--n", "1")
    assert f"--threads {threads}" in err
    assert [os.environ[var] for var in names] == ["7", "7", "7"]


@pytest.mark.parametrize("argv, config", [
    (["tables", "--n", "1"], {"command": "tables", "format": "json", "n": 1}),
    (["moments", "--n", "1", "--samples", "10", "--seed", "3"],
     {"command": "moments", "format": "json", "n": 1, "samples": 10, "seed": 3}),
    (["orbit", "--named", "psi_T"],
     {"command": "orbit", "format": "json", "named": "psi_T", "t": 4, "mode": "exact"}),
    # a construction echoes only the construct options it reads
    (["--threads", "1", "construct", "--weighted", "--n", "1"],
     {"threads": 1, "command": "construct", "format": "json", "construction": "weighted",
      "n": 1}),
    (["construct", "--alg1", "--n", "2", "--base", "psi_T", "--tol", "1e-3"],
     {"command": "construct", "format": "json", "construction": "alg1", "base": "psi_T",
      "n": 2}),
    (["construct", "--alg2", "--n", "2"],
     {"command": "construct", "format": "json", "construction": "alg2", "n": 2,
      "tol": 1e-8, "max_iter": 200, "mode": "bisect"}),
])
def test_config_echoes_the_parsed_options(capsys, argv, config):
    # the echoed config holds exactly the options the command parsed and reads
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["no-dir", "is-dir"])
def test_unwritable_out_rejected(capsys, tmp_path, target):
    path = tmp_path / target
    err = assert_rejected(capsys, "tables", "--n", "1", "--out", str(path))
    assert err.startswith(f"error: cannot write --out {path}: ")


def test_threads_overrides_environment(capsys, monkeypatch):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    # setenv also makes monkeypatch restore the variables afterwards
    for var in names:
        monkeypatch.setenv(var, "7")
    code, _ = run_cli(capsys, "--threads", "2", "tables", "--n", "1")
    assert code == 0
    assert [os.environ[var] for var in names] == ["2", "2", "2"]


def test_main_calls_in_one_process_print_as_alone(capsys):
    # the parser is built once per process, so a call must leave nothing
    # behind for the next; each prints what a fresh interpreter prints
    src = str(Path(cliffdesigns.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (["tables", "--n", "1"],
                 ["construct", "--weighted", "--n", "1", "--base", "psi_T"],
                 ["tables", "--n", "x"],
                 ["singer", "--n", "1", "--format", "csv"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "cliffdesigns", *argv],
                               capture_output=True, text=True, env=env, timeout=300)
        assert (code, got.out, got.err) == (alone.returncode, alone.stdout, alone.stderr)
