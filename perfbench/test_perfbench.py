"""Fast self-tests of the benchmark: oracles, span arithmetic, metric names.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles as orc
import run
import spans
import worker
from workloads import EPS2_SD_OVER_MEAN

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# oracles


def test_named_states():
    assert orc.ell4_norm4(orc.psi_t()) == pytest.approx(4 / 3, abs=1e-12)
    assert orc.ell4_norm4(orc.HOGGAR) == pytest.approx(16 / 9, abs=1e-12)
    assert orc.epsilon(orc.HOGGAR) == pytest.approx(-7 / 18, abs=1e-12)
    for n in (1, 2, 3):
        assert orc.epsilon(orc.zero_state(n)) == pytest.approx(float(orc.epsilon_zero_state(n)))
        assert orc.epsilon_zero_state(n) == Fraction((1 << n) - 1, 4)
    assert orc.epsilon_psi_t_power(2) == Fraction(-2, 9)
    assert orc.epsilon_psi_t_power(3) == Fraction(-5, 27)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_psi_t_power_epsilon(n):
    assert orc.epsilon(orc.psi_t_power(n)) == pytest.approx(float(orc.epsilon_psi_t_power(n)),
                                                           abs=1e-12)


def test_phi4_closed_form():
    for d in (2, 4, 8):
        assert orc.phi4(Fraction(0), d) == Fraction(1, math.comb(d + 3, 4))
    # The orbit of |0> is the six single-qubit stabilizer states.
    states = [np.array(v, dtype=complex) / np.linalg.norm(v)
              for v in ([1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j])]
    direct = np.mean([abs(np.vdot(states[0], s)) ** 8 for s in states])
    assert float(orc.phi4(orc.epsilon_zero_state(1), 2)) == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_haar_moments_against_sampling(n):
    d = 1 << n
    rng = np.random.default_rng(11)
    count = 4000
    alpha = orc.ell4_norm4(orc.haar_states(d, count, rng)) / d**2
    eps = d * (d + 3) / 4 * alpha - 1
    mean_se = math.sqrt(orc.haar_alpha_variance(d) / count)
    assert abs(alpha.mean() - float(orc.haar_alpha_mean(d))) <= 5 * mean_se
    m2 = float(orc.haar_epsilon_second_moment(d))
    ratio = np.std(eps**2, ddof=1) / m2
    assert ratio < EPS2_SD_OVER_MEAN
    assert abs(np.mean(eps**2) - m2) <= 5 * ratio * m2 / math.sqrt(count)


def test_haar_closed_forms():
    for d in (4, 8, 16, 32):
        c = Fraction(d * (d + 3), 4)
        var = orc.haar_alpha_variance(d)
        assert var == Fraction(96 * (d - 1), d * d * (d + 3) ** 2 * (d + 5) * (d + 6) * (d + 7))
        assert orc.haar_epsilon_second_moment(d) == c * c * var


def test_group_counts():
    assert [orc.sp_order(n) for n in (1, 2, 3)] == [6, 720, 1451520]
    assert [orc.maximal_isotropic_count(n) for n in (1, 2, 3, 4)] == [3, 15, 135, 2295]


def test_weyl_and_specht_dimensions():
    parts = ((4,), (1, 1, 1, 1), (2, 2), (2, 1, 1), (3, 1))
    assert [orc.specht_dim(p) for p in parts] == [1, 1, 2, 3, 3]
    for d in (2, 4, 8, 64):
        # Schur-Weyl: (C^d)^{x4} = sum over lam of Specht (x) Weyl.
        assert sum(orc.specht_dim(p) * orc.weyl_dim(p, d) for p in parts) == d**4
        assert orc.weyl_dim((4,), d) == math.comb(d + 3, 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_code_dim_by_enumeration(n):
    perms = list(itertools.permutations((1, 2, 3)))
    orbits = {min(tuple(0 if c == 0 else p[c - 1] for c in s) for p in perms)
              for s in itertools.product(range(4), repeat=n)}
    assert orc.symmetric_code_dim(n) == len(orbits)


def test_gf2_helpers():
    n = 2
    ident = tuple(1 << i for i in range(2 * n))
    assert orc.fixed_space_dim(ident) == 2 * n
    assert orc.is_symplectic(ident)
    assert orc.symplectic_form(0b01, 0b10) == 1 and orc.symplectic_form(0b01, 0b0100) == 0
    # transvection v -> v + <a, v> a with a = e_1 fixes a 3-dimensional space
    a = 0b0001
    cols = [(1 << j) ^ (a if orc.symplectic_form(a, 1 << j) else 0) for j in range(2 * n)]
    rows = tuple(orc.columns(cols))
    assert orc.is_symplectic(rows)
    assert orc.fixed_space_dim(rows) == 2 * n - 1
    # e_2 -> e_2 + e_3 breaks <e_2, e_4> = 0
    assert not orc.is_symplectic(tuple(orc.columns([0b0001, 0b0110, 0b0100, 0b1000])))
    assert orc.f2_rank([0b110, 0b011, 0b101]) == 2


# ---------------------------------------------------------------------------
# span arithmetic


def span(name, parent, start, end, work=0):
    return [name, parent, start, end, work]


def test_self_time_on_synthetic_tree():
    tree = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0, 7),
        span("b", 0, 3.0, 6.0),      # overlaps a: the union of root's children is [1, 6]
        span("leaf", 1, 2.0, 3.0),
        span("a", -1, 11.0, 12.0, 5),
        span("b", 4, 11.5, 13.0),    # runs past its parent: only [11.5, 12] counts there
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 3.0, 1.0, 0.5, 1.5])
    stats = spans.layer_stats(tree)
    assert stats["a"] == {"calls": 2, "self_s": pytest.approx(2.5), "work": 12}
    assert stats["root"]["self_s"] == pytest.approx(5.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert spans.union_length([]) == 0.0


def test_count_under():
    tree = [
        span("designs.epsilon", -1, 0, 1),
        span("fiducial.bisection_root", -1, 1, 5),
        span("designs.epsilon", 1, 1, 2),
        span("other", 1, 2, 4),
        span("designs.epsilon", 3, 2, 3),
    ]
    assert spans.count_under(tree, "designs.epsilon", "fiducial.bisection_root") == 2


def test_tracer_records_nesting_and_generators():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    bound = {}  # looked up at call time, as in a patched module namespace

    def gen(k):
        for i in range(k):
            yield bound["inner"]([i])

    bound["inner"] = tracer.wrap("inner", len, work=lambda args, kwargs: len(args[0]))
    outer = tracer.wrap("outer", lambda: sum(tracer.wrap_generator("gen", gen)(2)))
    assert outer() == 2
    recorded = tracer.drain()
    assert [s[spans.NAME] for s in recorded] == ["outer", "gen", "inner", "gen", "inner", "gen"]
    assert [s[spans.PARENT] for s in recorded] == [-1, 0, 1, 0, 3, 0]
    own = spans.self_times(recorded)
    assert sum(own) == pytest.approx(recorded[0][spans.END] - recorded[0][spans.START])
    assert spans.layer_stats(recorded)["inner"] == {"calls": 2, "self_s": 2.0, "work": 2}
    assert tracer.drain() == []


def test_round_time_at_reference_speed():
    # Rounds of 3 s and 5 s while the reference kernel took twice REF_S: a
    # machine at half the reference speed, so a 4 s mean round reads 2 s.
    rounds = [{"op_s": [1.0, 2.0], "ref_s": [2 * run.REF_S] * 3},
              {"op_s": [4.0, 1.0], "ref_s": [1.5 * run.REF_S, 2.5 * run.REF_S, 2 * run.REF_S]}]
    assert run.reference_speed_round_s(rounds) == pytest.approx(2.0)
    # Half the slow-down: 4 s / sqrt(2).
    assert run.reference_speed_round_s(rounds, 0.5) == pytest.approx(2 ** 1.5)


def test_setup_time_at_reference_speed():
    # Each probe is scaled by the gauge sample taken just before it.
    probes = [[2 * run.REF_S, 0.4], [run.REF_S, 0.3], [4 * run.REF_S, 0.4]]
    assert run.reference_speed_setup_s(probes) == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# metric names and the contract with BENCHMARK.json


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    no_calls = {"layers": {}, "haar_states": 0, "bisect_epsilon_calls": 0}
    reported = [*worker.layer_metrics([no_calls]), "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == reported
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb",
                                                      "ops_per_s"}


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clifford-mc", "--seed", "1",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
