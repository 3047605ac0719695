from fractions import Fraction

import numpy as np
import pytest

from cliffdesigns.moments import (
    alpha_variance_exact,
    average_phi4_ratio_exact,
    chebyshev_bound,
    concentration_report,
    epsilon_second_moment_exact,
    exact_second_moment,
    haar_alphas,
    lipschitz_probe,
    mc_moment_report,
    sample_uniform_state,
)
from reference import (
    S8_CLASS_COUNTS,
    census_second_moment,
    dense_second_moment_qubit,
    regenerate_s8_class_counts,
)


class TestExactMoments:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_second_moment_matches_closed_form(self, n):
        assert census_second_moment(n) == exact_second_moment(n)

    @pytest.mark.parametrize("n", range(6, 13))
    def test_census_matches_closed_form_past_five_qubits(self, n):
        assert census_second_moment(n) == exact_second_moment(n)

    def test_qubit_value(self):
        assert exact_second_moment(1) == Fraction(17, 105)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_variance_closed_form(self, n):
        d = 2**n
        assert alpha_variance_exact(n) == Fraction(
            96 * (d - 1), d * d * (d + 3) ** 2 * (d + 5) * (d + 6) * (d + 7)
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_epsilon_second_moment(self, n):
        d = 2**n
        assert epsilon_second_moment_exact(n) == Fraction(6 * (d - 1), (d + 5) * (d + 6) * (d + 7))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_average_potential_ratio(self, n):
        d = 2**n
        assert average_phi4_ratio_exact(n) == 1 + Fraction(
            24, (d + 4) * (d + 5) * (d + 6) * (d + 7)
        )

    def test_chebyshev_special_case(self):
        # xi = 1/2 tail bound is 24(d-1)/((d+5)(d+6)(d+7))
        for n in (1, 2, 3):
            d = 2**n
            assert chebyshev_bound(n, 0.5) == pytest.approx(
                24 * (d - 1) / ((d + 5) * (d + 6) * (d + 7))
            )


class TestCensus:
    def test_totals_per_cycle_type(self):
        # 105 + 1260 + 1260 + 3360 + 5040 permutations lack odd cycles
        assert sum(c["total"] for c in S8_CLASS_COUNTS.values()) == 11025

    def test_regeneration_matches_hardcoded(self):
        assert regenerate_s8_class_counts() == S8_CLASS_COUNTS

    def test_dense_oracle_n1(self):
        assert dense_second_moment_qubit() == pytest.approx(float(Fraction(17, 105)), abs=1e-12)


class TestUniformSampling:
    def test_unit_norm(self, rng):
        for d in (2, 4, 8):
            assert np.linalg.norm(sample_uniform_state(d, rng)) == pytest.approx(1, abs=1e-12)

    def test_first_component_mass(self, rng):
        d = 4
        vals = [abs(sample_uniform_state(d, rng)[0]) ** 2 for _ in range(4000)]
        assert np.mean(vals) == pytest.approx(1 / d, abs=5 * np.std(vals) / np.sqrt(len(vals)))


class TestMonteCarloReports:
    def test_moment_report_passes(self):
        rep = mc_moment_report(2, 50000, seed=7)
        assert all(rep["pass"].values())
        assert rep["alpha"]["seed"] == 7

    def test_deterministic_replay(self):
        a = mc_moment_report(2, 5000, seed=3)
        b = mc_moment_report(2, 5000, seed=3)
        assert a == b

    def test_concentration(self):
        rep = concentration_report(2, 20000, [0.25, 0.5, 1.0], seed=11)
        assert rep["pass"]
        assert abs(rep["epsilon_mean"]) < 0.02

    def test_reports_share_one_stream(self):
        alphas = haar_alphas(2, 30000, seed=5)
        assert mc_moment_report(2, 30000, seed=5) == mc_moment_report(
            2, 30000, seed=5, alphas=alphas)
        assert concentration_report(2, 30000, [0.5], seed=5) == concentration_report(
            2, 30000, [0.5], seed=5, alphas=alphas)

    def test_concentration_needs_samples(self):
        with pytest.raises(ValueError):
            concentration_report(2, 100, [0.5], seed=1)

    def test_lipschitz_below_proven_constant(self):
        for n in (1, 2, 3):
            rep = lipschitz_probe(n, 2000, seed=13)
            assert rep["within_proven"]
            assert rep["max_ratio"] > 0

    def test_lipschitz_needs_pairs(self):
        with pytest.raises(ValueError):
            lipschitz_probe(1, 10, seed=1)
