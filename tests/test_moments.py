import hashlib
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
    _sample_uniform_batch,
)
from reference import (
    S8_CLASS_COUNTS,
    census_second_moment,
    dense_second_moment_qubit,
    regenerate_s8_class_counts,
    sample_uniform_state,
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


class TestHaarSampler:
    @pytest.mark.parametrize("n,count", [(1, 7), (3, 1000), (9, 5)])
    def test_block_is_the_complex_division(self, n, count):
        # v / norm(v) in complex arithmetic, drawn from a twin generator
        d = 1 << n
        rng, twin = (np.random.Generator(np.random.Philox(4)) for _ in range(2))
        v = twin.normal(size=(count, d)) + 1j * twin.normal(size=(count, d))
        want = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert _sample_uniform_batch(d, count, rng).tobytes() == want.tobytes()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("n,samples,seed,digest", [
        (1, 20001, 5, "0a6ba37d694c7393a33b257d42daeb6c81ed4dea9f04e1c0f973134efd435f32"),
        (2, 20000, 1, "9420337b4812914601e61bd25b9b82c48e2f923e932c71735aa8c4f6b24cd5da"),
        (3, 25000, 7, "3c57b83e5474b2ad99cc6ea054be703e609b8b03b5fc722fecb87e57dbd44740"),
        (6, 300, 11, "cb4a3d40aa827d41bc45a8f7b98553305446b42e8f4a7e59532ba9928d75f25b"),
    ])
    def test_alphas_pinned(self, n, samples, seed, digest):
        # recorded with a sampler that divided the complex block by its norms
        assert hashlib.sha256(haar_alphas(n, samples, seed).tobytes()).hexdigest() == digest


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
