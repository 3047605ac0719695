import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns.clifford import random_clifford
from cliffdesigns.designs import (
    bloch_state,
    design_report,
    epsilon,
    fourth_moment,
    minimal_design_size,
    orbit_frame_potential,
    qubit_phi4,
    qubit_six_design_roots,
    sym_dim,
    tensor_fiducial_admissible,
)
from cliffdesigns.fiducial import psi_t
from cliffdesigns.pauli import NormalizationError
from conftest import random_state
from reference import frame_potential, product_state_bound_check, projective_orbit


def random_bloch(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestDesignReport:
    def test_internal_consistency(self, rng):
        for n in (1, 2, 3):
            d = 2**n
            r = design_report(random_state(d, rng))
            assert r.alpha_plus == pytest.approx(r.ell4 / d**2, abs=1e-15)
            assert r.epsilon == pytest.approx(d * (d + 3) / 4 * r.alpha_plus - 1, abs=1e-12)
            want = (1 + 4 * r.epsilon**2 / ((d - 1) * (d + 4))) / sym_dim(d, 4)
            assert r.phi4 == pytest.approx(want, abs=1e-15)
            assert r.op_norm_dev == abs(r.epsilon)
            assert r.trace_norm_dev == pytest.approx(
                (d + 1) * (d + 2) * abs(r.epsilon) / 3, abs=1e-12
            )
            assert all(r.bounds_ok.values())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_epsilon_is_epsilon_exactly(self, rng, n):
        # one ||Xi||_4^4 route, so a search on epsilon and a verdict on the
        # report read the same number
        for _ in range(40):
            psi = random_state(1 << n, rng)
            assert design_report(psi).epsilon == epsilon(psi)

    def test_stabilizer_epsilon(self):
        for n in (1, 2, 3):
            d = 2**n
            e0 = np.zeros(d, dtype=complex)
            e0[0] = 1
            assert design_report(e0).epsilon == pytest.approx((d - 1) / 4, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            design_report(np.array([1, 1], dtype=complex))

    @pytest.mark.parametrize("scale", [1 + 1e-8, 0.5, np.nan])
    def test_kernel_checks_the_norm_once(self, monkeypatch, scale):
        # the norm comes from Xi(0) in the kernel alone, not from a second pass
        def no_second_pass(psi):
            raise AssertionError("design_report checked the norm itself")

        monkeypatch.setattr("cliffdesigns.designs._check_normalized", no_second_pass)
        psi = random_state(8, np.random.default_rng(5))
        assert design_report(psi).n == 3
        with pytest.raises(NormalizationError):
            design_report(scale * psi)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_bounds_hold(self, n, seed):
        d = 2**n
        r = design_report(random_state(d, np.random.default_rng(seed)))
        assert 2 / (d * (d + 1)) - 1e-9 <= r.alpha_plus <= 1 / d + 1e-9
        assert -(d - 1) / (2 * (d + 1)) - 1e-9 <= r.epsilon <= (d - 1) / 4 + 1e-9

    def test_clifford_invariance_of_epsilon(self, rng):
        for n in (1, 2, 3):
            psi = random_state(2**n, rng)
            e = epsilon(psi)
            for _ in range(5):
                u = random_clifford(n, rng)
                assert abs(epsilon(u.matrix @ psi) - e) < 1e-10


class TestFramePotential:
    def test_single_state(self, rng):
        assert frame_potential([random_state(4, rng)], 3) == pytest.approx(1.0)

    def test_six_stabilizer_states(self):
        orb = np.array(projective_orbit(np.array([1, 0], dtype=complex), 1))
        assert frame_potential(orb, 3) == pytest.approx(0.25, abs=1e-12)
        assert frame_potential(orb, 4) == pytest.approx(5 / 24, abs=1e-12)

    def test_weight_normalization_error(self, rng):
        states = [random_state(2, rng), random_state(2, rng)]
        with pytest.raises(NormalizationError):
            frame_potential(states, 2, weights=[0.5, 0.6])

    def test_negative_weight_rejected(self, rng):
        states = [random_state(2, rng), random_state(2, rng)]
        with pytest.raises(ValueError):
            frame_potential(states, 2, weights=[1.5, -0.5])

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [0.5, math.nan], [math.nan, math.nan]])
    def test_nan_weight_rejected(self, weights):
        with pytest.raises(ValueError):
            frame_potential(np.eye(2), 2, weights=weights)

    def test_nan_state_rejected(self, rng):
        states = np.array([random_state(2, rng), [math.nan, 0.0]])
        with pytest.raises(AssertionError):
            frame_potential(states, 2)

    def test_weighted_matches_duplication(self, rng):
        # weight 2/3 on one state = counting it twice among three
        a, b = random_state(2, rng), random_state(2, rng)
        w = frame_potential([a, b], 2, weights=[2 / 3, 1 / 3])
        dup = frame_potential([a, a, b], 2)
        assert w == pytest.approx(dup, abs=1e-12)

    def test_blocking_invariance(self, rng):
        states = np.array([random_state(4, rng) for _ in range(37)])
        full = frame_potential(states, 4, block=2048)
        small = frame_potential(states, 4, block=5)
        assert full == pytest.approx(small, abs=1e-13)


class TestOrbitPotential:
    def test_equals_orbit_double_sum(self, rng):
        psi = random_state(2, rng)
        single = orbit_frame_potential(psi, 4)
        double = frame_potential(np.array(projective_orbit(psi, 1)), 4)
        assert single == pytest.approx(double, abs=1e-13)

    def test_three_design_value_any_state(self, rng):
        for n in (1, 2):
            psi = random_state(2**n, rng)
            assert orbit_frame_potential(psi, 3) == pytest.approx(
                1 / sym_dim(2**n, 3), abs=1e-10
            )

    def test_matches_epsilon_closed_form(self, rng):
        for n in (1, 2):
            for _ in range(50):
                psi = random_state(2**n, rng)
                assert orbit_frame_potential(psi, 4) == design_report(psi).phi4

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [4, 5, 6])
    def test_exact_equals_group_sum(self, n, t):
        # the coset average against |<psi|U psi>|^{2t} over the dense group
        from cliffdesigns.clifford import projective_clifford_unitaries

        for seed in range(3):
            psi = random_state(1 << n, np.random.default_rng(10 * n + t + 100 * seed))
            want = float(np.mean(np.abs(projective_clifford_unitaries(n) @ psi @ psi.conj())
                                 ** (2 * t)))
            assert orbit_frame_potential(psi, t) == pytest.approx(want, rel=1e-14)

    def test_exact_capacity(self):
        # t = 4 is the closed form at any n; other t sum over the group, n <= 2
        from cliffdesigns.f2lin import CapacityError

        psi = random_state(8, np.random.default_rng(1))
        assert orbit_frame_potential(psi, 4) == design_report(psi).phi4
        with pytest.raises(CapacityError):
            orbit_frame_potential(psi, 5)

    def test_monte_carlo_mode(self, rng):
        psi = random_state(4, rng)
        est, stderr = orbit_frame_potential(psi, 4, mode="monte_carlo", samples=4000, rng=rng)
        exact = orbit_frame_potential(psi, 4)
        assert abs(est - exact) < 5 * stderr + 1e-12

    def test_mc_needs_rng(self, rng):
        with pytest.raises(ValueError):
            orbit_frame_potential(random_state(2, rng), 4, mode="monte_carlo")


def group_sum_t4(phi, psi, n):
    """E_U |<phi|U psi>|^8 over the dense projective Clifford group."""
    from cliffdesigns.clifford import projective_clifford_unitaries

    return float(np.mean(np.abs(phi.conj() @ projective_clifford_unitaries(n) @ psi) ** 8))


def t4_states(n):
    """|0...0>, psi_T^(x)n, psi_T (x) |0...0> and a random state."""
    zero = np.eye(1 << n, dtype=complex)[0]
    power = functools.reduce(np.kron, [psi_t()] * n)
    mixed = np.kron(psi_t(), np.eye(1 << (n - 1), dtype=complex)[0])
    return [zero, power, mixed, random_state(1 << n, np.random.default_rng(40 + n))]


class TestFourthMoment:
    @pytest.mark.parametrize("n", [1, 2])
    def test_orbit_potential_equals_group_sum(self, n):
        for psi in t4_states(n):
            assert orbit_frame_potential(psi, 4) == pytest.approx(group_sum_t4(psi, psi, n),
                                                                  rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cross_potential_equals_group_sum(self, n):
        states = t4_states(n) + [random_state(1 << n, np.random.default_rng(50 + n))]
        for i, phi in enumerate(states):
            for psi in states[i + 1:]:
                want = group_sum_t4(phi, psi, n)
                got = fourth_moment(epsilon(phi), epsilon(psi), 1 << n)
                assert got == pytest.approx(want, rel=1e-14)

    def test_alpha_form(self):
        # alpha_a alpha_b / D_+ + (1 - alpha_a)(1 - alpha_b) / D_-
        for d in (2, 4, 8, 256):
            d_plus = (d + 1) * (d + 2) / 6
            d_minus = sym_dim(d, 4) - d_plus
            for ea, eb in ((0.0, 0.0), (0.3, -0.1), (-(d - 1) / (2 * (d + 1)), (d - 1) / 4)):
                aa, ab = (4 * (1 + e) / (d * (d + 3)) for e in (ea, eb))
                want = aa * ab / d_plus + (1 - aa) * (1 - ab) / d_minus
                assert fourth_moment(ea, eb, d) == pytest.approx(want, rel=1e-13)

    def test_weighted_mean_is_bilinear(self):
        # sum_ij W_i W_j fourth_moment(e_i, e_j) = fourth_moment(e_A, e_A)
        d, (w1, w2), (e1, e2) = 8, (0.3, 0.7), (0.5, -0.2)
        mean = w1 * e1 + w2 * e2
        pairs = sum(wi * wj * fourth_moment(ei, ej, d)
                    for wi, ei in ((w1, e1), (w2, e2)) for wj, ej in ((w1, e1), (w2, e2)))
        assert fourth_moment(mean, mean, d) == pytest.approx(pairs, rel=1e-15)


class TestQubitClosedForms:
    def test_against_orbit_double_sum(self, rng):
        for _ in range(100):
            x, y, z = random_bloch(rng)
            orb = np.array(projective_orbit(bloch_state(x, y, z), 1))
            assert qubit_phi4(x, y, z) == pytest.approx(
                frame_potential(orb, 4), abs=1e-12
            )

    def test_stabilizer_direction(self):
        assert qubit_phi4(0, 0, 1) == pytest.approx(5 / 24, abs=1e-15)

    def test_design_locus_minimum(self):
        x = math.sqrt((5 + 2 * math.sqrt(10)) / 15)
        y = z = math.sqrt((5 - math.sqrt(10)) / 15)
        assert x**4 + y**4 + z**4 == pytest.approx(3 / 5, abs=1e-12)
        assert qubit_phi4(x, y, z) == pytest.approx(1 / 5, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            qubit_phi4(1, 1, 1)

    def test_six_design_roots(self):
        u1, u2, u3 = qubit_six_design_roots()
        assert u1 + u2 + u3 == pytest.approx(1, abs=1e-12)
        assert u1 * u2 * u3 == pytest.approx(1 / 105, abs=1e-14)
        assert u1**3 + u2**3 + u3**3 == pytest.approx(3 / 7, abs=1e-12)
        # the squared components land on the 4-design locus automatically
        assert u1**2 + u2**2 + u3**2 == pytest.approx(3 / 5, abs=1e-12)

    def test_average_potential_ratio_t4(self):
        # (t+1) E[Phi_t] over uniformly random orbits, t = 4: 127/126
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(200000, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        s = np.sum(vecs**4, axis=1)
        phis = (21 - 6 * s + 5 * s * s) / 96
        est = 5 * phis.mean()
        se = 5 * phis.std(ddof=1) / math.sqrt(len(phis))
        assert abs(est - 127 / 126) < 4 * se

    def test_average_potential_ratio_t5(self, rng):
        # 6 E[Phi_5] = 43/42, sampled through exact 24-element orbit sums
        from cliffdesigns.clifford import projective_clifford_unitaries

        group = projective_clifford_unitaries(1)
        samples = 4000
        vals = np.empty(samples)
        for i in range(samples):
            psi = random_state(2, rng)
            ov = np.abs(group @ psi @ psi.conj()) ** 10
            vals[i] = ov.mean()
        est = 6 * vals.mean()
        se = 6 * vals.std(ddof=1) / math.sqrt(samples)
        assert abs(est - 43 / 42) < 4.5 * se


class TestMinimalDesignSize:
    def test_power_sequence(self):
        for d in (2, 3, 4, 8):
            assert minimal_design_size(d, 1) == d
            assert minimal_design_size(d, 2) == d * d
            assert minimal_design_size(d, 3) == d * d * (d + 1) // 2
            assert minimal_design_size(d, 4) == d * d * (d + 1) ** 2 // 4

    def test_qubit_eight_design_needs_25(self):
        assert minimal_design_size(2, 8) == 25

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            minimal_design_size(2, 0)


class TestProductStateBound:
    def test_identical_stabilizer_saturates(self):
        for n in (1, 2):
            d = 2**n
            e0 = np.zeros(d, dtype=complex)
            e0[0] = 1
            assert product_state_bound_check(e0, e0, e0, e0) == pytest.approx(1 / d, abs=1e-12)

    def test_three_plus_orthogonal_gives_zero(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        assert product_state_bound_check(e0, e0, e0, e1) == pytest.approx(0, abs=1e-12)

    def test_random_quadruples_in_range(self, rng):
        for n in (1, 2):
            d = 2**n
            for _ in range(200):
                vals = [random_state(d, rng) for _ in range(4)]
                v = product_state_bound_check(*vals)
                assert -1e-10 <= v <= 1 / d + 1e-10

    def test_dense_oracle(self, rng):
        from reference import stab_projector_kron

        p = stab_projector_kron(1, 4)
        states = [random_state(2, rng) for _ in range(4)]
        rho = np.array([[1.0 + 0j]])
        for s in states:
            rho = np.kron(rho, np.outer(s, s.conj()))
        want = np.trace(p @ rho).real
        assert product_state_bound_check(*states) == pytest.approx(want, abs=1e-12)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "parts", [(1, 1, 1, 1), (3, 2, 1), (2, 2, 1), (5, 1, 1), (1, 1, 1), (7, 3), (2, 2)]
    )
    def test_admissible(self, parts):
        assert tensor_fiducial_admissible(parts)

    @pytest.mark.parametrize(
        "parts", [(2, 2, 2), (4, 2, 1), (3, 3, 1), (2, 2, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]
    )
    def test_not_admissible(self, parts):
        assert not tensor_fiducial_admissible(parts)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            tensor_fiducial_admissible((1, 2))
