import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns import f2lin
from cliffdesigns.clifford import projective_orbit
from cliffdesigns.designs import (bloch_state, design_report, epsilon, epsilon_from_ell4,
                                 frame_potential, sym_dim)
from cliffdesigns.fiducial import (
    BlochVector,
    ConvergenceError,
    InfeasibleError,
    bisection_root,
    five_design_probe,
    hoggar_fiducial,
    named_fiducial,
    psi_t,
    singer_eigenstates,
    singer_epsilon_table,
    singer_symplectic,
    singer_unitary,
    solve_bloch_quartic,
    tensor_completion,
    weighted_two_orbit,
    _gf_mul,
    _gf_pow,
    _primitive_polynomial,
    _arc_series,
    _cycler_ell4,
    _cycler_form,
    _cycler_walk,
    _first_crossing,
    _is_basis_cycler,
    _series,
)
from cliffdesigns.pauli import (NormalizationError, _ell4_rows, alpha_plus_batch,
                               characteristic_function, ell4_norm4)
from conftest import random_state
from reference import (bisection_loop, cycler_form_matrix, cycler_two_walks, dense_cycler_walk,
                       singer_search, sp_elements)


class TestNamedFiducials:
    def test_psi_t_metrics(self):
        assert ell4_norm4(characteristic_function(psi_t())) == pytest.approx(4 / 3, abs=1e-12)
        assert epsilon(psi_t()) == pytest.approx(-1 / 6, abs=1e-12)

    def test_hoggar_metrics(self):
        r = design_report(hoggar_fiducial())
        assert r.ell4 == pytest.approx(16 / 9, abs=1e-10)
        assert r.alpha_plus == pytest.approx(1 / 36, abs=1e-12)
        assert r.epsilon == pytest.approx(-7 / 18, abs=1e-12)

    def test_hoggar_is_equiangular_fiducial(self):
        # all 63 non-identity expectations have |value| = 1/3
        xi = characteristic_function(hoggar_fiducial())
        assert np.allclose(np.abs(xi.values[1:]), 1 / 3, atol=1e-10)

    def test_bloch_names(self):
        assert np.allclose(named_fiducial("bloch:0,0,1"), [1, 0])
        assert np.allclose(named_fiducial("psi_T"), psi_t())

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_fiducial("nope")

    def test_nan_bloch_vector_rejected(self):
        # NaN fails every comparison, so the unit-norm check must not be a `>` test
        with pytest.raises(ValueError, match="unit norm"):
            bloch_state(math.nan, 0.0, 0.0)


class TestBlochQuartic:
    def test_magic_direction_at_lower_end(self):
        bv = solve_bloch_quartic(1 + 1 / 3)
        assert bv.x == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert bv.y == bv.z == pytest.approx(bv.x, abs=1e-12)

    def test_design_locus(self):
        bv = solve_bloch_quartic(1 + 3 / 5)
        assert bv.x == pytest.approx(math.sqrt((5 + 2 * math.sqrt(10)) / 15), abs=1e-12)
        assert bv.y == pytest.approx(math.sqrt((5 - math.sqrt(10)) / 15), abs=1e-12)
        assert bv.quartic() == pytest.approx(3 / 5, abs=1e-12)

    def test_axis_at_upper_end(self):
        bv = solve_bloch_quartic(2.0)
        assert (bv.x, bv.y, bv.z) == pytest.approx((1, 0, 0), abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_bloch_quartic(1.2)
        with pytest.raises(InfeasibleError):
            solve_bloch_quartic(2.1)

    def test_nan_target_rejected(self):
        with pytest.raises(InfeasibleError):
            solve_bloch_quartic(math.nan)

    @pytest.mark.parametrize("xyz", [(math.nan, 0, 0), (0, math.nan, 1), (1, 0, math.inf)])
    def test_non_finite_bloch_vector_rejected(self, xyz):
        with pytest.raises(ValueError):
            BlochVector(*xyz)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1 / 3, 1))
    def test_quartic_hit(self, tau):
        assert solve_bloch_quartic(1 + tau).quartic() == pytest.approx(tau, abs=1e-11)


class TestTensorCompletion:
    def test_five_constructions(self):
        hog = hoggar_fiducial()
        pt = psi_t()
        cases = [
            (pt, 2, 5 / 7),
            (np.kron(pt, pt), 3, 7 / 11),
            (np.kron(np.kron(pt, pt), pt), 4, 8 / 19),
            (hog, 4, 17 / 19),
            (np.kron(hog, pt), 5, 19 / 35),
        ]
        for prev, n, quartic in cases:
            d = 2**n
            ell = ell4_norm4(characteristic_function(prev))
            c = 4 * d / ((d + 3) * ell)
            assert c - 1 == pytest.approx(quartic, abs=1e-12)
            out = tensor_completion(prev, n)
            assert abs(epsilon(out)) <= 1e-9

    def test_infeasible_base(self):
        e0 = np.array([1, 0], dtype=complex)  # l4-norm 2 exceeds 3d/(d+3) at n=2
        with pytest.raises(InfeasibleError):
            tensor_completion(e0, 2)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            tensor_completion(psi_t(), 3)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_multiplicativity(self, seed, n1):
        rng = np.random.default_rng(seed)
        a = random_state(2**n1, rng)
        b = random_state(4, rng)
        la = ell4_norm4(characteristic_function(a))
        lb = ell4_norm4(characteristic_function(b))
        lab = ell4_norm4(characteristic_function(np.kron(a, b)))
        assert lab == pytest.approx(la * lb, abs=1e-10)


@functools.cache
def _alg2_endpoints(n):
    """|0...0> and the negative seed of construct --alg2 at n qubits."""
    stab = np.zeros(1 << n, dtype=complex)
    stab[0] = 1
    return stab, np.kron(singer_eigenstates(n - 1)[0], psi_t())


class TestBisection:
    def test_short_circuit_on_root(self):
        root = solve_bloch_quartic(1 + 3 / 5).state()
        stab = np.array([1, 0], dtype=complex)
        out = bisection_root(stab, root, tol=1e-8)
        assert np.allclose(out, root)

    def test_sign_precondition(self):
        with pytest.raises(InfeasibleError):
            bisection_root(psi_t(), psi_t(), tol=1e-10)

    def test_orthogonal_inputs(self):
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        # make the second endpoint negative-epsilon but orthogonal
        with pytest.raises(InfeasibleError):
            bisection_root(e0, e1, tol=1e-8)

    def test_max_iter_exceeded(self):
        stab = np.array([1, 0], dtype=complex)
        with pytest.raises(ConvergenceError):
            bisection_loop(stab, psi_t(), tol=1e-12, max_iter=2)

    def test_qubit_root_lands_on_design_locus(self):
        stab = np.array([1, 0], dtype=complex)
        root = bisection_root(stab, psi_t(), tol=1e-10)
        s = design_report(root).ell4 - 1
        assert s == pytest.approx(3 / 5, abs=1e-8)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("mode", ["bisect", "secant"])
    def test_converges_n2_n3(self, n, mode):
        stab, neg = _alg2_endpoints(n)
        root = bisection_root(stab, neg, tol=1e-8)
        assert abs(epsilon(root)) <= 1e-8
        loop = bisection_loop(stab, neg, tol=1e-8, max_iter=200, mode=mode)
        assert 1 - abs(np.vdot(root, loop)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_root_is_the_loop_root(self, n):
        stab, neg = _alg2_endpoints(n)
        info = {}
        root = bisection_root(stab, neg, tol=1e-13, info=info)
        loop = bisection_loop(stab, neg, tol=1e-13)
        assert 1 - abs(np.vdot(root, loop)) <= 1e-12
        assert abs(epsilon(root)) <= 1e-13
        assert info["sign_changes"] == 1 and info["kernel_steps"] == 0
        assert 0 < info["theta"] < info["theta_end"] < math.pi / 2
        assert info["series_residual"] <= 1e-14

    @pytest.mark.parametrize("n", range(2, 11))
    def test_series_is_the_kernel_epsilon(self, n):
        # epsilon on the great circle is a nine-term series in e^{2i theta}
        stab, neg = _alg2_endpoints(n)
        q = neg - np.vdot(stab, neg) * stab
        q /= np.linalg.norm(q)
        w = _arc_series(stab, q)
        theta = np.random.default_rng(n).uniform(0, math.pi, 5)
        states = np.cos(theta)[:, None] * stab + np.sin(theta)[:, None] * q
        direct = epsilon_from_ell4(_ell4_rows(states), 1 << n)
        assert np.max(np.abs(_series(theta, w) - direct)) <= 1e-12

    def test_first_crossing_is_nearest_p1(self):
        # -sin 2(t - 0.2) sin 2(t - 0.5) sin 2(t - 0.9) crosses zero three
        # times on [0, 1.2], and its nine samples fix it exactly
        theta = np.arange(9) * math.pi / 9
        f = -np.prod([np.sin(2 * (theta - r)) for r in (0.2, 0.5, 0.9)], axis=0)
        w = np.fft.rfft(f) / 9
        w[1:] *= 2
        assert _series(0.0, w) > 0 > _series(1.2, w)
        root, changes = _first_crossing(w, 1.2)
        assert changes == 3
        assert root == pytest.approx(0.2, abs=1e-14)

    def test_root_misses_tol_after_one_step(self):
        stab, neg = _alg2_endpoints(2)
        info = {}
        with pytest.raises(ConvergenceError, match="after one Newton step"):
            bisection_root(stab, neg, tol=1e-300, info=info)
        assert info["kernel_steps"] == 1


def weighted_orbits(wd, psi1, psi2, n):
    """The states of both orbits (projective_orbit) and the per-state weight
    of each, as one stack and one weight vector."""
    from cliffdesigns.clifford import projective_orbit

    orbs = [np.array(projective_orbit(psi, n)) for psi in (psi1, psi2)]
    weights = np.concatenate([np.full(len(orb), w) for orb, w in zip(orbs, wd.weights)])
    return np.concatenate(orbs), weights


class TestWeightedTwoOrbit:
    def test_qubit_design(self):
        stab = np.array([1, 0], dtype=complex)
        wd = weighted_two_orbit(stab, psi_t(), 1)
        states, weights = weighted_orbits(wd, stab, psi_t(), 1)
        assert weights.sum() == pytest.approx(1, abs=1e-12)
        assert wd.phi4 == pytest.approx(1 / sym_dim(2, 4), abs=1e-10)
        blocked = frame_potential(states, 4, weights=weights, block=64)
        assert blocked == pytest.approx(wd.phi4, abs=1e-10)

    def test_symmetric_epsilons_split_weight(self):
        # epsilon(psi2) = -epsilon(psi1) gives equal per-orbit total weight;
        # the branch state at quartic 13/15 has epsilon exactly +1/6
        psi1 = solve_bloch_quartic(1 + 13 / 15).state()
        assert epsilon(psi1) == pytest.approx(1 / 6, abs=1e-12)
        wd = weighted_two_orbit(psi1, psi_t(), 1)
        k1 = len(projective_orbit(psi1, 1))
        w_tot_1 = wd.weights[0] * k1
        assert w_tot_1 == pytest.approx(0.5, abs=1e-9)

    def test_weight_totals_follow_epsilon_ratio(self):
        stab = np.array([1, 0], dtype=complex)
        e1, e2 = epsilon(stab), epsilon(psi_t())
        wd = weighted_two_orbit(stab, psi_t(), 1)
        w_tot_1 = wd.weights[0] * 6
        assert w_tot_1 == pytest.approx(abs(e2) / (abs(e1) + abs(e2)), abs=1e-12)

    def test_sign_precondition(self):
        with pytest.raises(InfeasibleError):
            weighted_two_orbit(psi_t(), psi_t(), 1)

    def test_phi4_matches_moment_operator(self):
        # phi4 is the squared Frobenius norm of the weighted fourth moment
        stab = np.array([1, 0], dtype=complex)
        wd = weighted_two_orbit(stab, psi_t(), 1)
        states, weights = weighted_orbits(wd, stab, psi_t(), 1)
        t4 = np.einsum("ka,kb,kc,ke->kabce", *[states] * 4).reshape(len(states), -1)
        moment = (t4.conj() * weights[:, None]).T @ t4
        assert wd.phi4 == pytest.approx(float(np.sum(np.abs(moment) ** 2)), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_phi4_by_invariance_equals_double_sum(self, n):
        if n == 1:
            psi1, psi2 = np.array([1, 0], dtype=complex), psi_t()
        else:
            psi1 = np.eye(4, dtype=complex)[0]
            psi2 = np.kron(singer_eigenstates(1)[0], psi_t())
        wd = weighted_two_orbit(psi1, psi2, n)
        states, weights = weighted_orbits(wd, psi1, psi2, n)
        double = frame_potential(states, 4, weights)
        assert wd.phi4 == pytest.approx(double, rel=1e-13)

    @staticmethod
    def below_minimum(monkeypatch, rel):
        """weighted_two_orbit at n = 8, where the minimum (5.5e-9) is not far
        above an absolute 1e-9, with phi4 rel below it, relatively."""
        n = 8
        monkeypatch.setattr("cliffdesigns.fiducial.fourth_moment",
                            lambda a, b, d: (1 - rel) / sym_dim(d, 4))
        stab = np.eye(1 << n, dtype=complex)[0]
        return weighted_two_orbit(stab, np.kron(singer_eigenstates(n - 1)[0], psi_t()), n)

    def test_phi4_below_minimum_raises(self, monkeypatch):
        # a potential below 1/C(d+3, 4) is impossible; the check must fire
        with pytest.raises(AssertionError, match="design minimum"):
            self.below_minimum(monkeypatch, 1e-11)

    def test_phi4_within_relative_bound_passes(self, monkeypatch):
        assert self.below_minimum(monkeypatch, 1e-13).phi4 == (1 - 1e-13) / sym_dim(256, 4)

    @pytest.mark.parametrize("n, sizes", [(1, (6, 8)), (2, (60, 640))])
    def test_orbit_sizes_from_stabilizer_counts(self, n, sizes):
        # the sizes of the materialized orbits, and the per-state weights of
        # the total weights
        stab = np.eye(1 << n, dtype=complex)[0]
        neg = psi_t() if n == 1 else np.kron(singer_eigenstates(1)[0], psi_t())
        wd = weighted_two_orbit(stab, neg, n)
        assert wd.orbit_sizes == sizes
        assert wd.orbit_sizes == tuple(len(projective_orbit(p, n)) for p in (stab, neg))
        for w, total, size in zip(wd.weights, wd.orbit_weights, sizes):
            assert w == pytest.approx(total / size, rel=1e-15)

    @pytest.mark.parametrize("n", [3, 6])
    def test_past_two_qubits_no_orbit_is_formed(self, monkeypatch, n):
        from cliffdesigns import clifford

        def refuse(*args):
            raise AssertionError("orbit formed")

        monkeypatch.setattr(clifford, "projective_orbit", refuse)
        monkeypatch.setattr(clifford, "_stabilizer_count", refuse)
        stab = np.eye(1 << n, dtype=complex)[0]
        neg = np.kron(singer_eigenstates(n - 1)[0], psi_t())
        wd = weighted_two_orbit(stab, neg, n)
        assert wd.orbit_sizes is None and wd.weights is None
        assert abs(wd.phi4 * sym_dim(1 << n, 4) - 1) <= 1e-12
        e1, e2 = epsilon(stab), epsilon(neg)
        assert wd.orbit_weights == (abs(e2) / (e1 - e2), e1 / (e1 - e2))

    def test_length_must_match_n(self):
        with pytest.raises(f2lin.DimensionError):
            weighted_two_orbit(np.array([1, 0], dtype=complex), psi_t(), 2)

    @pytest.mark.slow
    def test_two_qubit_design(self):
        stab = np.zeros(4, dtype=complex)
        stab[0] = 1
        neg = np.kron(singer_eigenstates(1)[0], psi_t())
        wd = weighted_two_orbit(stab, neg, 2)
        assert wd.phi4 == pytest.approx(1 / sym_dim(4, 4), abs=1e-9)


class TestGF2m:
    def test_primitive_polynomials_have_full_order(self):
        for m in (2, 4, 8):
            p = _primitive_polynomial(m)
            order = (1 << m) - 1
            assert _gf_pow(2, order, p, m) == 1
            seen = set()
            x = 1
            for _ in range(order):
                x = _gf_mul(x, 2, p, m)
                seen.add(x)
            assert len(seen) == order


class TestSinger:
    @pytest.mark.parametrize("n", [1, 2])
    def test_one_walk_matches_two_walks(self, n):
        # every element of Sp(2n, F2), so the search's first hit is unchanged
        hits = [F for F in sp_elements(n) if _is_basis_cycler(F, n)]
        assert hits == [F for F in sp_elements(n) if cycler_two_walks(F, n)]
        assert hits[0] == singer_search(n)
        assert singer_symplectic(n) in hits

    @pytest.mark.parametrize("n", [*range(1, 9), *(pytest.param(n, marks=pytest.mark.slow)
                                                    for n in (9, 10))])
    def test_field_cycler_every_n(self, n):
        F = singer_symplectic(n)
        assert f2lin.is_symplectic(F)
        assert _is_basis_cycler(F, n)

    def test_field_cycler_walks_powers_once(self, monkeypatch):
        calls = 0
        matmul = f2lin.F2Matrix.__matmul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return matmul(self, other)

        monkeypatch.setattr(f2lin.F2Matrix, "__matmul__", counted)
        F = singer_symplectic.__wrapped__(8)
        assert calls <= (1 << 8) + 1
        assert cycler_two_walks(F, 8)

    def test_walk_matches_two_walks_n3(self):
        # random draws are rarely cyclers; conjugating the field cycler by
        # them keeps its order and fixed points, and some conjugates lose
        # the spread
        F = singer_symplectic(3)
        assert _is_basis_cycler(F, 3) and cycler_two_walks(F, 3)
        rng = np.random.default_rng(18)
        for _ in range(300):
            G = f2lin.random_symplectic(3, rng)
            conj = G @ F @ f2lin.F2Matrix(f2lin._inverse(G.rows, 6), 3)
            assert _is_basis_cycler(G, 3) == cycler_two_walks(G, 3)
            assert _is_basis_cycler(conj, 3) == cycler_two_walks(conj, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_zero_matrix_is_no_cycler(self, n):
        assert not _is_basis_cycler(f2lin.F2Matrix((0,) * (2 * n), n), n)

    def test_walk_past_int64_raises(self):
        with pytest.raises(f2lin.CapacityError):
            _is_basis_cycler(f2lin.F2Matrix.identity(32), 32)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_unitary_is_projectively_cyclic(self, n):
        u = singer_unitary(n)
        d = u.d
        power = np.linalg.matrix_power(u.matrix, d + 1)
        assert np.allclose(power, power[0, 0] * np.eye(d), atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cycled_bases_are_mutually_unbiased(self, n):
        u = singer_unitary(n)
        d = u.d
        bases = [np.eye(d, dtype=complex)]
        for _ in range(d):
            bases.append(u.matrix @ bases[-1])
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                ov = np.abs(bases[i].conj().T @ bases[j]) ** 2
                assert np.allclose(ov, 1 / d, atol=1e-9)

    def test_qubit_eigenstates_are_equiangular_fiducials(self):
        for v in singer_eigenstates(1):
            assert ell4_norm4(characteristic_function(v)) == pytest.approx(4 / 3, abs=1e-10)

    def test_epsilon_table(self):
        rows = singer_epsilon_table((1, 2, 4))
        assert -rows[0]["epsilon"] == pytest.approx(2 / 9, abs=1e-10)
        assert -rows[1]["epsilon"] == pytest.approx(0.12, abs=5e-3)
        assert -rows[2]["epsilon"] == pytest.approx(0.0312, abs=5e-4)
        for row in rows:
            assert row["spread"] <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_table_matches_dense_tensor_route(self, n):
        row = singer_epsilon_table((n,))[0]
        for v in singer_eigenstates(n):
            assert abs(row["epsilon"] - epsilon(np.kron(v, psi_t()))) <= 1e-12

    def test_eigenstate_ell4_values(self):
        rows = singer_epsilon_table((1, 2))
        assert rows[0]["eigenstate_ell4"] == pytest.approx(4 / 3, abs=1e-10)
        assert rows[1]["eigenstate_ell4"] == pytest.approx(1.92, abs=1e-10)

    def test_unsupported_n(self):
        with pytest.raises(f2lin.DimensionError):
            singer_symplectic(0)

    def test_nonscalar_power_rejected(self, monkeypatch):
        from cliffdesigns import clifford, fiducial

        # H^3 = H is no scalar, whatever the phase; H has full-support columns,
        # so it passes the normal-form reader and reaches the closing check
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        monkeypatch.setattr(fiducial, "singer_unitary", lambda n: clifford.CliffordElement(h, 1))
        with pytest.raises(AssertionError, match="not scalar"):
            singer_eigenstates(1)

    def test_degenerate_spectrum_rejected(self, monkeypatch):
        from cliffdesigns import fiducial

        # no full-support 2-qubit Clifford with a scalar 5th power leaves more
        # than one bin empty, so a second bin of the cycler's first orbit is
        # zeroed: two missing eigenvalues leave one of the rest twice
        bins_of = fiducial._cycler_bins

        def two_empty(form, r, mu=None):
            bins, mu = bins_of(form, r, mu)
            bins = bins.copy()
            bins[np.argsort(np.linalg.norm(bins, axis=1))[1]] = 0
            return bins, mu

        monkeypatch.setattr(fiducial, "_cycler_bins", two_empty)
        with pytest.raises(AssertionError, match="degenerate"):
            singer_eigenstates(2)

    @pytest.mark.parametrize("matrix", [np.array([[0, 1], [1, 0]], dtype=complex),
                                        np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex),
                                        np.diag([1, 1j]) @ np.ones((2, 2)) / math.sqrt(2)],
                             ids=["X", "identity", "zero", "singular_B"])
    def test_no_normal_form_refused(self, monkeypatch, matrix):
        from cliffdesigns import clifford, fiducial

        # X and 1 have zero entries; the last has entries c i^q but B = 0
        monkeypatch.setattr(fiducial, "singer_unitary",
                            lambda n: clifford.CliffordElement(matrix, 1))
        with pytest.raises(AssertionError, match="no Clifford normal form"):
            singer_eigenstates(1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_normal_form_is_every_entry(self, n):
        M = singer_unitary(n).matrix
        form = _cycler_form(M)
        assert np.array_equal(cycler_form_matrix(form), M)
        # B^{-1} is a permutation and the phases are i-powers of modulus 1
        assert np.array_equal(np.sort(form.gather.ravel()), np.arange(1 << n))
        assert np.array_equal(np.abs(form.phase), np.ones(form.phase.shape))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_walk_matches_dense_products(self, n, rng):
        M = singer_unitary(n).matrix
        r = random_state(1 << n, rng)
        orbit = _cycler_walk(_cycler_form(M), r)
        assert np.abs(orbit - dense_cycler_walk(M, r)).max() <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 4, pytest.param(8, marks=pytest.mark.slow)])
    def test_eigenstates_match_dense_walk(self, monkeypatch, n):
        from cliffdesigns import fiducial

        vecs = singer_eigenstates(n)
        M = singer_unitary(n).matrix
        monkeypatch.setattr(fiducial, "_cycler_walk", lambda form, r: dense_cycler_walk(M, r))
        assert np.abs(vecs - singer_eigenstates(n)).max() <= 1e-13

    @pytest.mark.parametrize("n,digest", [
        (1, "dc4307c0856536f8d790253fc6f914ad433118405609c52f26d7c2ed9f3ec947"),
        (2, "bd62d391068830b28ab85f92ba36894d776531385ee265be92a876572733cb95"),
        (4, "999c296b749a2c22577fab66d4f8e43fd74468432b3732c1003faecc3516ddd8"),
        (8, "c0fecc114e9c1e97b1e58d894746d3121eeef42411e65b96563689b2112540ae"),
    ])
    def test_actions_pinned(self, n, digest):
        rows = singer_symplectic(n).rows
        assert hashlib.sha256(str(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n,digest", [
        (1, "dc4307c0856536f8d790253fc6f914ad433118405609c52f26d7c2ed9f3ec947"),
        (2, "32a6ce88949f4143b3acffd1f67a959a4e4a82332894970850a1e7270f6ed955"),
    ])
    def test_search_actions_pinned(self, n, digest):
        rows = singer_search(n).rows
        assert hashlib.sha256(str(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2, 4, pytest.param(8, marks=pytest.mark.slow)])
    def test_line_ell4_matches_kernel_oracle(self, n):
        # the full d^2 Pauli sum, one eigenstate at a time
        vecs = singer_eigenstates(n)
        assert np.abs(_cycler_ell4(vecs) - alpha_plus_batch(vecs) * len(vecs) ** 2).max() <= 1e-11

    @pytest.mark.parametrize("n, minus_eps", [(1, Fraction(2, 9)), (2, Fraction(3, 25)),
                                              (4, Fraction(9, 289)), (8, Fraction(129, 66049)),
                                              (9, Fraction(257, 263169)),
                                              (10, Fraction(513, 1050625))])
    def test_table_closed_forms(self, n, minus_eps):
        # MUB-balanced states: ||Xi||_4^4 = 3d^2/(d+1)^2, -epsilon = (d/2+1)/(d+1)^2
        d = 1 << n
        assert Fraction(d // 2 + 1, (d + 1) ** 2) == minus_eps
        row = singer_epsilon_table((n,))[0]
        assert abs(row["eigenstate_ell4"] - 3 * d**2 / (d + 1) ** 2) <= 1e-13
        assert abs(-row["epsilon"] - float(minus_eps)) <= 1e-13

    def test_table_skips_full_pauli_kernel(self, monkeypatch):
        from cliffdesigns import pauli

        def no_kernel(*args, **kwargs):
            raise AssertionError("d^2-Pauli kernel called")

        monkeypatch.setattr(pauli, "_ell4_rows", no_kernel)
        rows = singer_epsilon_table((1, 2, 4, 8))
        assert [row["n"] for row in rows] == [1, 2, 4, 8]

    def test_line_ell4_rejects_unnormalized_row(self):
        vecs = singer_eigenstates(2).copy()
        vecs[1] *= 1.001
        with pytest.raises(NormalizationError, match="row 1"):
            _cycler_ell4(vecs)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_line_ell4_rejects_unbalanced_states(self, n):
        # a basis state has Xi = +-1 on the whole z-type line: d-1 there, not (d-1)/(d+1)
        with pytest.raises(AssertionError, match="purity"):
            _cycler_ell4(np.eye(1 << n, dtype=complex))

    @pytest.mark.slow
    def test_experimental_n8(self):
        # d = 256 cycler; the reference deviation is 0.0020 rounded
        rows = singer_epsilon_table((8,))
        assert -rows[0]["epsilon"] == pytest.approx(0.0020, abs=5e-4)
        # the eigenstate l4-norm tends to 3 (the value 0 deviation would need)
        assert abs(rows[0]["eigenstate_ell4"] - 3.0) < 0.1


class TestCyclerEigenbasis:
    @pytest.mark.parametrize("n", [1, 2, 4, pytest.param(8, marks=pytest.mark.slow)])
    def test_eigenbasis(self, n):
        U = singer_unitary(n).matrix
        d = len(U)
        vecs = singer_eigenstates(n)
        lam = np.einsum("ij,jk,ik->i", vecs.conj(), U, vecs)
        assert np.linalg.norm(U @ vecs.T - vecs.T * lam) <= 1e-12
        assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(d)) <= 1e-12
        # d distinct values mu w^k with mu^{d+1} = c, ordered by k
        c = np.linalg.matrix_power(U, d + 1)[0, 0]
        assert abs(lam[0] ** (d + 1) - c) <= 1e-12
        w = np.exp(2j * np.pi / (d + 1))
        assert np.abs(lam - lam[0] * w ** np.arange(d)).max() <= 1e-12
        # phased by a real positive first amplitude
        assert np.abs(vecs[:, 0].imag).max() <= 1e-12
        assert vecs[:, 0].real.min() > 0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_dense_eigensolver(self, n):
        U = singer_unitary(n).matrix
        eigvals, dense = np.linalg.eig(U)
        vecs = singer_eigenstates(n)
        lam = np.einsum("ij,jk,ik->i", vecs.conj(), U, vecs)
        match = np.abs(lam[:, None] - eigvals[None, :]).argmin(axis=1)
        assert sorted(match) == list(range(len(U)))
        overlaps = np.abs(np.einsum("ij,ji->i", vecs.conj(), dense[:, match]))
        assert np.abs(overlaps / np.linalg.norm(dense[:, match], axis=0) - 1).max() <= 1e-10

    def test_no_dense_eigensolver(self, monkeypatch):
        from cliffdesigns import cli

        def no_eig(*args, **kwargs):
            raise AssertionError("np.linalg.eig called")

        monkeypatch.setattr(np.linalg, "eig", no_eig)
        rows = singer_epsilon_table((1, 2, 4, 8))
        assert [row["n"] for row in rows] == [1, 2, 4, 8]
        assert cli.main(["construct", "--alg2", "--n", "3"]) == 0


class TestFiveDesignProbe:
    def test_requires_root(self):
        with pytest.raises(InfeasibleError):
            five_design_probe(np.array([1, 0], dtype=complex), 1)

    def test_qubit_root_is_five_design(self):
        psi = solve_bloch_quartic(1 + 3 / 5).state()
        rep = five_design_probe(psi, 1)
        assert rep["phi5"] == pytest.approx(1 / 6, abs=1e-10)

    def test_six_design_roots_reach_seven(self):
        from cliffdesigns.designs import bloch_state, qubit_six_design_roots

        u1, u2, u3 = qubit_six_design_roots()
        psi = bloch_state(math.sqrt(u1), math.sqrt(u2), math.sqrt(u3))
        rep = five_design_probe(psi, 1)
        assert rep["phi6"] == pytest.approx(1 / 7, abs=1e-10)
        assert rep["phi7"] == pytest.approx(1 / 8, abs=1e-10)

    @pytest.mark.slow
    def test_two_qubit_root_record(self):
        stab = np.zeros(4, dtype=complex)
        stab[0] = 1
        neg = np.kron(singer_eigenstates(1)[0], psi_t())
        root = bisection_root(stab, neg, tol=1e-10)
        rep = five_design_probe(root, 2)
        # recorded, not asserted: the deviation is printed for the record
        print(f"\ntwo-qubit root: phi5 deviation = {rep['phi5_deviation']:.3e}")
        assert "phi5_deviation" in rep
