"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; every expected number is
either an exact integer/rational or carries an explicit absolute
tolerance.  Runtime ceilings from the requirements are asserted where
stated.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cliffdesigns import f2lin
from cliffdesigns.clifford import (
    CliffordElement,
    clifford_trace_check,
    lift_symplectic,
    projective_orbit,
    random_clifford,
    random_clifford_unitaries,
)
from cliffdesigns.designs import (
    bloch_state,
    epsilon,
    orbit_frame_potential,
    qubit_phi4,
    qubit_six_design_roots,
    sym_dim,
    tensor_fiducial_admissible,
)
from cliffdesigns.fiducial import (
    bisection_root,
    five_design_probe,
    hoggar_fiducial,
    psi_t,
    singer_eigenstates,
    singer_epsilon_table,
    solve_bloch_quartic,
    tensor_completion,
    weighted_two_orbit,
)
from cliffdesigns.moments import exact_second_moment, mc_moment_report
from cliffdesigns.pauli import characteristic_function, ell4_norm4
from cliffdesigns.stabrep import (
    apply_code_projector,
    clifford_frame_potential,
    dimension_table,
    isotropic_orbit_states,
    orbit_counting_dims,
    sp_multiplicity_sum,
    symplectic_character,
)
from conftest import random_state
from reference import (
    census_second_moment,
    dense_second_moment_qubit,
    frame_potential,
    multiplicity_sum,
    numeric_symplectic_character,
    product_state_bound_check,
    sp_elements,
    vec_pauli_basis_kron,
    young_projector,
)


def _report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


TABLE = {
    1: [(1, 5, 2, 3), (1, 0, 0, 0), (2, 1, 1, 0), (3, 0, 0, 0), (3, 3, 0, 3)],
    2: [(1, 35, 5, 30), (1, 1, 1, 0), (2, 20, 5, 15), (3, 15, 0, 15), (3, 45, 0, 45)],
    3: [(1, 330, 15, 315), (1, 70, 7, 63), (2, 336, 21, 315), (3, 378, 0, 378), (3, 630, 0, 630)],
}


def test_c01_dimension_table_reproduction():
    start = time.monotonic()
    for n in (1, 2, 3):
        got = [(r.d_lam, r.D_lam, r.D_plus, r.D_minus) for r in dimension_table(n)]
        assert got == TABLE[n]
    for n in range(1, 7):
        d = 2**n
        total, type3 = orbit_counting_dims(n)
        assert total == (d + 1) * (d + 2) // 6
        assert type3 == (d - 1) * (d - 2) // 6
        if n <= 3:
            rows = dimension_table(n)
            assert (rows[0].D_plus, rows[1].D_plus) == (total, type3)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(1, f"dimension-table reproduction ({elapsed:.1f} s)")


def test_c02_frame_potential_integers():
    start = time.monotonic()
    assert clifford_frame_potential(1, 4) == Fraction(15)
    assert clifford_frame_potential(2, 4) == Fraction(29)
    assert clifford_frame_potential(3, 4) == Fraction(30)
    assert sp_multiplicity_sum(1, 4) == Fraction(5)
    assert sp_multiplicity_sum(2, 4) == Fraction(6)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"group frame-potential integers 15/29/30 and 5/6 ({elapsed:.1f} s)")


def test_c03_trace_identities():
    # the 3x10^4 random_clifford draws of one default_rng(314159), n = 1, 2, 3
    # in turn, drawn as stacks: a twin generator gives the same words to the
    # symplectic indices that the stack sampler decodes and lifts
    rng, twin = np.random.default_rng(314159), np.random.default_rng(314159)
    for n in (1, 2, 3):
        draws = f2lin._rand_below_many(twin, [f2lin.sp_order(n), 4**n] * 10**4)
        mats = random_clifford_unitaries(n, rng, 10**4)
        rows = f2lin._rows_from_indices(draws[0::2], n).tolist()
        if n == 1:
            fresh = np.random.default_rng(314159)
            for U, F in zip(mats[:100], rows):
                one = random_clifford(1, fresh)
                assert one.matrix.tobytes() == U.tobytes() and list(one.symplectic.rows) == F
        for U, F in zip(mats, rows):
            rep = clifford_trace_check(CliffordElement(U, n, symplectic=f2lin.F2Matrix(tuple(F), n)))
            assert rep.passed
    for n in (1, 2):
        for F in sp_elements(n):
            exact = symplectic_character(F, 4)
            got = numeric_symplectic_character(lift_symplectic(F), 4)
            assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact))
    _report(3, "trace fourth-power identity (3x10^4 random) and code character (exhaustive)")


def test_c04_qubit_closed_forms():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        v = rng.normal(size=3)
        x, y, z = v / np.linalg.norm(v)
        orb = np.array(projective_orbit(bloch_state(x, y, z), 1))
        assert abs(qubit_phi4(x, y, z) - frame_potential(orb, 4)) < 1e-12
    psi4 = solve_bloch_quartic(1 + 3 / 5).state()
    assert abs(orbit_frame_potential(psi4, 4) - 1 / 5) < 1e-10
    assert abs(orbit_frame_potential(psi4, 5) - 1 / 6) < 1e-10
    u1, u2, u3 = qubit_six_design_roots()
    psi6 = bloch_state(math.sqrt(u1), math.sqrt(u2), math.sqrt(u3))
    assert abs(orbit_frame_potential(psi6, 6) - 1 / 7) < 1e-10
    assert abs(orbit_frame_potential(psi6, 7) - 1 / 8) < 1e-10
    _report(4, "single-qubit closed forms and 4/5/6/7-design loci")


def test_c05_named_state_metrics():
    rng = np.random.default_rng(88)
    for n in (1, 2, 3):
        d = 2**n
        e0 = np.zeros(d, dtype=complex)
        e0[0] = 1
        assert ell4_norm4(characteristic_function(e0)) == d
        u = random_clifford(n, rng)
        assert abs(ell4_norm4(characteristic_function(u.matrix @ e0)) - d) < 1e-10
    assert abs(ell4_norm4(characteristic_function(psi_t())) - 4 / 3) < 1e-10
    assert abs(ell4_norm4(characteristic_function(hoggar_fiducial())) - 16 / 9) < 1e-10
    _report(5, "named-state l4 metrics d, 4/3, 16/9")


def test_c06_construction_correctness():
    start = time.monotonic()
    hog = hoggar_fiducial()
    pt = psi_t()
    bases = [
        (pt, 2),
        (np.kron(pt, pt), 3),
        (np.kron(np.kron(pt, pt), pt), 4),
        (hog, 4),
        (np.kron(hog, pt), 5),
    ]
    for prev, n in bases:
        out = tensor_completion(prev, n)
        assert abs(epsilon(out)) <= 1e-9
    for n in (2, 3):
        stab = np.zeros(2**n, dtype=complex)
        stab[0] = 1
        neg = np.kron(singer_eigenstates(n - 1)[0], pt)
        root = bisection_root(stab, neg, tol=1e-8)
        assert abs(epsilon(root)) <= 1e-8
    for n in (1, 2):
        stab = np.zeros(2**n, dtype=complex)
        stab[0] = 1
        neg = pt if n == 1 else np.kron(singer_eigenstates(1)[0], pt)
        wd = weighted_two_orbit(stab, neg, n)
        assert abs(wd.phi4 - 1 / sym_dim(2**n, 4)) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(6, f"exact constructions: completion x5, bisection n=2,3, weighted n=1,2 ({elapsed:.1f} s)")


def test_c07_moments():
    start = time.monotonic()
    for n in range(1, 6):
        assert census_second_moment(n) == exact_second_moment(n)
    assert abs(dense_second_moment_qubit() - float(Fraction(17, 105))) < 1e-12
    for n in (2, 3):
        rep = mc_moment_report(n, 10**5, seed=7)
        assert rep["pass"]["alpha_mean_within_4se"]
        assert rep["pass"]["epsilon_second_within_4se"]
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(7, f"exact + Monte-Carlo moments ({elapsed:.1f} s)")


def test_c08_singer_probes():
    rows = singer_epsilon_table((1, 2, 4))
    assert abs(-rows[0]["epsilon"] - 2 / 9) < 1e-10
    assert abs(-rows[1]["epsilon"] - 0.12) < 5e-3
    assert abs(-rows[2]["epsilon"] - 0.0312) < 5e-4
    _report(8, "cycler deviations 2/9, 0.12, 0.0312")


def test_c09_structural_invariants():
    import itertools

    rng = np.random.default_rng(777)
    for n in (1, 2):
        d = 2**n
        p = apply_code_projector(np.eye(d**4), n, 4)  # real and symmetric
        assert np.allclose(p, p.conj().T, atol=1e-10)
        assert np.allclose(p @ p, p, atol=1e-10)
        idx = np.arange(d**4)
        digits = [(idx // d ** (3 - c)) % d for c in range(4)]
        for perm in itertools.permutations(range(4)):
            y = sum(digits[perm[c]] * d ** (3 - c) for c in range(4))
            assert np.allclose(p[np.ix_(y, y)], p, atol=1e-10)
        for lam in ((2, 1, 1), (4,)):
            q = young_projector(lam, n)
            assert np.allclose(p @ q, q @ p, atol=1e-10)
        for _ in range(50):
            u = random_clifford(n, rng).matrix
            u4 = np.kron(np.kron(u, u), np.kron(u, u))
            assert np.allclose(u4 @ p, p @ u4, atol=1e-10)
        basis = vec_pauli_basis_kron(n)
        gram = basis.conj() @ basis.T
        assert np.allclose(gram, d * d * np.eye(d * d), atol=1e-10)
        for _ in range(20):
            u = random_clifford(n, rng).matrix
            u4 = np.kron(np.kron(u, u), np.kron(u, u))
            img = basis @ u4.T
            overlaps = np.abs(img.conj() @ basis.T) / (d * d)
            assert np.allclose(np.sort(overlaps, axis=1)[:, :-1], 0, atol=1e-9)
            assert np.allclose(overlaps.max(axis=1), 1, atol=1e-9)
        # code states labeled by maximal isotropic subspaces
        states = isotropic_orbit_states(n)
        plus = p @ young_projector((4,), n)
        frame = sum(np.outer(s, s.conj()) for _, s in states)
        ratio = len(states) / dimension_table(n)[0].D_plus
        assert np.allclose(frame, ratio * plus, atol=1e-9)
        for i, (M, pm) in enumerate(states):
            for (N, pn) in states[i:]:
                dim_int = (len(set(M.vectors()) & set(N.vectors()))).bit_length() - 1
                assert abs(abs(np.vdot(pm, pn)) ** 2 - 4.0 ** (dim_int - n)) < 1e-9
    for _ in range(10**3):
        quad = [random_state(2, rng) for _ in range(4)]
        assert -1e-10 <= product_state_bound_check(*quad) <= 0.5 + 1e-10
    for _ in range(300):
        quad = [random_state(4, rng) for _ in range(4)]
        assert -1e-10 <= product_state_bound_check(*quad) <= 0.25 + 1e-10
    admissible = [(1, 1, 1, 1), (3, 2, 1), (2, 2, 1), (2, 1, 1), (5, 1, 1), (3, 2), (4, 4)]
    rejected = [(2, 2, 2), (4, 2, 1), (3, 3, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1)]
    assert all(tensor_fiducial_admissible(p) for p in admissible)
    assert not any(tensor_fiducial_admissible(p) for p in rejected)
    _report(9, "projector/basis/frame/product-bound/admissibility invariants")


def _transvection_vector_maps(n):
    nv = 1 << (2 * n)
    maps = []
    for a in range(1, nv):
        img = np.empty(nv, dtype=np.int64)
        for v in range(nv):
            img[v] = f2lin.transvection(a, v, n)
        maps.append(img)
    return maps


def _sp_orbit_count_tuples(n, k):
    """Orbits of Sp(2n, F_2) on k-tuples of vectors, by label propagation
    over the transvection generators (transvections generate the group)."""
    nv = 1 << (2 * n)
    npts = nv**k
    gens = _transvection_vector_maps(n)
    digits = []
    idx = np.arange(npts, dtype=np.int64)
    for j in range(k):
        digits.append((idx // nv ** (k - 1 - j)) % nv)
    labels = idx.copy()
    while True:
        before = labels
        for g in gens:
            target = np.zeros(npts, dtype=np.int64)
            for j in range(k):
                target = target * nv + g[digits[j]]
            labels = np.minimum(labels, labels[target])
        if np.array_equal(labels, before):
            break
    return len(np.unique(labels))


def _cyclic_orbit_count_pairs(F, n):
    nv = 1 << (2 * n)
    img = np.array([F.apply(v) for v in range(nv)], dtype=np.int64)
    perm = (img[np.arange(nv * nv) // nv]) * nv + img[np.arange(nv * nv) % nv]
    seen = np.zeros(nv * nv, dtype=bool)
    cycles = 0
    for start in range(nv * nv):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def test_c10_property_coverage_beyond_desk_scale():
    # the potential integers re-derived as orbit counts, independently of
    # the fixed-space histogram sweep
    assert _sp_orbit_count_tuples(2, 2) == 6
    assert _sp_orbit_count_tuples(2, 3) == 29
    assert _sp_orbit_count_tuples(3, 2) == 6
    # squared-multiplicity formula on sampled cyclic subgroups: the group
    # average of f^2 equals the subgroup's orbit count on vector pairs,
    # which for a cyclic group is the cycle count of the pair permutation
    rng = np.random.default_rng(51)
    for n in (2, 3):
        for _ in range(4):
            F = f2lin.random_symplectic(n, rng)
            group = [F]
            while group[-1].rows != f2lin.F2Matrix.identity(n).rows:
                group.append(group[-1] @ F)
            val = multiplicity_sum(group, 4)
            assert val == Fraction(_cyclic_orbit_count_pairs(F, n))
    # five-design observation at n = 2, recorded but not asserted
    stab = np.zeros(4, dtype=complex)
    stab[0] = 1
    neg = np.kron(singer_eigenstates(1)[0], psi_t())
    root = bisection_root(stab, neg, tol=1e-10)
    rep = five_design_probe(root, 2)
    print(f"\n  recorded: n=2 root phi5 deviation = {rep['phi5_deviation']:+.3e}")
    _report(10, "orbit-count cross-checks and recorded five-design observation")
