import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cliffdesigns import f2lin
from cliffdesigns.clifford import lift_symplectic, random_clifford
from cliffdesigns.f2lin import CapacityError, F2Matrix
from cliffdesigns.stabrep import (
    PARTITIONS,
    S4_CHARACTER,
    SPECHT_DIM,
    clifford_frame_potential,
    dimension_table,
    isotropic_orbit_states,
    orbit_counting_dims,
    sp_multiplicity_sum,
    stab_code_basis,
    stab_projector,
    symplectic_character,
    vec_pauli_basis,
    weyl_dim,
)
from reference import (
    cycle_type,
    multiplicity_sum,
    numeric_symplectic_character,
    sp_elements,
    string_orbit_sweep,
    young_projector,
)

# the five-row ledger for one, two and three qubits: (specht, weyl, code, rest)
LEDGER = {
    1: {
        (4,): (1, 5, 2, 3),
        (1, 1, 1, 1): (1, 0, 0, 0),
        (2, 2): (2, 1, 1, 0),
        (2, 1, 1): (3, 0, 0, 0),
        (3, 1): (3, 3, 0, 3),
    },
    2: {
        (4,): (1, 35, 5, 30),
        (1, 1, 1, 1): (1, 1, 1, 0),
        (2, 2): (2, 20, 5, 15),
        (2, 1, 1): (3, 15, 0, 15),
        (3, 1): (3, 45, 0, 45),
    },
    3: {
        (4,): (1, 330, 15, 315),
        (1, 1, 1, 1): (1, 70, 7, 63),
        (2, 2): (2, 336, 21, 315),
        (2, 1, 1): (3, 378, 0, 378),
        (3, 1): (3, 630, 0, 630),
    },
}


def hook_weyl_dim(lam, d):
    """Independent Weyl-dimension oracle via cell contents and hook lengths."""
    cells = [(i, j) for i, r in enumerate(lam) for j in range(r)]
    num = 1
    den = 1
    for (i, j) in cells:
        num *= d + j - i
        arm = lam[i] - j - 1
        leg = sum(1 for (k, l) in cells if l == j and k > i)
        den *= arm + leg + 1
    return num // den


class TestCharacterTable:
    def test_orthogonality(self):
        sizes = {(1, 1, 1, 1): 1, (2, 2): 3, (2, 1, 1): 6, (3, 1): 8, (4,): 6}
        for lam in PARTITIONS:
            for mu in PARTITIONS:
                total = sum(
                    sizes[ct] * S4_CHARACTER[lam][ct] * S4_CHARACTER[mu][ct] for ct in sizes
                )
                assert total == (24 if lam == mu else 0)

    def test_dimensions_column(self):
        for lam in PARTITIONS:
            assert S4_CHARACTER[lam][(1, 1, 1, 1)] == SPECHT_DIM[lam]

    def test_cycle_type(self):
        assert cycle_type((1, 0, 2, 3)) == (2, 1, 1)
        assert cycle_type((1, 2, 3, 0)) == (4,)


class TestWeylDims:
    def test_against_hook_formula(self):
        for lam in PARTITIONS:
            for d in (2, 4, 8, 16):
                assert weyl_dim(lam, d) == hook_weyl_dim(lam, d)


class TestDimensionTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_frozen_ledger(self, n):
        for row in dimension_table(n):
            assert (row.d_lam, row.D_lam, row.D_plus, row.D_minus) == LEDGER[n][row.lam]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_completeness(self, n):
        d = 2**n
        rows = dimension_table(n)
        assert sum(r.d_lam * r.D_lam for r in rows) == d**4
        assert sum(r.d_lam * r.D_plus for r in rows) == d * d
        assert all(r.D_plus + r.D_minus == r.D_lam for r in rows)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_orbit_counting_oracle(self, n):
        d = 2**n
        total, type3 = orbit_counting_dims(n)
        assert total == (4**n + 3 * 2**n + 2) // 6 == (d + 1) * (d + 2) // 6
        assert type3 == (4**n - 3 * 2**n + 2) // 6 == (d - 1) * (d - 2) // 6
        if n <= 3:
            rows = dimension_table(n)
            assert (rows[0].D_plus, rows[1].D_plus) == (total, type3)

    @pytest.mark.parametrize("n", range(7))
    def test_orbit_count_matches_string_sweep(self, n):
        assert orbit_counting_dims(n) == string_orbit_sweep(n)

    def test_dense_trace_oracle_n1(self):
        # tr(P_{1,4} P_lam) = d_lam * D_plus, checked densely
        p = stab_projector(1, 4)
        for row in dimension_table(1):
            tr = np.trace(p @ young_projector(row.lam, 1)).real
            assert abs(tr - row.d_lam * row.D_plus) < 1e-10


class TestStabProjector:
    @pytest.mark.parametrize("n,k,rank", [(1, 4, 4), (2, 4, 16), (1, 8, 64)])
    def test_projector_and_rank(self, n, k, rank):
        p = stab_projector(n, k)
        assert np.allclose(p, p.conj().T, atol=1e-12)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert abs(np.trace(p).real - rank) < 1e-9

    def test_trace_n3(self):
        assert abs(np.trace(stab_projector(3, 4)).real - 64) < 1e-8

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            stab_projector(1, 6)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            stab_projector(2, 8)

    def test_commutes_with_permutations_and_cliffords(self, rng):
        for n in (1, 2):
            d = 2**n
            p = stab_projector(n, 4)
            # permutation of the four copies
            idx = np.arange(d**4)
            digits = [(idx // d ** (3 - c)) % d for c in range(4)]
            for perm in itertools.permutations(range(4)):
                y = sum(digits[perm[c]] * d ** (3 - c) for c in range(4))
                assert np.allclose(p[np.ix_(y, y)], p, atol=1e-10)
            for _ in range(10):
                u = random_clifford(n, rng).matrix
                u4 = np.kron(np.kron(u, u), np.kron(u, u))
                assert np.allclose(u4 @ p @ u4.conj().T, p, atol=1e-10)


class TestCodeBasis:
    @pytest.mark.parametrize("n,k", [(1, 4), (2, 4), (1, 8)])
    def test_orthonormal_in_code(self, n, k):
        b = stab_code_basis(n, k)
        assert b.shape[0] == (2**n) ** (k - 2)
        gram = b.conj() @ b.T
        assert np.allclose(gram, np.eye(b.shape[0]), atol=1e-12)
        p = stab_projector(n, k)
        assert np.allclose(p @ b.T, b.T, atol=1e-10)

    def test_single_qubit_explicit_vectors(self):
        b = stab_code_basis(1, 4)
        pairs = [(0b0000, 0b1111), (0b1001, 0b0110), (0b0101, 0b1010), (0b0011, 0b1100)]
        for lo, hi in pairs:
            want = np.zeros(16)
            want[lo] = want[hi] = 1 / math.sqrt(2)
            assert any(np.allclose(v, want) for v in b)


class TestVecPauliBasis:
    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonal_and_in_code(self, n):
        d = 2**n
        basis = vec_pauli_basis(n)
        gram = basis.conj() @ basis.T
        assert np.allclose(gram, d * d * np.eye(d * d), atol=1e-10)
        p = stab_projector(n, 4)
        assert np.allclose(p @ basis.T, basis.T, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2])
    def test_clifford_action_is_signed_permutation(self, n, rng):
        d = 2**n
        basis = vec_pauli_basis(n)
        for _ in range(50):
            u = random_clifford(n, rng).matrix
            u4 = np.kron(np.kron(u, u), np.kron(u, u))
            img = basis @ u4.T
            overlaps = img.conj() @ basis.T / (d * d)
            # each image hits exactly one basis vector with coefficient +-1
            mags = np.abs(overlaps)
            assert np.allclose(np.sort(mags, axis=1)[:, :-1], 0, atol=1e-9)
            peaks = mags.max(axis=1)
            assert np.allclose(peaks, 1, atol=1e-9)
            vals = overlaps[np.arange(d * d), np.argmax(mags, axis=1)]
            assert np.allclose(np.abs(vals.imag), 0, atol=1e-9)


class TestYoungProjectors:
    def test_traces_n1(self):
        traces = [np.trace(young_projector(lam, 1)).real for lam in PARTITIONS]
        assert np.allclose(traces, [5, 0, 2, 0, 9], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_projector_algebra(self, n):
        d = 2**n
        ps = {lam: young_projector(lam, n) for lam in PARTITIONS}
        total = sum(ps.values())
        assert np.allclose(total, np.eye(d**4), atol=1e-10)
        for lam, p in ps.items():
            assert np.allclose(p, p.conj().T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-10)
            assert abs(np.trace(p).real - SPECHT_DIM[lam] * weyl_dim(lam, d)) < 1e-8
        assert np.allclose(ps[(4,)] @ ps[(2, 2)], 0, atol=1e-10)

    def test_symmetrizer_is_plain_average(self):
        d = 2
        idx = np.arange(d**4)
        digits = [(idx // d ** (3 - c)) % d for c in range(4)]
        acc = np.zeros((16, 16))
        for perm in itertools.permutations(range(4)):
            y = sum(digits[perm[c]] * d ** (3 - c) for c in range(4))
            m = np.zeros((16, 16))
            m[y, idx] = 1
            acc += m
        assert np.allclose(young_projector((4,), 1), acc / 24, atol=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            young_projector((4,), 3)


class TestSymplecticCharacter:
    def test_identity_is_d_squared(self):
        for n in (1, 2, 3):
            assert symplectic_character(F2Matrix.identity(n), 4) == 4**n

    @pytest.mark.parametrize("n", [1, 2])
    def test_exhaustive_numeric_match_k4(self, n):
        for F in sp_elements(n):
            exact = symplectic_character(F, 4)
            got = numeric_symplectic_character(lift_symplectic(F), 4)
            assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_transvection_value_is_minus_two(self):
        t = f2lin.transvection_matrix(0b11, 1)
        assert symplectic_character(t, 4) == -2

    def test_k8_numeric_n1(self):
        for F in sp_elements(1):
            exact = symplectic_character(F, 8)
            got = numeric_symplectic_character(lift_symplectic(F), 8)
            assert abs(got - exact) <= 1e-6 * max(1.0, abs(exact))
            if f2lin.fixed_space_dim(F) == 0:  # order-3 elements
                assert exact == 1

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            symplectic_character(F2Matrix.identity(1), 6)


class TestGroupSums:
    def test_multiplicity_integers(self):
        assert sp_multiplicity_sum(1, 4) == 5
        assert sp_multiplicity_sum(2, 4) == 6
        assert sp_multiplicity_sum(3, 4) == 6

    def test_multiplicity_sum_list_api(self):
        assert multiplicity_sum(list(sp_elements(1)), 4) == 5

    def test_trivial_group(self):
        for n in (1, 2):
            val = multiplicity_sum([F2Matrix.identity(n)], 4)
            assert val == (2**n) ** 4

    def test_non_group_flagged(self):
        mats = [m for m in sp_elements(1)][:3]
        with pytest.raises(ValueError):
            multiplicity_sum(mats, 4)

    def test_frame_potentials(self):
        assert clifford_frame_potential(1, 4) == 15
        assert clifford_frame_potential(2, 4) == 29
        assert clifford_frame_potential(3, 4) == 30

    def test_three_design_potentials(self):
        # the group is a 3-design: potential equals the Haar value
        assert clifford_frame_potential(1, 3) == 5  # (2t)!/(t!(t+1)!) at d=2
        assert clifford_frame_potential(2, 3) == 6  # t! for d >= t
        assert clifford_frame_potential(3, 3) == 6

    def test_character_square_sum_matches_multiplicity(self):
        # (1/|Sp|) sum tr_code(F)^2 with tr_code = (-2)^{dim ker(F-1)}
        for n in (1, 2):
            total = Fraction(0)
            count = 0
            for F in sp_elements(n):
                total += symplectic_character(F, 4) ** 2
                count += 1
            assert total / count == sp_multiplicity_sum(n, 4)


class TestIsotropicOrbitStates:
    @pytest.mark.parametrize("n", [1, 2])
    def test_overlap_formula_and_tight_frame(self, n):
        d = 2**n
        states = isotropic_orbit_states(n)
        assert len(states) == [3, 15][n - 1]
        for i, (M, pm) in enumerate(states):
            assert abs(np.linalg.norm(pm) - 1) < 1e-12
            for (N, pn) in states[i:]:
                inter = len(set(M.vectors()) & set(N.vectors()))
                dim_int = inter.bit_length() - 1
                want = (2.0 ** (dim_int - n)) ** 2
                assert abs(abs(np.vdot(pm, pn)) ** 2 - want) < 1e-9
        plus = stab_projector(n, 4) @ young_projector((4,), n)
        frame = sum(np.outer(p, p.conj()) for _, p in states)
        ratio = len(states) / dimension_table(n)[0].D_plus
        assert np.allclose(frame, ratio * plus, atol=1e-9)

    def test_all_z_subspace_gives_plus_state(self):
        for n in (1, 2):
            d = 2**n
            for M, psi in isotropic_orbit_states(n):
                if all(b & 0xAAAAAAAA == 0 for b in M.basis):
                    ref = np.zeros(d**4, complex)
                    for x in range(d):
                        ref[((x * d + x) * d + x) * d + x] = 1 / math.sqrt(d)
                    assert abs(abs(np.vdot(ref, psi)) - 1) < 1e-10
