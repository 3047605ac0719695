import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns import f2lin
from cliffdesigns.f2lin import (
    CapacityError,
    DimensionError,
    F2Matrix,
    enumerate_sp,
    fixed_dim_histogram,
    fixed_space_dim,
    is_symplectic,
    matrix_from_hex,
    matrix_to_hex,
    maximal_isotropic_subspaces,
    random_symplectic,
    sp_order,
    symplectic_form,
    symplectic_from_index,
)


def brute_force_sp1():
    out = []
    for bits in range(16):
        rows = (bits & 3, bits >> 2)
        if is_symplectic(F2Matrix(rows, 1)):
            out.append(rows)
    return out


class TestSymplecticForm:
    def test_zero_vector(self):
        for b in range(4):
            assert symplectic_form(0, b, 1) == 0

    def test_hyperbolic_pair(self):
        # n=1, a=(1,0), b=(0,1)
        assert symplectic_form(0b01, 0b10, 1) == 1

    def test_self_pairing_vanishes(self):
        for a in range(16):
            assert symplectic_form(a, a, 2) == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            symplectic_form(1 << 5, 0, 1)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(0, 63))
    def test_bilinear(self, a, b, c):
        lhs = symplectic_form(a ^ b, c, 3)
        assert lhs == symplectic_form(a, c, 3) ^ symplectic_form(b, c, 3)


class TestIsSymplectic:
    def test_identity(self):
        for n in (1, 2, 3):
            assert is_symplectic(F2Matrix.identity(n))

    def test_transvection_is_symplectic(self):
        assert is_symplectic(F2Matrix((0b11, 0b01), 1))

    def test_singular_rejected(self):
        assert not is_symplectic(F2Matrix((0b11, 0b11), 1))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            F2Matrix((1, 2, 3), 1)


class TestFixedSpaceDim:
    def test_identity(self):
        for n in (1, 2, 3):
            assert fixed_space_dim(F2Matrix.identity(n)) == 2 * n

    def test_sp2_multiset(self):
        dims = sorted(fixed_space_dim(F) for F in enumerate_sp(1))
        assert dims == [0, 0, 1, 1, 1, 2]

    def test_transvection_dim_one(self):
        t = f2lin.transvection_matrix(0b11, 1)
        assert fixed_space_dim(t) == 1


class TestEnumeration:
    def test_n1_matches_brute_force(self):
        enum = sorted(m.rows for m in enumerate_sp(1))
        assert enum == sorted(brute_force_sp1())

    def test_n2_count_distinct_symplectic(self):
        seen = set()
        for m in enumerate_sp(2):
            assert is_symplectic(m)
            seen.add(m.rows)
        assert len(seen) == sp_order(2) == 720

    def test_orders(self):
        assert sp_order(1) == 6
        assert sp_order(2) == 720
        assert sp_order(3) == 1451520

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            next(enumerate_sp(4))

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_nonpositive_n(self, n):
        with pytest.raises(DimensionError):
            next(enumerate_sp(n))

    def test_from_index_roundtrip_n2(self):
        mats = list(enumerate_sp(2))
        for idx in (0, 1, 17, 333, 719):
            assert symplectic_from_index(idx, 2).rows == mats[idx].rows

    def test_from_index_range_check(self):
        with pytest.raises(ValueError):
            symplectic_from_index(sp_order(2), 2)

    @pytest.mark.slow
    def test_n3_stream_is_complete(self):
        # pack each 6x6 matrix into one 36-bit int; the stream must hit
        # every group element exactly once
        seen = set()
        count = 0
        for rows in f2lin._iter_sp_rows(3):
            key = 0
            for r in rows:
                key = (key << 6) | r
            seen.add(key)
            count += 1
        assert count == sp_order(3)
        assert len(seen) == sp_order(3)


class TestHistogram:
    def test_n1(self):
        assert fixed_dim_histogram(1) == (2, 3, 1)

    def test_totals(self):
        for n in (1, 2, 3):
            assert sum(fixed_dim_histogram(n)) == sp_order(n)

    def test_n2_against_direct_enumeration(self):
        counts = [0] * 5
        for m in enumerate_sp(2):
            counts[fixed_space_dim(m)] += 1
        assert tuple(counts) == fixed_dim_histogram(2)


class TestRandomSymplectic:
    def test_always_symplectic(self, rng):
        for n in (1, 2, 3, 4):
            assert is_symplectic(random_symplectic(n, rng))

    def test_deterministic_replay(self):
        a = random_symplectic(3, np.random.default_rng(5))
        b = random_symplectic(3, np.random.default_rng(5))
        assert a.rows == b.rows

    def test_uniform_chi_square_n1(self):
        from scipy.stats import chi2

        draws = 60000
        rng = np.random.default_rng(99)
        counts = {m.rows: 0 for m in enumerate_sp(1)}
        for _ in range(draws):
            counts[random_symplectic(1, rng).rows] += 1
        expect = draws / 6
        stat = sum((c - expect) ** 2 / expect for c in counts.values())
        assert stat < chi2.isf(0.001, df=5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_form_preserved(self, seed, n):
        rng = np.random.default_rng(seed)
        F = random_symplectic(n, rng)
        mask = (1 << (2 * n)) - 1
        a = int(rng.integers(0, mask + 1))
        b = int(rng.integers(0, mask + 1))
        assert symplectic_form(F.apply(a), F.apply(b), n) == symplectic_form(a, b, n)


class TestIsotropic:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_counts(self, n, count):
        subs = maximal_isotropic_subspaces(n)
        assert len(subs) == count
        expected = 1
        for i in range(1, n + 1):
            expected *= 2**i + 1
        assert count == expected

    def test_isotropy_invariant(self):
        for sub in maximal_isotropic_subspaces(2):
            assert sub.dim == 2
            vecs = sub.vectors()
            assert len(set(vecs)) == 4
            for a in vecs:
                for b in vecs:
                    assert symplectic_form(a, b, 2) == 0

    def test_no_duplicates_and_canonical(self):
        subs = maximal_isotropic_subspaces(2)
        assert len({s.basis for s in subs}) == len(subs)
        for s in subs:
            assert tuple(sorted(s.basis, reverse=True)) == s.basis

    def test_capacity(self):
        with pytest.raises(CapacityError):
            maximal_isotropic_subspaces(5)


class TestSerialization:
    def test_golden_roundtrip(self):
        F = F2Matrix((0b1011, 0b0010, 0b1111, 0b0001), 2)
        text = matrix_to_hex(F)
        assert text == "b\n2\nf\n1"
        assert matrix_from_hex(text, 2).rows == F.rows

    def test_enumerated_roundtrip(self):
        for m in list(enumerate_sp(2))[::97]:
            assert matrix_from_hex(matrix_to_hex(m), 2).rows == m.rows
