import hashlib
import itertools

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
    sp_orbit_count,
    sp_order,
    symplectic_form,
    symplectic_from_index,
)
from cliffdesigns.fiducial import singer_symplectic
from reference import (
    cols_to_rows_loop,
    column_loop,
    histogram_lagrange_loop,
    independent_rows,
    isotropic_grow,
    orbit_count_loop,
    second_image_loop,
    sp_elements,
    symplectic_basis_filtered,
)


def rows_digest(mats):
    h = hashlib.sha256()
    for F in mats:
        h.update(str(F.rows).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sp3_stream():
    """One pass over the stacks of enumerate_sp(3): the rows_digest of its
    element stream, the stack lengths, and each 6x6 matrix packed into one
    36-bit int, first row highest."""
    h = hashlib.sha256()
    sizes, keys = [], []
    for stack in enumerate_sp(3):
        assert stack.dtype == np.int64 and stack.shape[1:] == (6,)
        # str(tuple(row)) of each row, formatted for the whole stack at once
        h.update(("(%d, %d, %d, %d, %d, %d)" * len(stack) % tuple(stack.ravel().tolist())).encode())
        sizes.append(len(stack))
        keys.append((stack << np.arange(30, -1, -6)).sum(axis=1))
    return h.hexdigest(), sizes, np.concatenate(keys)


def tuple_orbit_count(n, m):
    """Orbits of Sp(2n, F_2) on m-tuples by union-find under the
    transvections, which generate the group."""
    nn = 2 * n
    parent = {t: t for t in itertools.product(range(1 << nn), repeat=m)}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    for a in range(1, 1 << nn):
        for t in parent:
            image = tuple(f2lin.transvection(a, v, n) for v in t)
            parent[find(t)] = find(image)
    return len({find(t) for t in parent})


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

    @pytest.mark.parametrize("q", [32, 33, 36, 70])
    def test_qubits_past_the_64_bit_mask(self, q):
        z, x = 1 << (2 * q - 2), 1 << (2 * q - 1)
        assert symplectic_form(z, x, q) == symplectic_form(x, z, q) == 1
        assert symplectic_form(z, z, q) == symplectic_form(x, x, q) == 0
        assert f2lin._swap_pairs(z) == x and f2lin._swap_pairs(x) == z

    @pytest.mark.parametrize("n", [31, 32, 33, 36, 70, 200])
    def test_wide_swap_and_omega_agree(self, rng, n):
        for _ in range(100):
            a, b = (int.from_bytes(rng.bytes(n)) % 4**n for _ in range(2))
            assert f2lin._swap_pairs(f2lin._swap_pairs(b)) == b
            assert f2lin._omega(a, b) == f2lin._parity(a & f2lin._swap_pairs(b))
            assert f2lin._omega(a, b) == symplectic_form(b, a, n)


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

    @pytest.mark.parametrize("rows", [(1, -1), (-2, 1), (1, 4), (16, 2)])
    def test_row_out_of_range_rejected(self, rows):
        with pytest.raises(DimensionError):
            F2Matrix(rows, 1)

    def test_rows_at_range_ends_accepted(self):
        assert F2Matrix((0, 15, 1, 8), 2).rows == (0, 15, 1, 8)


class TestFixedSpaceDim:
    def test_identity(self):
        for n in (1, 2, 3):
            assert fixed_space_dim(F2Matrix.identity(n)) == 2 * n

    def test_sp2_multiset(self):
        dims = sorted(fixed_space_dim(F) for F in sp_elements(1))
        assert dims == [0, 0, 1, 1, 1, 2]

    def test_transvection_dim_one(self):
        t = f2lin.transvection_matrix(0b11, 1)
        assert fixed_space_dim(t) == 1


class TestEnumeration:
    def test_n1_matches_brute_force(self):
        enum = sorted(m.rows for m in sp_elements(1))
        assert enum == sorted(brute_force_sp1())

    def test_n2_count_distinct_symplectic(self):
        seen = set()
        for m in sp_elements(2):
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

    @pytest.mark.slow
    def test_n3_order_pinned(self, sp3_stream):
        # the enumeration order is the index map of symplectic_from_index
        # and random_symplectic, so seeded draws depend on it
        assert sp3_stream[0] == (
            "f9f6c103abd2e5d651bb124aa19bb27e6b36351de06ae0f03ffd6f434e7ff56a"
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_stacks_are_index_blocks(self, n):
        stacks = list(enumerate_sp(n))
        assert [s.shape for s in stacks] == [(sp_order(n), 2 * n)]
        assert stacks[0].dtype == np.int64
        assert stacks[0].tolist() == [list(symplectic_from_index(i, n).rows)
                                      for i in range(sp_order(n))]

    def test_from_index_roundtrip_n2(self):
        mats = list(sp_elements(2))
        for idx in (0, 1, 17, 333, 719):
            assert symplectic_from_index(idx, 2).rows == mats[idx].rows

    def test_from_index_range_check(self):
        with pytest.raises(ValueError):
            symplectic_from_index(sp_order(2), 2)

    @pytest.mark.slow
    def test_n3_stream_is_complete(self, sp3_stream):
        # the stream must hit every group element exactly once, in stacks
        # of SP_ENUM_BLOCK consecutive indices
        _, sizes, keys = sp3_stream
        full, rest = divmod(sp_order(3), f2lin.SP_ENUM_BLOCK)
        assert sizes == [f2lin.SP_ENUM_BLOCK] * full + [rest] * (rest > 0)
        assert len(keys) == sp_order(3)
        assert (np.diff(np.sort(keys)) != 0).all()


class TestHistogram:
    def test_n1(self):
        assert fixed_dim_histogram(1) == (2, 3, 1)

    def test_totals(self):
        for n in (1, 2, 3):
            assert sum(fixed_dim_histogram(n)) == sp_order(n)

    def test_n2_against_direct_enumeration(self):
        counts = [0] * 5
        for m in sp_elements(2):
            counts[fixed_space_dim(m)] += 1
        assert tuple(counts) == fixed_dim_histogram(2)

    def test_n3_pinned(self):
        # the counts of fixed_space_dim swept over all of Sp(6, F2), which
        # is too slow for the suite
        assert fixed_dim_histogram(3) == (608768, 608832, 202944, 28980, 1932, 63, 1)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_totals_beyond_enumeration(self, n):
        hist = fixed_dim_histogram(n)
        assert sum(hist) == sp_order(n)
        assert hist[2 * n] == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_fresh_lagrange_numerators(self, n):
        assert fixed_dim_histogram(n) == histogram_lagrange_loop(n)


class TestOrbitCount:
    @pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
                                     (2, 0), (2, 1), (2, 2)])
    def test_against_union_find(self, n, m):
        assert sp_orbit_count(n, m) == tuple_orbit_count(n, m)

    def test_values(self):
        assert [sp_orbit_count(1, m) for m in range(5)] == [1, 2, 5, 15, 51]
        assert [sp_orbit_count(2, m) for m in range(5)] == [1, 2, 6, 29, 219]
        assert [sp_orbit_count(3, m) for m in range(5)] == [1, 2, 6, 30, 269]
        for n in (4, 5, 8):
            assert sp_orbit_count(n, 3) == 30
            assert sp_orbit_count(n, 4) == 270

    def test_burnside_against_enumeration_n2(self):
        hist = [0] * 5
        for F in sp_elements(2):
            hist[fixed_space_dim(F)] += 1
        for m in range(5):
            total = sum(c * 2 ** (m * k) for k, c in enumerate(hist))
            assert total == sp_order(2) * sp_orbit_count(2, m)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_fresh_form_sums(self, n):
        assert [sp_orbit_count(n, m) for m in range(2 * n + 3)] == [
            orbit_count_loop(n, m) for m in range(2 * n + 3)]

    def test_rejects_bad_arguments(self):
        with pytest.raises(DimensionError):
            sp_orbit_count(0, 2)
        with pytest.raises(ValueError):
            sp_orbit_count(2, -1)


class TestElimination:
    @staticmethod
    def greedy_kernel(cols, m):
        """Increasing scan of all 2^m vectors, kept when independent."""
        rows = f2lin._transpose(cols, m)
        basis, span = [], {0}
        for v in range(1, 1 << m):
            if f2lin._mat_vec(rows, v) == 0 and v not in span:
                basis.append(v)
                span |= {u ^ v for u in span}
        return basis

    def test_kernel_matches_greedy_scan(self, rng):
        for _ in range(300):
            m = int(rng.integers(1, 9))
            cols = [int(c) for c in rng.integers(0, 1 << m, size=m)]
            assert f2lin._kernel(cols, m) == self.greedy_kernel(cols, m)

    def test_inverse(self, rng):
        found = 0
        while found < 50:
            m = int(rng.integers(1, 9))
            rows = tuple(int(r) for r in rng.integers(0, 1 << m, size=m))
            if len(independent_rows(rows)) < m:
                with pytest.raises(ValueError):
                    f2lin._inverse(rows, m)
                continue
            found += 1
            inv = f2lin._inverse(rows, m)
            assert f2lin._mat_mul(inv, rows) == tuple(1 << i for i in range(m))
            assert f2lin._mat_mul(rows, inv) == tuple(1 << i for i in range(m))


class TestBitKernels:
    @pytest.mark.parametrize("k, m", [(0, 3), (1, 1), (2, 2), (4, 4), (6, 6), (10, 10),
                                      (16, 16), (3, 7), (9, 2), (5, 16)])
    def test_transpose_matches_loops(self, rng, k, m):
        for _ in range(40):
            vecs = [int(v) for v in rng.integers(0, 1 << m, size=k)]
            got = f2lin._transpose(vecs, m)
            assert got == tuple(cols_to_rows_loop(vecs, m))
            assert got == tuple(column_loop(vecs, j) for j in range(m))
            assert all(type(v) is int for v in got)
            assert f2lin._transpose(got, k) == tuple(vecs)

    @pytest.mark.parametrize("n", [1, 3, 5, 8])
    def test_matrix_transpose(self, rng, n):
        for _ in range(10):
            F = random_symplectic(n, rng)
            T = F.transpose()
            assert T.rows == tuple(column_loop(F.rows, j) for j in range(2 * n))
            assert T.transpose() == F
            assert is_symplectic(T)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_second_image_exhaustive(self, n):
        f1 = np.repeat(np.arange(1, 1 << (2 * n)), 1 << (2 * n - 1))
        b = np.tile(np.arange(1 << (2 * n - 1)), (1 << (2 * n)) - 1)
        want = [second_image_loop(x, y, n) for x, y in zip(f1.tolist(), b.tolist())]
        assert [f2lin._second_image(x, y) for x, y in zip(f1.tolist(), b.tolist())] == want
        assert f2lin._second_image(f1, b, f2lin._forms).tolist() == want
        assert all(f2lin._omega(x, g) == 1 for x, g in zip(f1.tolist(), want))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_second_image_sampled(self, rng, n):
        f1 = rng.integers(1, 1 << (2 * n), size=300)
        b = rng.integers(0, 1 << (2 * n - 1), size=300)
        want = [second_image_loop(x, y, n) for x, y in zip(f1.tolist(), b.tolist())]
        assert [f2lin._second_image(x, y) for x, y in zip(f1.tolist(), b.tolist())] == want
        assert f2lin._second_image(f1, b, f2lin._forms).tolist() == want


class TestBasisCompletion:
    """The one completion rule against the pool filtered each round."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_every_first_pair(self, m):
        for f1 in range(1, 1 << m):
            for b in range(1 << (m - 1)):
                pairs = [(f1, f2lin._second_image(f1, b))]
                assert f2lin._symplectic_basis(f2lin._omega, m, pairs) == (
                    symplectic_basis_filtered(f2lin._omega, m, pairs))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_singer_form_with_u_pool(self, monkeypatch, n):
        calls = []
        basis = f2lin._symplectic_basis

        def record(form, m, pairs=(), u_pool=None):
            cols = basis(form, m, pairs, u_pool)
            want = symplectic_basis_filtered(form, m, pairs, u_pool)
            calls.append((u_pool is not None, cols, want))
            return cols

        monkeypatch.setattr(f2lin, "_symplectic_basis", record)
        singer_symplectic.__wrapped__(n)
        assert len(calls) == 1
        pooled, cols, want = calls[0]
        assert pooled and cols == want

    @pytest.mark.parametrize("n", [33, 40])
    def test_random_first_pairs_past_32_qubits(self, rng, n):
        m = 2 * n
        for _ in range(10):
            f1 = 1 + int.from_bytes(rng.bytes(n)) % (4**n - 1)
            b = int.from_bytes(rng.bytes(n)) % 2 ** (m - 1)
            pairs = [(f1, f2lin._second_image(f1, b))]
            assert f2lin._symplectic_basis(f2lin._omega, m, pairs) == (
                symplectic_basis_filtered(f2lin._omega, m, pairs))


class TestRandomSymplectic:
    def test_always_symplectic(self, rng):
        for n in (1, 2, 3, 4):
            assert is_symplectic(random_symplectic(n, rng))

    @pytest.mark.parametrize("n", [33, 34, 40])
    def test_symplectic_past_32_qubits(self, rng, n):
        F = random_symplectic(n, rng)
        assert is_symplectic(F)
        a, b = (int.from_bytes(rng.bytes(n)) % 4**n for _ in range(2))
        assert symplectic_form(F.apply(a), F.apply(b), n) == symplectic_form(a, b, n)

    def test_draws_pinned(self):
        rng = np.random.default_rng(7)
        assert rows_digest(random_symplectic(5, rng) for _ in range(200)) == (
            "628b884cefa0afa4d77135f579a45634dc931fede1faf3e247c41e2a7e044ff4"
        )

    def test_deterministic_replay(self):
        a = random_symplectic(3, np.random.default_rng(5))
        b = random_symplectic(3, np.random.default_rng(5))
        assert a.rows == b.rows

    def test_uniform_chi_square_n1(self):
        from scipy.stats import chi2

        draws = 60000
        rng = np.random.default_rng(99)
        counts = {m.rows: 0 for m in sp_elements(1)}
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


def rand_below_oracle(rng, bound):
    """One rng.integers call per attempt, 32-bit words high first."""
    nbits = bound.bit_length()
    nwords = (nbits + 31) // 32
    while True:
        x = 0
        for w in rng.integers(0, 1 << 32, size=nwords, dtype=np.uint64):
            x = (x << 32) | int(w)
        x >>= nwords * 32 - nbits
        if x < bound:
            return x


class TestStackSampler:
    @pytest.mark.parametrize("n", [1, 2])
    def test_decode_exhaustive(self, n):
        got = f2lin._rows_from_indices(list(range(sp_order(n))), n)
        want = [symplectic_from_index(i, n).rows for i in range(sp_order(n))]
        assert got.dtype == np.int64 and got.tolist() == [list(r) for r in want]

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_decode_random(self, n):
        rng = np.random.default_rng(50 + n)
        top = sp_order(n) - 1
        idx = [0, top] + [rand_below_oracle(rng, top + 1) for _ in range(100 if n < 6 else 30)]
        got = f2lin._rows_from_indices(idx, n)
        assert got.tolist() == [list(symplectic_from_index(i, n).rows) for i in idx]

    def test_decode_empty(self):
        assert f2lin._rows_from_indices([], 3).shape == (0, 6)

    @pytest.mark.parametrize("bounds", [
        [5] * 40,
        [2**32 + 1] * 20,
        [4, 16, 64, 256, 1 << 16] * 10,
        [sp_order(3), 1 << 6] * 50,
        [sp_order(7), 1 << 14] * 20,
        [1, 2, 3, 2**64, 7, 2**32],
    ])
    def test_rand_below_many_equals_sequential(self, bounds):
        # same values and the same generator state as one call per bound
        rngs = [np.random.default_rng(8) for _ in range(3)]
        got = f2lin._rand_below_many(rngs[0], bounds)
        assert got == [f2lin._rand_below(rngs[1], b) for b in bounds]
        assert got == [rand_below_oracle(rngs[2], b) for b in bounds]
        assert len({int(r.integers(1 << 62)) for r in rngs}) == 1

    def test_rand_below_many_draws_in_few_calls(self):
        # one call draws every word the bounds need when nothing is
        # rejected (these bounds reject with probability 2^-31)
        calls = []

        class Recorder:
            def integers(self, *args, **kwargs):
                calls.append(kwargs["size"])
                return rng.integers(*args, **kwargs)

        rng = np.random.default_rng(3)
        f2lin._rand_below_many(Recorder(), [(1 << 31) - 1] * 30 + [(1 << 63) - 1])
        assert calls == [32]


class TestIsotropic:
    @pytest.mark.parametrize("n,count", [(1, 3), (2, 15), (3, 135), (4, 2295)])
    def test_counts(self, n, count):
        subs = maximal_isotropic_subspaces(n)
        assert len(subs) == count
        expected = 1
        for i in range(1, n + 1):
            expected *= 2**i + 1
        assert count == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_isotropy_invariant(self, n):
        for sub in maximal_isotropic_subspaces(n):
            assert sub.dim == n
            vecs = sub.vectors()
            assert len(set(vecs)) == 1 << n
            for a in sub.basis:
                for b in vecs:
                    assert symplectic_form(a, b, n) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_duplicates_and_canonical(self, n):
        subs = maximal_isotropic_subspaces(n)
        assert len({frozenset(s.vectors()) for s in subs}) == len(subs)
        assert [s.basis for s in subs] == sorted(s.basis for s in subs)
        for s in subs:
            # reduced echelon: descending pivots, each set in its row only
            pivots = [b.bit_length() - 1 for b in s.basis]
            assert pivots == sorted(pivots, reverse=True)
            for h in pivots:
                assert sum((c >> h) & 1 for c in s.basis) == 1

    def test_capacity(self):
        with pytest.raises(CapacityError):
            maximal_isotropic_subspaces(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_depth_first_growth(self, n):
        # element by element and in order, against the recursive search
        assert maximal_isotropic_subspaces(n) == isotropic_grow(n)


class TestSerialization:
    def test_golden_roundtrip(self):
        F = F2Matrix((0b1011, 0b0010, 0b1111, 0b0001), 2)
        text = matrix_to_hex(F)
        assert text == "b\n2\nf\n1"
        assert matrix_from_hex(text, 2).rows == F.rows

    def test_enumerated_roundtrip(self):
        for m in list(sp_elements(2))[::97]:
            assert matrix_from_hex(matrix_to_hex(m), 2).rows == m.rows
