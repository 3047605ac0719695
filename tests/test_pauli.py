import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns import pauli
from cliffdesigns.f2lin import DimensionError, symplectic_form
from cliffdesigns.pauli import (
    NormalizationError,
    PauliLabel,
    _ell4_rows,
    _pauli_parts,
    _signed_perm,
    _signed_perms,
    alpha_plus,
    alpha_plus_batch,
    characteristic_function,
    ell4_norm4,
    label_join,
    label_split,
    pauli_matrix,
)
from conftest import random_state
from reference import (
    characteristic_full_length,
    ell4_rows_full_length,
    label_split_loop,
    pauli_product,
    product_phase_loop,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_pauli(p):
    """Oracle: i^j W_a as a Kronecker product of single-qubit i^{zx} X^x Z^z."""
    sigma = {(0, 0): np.eye(2, dtype=complex), (0, 1): SX, (1, 0): SZ, (1, 1): SY}
    out = np.array([[1.0 + 0j]])
    for i in range(p.n):
        out = np.kron(out, sigma[(p.a >> (2 * i)) & 1, (p.a >> (2 * i + 1)) & 1])
    return (1j**p.phase_exp) * out


def signed_perm_phase(a: int, b: int, n: int) -> int:
    """i-power phi with W_a W_b = i^phi W_{a^b}, read off the package's
    signed permutations at e_0: W_b e_0 = c_b e_{x_b} and W_a e_{x_b} =
    c_a (-1)^{|z_a & x_b|} e_{x_a ^ x_b}, against W_{a^b} e_0 = c_ab e_{x_a ^ x_b}."""
    _, za, ca = _pauli_parts(n, a)
    xb, _, cb = _pauli_parts(n, b)
    cab = _pauli_parts(n, a ^ b)[2]
    return [1, 1j, -1, -1j].index(ca * cb * (-1) ** (za & xb).bit_count() * cab.conjugate())


class TestMatrices:
    def test_identity(self):
        assert np.array_equal(pauli_matrix(PauliLabel(1, 0)), np.eye(2))

    def test_single_qubit_y(self):
        # label (1,1) on one qubit
        assert np.array_equal(pauli_matrix(PauliLabel(1, 0b11)), SY)

    def test_two_qubit_kron_order(self):
        # qubit 1 = leftmost factor; bits (z1 x1 z2 x2) = (0,1,1,0) is X (x) Z
        label = 0b0010 | 0b0100  # z1=0 x1=1, z2=1 x2=0
        assert np.allclose(pauli_matrix(PauliLabel(2, label)), np.kron(SX, SZ))

    def test_hermitian_and_involutive(self, rng):
        for n in (1, 2, 3):
            a = int(rng.integers(4**n))
            w = pauli_matrix(PauliLabel(n, a))
            assert np.allclose(w, w.conj().T)
            assert np.allclose(w @ w, np.eye(2**n))

    def test_phase_exponent(self):
        w = pauli_matrix(PauliLabel(1, 0b01, 3))
        assert np.allclose(w, (1j**3) * SZ)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_kronecker_build(self, n):
        for a in range(4**n):
            for j in range(4):
                p = PauliLabel(n, a, j)
                assert np.array_equal(pauli_matrix(p), kron_pauli(p)), (a, j)


class TestProduct:
    def test_exhaustive_n1_against_dense(self):
        for a in range(4):
            for b in range(4):
                for ja in range(4):
                    p = PauliLabel(1, a, ja)
                    q = PauliLabel(1, b)
                    got = pauli_matrix(pauli_product(p, q))
                    want = pauli_matrix(p) @ pauli_matrix(q)
                    assert np.allclose(got, want, atol=1e-14)

    def test_inverse(self):
        for a in range(16):
            p = PauliLabel(2, a, 1)
            prod = pauli_product(p, p.inverse())
            assert prod.a == 0 and prod.phase_exp == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_associativity(self, n, data):
        labels = st.integers(0, 4**n - 1)
        phases = st.integers(0, 3)
        p = PauliLabel(n, data.draw(labels), data.draw(phases))
        q = PauliLabel(n, data.draw(labels), data.draw(phases))
        r = PauliLabel(n, data.draw(labels), data.draw(phases))
        assert pauli_product(pauli_product(p, q), r) == pauli_product(p, pauli_product(q, r))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_commutation_sign(self, n, data):
        labels = st.integers(0, 4**n - 1)
        p = PauliLabel(n, data.draw(labels))
        q = PauliLabel(n, data.draw(labels))
        pq = pauli_product(p, q)
        qp = pauli_product(q, p)
        delta = (pq.phase_exp - qp.phase_exp) % 4
        assert delta == 2 * symplectic_form(p.a, q.a, n) % 4

    @pytest.mark.parametrize("q", [36, 70])
    def test_commutation_past_32_qubits(self, q):
        # Z and X on qubit q, and random labels, against the exact product phases
        rng = np.random.default_rng(q)
        pairs = [(1 << (2 * q - 2), 1 << (2 * q - 1))]
        pairs += [tuple(int.from_bytes(rng.bytes(q)) % 4**q for _ in range(2)) for _ in range(200)]
        for a, b in pairs:
            p, r = PauliLabel(q, a), PauliLabel(q, b)
            delta = (pauli_product(p, r).phase_exp - pauli_product(r, p).phase_exp) % 4
            assert delta == 2 * symplectic_form(a, b, q)

    def test_exhaustive_commutation_n1(self):
        for a in range(4):
            for b in range(4):
                wa, wb = pauli_matrix(PauliLabel(1, a)), pauli_matrix(PauliLabel(1, b))
                sign = (-1) ** symplectic_form(a, b, 1)
                assert np.allclose(wa @ wb, sign * wb @ wa)


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phase_exhaustive_against_loop(self, n):
        for a in range(4**n):
            for b in range(4**n):
                assert signed_perm_phase(a, b, n) == product_phase_loop(a, b, n)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 40])
    def test_phase_sampled_against_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            a, b = (int.from_bytes(rng.bytes(n)) % 4**n for _ in range(2))
            assert signed_perm_phase(a, b, n) == product_phase_loop(a, b, n)


class TestLabelSplit:
    def test_roundtrip(self):
        for n in (1, 2, 3):
            for a in range(4**n):
                z, x = label_split(a, n)
                assert label_join(z, x, n) == a

    def test_array_split_is_elementwise(self):
        labels = np.arange(4**3).reshape(8, 8)
        z, x = label_split(labels, 3)
        assert [(int(p), int(q)) for p, q in zip(z.ravel(), x.ravel())] == [
            label_split(a, 3) for a in range(4**3)]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_equals_bit_loop(self, n):
        # Python ints of any width, bits past 2n included, and int64 arrays
        rng = np.random.default_rng(n)
        ints = [0, 4**n - 1, 4**n + 0x5A5, int(rng.integers(1 << 62)) << n]
        for a in ints:
            got = label_split(a, n)
            assert got == label_split_loop(a, n)
            assert all(type(m) is int for m in got)
        arr = rng.integers(0, min(4**n, 1 << 62), size=(3, 4))
        arr[0, 0] = np.iinfo(np.int64).max
        for got, want in zip(label_split(arr, n), label_split_loop(arr, n)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


class TestSignedPerms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_equals_single_labels(self, n):
        # every (x, v) of a stack is bit for bit the single-label one
        a = np.arange(4**n).reshape(4, -1)
        j = (a * 7 + 1) % 4
        x, v = _signed_perms(n, a, j)
        assert x.shape == a.shape and v.shape == a.shape + (1 << n,)
        for idx in np.ndindex(a.shape):
            x1, v1 = _signed_perm(PauliLabel(n, int(a[idx]), int(j[idx])))
            assert x[idx] == x1 and v[idx].tobytes() == v1.tobytes()


class TestCachedTables:
    @pytest.mark.parametrize("table", [
        lambda: [pauli._hadamard(3)],
        lambda: list(pauli._parity_signs(3)),
        lambda: list(pauli._kernel_tables(3, 64)),
        lambda: list(pauli._label_table(3)),
        lambda: [pauli._split_table()[1]],
    ], ids=["hadamard", "parity_signs", "kernel_tables", "label_table", "split_table"])
    def test_writing_raises(self, table):
        # every caller shares the cached arrays, so none may write into them
        for a in table():
            before = a.copy()
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 7
            assert (a == before).all()


class TestCharacteristicFunction:
    def test_matches_dense_oracle(self, rng):
        for n in (1, 2, 3):
            psi = random_state(2**n, rng)
            xi = characteristic_function(psi)
            for a in range(4**n):
                want = (psi.conj() @ pauli_matrix(PauliLabel(n, a)) @ psi).real
                assert abs(xi.value(a) - want) < 1e-12

    def test_identity_entry_is_one(self, rng):
        for n in (1, 4):
            xi = characteristic_function(random_state(2**n, rng))
            assert abs(xi.value(0) - 1.0) < 1e-12

    def test_l2_norm_squared_is_d(self, rng):
        for n in (1, 2, 3, 5):
            xi = characteristic_function(random_state(2**n, rng))
            assert abs(np.sum(xi.values**2) - 2**n) < 1e-10

    def test_computational_state_pattern(self):
        for n in (1, 2, 3):
            d = 2**n
            e0 = np.zeros(d, dtype=complex)
            e0[0] = 1.0
            xi = characteristic_function(e0)
            # +1 exactly on the all-z labels (no x bits), 0 elsewhere
            for a in range(d * d):
                want = 1.0 if a & 0xAAAAAAAA == 0 else 0.0
                assert xi.value(a) == pytest.approx(want, abs=1e-14)
            assert ell4_norm4(xi) == d

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            characteristic_function(np.array([1.0, 1.0], dtype=complex))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_ell4_bounds(self, n, seed):
        d = 2**n
        psi = random_state(d, np.random.default_rng(seed))
        val = ell4_norm4(characteristic_function(psi))
        assert 2 * d / (d + 1) - 1e-9 <= val <= d + 1e-9

    def test_batch_matches_single(self, rng):
        for n in (1, 3):
            psis = np.array([random_state(2**n, rng) for _ in range(9)])
            got = alpha_plus_batch(psis)
            want = np.array([alpha_plus(p) for p in psis])
            assert np.allclose(got, want, atol=1e-13)

    def test_matches_dense_oracle_past_one_block(self, rng):
        # d = 64 and 128 split the Hadamard transform as H_{d/32} (x) H_32
        for n in (6, 7):
            psi = random_state(2**n, rng)
            xi = characteristic_function(psi)
            for a in rng.integers(4**n, size=60):
                want = (psi.conj() @ pauli_matrix(PauliLabel(n, int(a))) @ psi).real
                assert abs(xi.value(int(a)) - want) < 1e-12

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_full_length_oracle(self, n):
        # n = 7 is the first half-length transform split as H_{L/32} (x) H_32;
        # a state fills one chunk at n = 8 and spans four at n = 9
        rng = np.random.default_rng(100 + n)
        d = 2**n
        psis = np.array([random_state(d, rng) for _ in range(3)])
        assert np.abs(_ell4_rows(psis) - ell4_rows_full_length(psis)).max() <= 1e-13 * d
        for psi in psis[:2]:
            got = characteristic_function(psi).values
            assert np.abs(got - characteristic_full_length(psi)).max() <= 1e-13 * d

    def test_purity_identity_is_checked(self, rng, monkeypatch):
        psi = random_state(4, rng)
        monkeypatch.setattr(pauli, "PURITY_RTOL", -1.0)
        with pytest.raises(AssertionError, match="purity"):
            characteristic_function(psi)
        with pytest.raises(AssertionError, match="purity"):
            alpha_plus_batch(psi[None, :])

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_corrupted_transform_is_caught(self, n, rng, monkeypatch):
        # one sign of the Walsh-Hadamard matrix flipped breaks the purity identity
        hadamard = pauli._hadamard

        def corrupted(k):
            h = hadamard(k).copy()
            h[-1, -1] *= -1
            return h

        monkeypatch.setattr(pauli, "_hadamard", corrupted)
        psi = random_state(2**n, rng)
        with pytest.raises(AssertionError, match="purity"):
            characteristic_function(psi)
        with pytest.raises(AssertionError, match="purity"):
            alpha_plus(psi)


class TestBatch:
    def test_rejects_unnormalized_row(self, rng):
        with pytest.raises(NormalizationError):
            alpha_plus_batch(np.array([[2, 0]]))
        psis = np.array([random_state(4, rng) for _ in range(3)])
        psis[1] *= 1.5
        with pytest.raises(NormalizationError, match="row 1"):
            alpha_plus_batch(psis)

    def test_rejects_zero_qubits(self):
        with pytest.raises(DimensionError):
            alpha_plus(np.array([1.0 + 0j]))
        with pytest.raises(DimensionError):
            characteristic_function(np.array([1.0 + 0j]))

    def test_rejects_nan(self):
        with pytest.raises(NormalizationError):
            alpha_plus(np.array([np.nan, 0.0]))

    def test_batch_of_one_is_alpha_plus(self, rng):
        for n in (1, 5, 9):
            psi = random_state(2**n, rng)
            assert alpha_plus_batch(psi[None, :])[0] == alpha_plus(psi)

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_rows_independent_of_batch(self, n):
        # 5 000 states span several kernel chunks at both sizes
        rng = np.random.default_rng(n)
        psis = np.array([random_state(2**n, rng) for _ in range(5000)])
        big = alpha_plus_batch(psis)
        seven = np.concatenate([alpha_plus_batch(psis[i : i + 7]) for i in range(0, 21, 7)])
        ones = np.array([alpha_plus_batch(p[None, :])[0] for p in psis[:21]])
        assert np.array_equal(big[:21], seven)
        assert np.array_equal(seven, ones)
        assert np.array_equal(alpha_plus_batch(psis[3:]), big[3:])
        # the gather tables are sized to the batch: d rows for one state, up
        # to the 2^16 / d rows of a full chunk at 2^16 / d^2 states
        d = 1 << n
        for size in (1, 2, 9, (1 << 16) // d**2, (1 << 16) // d**2 + 1):
            assert np.array_equal(alpha_plus_batch(psis[-size:]), big[-size:])

    def test_rows_independent_within_a_state(self, rng):
        # d = 512 splits each state over several chunks
        psis = np.array([random_state(512, rng) for _ in range(3)])
        assert np.array_equal(alpha_plus_batch(psis)[1:], alpha_plus_batch(psis[1:]))
