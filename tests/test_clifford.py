import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns import clifford, f2lin
from cliffdesigns.clifford import (
    CliffordElement,
    NotCliffordError,
    _act_words,
    _factor_table,
    _lift_dense,
    _lift_product,
    _midpoint,
    _sample_words,
    _stabilizer_count,
    _transvection_words,
    _x_images,
    clifford_trace_check,
    extract_action,
    lift_symplectic,
    projective_clifford_unitaries,
    random_clifford,
)
from cliffdesigns.f2lin import F2Matrix, fixed_space_dim, symplectic_form
from cliffdesigns.fiducial import psi_t, singer_eigenstates, singer_symplectic
from cliffdesigns.pauli import NormalizationError, PauliLabel, pauli_matrix
from conftest import random_state
import reference
from reference import (lift_words_dense, midpoint_search, projective_group_repeat, projective_orbit,
                       projective_orbit_loop, random_clifford_unitaries, singer_unitary,
                       sp_elements, transvection_decomposition, transvection_matrix)

E0 = np.array([1, 0], dtype=complex)
# the Hadamard with the i-power prefactor (1 + i)/2, the phase gate and the CNOT
# with control qubit 0 (the leftmost factor)
H = (0.5 + 0.5j) * np.array([[1, 1], [1, -1]], dtype=complex)
S = np.diag([1, -1j])
CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def word_stack(F: F2Matrix):
    """transvection_decomposition(F) as a stack of one word, its length and its X images."""
    word = transvection_decomposition(F)
    return (np.array([word], dtype=np.int64).reshape(1, -1), np.array([len(word)]),
            _x_images(f2lin._transpose_stack(np.array([F.rows]), 2 * F.n)))


def qubit_swap(n: int) -> F2Matrix:
    """The symplectic of the swap of qubits 0 and n - 1."""
    swap = {0: n - 1, n - 1: 0}
    return F2Matrix(tuple(1 << (2 * swap.get(i // 2, i // 2) + i % 2) for i in range(2 * n)), n)


class TestExtractAction:
    def test_identity(self):
        F, signs = extract_action(np.eye(4, dtype=complex))
        assert F.rows == F2Matrix.identity(2).rows
        assert signs == (0, 0, 0, 0)

    def test_hadamard_swaps_z_and_x(self):
        F, _ = extract_action(H)
        assert F.rows == (0b10, 0b01)

    def test_pauli_conjugation_signs(self):
        for n in (1, 2):
            for b in range(4**n):
                F, signs = extract_action(pauli_matrix(PauliLabel(n, b)))
                assert F.rows == F2Matrix.identity(n).rows
                assert signs == tuple(symplectic_form(b, 1 << k, n) for k in range(2 * n))

    def test_non_clifford_rejected(self, rng):
        t = np.diag([1.0, np.exp(0.25j * np.pi)])  # pi/8-type gate
        with pytest.raises(NotCliffordError):
            extract_action(t)

    @pytest.mark.parametrize("shape", [(0, 0), (4,), (2, 4), (3, 3)])
    def test_rejects_wrong_shape(self, shape):
        # the qubit count is read off the matrix, which must be 2^n x 2^n
        with pytest.raises(f2lin.DimensionError):
            extract_action(np.zeros(shape, dtype=complex))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_action_is_homomorphism(self, seed, n):
        rng = np.random.default_rng(seed)
        u = random_clifford(n, rng)
        v = random_clifford(n, rng)
        Fuv, _ = extract_action(u.matrix @ v.matrix)
        assert Fuv.rows == (u.symplectic @ v.symplectic).rows

    def test_cnot_action_matrix(self):
        # X on the control grows an X on the target; Z on the target grows
        # a Z on the control
        F, signs = extract_action(CX)
        assert F.rows == (0b0101, 0b0010, 0b0100, 0b1010)
        assert signs == (0, 0, 0, 0)

    def test_hadamard_sign_on_y(self):
        assert extract_action(H)[0].apply(0b11) == 0b11
        y = pauli_matrix(PauliLabel(1, 0b11))
        assert np.allclose(H @ y @ H.conj().T, -y)  # H flips the sign of the (1,1) Pauli

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_sign_map_matches_dense_conjugation(self, seed, n):
        # the extracted signs f(e_k) of the basis labels
        rng = np.random.default_rng(seed)
        u = random_clifford(n, rng)
        F, signs = extract_action(u.matrix)
        for k in range(2 * n):
            lhs = u.matrix @ pauli_matrix(PauliLabel(n, 1 << k)) @ u.matrix.conj().T
            rhs = (-1.0) ** signs[k] * pauli_matrix(PauliLabel(n, F.apply(1 << k)))
            assert np.allclose(lhs, rhs, atol=1e-10)


class TestLift:
    @pytest.mark.parametrize("n", [1, 2])
    def test_roundtrip_exhaustive(self, n):
        for F in sp_elements(n):
            u = lift_symplectic(F)
            got, _ = extract_action(u.matrix)
            assert got.rows == F.rows
            assert np.allclose(
                u.matrix @ u.matrix.conj().T, np.eye(1 << n), atol=1e-10
            )

    def test_roundtrip_random_n3_n4(self, rng):
        for n in (3, 4):
            for _ in range(25):
                F = f2lin.random_symplectic(n, rng)
                got, _ = extract_action(lift_symplectic(F).matrix)
                assert got.rows == F.rows

    def test_lift_carries_its_symplectic(self, rng, monkeypatch):
        def no_extraction(U):
            raise AssertionError("extract_action called")

        monkeypatch.setattr(clifford, "extract_action", no_extraction)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                F = f2lin.random_symplectic(n, rng)
                u = lift_symplectic(F)
                assert u.symplectic.rows == F.rows
                assert clifford_trace_check(u).passed
        for n in (1, 2, 4):
            assert singer_unitary(n).symplectic == singer_symplectic(n)

    def test_zero_qubit_lift(self):
        assert lift_symplectic(F2Matrix((), 0)).matrix.tolist() == [[1]]

    def test_identity_gives_empty_decomposition(self):
        assert transvection_decomposition(F2Matrix.identity(3)) == []

    def test_single_transvection_lift(self):
        for a in (0b01, 0b10, 0b11):
            t = transvection_matrix(a, 1)
            q = (np.eye(2) + 1j * pauli_matrix(PauliLabel(1, a))) / np.sqrt(2)
            for b in range(1, 4):
                w = pauli_matrix(PauliLabel(1, b))
                img = q @ w @ q.conj().T
                target = pauli_matrix(PauliLabel(1, t.apply(b)))
                assert np.allclose(img, target, atol=1e-12) or np.allclose(
                    img, -target, atol=1e-12
                )

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            lift_symplectic(F2Matrix((0b11, 0b11), 1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_batched_lift_equals_single_lifts(self, n):
        mats = list(sp_elements(n))
        cols = np.array([F.transpose().rows for F in mats])
        words, lengths = _transvection_words(cols, n)
        stack = _lift_dense(n, words, lengths, _x_images(cols))
        single = np.array([lift_symplectic(F).matrix for F in mats])
        assert stack.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    def test_stack_decomposition_exhaustive(self, n):
        mats = list(sp_elements(n))
        words, lengths = _transvection_words(np.array([F.transpose().rows for F in mats]), n)
        assert [w[:k].tolist() for w, k in zip(words, lengths)] == [
            transvection_decomposition(F) for F in mats]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stack_decomposition_random(self, n):
        rng = np.random.default_rng(70 + n)
        mats = [f2lin.random_symplectic(n, rng) for _ in range(60)]
        # swapping the first and last qubit needs midpoints with bits on
        # the last qubit
        swap = {0: n - 1, n - 1: 0}
        mats.append(F2Matrix(tuple(1 << (2 * swap.get(i // 2, i // 2) + i % 2)
                                   for i in range(2 * n)), n))
        mats.append(F2Matrix.identity(n))
        words, lengths = _transvection_words(np.array([F.transpose().rows for F in mats]), n)
        assert [w[:k].tolist() for w, k in zip(words, lengths)] == [
            transvection_decomposition(F) for F in mats]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_midpoint_formula_equals_search(self, n):
        cases = [(c, j, midpoint_search(c, j, n))
                 for c in range(1 << (2 * n)) for j in range(2 * n)]
        cases = [case for case in cases if case[2] is not None]
        c, j, w = (np.array(col, dtype=np.int64) for col in zip(*cases))
        assert [_midpoint(*case[:2]) for case in cases] == w.tolist()
        assert _midpoint(c, j, f2lin._forms).tolist() == w.tolist()

    @pytest.mark.parametrize("n", [12, 20, 31, 33, 40])
    def test_qubit_swap_decomposition_any_n(self, n):
        # the first column's midpoint sets bit 2n - 1, so a search over
        # candidates in increasing order would test about 2^(2n-1) of them
        F = qubit_swap(n)
        word = transvection_decomposition(F)
        product = F2Matrix.identity(n)
        for v in word:
            product = product @ transvection_matrix(v, n)
        assert product == F
        if n <= 31:  # the stack path holds the 2n coordinates in an int64
            words, lengths = _transvection_words(np.array([F.transpose().rows]), n)
            assert words[0, :lengths[0]].tolist() == word

    def test_stack_decomposition_rejects_non_symplectic(self):
        cols = np.array([[1, 2], [0b11, 0b11]])
        with pytest.raises(ValueError):
            _transvection_words(cols, 1)

    def test_lift_of_empty_stack(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        assert _act_words(2, empty, none, np.eye(4), none).shape == (0, 4, 4)
        assert _lift_dense(2, empty, none, np.zeros((0, 2), dtype=np.int64), none).shape == (0, 4, 4)

    @pytest.mark.parametrize("n", [1, 2])
    def test_entries_are_gaussian_rationals(self, n):
        # dyadic denominators: some 2^k clears all entries to Z[i]
        for F in sp_elements(n):
            u = lift_symplectic(F).matrix
            ok = False
            for k in range(0, 13):
                scaled = u * (2**k)
                if np.allclose(scaled, np.round(scaled.real) + 1j * np.round(scaled.imag),
                               atol=1e-8):
                    ok = True
                    break
            assert ok


class TestWordAction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_action_equals_matrix_steps(self, n):
        # random labelled words, each sample's image of psi against the
        # matrix-step lift of its word
        rng = np.random.default_rng(80 + n)
        _, words, lengths, labels = _sample_words(n, rng, 40 if n < 5 else 8)
        psi = random_state(1 << n, rng)
        got = _act_words(n, words, lengths, psi[None, :], labels)[:, 0]
        want = lift_words_dense(n, words, lengths, labels) @ psi
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_stack_equals_single_words(self, n):
        rng = np.random.default_rng(90 + n)
        _, words, lengths, labels = _sample_words(n, rng, 30)
        states = np.stack([random_state(1 << n, rng) for _ in range(2)])
        stack = _act_words(n, words, lengths, states, labels)
        for s in range(len(lengths)):
            one = _act_words(n, words[s:s + 1, :lengths[s]], lengths[s:s + 1], states,
                             labels[s:s + 1])
            assert np.array_equal(one[0].view(float), stack[s].view(float))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_word_order_pinned(self, n):
        # the cycler action has order d + 1 > 2, so F != F^-1: a word read
        # in the wrong order would lift F^-1, which a sum over the whole
        # group could not tell apart
        F = singer_symplectic(n)
        assert F @ F != F2Matrix.identity(n)
        words, lengths, images = word_stack(F)
        U = lift_symplectic(F)
        assert extract_action(U.matrix)[0] == F
        reversed_word = lift_words_dense(n, words[:, ::-1], lengths)[0]
        assert extract_action(reversed_word)[0] != F
        psi = random_state(1 << n, np.random.default_rng(n))
        assert np.abs(_act_words(n, words, lengths, psi[None, :])[0, 0] - U.matrix @ psi).max() <= 1e-14
        # the columns of U are the word's images of the basis states, exactly
        basis = _act_words(n, words, lengths, np.eye(1 << n))[0]
        assert np.array_equal(basis.T, U.matrix)

    def test_pinned_lift_entries(self):
        # U e_0 of the n = 2 cycler lift, as recorded; the matrix-step
        # lift of the same word gives it too
        U = lift_symplectic(singer_symplectic(2)).matrix
        assert np.array_equal(2 * U[:, 0], [1j, -1, -1j, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_dense_lift_equals_matrix_steps(self, n):
        rng = np.random.default_rng(100 + n)
        cols, words, lengths, labels = _sample_words(n, rng, 20 if n < 6 else 3)
        got = _lift_dense(n, words, lengths, _x_images(cols), labels)
        assert np.abs(got - lift_words_dense(n, words, lengths, labels)).max() <= 1e-14

    def test_singer_lift_n8_equals_matrix_steps(self):
        F = singer_symplectic(8)
        words, lengths, _ = word_stack(F)
        want = lift_words_dense(8, words, lengths)[0]
        assert np.abs(lift_symplectic(F).matrix - want).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_lift_recovers_symplectic(self, n):
        rng = np.random.default_rng(110 + n)
        mats = [f2lin.random_symplectic(n, rng) for _ in range(12 if n < 5 else 2)]
        mats += [singer_symplectic(n), qubit_swap(n)]
        for F in mats:
            assert extract_action(lift_symplectic(F).matrix)[0] == F

    def test_wrong_images_raise(self):
        # the X images of the identity do not map U e_0 to U e_{2^b}
        words, lengths, _ = word_stack(singer_symplectic(2))
        _, _, images = word_stack(F2Matrix.identity(2))
        with pytest.raises(AssertionError, match="signed Pauli"):
            _lift_dense(2, words, lengths, images)


def column_lift(n: int, word: list[int], label: int, images: np.ndarray) -> np.ndarray:
    """The lift of one labelled word from n + 1 columns (_lift_dense)."""
    return _lift_dense(n, np.array(word, dtype=np.int64)[None, :], np.array([len(word)]),
                       images[None], [label])[0]


class TestProductLift:
    @pytest.mark.parametrize("n", [1, 2])
    def test_factor_table_is_one_plus_i_pauli(self, n):
        table = _factor_table(n)
        want = [np.eye(1 << n) + 1j * pauli_matrix(PauliLabel(n, v)) for v in range(4**n)]
        assert np.array_equal(table, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_factor_table_read_only_within_bound(self, n):
        # the bound admits the tables of n <= 3; n = 4 (1 MiB) lifts columns
        table = _factor_table(n)
        assert table.shape == (4**n, 1 << n, 1 << n)
        assert (table.nbytes <= clifford.LIFT_TABLE_BYTES) == (n <= 3)
        with pytest.raises(ValueError):
            table[1, 0, 0] = 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_column_lift_exhaustive(self, n):
        # every element of Sp(2n, F2), each with a label and with none
        for i, F in enumerate(sp_elements(n)):
            cols = F.transpose().rows
            word, images = transvection_decomposition(F), _x_images(cols)
            for label in (0, i % 4**n):
                got = _lift_product(n, word, label, images)
                want = column_lift(n, word, label, images)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_column_lift_random(self, n):
        rng = np.random.default_rng(120 + n)
        cols, words, lengths, labels = _sample_words(n, rng, 300)
        for c, word, length, label in zip(cols, words, lengths, labels):
            word, images = word[:length].tolist(), _x_images(c)
            got = _lift_product(n, word, int(label), images)
            want = column_lift(n, word, int(label), images)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    def test_wrong_images_raise(self):
        # the X images of the identity do not map U e_0 to U e_{2^b}
        word = transvection_decomposition(singer_symplectic(2))
        images = _x_images(F2Matrix.identity(2).transpose().rows)
        with pytest.raises(AssertionError, match="signed Pauli"):
            _lift_product(2, word, 0, images)

    def test_path_follows_the_table_bound(self, monkeypatch):
        # n <= 3 lifts multiply factors and never lift columns; n = 4,
        # whose table would take 1 MiB, lifts columns and builds no table
        rng = np.random.default_rng(7)
        F3, F4 = f2lin.random_symplectic(3, rng), f2lin.random_symplectic(4, rng)
        want4 = lift_symplectic(F4).matrix

        def refuse(*args):
            raise AssertionError("wrong lift path")

        monkeypatch.setattr(clifford, "_lift_dense", refuse)
        assert extract_action(lift_symplectic(F3).matrix)[0] == F3
        assert random_clifford(3, rng).matrix.shape == (8, 8)
        monkeypatch.undo()
        monkeypatch.setattr(clifford, "_factor_table", refuse)
        assert 16 << 4 * 4 > clifford.LIFT_TABLE_BYTES
        assert np.array_equal(lift_symplectic(F4).matrix, want4)
        assert random_clifford(4, rng).matrix.shape == (16, 16)


class TestRandomClifford:
    def test_normalizer_invariant(self, rng):
        for n in (1, 2, 3):
            u = random_clifford(n, rng)
            F, _ = extract_action(u.matrix)  # extraction itself asserts the +-Pauli images
            assert f2lin.is_symplectic(F)

    def test_reproducible(self):
        a = random_clifford(2, np.random.default_rng(11))
        b = random_clifford(2, np.random.default_rng(11))
        assert np.allclose(a.matrix, b.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_carried_symplectic_is_the_extracted_one(self, n, monkeypatch):
        rng = np.random.default_rng(60 + n)
        draws = [random_clifford(n, rng) for _ in range(40 if n < 5 else 10)]
        extracted = [extract_action(u.matrix)[0] for u in draws]

        def no_extraction(u):
            raise AssertionError("extracted a carried symplectic")

        # .symplectic and the trace check read the carried F
        monkeypatch.setattr("cliffdesigns.clifford.extract_action", no_extraction)
        for u, F in zip(draws, extracted):
            assert u.symplectic == F
            assert clifford_trace_check(u).kernel_dim == fixed_space_dim(F)

    @pytest.mark.parametrize("n, count", [(1, 40), (2, 40), (3, 300), (4, 300), (5, 12)])
    def test_stack_equals_sequential_draws(self, n, count):
        # same generator state afterwards, and every entry bit for bit
        rng_a, rng_b = np.random.default_rng(41), np.random.default_rng(41)
        stack = random_clifford_unitaries(n, rng_a, count)
        seq = np.array([random_clifford(n, rng_b).matrix for _ in range(count)])
        assert stack.shape == (count, 1 << n, 1 << n)
        # byte for byte: the product lifts of n <= 4 and the column lifts
        # of a stack give every zero as +0.0
        assert stack.tobytes() == seq.tobytes()
        assert rng_a.integers(1 << 62) == rng_b.integers(1 << 62)

    def test_empty_stack_of_draws(self):
        assert random_clifford_unitaries(3, np.random.default_rng(1), 0).shape == (0, 8, 8)

    def test_f_marginal_uniform_n1(self):
        # random_clifford(1) draws an index below |Sp(2, F2)| = 6 and a label
        # below 4, then decodes the index; drawn and decoded as stacks, the
        # symplectics are the same as those of 60000 random_clifford calls
        from scipy.stats import chi2

        draws = 60000
        idx = f2lin._rand_below_many(np.random.default_rng(123), [6, 4] * draws)[0::2]
        rows = f2lin._rows_from_indices(idx, 1).tolist()
        rng = np.random.default_rng(123)
        assert rows[:500] == [list(random_clifford(1, rng).symplectic.rows) for _ in range(500)]
        counts = {m.rows: 0 for m in sp_elements(1)}
        for r in rows:
            counts[tuple(r)] += 1
        expect = draws / 6
        stat = sum((c - expect) ** 2 / expect for c in counts.values())
        assert stat < chi2.isf(0.001, df=5)


class TestTraceIdentities:
    def test_identity_element(self):
        rep = clifford_trace_check(CliffordElement(np.eye(2, dtype=complex), 1, F2Matrix.identity(1)))
        assert rep.passed and rep.kernel_dim == 2 and rep.trace == 2

    def test_phase_gate(self):
        rep = clifford_trace_check(CliffordElement(S, 1, extract_action(S)[0]))
        assert rep.passed and not rep.traceless
        assert rep.kernel_dim == 1
        assert abs(rep.trace - (1 - 1j)) < 1e-12

    def test_random_cliffords(self, rng):
        for n in (1, 2, 3):
            for _ in range(300):
                assert clifford_trace_check(random_clifford(n, rng)).passed

    def test_identity_needs_the_gaussian_rational_phase(self, rng):
        # a factor e^{i pi/4} flips the sign of [tr U]^4; powers of i keep it
        checked = 0
        for n in (1, 2, 3):
            for _ in range(20):
                u = random_clifford(n, rng)
                if clifford_trace_check(u).traceless:
                    continue
                checked += 1
                for phase, passes in ((1j, True), (np.exp(0.25j * np.pi), False)):
                    v = CliffordElement(phase * u.matrix, n, symplectic=u.symplectic)
                    assert clifford_trace_check(v).passed is passes
        assert checked

    def test_trace_count_identity(self, rng):
        # sum_a |tr(U W_a)|^2 = d^2 and the non-traceless count is
        # 2^{2n - dim ker(F-1)}
        for n in (1, 2):
            d = 2**n
            u = random_clifford(n, rng)
            traces = [
                np.trace(u.matrix @ pauli_matrix(PauliLabel(n, a))) for a in range(d * d)
            ]
            assert abs(sum(abs(t) ** 2 for t in traces) - d * d) < 1e-8
            nonzero = sum(1 for t in traces if abs(t) > 1e-8)
            assert nonzero == 2 ** (2 * n - fixed_space_dim(u.symplectic))


class TestOrbits:
    def test_stabilizer_orbit_is_octahedron(self):
        e0 = np.array([1, 0], dtype=complex)
        assert len(projective_orbit(e0, 1)) == 6

    def test_generic_orbit_size_24(self, rng):
        psi = random_state(2, rng)
        orb = projective_orbit(psi, 1)
        assert len(orb) == 24

    def test_orbit_size_divides_group(self, rng):
        for _ in range(5):
            psi = random_state(2, rng)
            t = rng.random()
            if t < 0.3:
                psi = np.array([1, 0], dtype=complex)
            assert 24 % len(projective_orbit(psi, 1)) == 0

    def test_group_size_n2(self):
        assert projective_clifford_unitaries(2).shape == (11520, 4, 4)

    @pytest.mark.parametrize("n, digest", [
        (1, "36cff97338412515132f046d50a0569e0c128ee0800acce4a64bcb03ac5b140f"),
        (2, "cf8f15623eaa62bc63c3af66f8fffc095223506ef864866ae21d82b965c7e386"),
    ], ids=["1", "2"])
    def test_group_unitaries_pinned(self, n, digest):
        # recorded when each labelled word was first lifted from n + 1
        # columns, with every zero made +0.0; the entries are exact dyadic
        # Gaussian rationals
        group = projective_clifford_unitaries(n)
        assert group.dtype == complex and group.flags.c_contiguous
        assert hashlib.sha256(group.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2])
    def test_group_equals_one_lift_per_element(self, n):
        # against the matrix-step lift of each labelled word
        group = projective_clifford_unitaries(n)
        assert np.abs(group - projective_group_repeat(n)).max() <= 1e-14

    def test_group_is_read_only(self):
        group = projective_clifford_unitaries(1)
        with pytest.raises(ValueError):
            group[0, 0, 0] = 0

    @pytest.mark.slow
    def test_two_qubit_stabilizer_orbit_size(self):
        # the stabilizer-state count 2^n prod (2^i + 1) = 60 at n = 2
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1
        assert len(projective_orbit(e0, 2)) == 60

    def test_capacity(self):
        with pytest.raises(f2lin.CapacityError):
            projective_orbit(np.zeros(8, dtype=complex), 3)

    def test_orbit_stabilizer_mismatch_raises(self, monkeypatch):
        # no element counted as a stabilizer: the orbit size cannot match
        monkeypatch.setattr(clifford, "_coset_overlaps", lambda psi, phis: np.zeros((1, 1, 1)))
        with pytest.raises(AssertionError, match="group order"):
            projective_orbit(psi_t(), 1)

    def test_key_collision_raises(self, monkeypatch):
        # every key hashed to 0: states with different keys share a hash
        monkeypatch.setattr(reference, "_key_weights", lambda size: np.zeros(size, np.uint64))
        with pytest.raises(AssertionError, match="share a hash"):
            projective_orbit(psi_t(), 1)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(NormalizationError):
            projective_orbit(np.array([1, 1], dtype=complex), 1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_group_rejects_nonpositive_n(self, n):
        with pytest.raises(f2lin.DimensionError):
            projective_clifford_unitaries(n)

    @pytest.mark.parametrize("make", [
        lambda: E0,
        psi_t,
        lambda: np.kron(E0, E0),
        lambda: np.kron(psi_t(), psi_t()),
        lambda: np.kron(singer_eigenstates(1)[0], psi_t()),
        lambda: random_state(2, np.random.default_rng(1)),
        lambda: random_state(4, np.random.default_rng(2)),
        lambda: random_state(4, np.random.default_rng(3)),
    ], ids=["e0", "psi_T", "e0^2", "psi_T^2", "cycler_psi_T", "random1", "random2a", "random2b"])
    def test_dedup_equals_one_by_one_oracle(self, make):
        psi = make()
        n = len(psi).bit_length() - 1
        got = projective_orbit(psi, n)
        want = projective_orbit_loop(psi, n)
        assert len(got) == len(want)
        assert all(np.abs(g - w).max() <= 1e-14 for g, w in zip(got, want))
        # the orbit-stabilizer count that projective_orbit checks, from the oracle group
        overlaps = np.abs(projective_group_repeat(n) @ psi @ psi.conj())
        stab = np.count_nonzero(np.abs(overlaps - 1) <= 1e-9)
        assert len(got) * stab == len(overlaps)
        # the count that orbit sizes are read from without forming the orbit
        assert _stabilizer_count(psi, n) == stab
        assert f2lin.sp_order(n) * 4**n // _stabilizer_count(psi, n) == len(got)
