import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffdesigns import clifford, f2lin
from cliffdesigns.clifford import (
    CliffordElement,
    STACK_ENTRIES,
    NotCliffordError,
    _lift_stacks,
    _lift_words,
    _midpoint,
    _sample_words,
    _transvection_words,
    clifford_trace_check,
    compose_word,
    extract_action,
    generator_matrix,
    lift_symplectic,
    parse_word,
    projective_clifford_unitaries,
    projective_orbit,
    random_clifford,
    random_clifford_unitaries,
    transvection_decomposition,
)
from cliffdesigns.f2lin import F2Matrix, fixed_space_dim, symplectic_form
from cliffdesigns.fiducial import psi_t, singer_eigenstates, singer_symplectic, singer_unitary
from cliffdesigns.pauli import PauliLabel, pauli_matrix
from conftest import random_state
from reference import midpoint_search, projective_group_repeat, projective_orbit_loop, sp_elements

E0 = np.array([1, 0], dtype=complex)


def qubit_swap(n: int) -> F2Matrix:
    """The symplectic of the swap of qubits 0 and n - 1."""
    swap = {0: n - 1, n - 1: 0}
    return F2Matrix(tuple(1 << (2 * swap.get(i // 2, i // 2) + i % 2) for i in range(2 * n)), n)


class TestGenerators:
    def test_hadamard_printed_matrix(self):
        want = (0.5 + 0.5j) * np.array([[1, 1], [1, -1]])
        assert np.allclose(generator_matrix(("H", 0), 1).matrix, want)

    def test_phase_printed_matrix(self):
        assert np.allclose(generator_matrix(("S", 0), 1).matrix, np.diag([1, -1j]))

    def test_cnot_printed_matrix(self):
        want = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], float)
        assert np.allclose(generator_matrix(("CX", 0, 1), 2).matrix, want)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator_matrix(("H", 2), 2)

    def test_unitarity_of_embeddings(self):
        for tok in (("H", 1), ("S", 0), ("CX", 2, 0)):
            u = generator_matrix(tok, 3).matrix
            assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


class TestWords:
    def test_empty_word_is_identity(self):
        assert np.allclose(compose_word([], 2).matrix, np.eye(4))

    def test_hh_is_central_phase(self):
        assert np.allclose(compose_word("H0 H0", 1).matrix, 1j * np.eye(2))

    def test_hs_cubed_is_central(self):
        u = compose_word("H0 S0 H0 S0 H0 S0", 1).matrix
        assert np.allclose(u, u[0, 0] * np.eye(2), atol=1e-12)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_parse_syntax(self):
        assert parse_word("H0 S1 CX0,2") == [("H", 0), ("S", 1), ("CX", 0, 2)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_word("Q3")


class TestExtractAction:
    def test_identity(self):
        F, signs = extract_action(CliffordElement(np.eye(4, dtype=complex), 2))
        assert F.rows == F2Matrix.identity(2).rows
        assert signs == (0, 0, 0, 0)

    def test_hadamard_swaps_z_and_x(self):
        F, _ = extract_action(generator_matrix(("H", 0), 1))
        assert F.rows == (0b10, 0b01)

    def test_pauli_conjugation_signs(self):
        for n in (1, 2):
            for b in range(4**n):
                u = CliffordElement(pauli_matrix(PauliLabel(n, b)), n)
                F, _ = extract_action(u)
                assert F.rows == F2Matrix.identity(n).rows
                for a in range(4**n):
                    assert u.sign_of(a) == symplectic_form(b, a, n)

    def test_non_clifford_rejected(self, rng):
        t = np.diag([1.0, np.exp(0.25j * np.pi)])  # pi/8-type gate
        with pytest.raises(NotCliffordError):
            extract_action(CliffordElement(t, 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
    def test_action_is_homomorphism(self, seed, n):
        rng = np.random.default_rng(seed)
        u = random_clifford(n, rng)
        v = random_clifford(n, rng)
        Fuv, _ = extract_action(u @ v)
        assert Fuv.rows == (u.symplectic @ v.symplectic).rows

    def test_cnot_action_matrix(self):
        # X on the control grows an X on the target; Z on the target grows
        # a Z on the control
        F, signs = extract_action(generator_matrix(("CX", 0, 1), 2))
        assert F.rows == (0b0101, 0b0010, 0b0100, 0b1010)
        assert signs == (0, 0, 0, 0)

    def test_hadamard_sign_on_y(self):
        u = generator_matrix(("H", 0), 1)
        assert u.symplectic.apply(0b11) == 0b11
        assert u.sign_of(0b11) == 1  # H flips the sign of the (1,1) Pauli

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_sign_map_matches_dense_conjugation(self, seed, n):
        rng = np.random.default_rng(seed)
        u = random_clifford(n, rng)
        F, _ = u.action
        a = int(rng.integers(4**n))
        lhs = u.matrix @ pauli_matrix(PauliLabel(n, a)) @ u.matrix.conj().T
        rhs = (-1.0) ** u.sign_of(a) * pauli_matrix(PauliLabel(n, F.apply(a)))
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestLift:
    @pytest.mark.parametrize("n", [1, 2])
    def test_roundtrip_exhaustive(self, n):
        for F in sp_elements(n):
            u = lift_symplectic(F)
            got, _ = extract_action(u)
            assert got.rows == F.rows
            assert np.allclose(
                u.matrix @ u.matrix.conj().T, np.eye(u.d), atol=1e-10
            )

    def test_roundtrip_random_n3_n4(self, rng):
        for n in (3, 4):
            for _ in range(25):
                F = f2lin.random_symplectic(n, rng)
                got, _ = extract_action(lift_symplectic(F))
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

    def test_identity_gives_empty_decomposition(self):
        assert transvection_decomposition(F2Matrix.identity(3)) == []

    def test_single_transvection_lift(self):
        for a in (0b01, 0b10, 0b11):
            t = f2lin.transvection_matrix(a, 1)
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
        words, lengths = _transvection_words(np.array([F.rows for F in mats]), n)
        stack = _lift_words(n, words, lengths)
        single = np.array([lift_symplectic(F).matrix for F in mats])
        assert np.array_equal(stack.view(float), single.view(float))

    @pytest.mark.parametrize("n", [1, 2])
    def test_stack_decomposition_exhaustive(self, n):
        mats = list(sp_elements(n))
        words, lengths = _transvection_words(np.array([F.rows for F in mats]), n)
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
        words, lengths = _transvection_words(np.array([F.rows for F in mats]), n)
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
            product = product @ f2lin.transvection_matrix(v, n)
        assert product == F
        if n <= 31:  # the stack path holds the 2n coordinates in an int64
            words, lengths = _transvection_words(np.array([F.rows]), n)
            assert words[0, :lengths[0]].tolist() == word

    def test_stack_decomposition_rejects_non_symplectic(self):
        rows = np.array([[1, 2], [0b11, 0b11]])
        with pytest.raises(ValueError):
            _transvection_words(rows, 1)

    def test_lift_of_empty_stack(self):
        empty = np.zeros((0, 0), dtype=np.int64)
        assert _lift_words(2, empty, np.zeros(0, dtype=np.int64), []).shape == (0, 4, 4)

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


class TestRandomClifford:
    def test_normalizer_invariant(self, rng):
        for n in (1, 2, 3):
            u = random_clifford(n, rng)
            F, _ = u.action  # extraction itself asserts the +-Pauli images
            assert f2lin.is_symplectic(F)

    def test_reproducible(self):
        a = random_clifford(2, np.random.default_rng(11))
        b = random_clifford(2, np.random.default_rng(11))
        assert np.allclose(a.matrix, b.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_carried_symplectic_is_the_extracted_one(self, n, monkeypatch):
        rng = np.random.default_rng(60 + n)
        draws = [random_clifford(n, rng) for _ in range(40 if n < 5 else 10)]
        extracted = [extract_action(u)[0] for u in draws]

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
        assert np.array_equal(stack.view(float), seq.view(float))
        assert rng_a.integers(1 << 62) == rng_b.integers(1 << 62)

    @pytest.mark.parametrize("n, count", [(1, 5000), (3, 300), (7, 3)])
    def test_lift_chunks_bounded(self, n, count):
        # chunks of at most STACK_ENTRIES entries, one sample at least, equal to one stack
        words, lengths, labels = _sample_words(n, np.random.default_rng(43), count)
        chunks = list(_lift_stacks(n, words, lengths, labels))
        per = max(STACK_ENTRIES >> (2 * n), 1)
        assert [lo for lo, _ in chunks] == list(range(0, count, per))
        assert all(len(stack) <= per for _, stack in chunks)
        whole = _lift_words(n, words, lengths, labels)
        assert np.array_equal(np.concatenate([s for _, s in chunks]).view(float), whole.view(float))

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
        rep = clifford_trace_check(CliffordElement(np.eye(2, dtype=complex), 1))
        assert rep.passed and rep.kernel_dim == 2 and rep.trace == 2

    def test_phase_gate(self):
        rep = clifford_trace_check(generator_matrix(("S", 0), 1))
        assert rep.passed and not rep.traceless
        assert rep.kernel_dim == 1
        assert abs(rep.trace - (1 - 1j)) < 1e-12

    def test_random_cliffords(self, rng):
        for n in (1, 2, 3):
            for _ in range(300):
                assert clifford_trace_check(random_clifford(n, rng)).passed

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
        (1, "ee20b5db509a33c55d2018dd40bcbf92d016abeef53c74c0476ec92c31aa6127"),
        (2, "a455fcf86a9c06e5ebe95d590720d856365818458a5d2a4574c566fac67d527a"),
    ])
    def test_group_unitaries_pinned(self, n, digest):
        # recorded when each symplectic was lifted and each Pauli applied alone
        group = projective_clifford_unitaries(n)
        assert group.dtype == complex and group.flags.c_contiguous
        assert hashlib.sha256(group.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("n", [1, 2])
    def test_group_equals_one_lift_per_element(self, n):
        # one lift per symplectic and one Pauli gather, against a lift per labelled word
        assert projective_clifford_unitaries(n).tobytes() == projective_group_repeat(n).tobytes()

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
        assert all(np.array_equal(g.view(float), w.view(float)) for g, w in zip(got, want))
