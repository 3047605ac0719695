"""Clifford group elements as dense unitaries with exact symplectic actions.

A Clifford unitary U satisfies U W_a U^dag = (-1)^{f(a)} W_{Fa} for a unique
symplectic F and a sign function f.  This module builds the generators
H, S, CNOT (with the i-power-friendly Hadamard prefactor (1+i)/2), extracts
(F, f) from a unitary, lifts any symplectic matrix back to a unitary via
transvections, samples the projective Clifford group exactly uniformly,
and materializes projective orbits of state vectors for n <= 2.

Qubit indices are 0-based; qubit 0 is the leftmost tensor factor.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, fixed_space_dim, is_symplectic
from .pauli import PauliLabel, _product_phase, _signed_perms, label_join, pauli_matrix

__all__ = [
    "CliffordElement",
    "NotCliffordError",
    "generator_matrix",
    "compose_word",
    "parse_word",
    "extract_action",
    "lift_symplectic",
    "transvection_decomposition",
    "random_clifford",
    "random_clifford_unitaries",
    "clifford_trace_check",
    "projective_orbit",
    "projective_clifford_unitaries",
]

ORBIT_MAX_N = 2
# projective_orbit tells states apart by |psi><psi| rounded to this many decimals
ORBIT_DEDUP_DECIMALS = 9
# A lifted stack holds at most this many matrix entries (but at least one
# sample), which bounds the memory that a stack and its temporaries add
STACK_ENTRIES = 1 << 13

_H2 = (0.5 + 0.5j) * np.array([[1, 1], [1, -1]], dtype=complex)
_S2 = np.array([[1, 0], [0, -1j]], dtype=complex)
# Python scalars: numpy's sqrt and exp would set up their loops at import
_ROOT2 = math.sqrt(2.0)
_EIGHTH_PHASE = cmath.exp(-0.25j * math.pi)
_RTOL = 1e-5  # the default rtol of np.allclose


class NotCliffordError(ValueError):
    """Conjugation of a basis Pauli did not return a signed Pauli."""


class CliffordElement:
    """Dense d x d Clifford unitary with its cached symplectic action."""

    def __init__(self, matrix: np.ndarray, n: int, action=None, symplectic=None):
        self.matrix = matrix
        self.n = n
        self._action = action
        self._symplectic = symplectic

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def action(self) -> tuple[F2Matrix, tuple[int, ...]]:
        if self._action is None:
            self._action = extract_action(self)
        return self._action

    @property
    def symplectic(self) -> F2Matrix:
        if self._symplectic is None:
            self._symplectic = self.action[0]
        return self._symplectic

    def sign_of(self, a: int) -> int:
        """f(a) with U W_a U^dag = (-1)^{f(a)} W_{Fa}, from the basis signs.

        Writing W_a as an i-power times a product of basis Paulis, the
        cocycle mismatch between source and image labels folds into the
        sign, so f on all 4^n labels follows from the 2n basis values.
        """
        F, basis_signs = self.action
        f = 0
        acc = 0
        acc_im = 0
        phi_src = 0
        phi_dst = 0
        for k in range(2 * self.n):
            if not (a >> k) & 1:
                continue
            e = 1 << k
            phi_src += _product_phase(acc, e, self.n)
            fe = F.apply(e)
            phi_dst += _product_phase(acc_im, fe, self.n)
            f ^= basis_signs[k]
            acc ^= e
            acc_im ^= fe
        delta = (phi_dst - phi_src) % 4
        if delta % 2:
            raise AssertionError(f"odd cocycle mismatch {delta} for label {a}")
        return (f + delta // 2) % 2

    def __matmul__(self, other: "CliffordElement") -> "CliffordElement":
        if self.n != other.n:
            raise f2lin.DimensionError("qubit count mismatch")
        return CliffordElement(self.matrix @ other.matrix, self.n)


def _embed_1q(gate: np.ndarray, q: int, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(out, gate if i == q else np.eye(2))
    return out


def _cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    d = 1 << n
    idx = np.arange(d)
    flip = ((idx >> (n - 1 - control)) & 1) << (n - 1 - target)
    out = np.zeros((d, d), dtype=complex)
    out[idx ^ flip, idx] = 1.0
    return out


def generator_matrix(token: tuple, n: int) -> CliffordElement:
    """Embedded generator: ("H", q), ("S", q) or ("CX", control, target)."""
    kind = token[0]
    if kind == "H":
        (q,) = token[1:]
        _check_q(q, n)
        return CliffordElement(_embed_1q(_H2, q, n), n)
    if kind == "S":
        (q,) = token[1:]
        _check_q(q, n)
        return CliffordElement(_embed_1q(_S2, q, n), n)
    if kind == "CX":
        c, t = token[1:]
        _check_q(c, n)
        _check_q(t, n)
        if c == t:
            raise ValueError("CX needs distinct qubits")
        return CliffordElement(_cnot_matrix(c, t, n), n)
    raise ValueError(f"unknown gate token {token!r}")


def _check_q(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise ValueError(f"qubit index {q} out of range for n={n}")


def parse_word(text: str) -> list[tuple]:
    """Parse gate syntax like 'H0 S1 CX0,2' into tokens."""
    tokens = []
    for part in text.split():
        if part.startswith("CX"):
            c, t = part[2:].split(",")
            tokens.append(("CX", int(c), int(t)))
        elif part[0] in ("H", "S"):
            tokens.append((part[0], int(part[1:])))
        else:
            raise ValueError(f"cannot parse gate {part!r}")
    return tokens


def compose_word(word, n: int) -> CliffordElement:
    """Ordered product of generator matrices; accepts tokens or text."""
    if isinstance(word, str):
        word = parse_word(word)
    mat = np.eye(1 << n, dtype=complex)
    for token in word:
        mat = mat @ generator_matrix(token, n).matrix
    return CliffordElement(mat, n)


# ---------------------------------------------------------------------------
# symplectic action


def extract_action(U: CliffordElement) -> tuple[F2Matrix, tuple[int, ...]]:
    """Recover (F, f on basis labels) from U W_e U^dag for the 2n basis Paulis."""
    n = U.n
    cols = []
    signs = []
    Um = U.matrix
    Udag = Um.conj().T
    k = np.arange(1 << n)
    # U W_e by a column gather: column k is v[k] times column k ^ x of U
    for x, v in zip(*_signed_perms(n, 1 << np.arange(2 * n))):
        b, f = _identify_signed_pauli(Um[:, k ^ x] * v @ Udag, n)
        cols.append(b)
        signs.append(f)
    F = F2Matrix(f2lin._transpose(cols, 2 * n), n)
    if not is_symplectic(F):
        raise NotCliffordError("extracted action is not symplectic")
    return F, tuple(signs)


def _identify_signed_pauli(V: np.ndarray, n: int, atol: float = 1e-10) -> tuple[int, int]:
    col0 = np.abs(V[:, 0])
    r = int(np.argmax(col0))
    if abs(col0[r] - 1.0) > atol:
        raise NotCliffordError("conjugated Pauli has no unit-modulus column entry")
    xc = r
    zc = 0
    ref = V[xc, 0]
    for p in range(n):
        y = 1 << p
        ratio = V[y ^ xc, y] / ref
        if abs(ratio - 1.0) < atol:
            pass
        elif abs(ratio + 1.0) < atol:
            zc |= y
        else:
            raise NotCliffordError("conjugated Pauli is not a signed Pauli")
    b = label_join(zc, xc, n)
    expected = pauli_matrix(PauliLabel(n, b))
    s = ref / expected[xc, 0]
    if abs(s - 1.0) < atol:
        f = 0
    elif abs(s + 1.0) < atol:
        f = 1
    else:
        raise NotCliffordError("conjugated Pauli carries a non-real phase")
    # np.allclose(V, (1 - 2 f) expected, atol=atol), without its generic overhead
    if not (np.abs(V - (1 - 2 * f) * expected) <= atol + _RTOL * np.abs(expected)).all():
        raise NotCliffordError("conjugated Pauli mismatch beyond tolerance")
    return b, f


# ---------------------------------------------------------------------------
# lifting symplectic matrices


def _midpoint(c, j, form=f2lin._omega):
    """The smallest w on coordinates >= j & ~1 (so that earlier qubits stay
    fixed) with <c, w> = <e_j, w> = 1 and, for odd j, <e_{j-1}, w> = 1,
    whenever one exists.  The pairings with unit vectors force the bits
    `fixed`; if <c, fixed> = 0, w adds the lowest other bit of J c there.
    Python ints with form=f2lin._omega, or int64 arrays elementwise with
    form=f2lin._forms."""
    lo = j & ~1
    fixed = (2 | (j & 1)) << lo
    free = f2lin._swap_pairs(c) & -(1 << lo) & ~fixed
    return fixed | (1 ^ form(c, fixed)) * (free & -free)


def _transvection_step(c, j: int, form=f2lin._omega):
    """The vectors (u, v) with Z_v Z_u c = e_j, zero for a factor left out,
    for column j of a symplectic whose columns before j are already unit
    vectors; Z_u and Z_v fix those columns.  One factor c ^ e_j when
    <c, e_j> = 1, none when c = e_j, else two through w = _midpoint(c, j).
    Elementwise like _midpoint."""
    target = 1 << j
    hit = form(c, target)
    need = (1 ^ hit) * (c != target)
    w = _midpoint(c, j, form)
    return hit * (c ^ target) | need * (c ^ w), need * (w ^ target)


def transvection_decomposition(F: F2Matrix) -> list[int]:
    """Vectors v_1..v_m with F = Z_{v_1} Z_{v_2} ... Z_{v_m} (at most 4 per pair)."""
    if not is_symplectic(F):
        raise ValueError("input is not symplectic")
    n = F.n
    cols = list(f2lin._transpose(F.rows, 2 * n))
    out = []
    for j in range(2 * n):
        for v in _transvection_step(cols[j], j):
            if v:
                # cols <- Z_v cols: c -> c ^ v wherever <c, v> = 1
                jv = f2lin._swap_pairs(v)
                cols = [c ^ v if f2lin._parity(c & jv) else c for c in cols]
                out.append(v)
    if cols != [1 << i for i in range(2 * n)]:
        raise AssertionError("transvections did not reduce F to the identity")
    return out


def _transvection_words(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """transvection_decomposition of every symplectic in an (S, 2n) stack of
    rows, as (S, W) words padded with zeros and their (S,) lengths.

    Each step applies one transvection to every sample, the zero vector
    (Z_0 = 1) where a sample has none to apply; a sample's vectors are
    those of its one-at-a-time decomposition, by the same _transvection_step.
    """
    nn = 2 * n
    cols = f2lin._transpose_stack(rows, nn)
    if not f2lin._is_symplectic_stack(cols).all():
        raise ValueError("input is not symplectic")
    words = np.zeros((len(cols), 4 * n), dtype=np.int64)
    lengths = np.zeros(len(cols), dtype=np.int64)
    for j in range(nn):
        for v in _transvection_step(cols[:, j], j, f2lin._forms):
            # cols <- Z_v cols, and v appended to the words where v != 0
            cols ^= v[:, None] * f2lin._forms(cols, v[:, None])
            hit = np.flatnonzero(v)
            words[hit, lengths[hit]] = v[hit]
            lengths[hit] += 1
    if (cols != 1 << np.arange(nn)).any():
        raise AssertionError("transvections did not reduce F to the identity")
    return words[:, :lengths.max(initial=0)], lengths


def _lift_words(n: int, words: np.ndarray, lengths: np.ndarray, labels=None) -> np.ndarray:
    """(S, d, d) stack of unitaries: word s, the first lengths[s] vectors
    of row s of the (S, W) array words, is lifted as the product of the
    factors (1 + i W_v)/sqrt(2) over its vectors v, then multiplied on the
    left by W_{labels[s]}.

    The samples are sorted by word length, longest first, so step t
    updates the prefix of samples with more than t vectors, and the words
    that end at step t are a slice of it.  One
    _signed_perms call gives every (x, v) of the stack, the labels in an
    extra last column.  A step is U <- (U + i (U W_v))/sqrt(2), with U W_v
    gathered by a flat take at indices [s, r, k ^ x_s]: as x_s < d, XOR
    with the flat index [s, r, k] changes k alone; the labels go on by
    _pauli_times.  These are the
    elementwise operations of a one-by-one lift, so every entry of a
    stack equals the entry of that sample lifted alone, bit for bit.
    """
    d = 1 << n
    count, width = words.shape
    order = np.argsort(-lengths, kind="stable")
    vecs = np.zeros((count, width + 1), dtype=np.int64)
    vecs[:, :width] = words
    if labels is not None:
        vecs[:, width] = labels
    x, v = _signed_perms(n, vecs[order])
    # prefix[t] counts the samples with more than t vectors, a prefix as lengths descend
    neg = (-lengths[order]).tolist()
    prefix = [bisect.bisect_left(neg, -t) for t in range(width + 1)]
    flat = np.arange(count * d * d).reshape(-1, d, d)
    U = np.zeros((count, d, d), dtype=complex)
    U.reshape(count, d * d)[:, ::d + 1] = 1
    for t in range(width):
        m, done = prefix[t], prefix[t + 1]
        gathered = np.take(U, flat[:m] ^ x[:m, t, None, None])
        U[:m] = (U[:m] + 1j * (gathered * v[:m, t, None, :])) / _ROOT2
        if t % 2 == 0 and done < m:
            # words of odd length end here: an extra global phase keeps
            # their entries in Q[i]
            U[done:m] *= _EIGHTH_PHASE
    if labels is not None:
        U = _pauli_times(U, np.arange(count), x[:, width], v[:, width])
    out = np.empty_like(U)
    out[order] = U
    return out


def _pauli_times(U: np.ndarray, s: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(S, d, d) stack of W_i U[s_i], i < S, for the Paulis W_i with
    (x_i, v_i) from _signed_perms: row j of W U is v[j ^ x] times row
    j ^ x of U.  s and x have shape (S,) and v shape (S, d); the rows
    are gathered by one fancy index over the whole stack."""
    rows = np.arange(U.shape[-1]) ^ x[:, None]
    out = U[s[:, None], rows]
    return np.multiply(v[np.arange(len(s))[:, None], rows][..., None], out, out=out)


def _lift_stacks(n: int, words: np.ndarray, lengths: np.ndarray, labels=None):
    """Yield (lo, stack): _lift_words of samples lo, lo + 1, ... in chunks
    of at most STACK_ENTRIES matrix entries, but at least one sample."""
    step = max(STACK_ENTRIES >> (2 * n), 1)
    for lo in range(0, len(lengths), step):
        chunk = slice(lo, lo + step)
        yield lo, _lift_words(n, words[chunk], lengths[chunk],
                              None if labels is None else labels[chunk])


def _lifted(n: int, words: np.ndarray, lengths: np.ndarray, labels=None) -> np.ndarray:
    """The (S, d, d) stack of _lift_words, filled chunk by chunk, so the
    lift's temporaries never outgrow one chunk."""
    out = np.empty((len(lengths), 1 << n, 1 << n), dtype=complex)
    for lo, stack in _lift_stacks(n, words, lengths, labels):
        out[lo:lo + len(stack)] = stack
    return out


def _padded(word: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """One word as a stack of one, for _lift_words."""
    return np.array(word, dtype=np.int64).reshape(1, -1), np.array([len(word)])


def lift_symplectic(F: F2Matrix) -> CliffordElement:
    """Some Clifford unitary inducing F, built from transvection factors.

    Each transvection Z_v lifts to (1 + i W_v)/sqrt(2); an extra global
    phase keeps all matrix entries in Q[i] when the factor count is odd.
    The representative is one of the 4d^2 unitaries inducing F and is
    deterministic but otherwise arbitrary, and carries F for .symplectic.
    """
    U = _lift_words(F.n, *_padded(transvection_decomposition(F)))[0]
    return CliffordElement(U, F.n, symplectic=F)


def _sample_words(n: int, rng: np.random.Generator, count: int):
    """(words, lengths, labels) of count uniform projective Cliffords, for
    _lift_words.  Each sample draws a uniform Sp(2n,F2) index and then a
    uniform Pauli label, in the order of count random_clifford calls."""
    draws = f2lin._rand_below_many(rng, [f2lin.sp_order(n), 1 << (2 * n)] * count)
    words, lengths = _transvection_words(f2lin._rows_from_indices(draws[0::2], n), n)
    return words, lengths, np.array(draws[1::2], dtype=np.int64)


def random_clifford_unitaries(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of count uniform projective Clifford unitaries, shape (count, d, d).

    The stack equals count random_clifford draws from the same generator,
    entry for entry, and leaves the generator in the same state; the
    symplectics are decoded and decomposed as one stack, then lifted.
    """
    return _lifted(n, *_sample_words(n, rng, count))


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform projective Clifford element: random symplectic lift times a
    uniform Pauli.  The global phase of the representative is irrelevant for
    every metric in this package.  The element carries its sampled
    symplectic, so .symplectic needs no extraction."""
    index, label = f2lin._rand_below_many(rng, [f2lin.sp_order(n), 1 << (2 * n)])
    F = f2lin.symplectic_from_index(index, n)
    U = _lift_words(n, *_padded(transvection_decomposition(F)), [label])[0]
    return CliffordElement(U, n, symplectic=F)


@dataclass(frozen=True)
class TraceCheckReport:
    trace: complex
    kernel_dim: int
    traceless: bool
    passed: bool


def clifford_trace_check(U: CliffordElement, atol: float = 1e-8) -> TraceCheckReport:
    """Check [tr U]^4 = (-4)^{dim ker(F-1)} whenever tr U is not zero."""
    tr = complex(np.trace(U.matrix))
    dim = fixed_space_dim(U.symplectic)
    if abs(tr) <= atol:
        return TraceCheckReport(tr, dim, True, True)
    want = (-4.0) ** dim
    ok = abs(tr**4 - want) < 1e-6 * 4.0**dim
    return TraceCheckReport(tr, dim, False, ok)


# ---------------------------------------------------------------------------
# projective orbits


@functools.lru_cache(maxsize=None)
def projective_clifford_unitaries(n: int) -> np.ndarray:
    """One unitary per projective Clifford element, shape (|Sp| d^2, d, d),
    read-only as it is shared by every caller.

    Supported for n <= 2 (24 and 11 520 elements).  Element i d^2 + a is
    W_a times the lift of symplectic i: each of the |Sp| transvection
    words is lifted once, and the d^2 Paulis go on as one signed row
    gather over the whole group (_pauli_times).  These are the elementwise
    steps of lifting each labelled word alone, so every entry is the
    same, bit for bit."""
    if n < 1:
        raise f2lin.DimensionError(f"Sp(2n,F2) needs n >= 1, got n={n}")
    if n > ORBIT_MAX_N:
        raise CapacityError(
            f"projective Clifford group at n={n} has {f2lin.sp_order(n) * 4**n}"
            " elements; orbits are materialized only for n <= 2"
        )
    d2 = 1 << (2 * n)
    order = f2lin.sp_order(n)
    lifts = _lifted(n, *_transvection_words(f2lin._rows_from_indices(range(order), n), n))
    # symplectic i with Pauli label a is element i d^2 + a
    x, v = _signed_perms(n, np.tile(np.arange(d2), order))
    group = _pauli_times(lifts, np.repeat(np.arange(order), d2), x, v)
    group.flags.writeable = False
    return group


def projective_orbit(psi: np.ndarray, n: int) -> list[np.ndarray]:
    """All distinct states (up to global phase) in the Clifford orbit of psi.

    Deduplication keys on the bytes of the d^2 entries of |psi><psi|
    rounded to ORBIT_DEDUP_DECIMALS digits, signed zeros folded; each key
    keeps its first state, in group order.
    """
    states = projective_clifford_unitaries(n) @ psi
    keys = (states[:, :, None] * states[:, None, :].conj()).reshape(len(states), -1).view(float)
    np.round(keys, ORBIT_DEDUP_DECIMALS, out=keys)
    keys += 0.0  # -0.0 becomes 0.0
    # one byte string per state; a stable sort finds the first state of each
    _, first = np.unique(keys.view(np.dtype((np.void, keys.shape[1] * 8))), return_index=True)
    return list(states[np.sort(first)])
