"""Clifford group elements as dense unitaries with exact symplectic actions.

A Clifford unitary U satisfies U W_a U^dag = (-1)^{f(a)} W_{Fa} for a unique
symplectic F and a sign function f.  This module lifts any symplectic
matrix to a unitary via transvections, samples the projective Clifford
group exactly uniformly, reads (F, f on the basis labels) back from a
unitary, and materializes projective orbits of state vectors for n <= 2.
Every element it returns carries the F it was built from.

One kernel, _act_words, applies a stack of transvection words to a block
of states, a signed gather per factor; orbits use it on the state itself,
and the dense lift of a stack uses it on n + 1 basis states and builds the
other columns from them.  A single lift at n <= 3 (LIFT_TABLE_BYTES)
instead multiplies cached dense factors 1 + i W_v, one matrix product per
factor; both lifts are exact and give the same matrix.

Qubit indices are 0-based; qubit 0 is the leftmost tensor factor.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, fixed_space_dim, is_symplectic
from .pauli import (PauliLabel, _check_normalized, _hadamard, _parity_signs, _pauli_parts,
                    _signed_perms, label_join, pauli_matrix)

__all__ = [
    "CliffordElement",
    "NotCliffordError",
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
# the word action keeps its flat-index tables up to this many entries (128 KB)
FLAT_INDEX_CACHED = 1 << 14
# a single lift multiplies cached factors 1 + i W_v while their (4^n, d, d)
# table fits this many bytes (n <= 3); larger ones go through n + 1 columns.
# The 1 MiB table of n = 4 took 0.7-1.3 ms to build, more than a cold column
# lift (0.3-0.5 ms), and a process that lifts once at n = 4 never repaid it
LIFT_TABLE_BYTES = 1 << 16
# projective_orbit keys a state psi by |<r|psi>|^2 for two fixed probes r,
# rounded to this many decimals
ORBIT_DEDUP_DECIMALS = 9
# an element stabilizes psi when |<psi|U psi>| is 1 within this
ORBIT_STAB_ATOL = 1e-9

_RTOL = 1e-5  # the default rtol of np.allclose


class NotCliffordError(ValueError):
    """Conjugation of a basis Pauli did not return a signed Pauli."""


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """Dense d x d Clifford unitary and the symplectic F it induces."""

    matrix: np.ndarray
    n: int
    symplectic: F2Matrix


# ---------------------------------------------------------------------------
# symplectic action


def extract_action(U: np.ndarray) -> tuple[F2Matrix, tuple[int, ...]]:
    """Recover (F, f on basis labels) from U W_e U^dag for the 2n basis
    Paulis, U a d x d unitary; NotCliffordError unless each is a signed Pauli."""
    d = len(U)
    if U.shape != (d, d) or not d or d & (d - 1):
        raise f2lin.DimensionError(f"expected a d x d matrix with d a power of 2, got {U.shape}")
    n = d.bit_length() - 1
    cols = []
    signs = []
    Udag = U.conj().T
    k = np.arange(d)
    # U W_e by a column gather: column k is v[k] times column k ^ x of U
    for x, v in zip(*_signed_perms(n, 1 << np.arange(2 * n))):
        b, f = _identify_signed_pauli(U[:, k ^ x] * v @ Udag, n)
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
    <c, e_j> is bit j ^ 1 of c.  Elementwise like _midpoint."""
    target = 1 << j
    hit = c >> (j ^ 1) & 1
    need = (1 ^ hit) * (c != target)
    w = _midpoint(c, j, form)
    return hit * (c ^ target) | need * (c ^ w), need * (w ^ target)


def transvection_decomposition(F: F2Matrix) -> list[int]:
    """Vectors v_1..v_m with F = Z_{v_1} Z_{v_2} ... Z_{v_m} (at most 4 per pair)."""
    if not is_symplectic(F):
        raise ValueError("input is not symplectic")
    return _decompose(f2lin._transpose(F.rows, 2 * F.n))


def _decompose(cols) -> list[int]:
    """transvection_decomposition of the symplectic with columns cols,
    which it does not check."""
    cols = list(cols)
    even = (1 << len(cols)) // 3  # the z bits, for J v = (v & even) << 1 | v >> 1 & even
    out = []
    for j in range(len(cols)):
        if cols[j] == 1 << j:
            continue
        for v in _transvection_step(cols[j], j):
            if v:
                # cols <- Z_v cols: c -> c ^ v wherever <c, v> = 1
                jv = (v & even) << 1 | v >> 1 & even
                cols = [c ^ v if (c & jv).bit_count() & 1 else c for c in cols]
                out.append(v)
    if cols != [1 << i for i in range(len(cols))]:
        raise AssertionError("transvections did not reduce F to the identity")
    return out


def _transvection_words(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """transvection_decomposition of every symplectic in an (S, 2n) stack of
    columns, as (S, W) words padded with zeros and their (S,) lengths.

    Each step applies one transvection to every sample, the zero vector
    (Z_0 = 1) where a sample has none to apply; a sample's vectors are
    those of its one-at-a-time decomposition, by the same _transvection_step,
    and its word is its nonzero step vectors in order.
    """
    nn = 2 * n
    if not f2lin._is_symplectic_stack(cols).all():
        raise ValueError("input is not symplectic")
    cols = cols.copy()
    steps = np.empty((len(cols), 2 * nn), dtype=np.int64)
    for j in range(nn):
        for i, v in enumerate(_transvection_step(cols[:, j], j, f2lin._forms)):
            # cols <- Z_v cols: c -> c ^ v wherever <c, v> = 1
            cols ^= v[:, None] * f2lin._forms(cols, v[:, None])
            steps[:, 2 * j + i] = v
    if (cols != 1 << np.arange(nn)).any():
        raise AssertionError("transvections did not reduce F to the identity")
    lengths = np.count_nonzero(steps, axis=1)
    # each row's nonzero vectors in order, then its zeros
    words = np.take_along_axis(steps, np.argsort(steps == 0, axis=1, kind="stable"), axis=1)
    return words[:, :lengths.max(initial=0)], lengths


def _xor_gather(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a[..., k ^ x] for every k along the last axis of a, whose length d is
    a power of 2; x[..., None] broadcasts against a and lies below d, so
    XOR with the flat index [..., k] changes k alone."""
    return a.take(np.arange(a.size).reshape(a.shape) ^ x[..., None])


def _act_words(n: int, words: np.ndarray, lengths: np.ndarray, states: np.ndarray,
               labels=None) -> np.ndarray:
    """(S, R, d) stack: the unitary of word s applied to each row of the
    (R, d) array states.

    Word s, the first lengths[s] vectors of row s of the (S, W) array
    words, lifts to the product of the factors (1 + i W_v)/sqrt(2) over its
    vectors, times e^{-i pi/4} for an odd length (which keeps the entries
    of the dense lift in Q[i]), times W_{labels[s]} on the left.  So the
    last vector acts on a state first and the label last; applied in
    reading order, the word would lift F^{-1}.  See _sorted_action.
    """
    order, phi, _, _ = _sorted_action(n, words, lengths, states, labels)
    out = np.empty_like(phi)
    out[order] = phi
    return out


def _sorted_action(n: int, words: np.ndarray, lengths: np.ndarray, states: np.ndarray,
                   labels=None, paulis=None):
    """(order, phi, x, coef): _act_words of the samples order[0], order[1],
    ..., sorted by word length, longest first, and for the labels of an
    (S, P) array paulis, (W_p phi)[k ^ x[i, p]] = coef[i, p, k] phi[k] for
    sample order[i] (x and coef are None without paulis).

    The samples with more than t vectors, which act at step t, are a
    prefix of that order.  A step is phi <- phi + i W_v phi, with W_v phi
    one signed gather (_pauli_parts); the label, zero when there is none,
    is one more gather that carries the scale 2^{-w/2}, times e^{-i pi/4}
    for odd w, of a word of w vectors.  That scale is (1 - i) 2^{-(w+1)/2}
    for odd w, so a state with entries in Z[i], such as a basis state, is
    acted on exactly.  These are the elementwise operations of one sample
    applied alone, so every entry of a stack equals the entry of that
    sample applied alone, bit for bit.  The parts of the paulis come from
    the same label split as those of the words.  coef holds 8 bytes per
    sample, word column and basis index; a copy of x is all that stays
    of the label split.
    """
    count, width = words.shape
    order = (-lengths).argsort(kind="stable")
    w = lengths[order]
    label = np.zeros((count, 1), dtype=np.int64) if labels is None else np.asarray(labels).reshape(-1, 1)
    vecs = np.concatenate([words, label] + ([] if paulis is None else [paulis]), axis=1)
    x, z, c = _pauli_parts(n, vecs[order])
    del vecs
    c[:, :width] *= 1j
    c[:, width] *= _word_scales(n)[w]
    k, sign = _parity_signs(n)
    # x and z are views of one label split: a copy of x (int64, as the
    # flat indices it is XORed with), z in the type of k and c in complex64
    # release the split and the complex128 c before coef is built, and the
    # loop keeps only x and coef
    x, z, c = x.copy(), z.astype(k.dtype), c.astype(np.complex64)
    # c (-1)^{|z&k|} for every column, exact in complex64: the scales are
    # powers of 2, times 1 - i for odd lengths
    coef = c[..., None] * sign.take(z[..., None] & k)
    del z, c
    # prefix[t] counts the samples with more than t vectors, a prefix as lengths descend
    neg = (-w).tolist()
    prefix = [bisect.bisect_left(neg, -t) for t in range(width)]
    phi = np.empty((count,) + states.shape, dtype=complex)
    phi[:] = states
    flat = _flat_index(phi.shape)
    xs = x[:, :, None, None]
    for t in reversed(range(width)):
        m = prefix[t]
        # (i W_v phi)[k ^ x] = coef[k] phi[k], gathered as in _xor_gather
        phi[:m] += (phi[:m] * coef[:m, t, None]).take(flat[:m] ^ xs[:m, t])
    phi = (phi * coef[:, width, None]).take(flat ^ xs[:, width])
    if paulis is None:
        return order, phi, None, None
    return order, phi, x[:, width + 1:], coef[:, width + 1:]


def _flat_index(shape: tuple) -> np.ndarray:
    """np.arange(size).reshape(shape): the flat index of each entry of an
    array of that shape, which the gathers XOR with x.  Tables of up to
    FLAT_INDEX_CACHED entries are kept, read-only; larger ones are built
    per call, so no stack's table outlives it."""
    size = math.prod(shape)
    if size <= FLAT_INDEX_CACHED:
        return _kept_flat_index(shape)
    return np.arange(size).reshape(shape)


@functools.lru_cache(maxsize=16)
def _kept_flat_index(shape: tuple) -> np.ndarray:
    out = np.arange(math.prod(shape)).reshape(shape)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _word_scales(n: int) -> np.ndarray:
    """2^{-w/2}, times e^{-i pi/4} for odd w, at index w <= 4n, read-only."""
    w = np.arange(4 * n + 1)
    out = np.where(w & 1, 1 - 1j, 1) * np.ldexp(1.0, -((w + 1) // 2))
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _column_basis(n: int) -> np.ndarray:
    """e_0 and e_{2^b} for b < n, the rows of a read-only (n + 1, d) array."""
    out = np.zeros((n + 1, 1 << n), dtype=complex)
    out[np.arange(n + 1), (1 << np.arange(n + 1)) >> 1] = 1
    out.flags.writeable = False
    return out


def _x_images(cols) -> np.ndarray:
    """Labels F x_b, b < n, from the 2n columns of F (the last axis of
    cols), x_b the label of the X that flips bit b of the basis index:
    qubit n - 1 - b, so coordinate 2n - 1 - 2b."""
    return np.asarray(cols, dtype=np.int64)[..., ::-2]


def _lift_dense(n: int, words: np.ndarray, lengths: np.ndarray, images: np.ndarray,
                labels=None) -> np.ndarray:
    """(S, d, d) stack of the unitaries U of _act_words, from n + 1 columns each.

    images[s] holds the labels c_b of F X_b F^{-1} (_x_images) for the
    symplectic F that word s induces.  The word acts on e_0 and the
    e_{2^b}; P_b = U X_b U^dag = sigma_b W_{c_b}, so U e_{2^b} = P_b U e_0
    gives the sign sigma_b, whose modulus must be 1 within 1e-9.  Column k is
    then (prod_b P_b^{k_b}) U e_0: the columns below 2^{b+1} are the ones
    below 2^b and their images under P_b, one signed gather per bit, built
    as the rows of U^T and transposed in the final copy.  The columns are
    exact (_act_words) and the signs and i-powers are exact, so a stack
    equals its samples lifted alone, bit for bit.
    """
    d = 1 << n
    order, cols, x, coef = _sorted_action(n, words, lengths, _column_basis(n), labels, images)
    # (W_c phi)[k] = coef[k ^ x] phi[k ^ x]: two gathers by one index
    idx = _flat_index(coef.shape) ^ x[..., None]
    sigma = np.vecdot((coef * cols[:, :1]).take(idx), cols[:, 1:]).real
    _check_signed_paulis(sigma)
    f = coef.take(idx) * np.sign(sigma)[..., None]
    # column k of U is row k of t; XOR with x changes the entry of a flat
    # index [s, k, j] alone
    t = np.empty((len(cols), d, d), dtype=complex)
    t[:, 0] = cols[:, 0]
    flat = _flat_index(t.shape)
    xs = x[:, :, None, None]
    for b in range(n):
        h = 1 << b
        t[:, h:2 * h] = t.take(flat[:, :h] ^ xs[:, b]) * f[:, b, None]
    lifts = np.empty_like(t)
    lifts[order] = t.transpose(0, 2, 1)
    lifts += 0.0  # -0.0 -> +0.0, as in _lift_product
    return lifts


def _check_signed_paulis(sigma: np.ndarray) -> None:
    """Raise unless |sigma| >= 1 - 1e-9 for the overlaps sigma_b of U e_{2^b}
    with W_{c_b} U e_0: for unit columns |sigma| <= 1, with equality iff
    U e_{2^b} = +-W_{c_b} U e_0."""
    if not np.minimum.reduce(np.abs(sigma), axis=None, initial=1.0) >= 1.0 - 1e-9:
        raise AssertionError("U X_b U^dag is not a signed Pauli of the given labels")


@functools.lru_cache(maxsize=None)
def _factor_table(n: int) -> np.ndarray:
    """1 + i W_v at index v < 4^n, a read-only (4^n, d, d) array of
    Gaussian integers."""
    d = 1 << n
    x, v = _signed_perms(n, np.arange(d * d), 1)
    k = np.arange(d)
    out = np.zeros((d * d, d, d), dtype=complex)
    out[:, k, k] = 1
    out[np.arange(d * d)[:, None], k ^ x[:, None], k] += v
    out.flags.writeable = False
    return out


def _lift_product(n: int, word: list[int], label: int, images: np.ndarray) -> np.ndarray:
    """The unitary of _act_words for one word, W_label scale (1 + i W_{v_1})
    ... (1 + i W_{v_w}), one matrix product per factor of _factor_table.

    W_a = -i (table[a] - 1), so the label is one more product.  Every
    factor is a matrix of Gaussian integers, so the products are exact,
    and the scale of _word_scales times -i is (-1 - i) or -i times a power
    of 2, so U equals the column lift of _lift_dense exactly; both turn
    -0.0 into +0.0.  images holds the labels c_b of F X_b F^{-1}, checked
    as in _lift_dense: |Re <W_{c_b} U e_0, U e_{2^b}>| is
    |Im <(table[c_b] - 1) U e_0, U e_{2^b}>|.
    """
    table = _factor_table(n)
    u = functools.reduce(np.matmul, [table[v] for v in word] or [np.eye(1 << n, dtype=complex)])
    u = (table[label] @ u - u) * (-1j * _word_scales(n)[len(word)]) + 0.0
    cols = u[:, (1 << np.arange(n + 1)) >> 1].T
    _check_signed_paulis(np.vecdot(table[images] @ cols[0] - cols[0], cols[1:]).imag)
    return u


def lift_symplectic(F: F2Matrix) -> CliffordElement:
    """Some Clifford unitary inducing F, built from transvection factors.

    Each transvection Z_v lifts to (1 + i W_v)/sqrt(2); an extra global
    phase keeps all matrix entries in Q[i] when the factor count is odd.
    The representative is one of the 4d^2 unitaries inducing F and is
    deterministic but otherwise arbitrary, and carries F as .symplectic.
    """
    if not is_symplectic(F):
        raise ValueError("input is not symplectic")
    return _lift_one(F, f2lin._transpose(F.rows, 2 * F.n))


def _lift_one(F: F2Matrix, cols, label: int = 0) -> CliffordElement:
    """The lift of a symplectic F with columns cols, which it does not
    check, times W_label: a product of cached factors (_lift_product) where
    their table fits LIFT_TABLE_BYTES, else from n + 1 columns."""
    word = _decompose(cols)
    images = _x_images(cols)
    if 16 << 4 * F.n <= LIFT_TABLE_BYTES:  # _factor_table(F.n).nbytes
        U = _lift_product(F.n, word, label, images)
    else:
        U = _lift_dense(F.n, np.array(word, dtype=np.int64)[None, :], np.array([len(word)]),
                        images[None], [label])[0]
    return CliffordElement(U, F.n, F)


def _sample_words(n: int, rng: np.random.Generator, count: int):
    """(cols, words, lengths, labels) of count uniform projective Cliffords:
    the symplectics' columns and transvection words, and the Pauli labels.
    Each sample draws a uniform Sp(2n,F2) index and then a uniform Pauli
    label, in the order of count random_clifford calls."""
    draws = f2lin._rand_below_many(rng, [f2lin.sp_order(n), 1 << (2 * n)] * count)
    cols = f2lin._cols_from_indices(draws[0::2], n)
    return cols, *_transvection_words(cols, n), np.array(draws[1::2], dtype=np.int64)


def random_clifford_unitaries(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of count uniform projective Clifford unitaries, shape (count, d, d).

    The stack equals count random_clifford draws from the same generator,
    entry for entry, and leaves the generator in the same state; the
    symplectics are decoded and decomposed as one stack, then lifted.
    """
    cols, words, lengths, labels = _sample_words(n, rng, count)
    return _lift_dense(n, words, lengths, _x_images(cols), labels)


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform projective Clifford element: W_a times the lift of a uniform
    symplectic F (lift_symplectic), for a uniform Pauli label a.

    The representative's entries are dyadic Gaussian rationals, in Q[i]:
    the lift multiplies its factors (1 + i W_v)/sqrt(2) by e^{-i pi/4} when
    their count is odd.  That fixes its global phase up to a power of i, which
    clifford_trace_check needs: [tr U]^4 = (-4)^{dim ker(F-1)} holds for
    it, and a factor e^{i pi/4} would flip the sign of [tr U]^4.  The orbit
    and frame-potential metrics do not depend on the phase.  The element
    carries its sampled symplectic."""
    index, label = f2lin._rand_below_many(rng, [f2lin.sp_order(n), 1 << (2 * n)])
    cols = f2lin._cols_from_index(index, n)
    return _lift_one(F2Matrix(f2lin._transpose(cols, 2 * n), n), cols, label)


@dataclass(frozen=True)
class TraceCheckReport:
    trace: complex
    kernel_dim: int
    traceless: bool
    passed: bool


def clifford_trace_check(U: CliffordElement, atol: float = 1e-8) -> TraceCheckReport:
    """Check [tr U]^4 = (-4)^{dim ker(F-1)} whenever tr U is not zero."""
    tr = complex(U.matrix.trace())
    dim = fixed_space_dim(U.symplectic)
    if abs(tr) <= atol:
        return TraceCheckReport(tr, dim, True, True)
    want = (-4.0) ** dim
    ok = abs(tr**4 - want) < 1e-6 * 4.0**dim
    return TraceCheckReport(tr, dim, False, ok)


# ---------------------------------------------------------------------------
# projective orbits


@functools.lru_cache(maxsize=None)
def _group_words(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, words, lengths) of every element of Sp(2n,F2), n <= 2, in
    index order, as read-only arrays built once per process."""
    if n < 1:
        raise f2lin.DimensionError(f"Sp(2n,F2) needs n >= 1, got n={n}")
    if n > ORBIT_MAX_N:
        raise CapacityError(
            f"projective Clifford group at n={n} has {f2lin.sp_order(n) * 4**n}"
            " elements; orbits are materialized only for n <= 2"
        )
    cols = f2lin._cols_from_indices(range(f2lin.sp_order(n)), n)
    out = (cols, *_transvection_words(cols, n))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def projective_clifford_unitaries(n: int) -> np.ndarray:
    """One unitary per projective Clifford element, shape (|Sp| d^2, d, d),
    read-only as it is shared by every caller.

    Supported for n <= 2 (24 and 11 520 elements).  Element i d^2 + a is
    W_a times the lift of symplectic i, its transvection word lifted with
    the label a (_lift_dense).  The orbit routines act on states instead
    and never form this stack."""
    cols, words, lengths = _group_words(n)
    d2 = 1 << (2 * n)
    group = _lift_dense(n, np.repeat(words, d2, axis=0), np.repeat(lengths, d2),
                        np.repeat(_x_images(cols), d2, axis=0),
                        np.tile(np.arange(d2), len(cols)))
    group.flags.writeable = False
    return group


def _symplectic_images(psi: np.ndarray, n: int) -> np.ndarray:
    """(|Sp|, d) stack of U_F psi, U_F the lift of each symplectic in index order."""
    _, words, lengths = _group_words(n)
    if psi.shape != (1 << n,):
        raise f2lin.DimensionError(f"expected a state of length {1 << n} for n={n}")
    return _act_words(n, words, lengths, psi[None, :])[:, 0]


def _coset_overlaps(psi: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """|<psi|W_a phi>| for every row phi of an (S, d) stack and every label
    a = (z, m), at [s, m, z'] for some z' that depends on z alone.

    <psi|W_a phi> = c sum_k (-1)^{|z&k|} conj(psi_{k^m}) phi_k with |c| = 1:
    one Walsh-Hadamard product of length d per X-mask m.  This is the
    full-length transform; the half-length pair rule of the characteristic
    function holds only for phi = psi.
    """
    d = len(psi)
    k = np.arange(d)
    g = psi.conj()[k[:, None] ^ k] * phis[:, None, :]
    return np.abs(g.reshape(-1, d) @ _hadamard(d.bit_length() - 1)).reshape(-1, d, d)


def _stabilizer_count(psi: np.ndarray, n: int) -> int:
    """|Stab(psi)|, n <= 2: the projective Clifford elements with
    |<psi|U psi>| = 1 within ORBIT_STAB_ATOL, read off the coset overlaps
    of the |Sp| word actions on psi, which must be normalized.  The count
    must divide the group order |Sp| d^2, else AssertionError; the orbit
    of psi has |Sp| d^2 / |Stab(psi)| states."""
    ov = _coset_overlaps(psi, _symplectic_images(psi, n))
    stab = int(np.count_nonzero(np.abs(ov - 1.0) <= ORBIT_STAB_ATOL))
    order = f2lin.sp_order(n) << 2 * n
    if stab == 0 or order % stab:
        raise AssertionError(f"stabilizer of {stab} elements does not divide the group order {order}")
    return stab


@functools.lru_cache(maxsize=None)
def _key_weights(size: int) -> np.ndarray:
    """Fixed pseudorandom uint64 words: the splitmix64 outputs for 1..size,
    in wrapping uint64 arithmetic; read-only."""
    z = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z.flags.writeable = False
    return z


def _key_probes(d: int) -> np.ndarray:
    """Two fixed pseudorandom unit vectors of length d, the rows of a (2, d)
    array: _key_weights(4 d) read as uniform numbers in [-1/2, 1/2), real
    parts then imaginary parts."""
    w = _key_weights(4 * d) / 2.0**64 - 0.5
    r = (w[:2 * d] + 1j * w[2 * d:]).reshape(2, d)
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def projective_orbit(psi: np.ndarray, n: int) -> list[np.ndarray]:
    """All distinct states (up to global phase) in the Clifford orbit of psi.

    The states W_a U_F psi come from the |Sp| word actions U_F psi and d^2
    signed gathers; element i d^2 + a has symplectic i and label a.  The
    key of a state phi is |<r|phi>|^2 for the two probes r of _key_probes,
    times 10^ORBIT_DEDUP_DECIMALS and rounded to integers: a hash of its
    ray, two numbers in place of the d^2 entries of |phi><phi|.  Each key
    keeps its first state, in group order, and every state must be the ray
    of its key's first state, |<rep|phi>| = 1 within ORBIT_STAB_ATOL.  Then
    the orbit size times |Stab(psi)| (_stabilizer_count) must be the group
    order; both checks raise AssertionError.  Production code takes orbit
    sizes from _stabilizer_count alone; this materialized orbit is their
    test oracle.
    """
    phis = _symplectic_images(psi, n)
    _check_normalized(psi)
    d2 = 1 << (2 * n)
    x, v = _signed_perms(n, np.arange(d2))
    # (W_a phi)[k] = v[a, k ^ x_a] phi[k ^ x_a]
    states = _xor_gather(phis[:, None, :] * v, x).reshape(d2 * len(phis), -1)
    keys = np.abs(states @ _key_probes(len(psi)).conj().T) ** 2 * 10.0**ORBIT_DEDUP_DECIMALS
    # each key is at most 10^9 < 2^32, so one int64 holds both
    keys = np.rint(keys).astype(np.int64) << np.array([32, 0])
    _, first, inverse = np.unique(keys[:, 0] | keys[:, 1], return_index=True, return_inverse=True)
    if not (np.abs(np.abs(np.vecdot(states[first[inverse]], states)) - 1.0) <= ORBIT_STAB_ATOL).all():
        raise AssertionError("two orbit states share a hash but not a ray")
    orbit = states[np.sort(first)]
    stab = _stabilizer_count(psi, n)
    if len(orbit) * stab != len(states):
        raise AssertionError(
            f"orbit of {len(orbit)} states and stabilizer of {stab} elements do not"
            f" multiply to the group order {len(states)}")
    return list(orbit)
