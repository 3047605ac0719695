"""Exact linear algebra over GF(2) with the symplectic form.

Vectors in F_2^{2n} are plain Python ints: bit k of the int is coordinate
k+1 of the vector.  Coordinates are interleaved per qubit, so bits
(2i, 2i+1) carry the (z, x) components of qubit i+1.  The symplectic form
is <a,b> = a^T J b with J block-diagonal, n blocks of [[0,1],[1,0]].

Matrices act on column vectors; an F2Matrix stores its 2n rows as ints,
so (M v) bit i = parity(rows[i] & v).

The module provides enumeration and exactly-uniform sampling of
Sp(2n, F_2) (one index at a time, or a stack of indices decoded by
whole-array bit operations), fixed-space dimensions, closed-form orbit
counts and the fixed-space histogram for every n, and maximal isotropic
subspaces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "F2Matrix",
    "IsotropicSubspace",
    "symplectic_form",
    "is_symplectic",
    "fixed_space_dim",
    "sp_order",
    "enumerate_sp",
    "symplectic_from_index",
    "random_symplectic",
    "maximal_isotropic_subspaces",
    "sp_orbit_count",
    "matrix_to_hex",
    "matrix_from_hex",
]

SP_ENUM_MAX_N = 3
# enumerate_sp decodes this many consecutive indices as one stack
SP_ENUM_BLOCK = 4096
ISOTROPIC_MAX_N = 4


class DimensionError(ValueError):
    """Operands have mismatched or invalid GF(2) dimensions."""


class CapacityError(ValueError):
    """Requested exhaustive computation exceeds the supported size."""


@dataclass(frozen=True)
class F2Matrix:
    """2n x 2n matrix over GF(2), stored as row bitmasks."""

    rows: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.rows) != 2 * self.n:
            raise DimensionError(f"expected {2 * self.n} rows, got {len(self.rows)}")
        mask = (1 << (2 * self.n)) - 1
        if min(self.rows, default=0) < 0 or max(self.rows, default=0) > mask:
            raise DimensionError("row bitmask out of range")

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.n != other.n:
            raise DimensionError("size mismatch")
        return F2Matrix(_mat_mul(self.rows, other.rows), self.n)

    def apply(self, v: int) -> int:
        """Matrix-vector product over GF(2)."""
        return _mat_vec(self.rows, v)

    def transpose(self) -> "F2Matrix":
        return F2Matrix(_transpose(self.rows, 2 * self.n), self.n)

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix(tuple(1 << i for i in range(2 * n)), n)


@dataclass(frozen=True)
class IsotropicSubspace:
    """Subspace of F_2^{2n} on which the symplectic form vanishes.

    The basis is kept in reduced row echelon form (sorted by leading bit,
    descending) so equal subspaces compare equal.
    """

    basis: tuple[int, ...]
    n: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectors(self) -> list[int]:
        """All 2^dim elements of the subspace."""
        out = [0]
        for b in self.basis:
            out += [v ^ b for v in out]
        return out


# ---------------------------------------------------------------------------
# elementary bit operations


def _parity(x: int) -> int:
    return x.bit_count() & 1


# the z bits of the first 32 qubits; wider ints build their own mask
_EVEN_BITS = 0x5555555555555555


def _swap_pairs(v):
    """J v: swap the (z, x) bits within every qubit pair.  Exact for an int
    of any width; int64 arrays take the 64-bit mask."""
    even = _EVEN_BITS
    if isinstance(v, int) and v >> 64:
        even = (1 << ((v.bit_length() | 1) + 1)) // 3
    return ((v & even) << 1) | ((v >> 1) & even)


def _omega(a: int, b: int) -> int:
    """<a,b> without the range check, for the inner loops: _swap_pairs of
    an int, inlined."""
    even = _EVEN_BITS if not b >> 64 else (1 << ((b.bit_length() | 1) + 1)) // 3
    return (a & ((b & even) << 1 | (b >> 1) & even)).bit_count() & 1


def symplectic_form(a: int, b: int, n: int) -> int:
    """<a,b> = a^T J b over GF(2)."""
    mask = (1 << (2 * n)) - 1
    if a < 0 or b < 0 or a > mask or b > mask:
        raise DimensionError("vector does not fit in 2n bits")
    return _omega(a, b)


def _mat_vec(rows, v: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= _parity(r & v) << i
    return out


def _mat_mul(a_rows, b_rows):
    out = []
    for ra in a_rows:
        acc = 0
        j = 0
        while ra:
            if ra & 1:
                acc ^= b_rows[j]
            ra >>= 1
            j += 1
        out.append(acc)
    return tuple(out)


def _transpose(vecs, m: int) -> tuple[int, ...]:
    """Transpose of the bit matrix with vectors vecs of m bits each: bit j
    of out[i] is bit i of vecs[j].  Turns rows into columns and back."""
    out = [0] * m
    for j, v in enumerate(vecs):
        bit = 1 << j
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return tuple(out)


def _gauss_jordan(rows, m: int) -> tuple[dict[int, int], list[int]]:
    """Gauss-Jordan elimination of the augmented rows [rows | I] on bits 0..m-1.

    Returns the fully reduced pivot rows, keyed by pivot bit, and the
    identity parts h of the rows that reduced to zero: a basis of the
    relations, XOR of rows[i] over the set bits i of h equal to 0.
    """
    mask = (1 << m) - 1
    pivots: dict[int, int] = {}
    null = []
    for i, r in enumerate(rows):
        r |= 1 << (m + i)
        for h, p in pivots.items():
            if (r >> h) & 1:
                r ^= p
        if not r & mask:
            null.append(r >> m)
            continue
        h = (r & mask).bit_length() - 1
        for k, p in pivots.items():
            if (p >> h) & 1:
                pivots[k] = p ^ r
        pivots[h] = r
    return pivots, null


def _inverse(rows, m: int) -> tuple[int, ...]:
    """Rows of the inverse of the m x m matrix with the given rows."""
    pivots, null = _gauss_jordan(rows, m)
    if null:
        raise ValueError("matrix is singular")
    return tuple(pivots[c] >> m for c in range(m))


def _kernel(cols, m: int) -> list[int]:
    """Kernel of the map with the given columns (m-bit images), as its
    reduced echelon basis in ascending order."""
    k = len(cols)
    # eliminating the relations once more reduces them to echelon form
    pivots, _ = _gauss_jordan(_gauss_jordan(cols, m)[1], k)
    return sorted(p & ((1 << k) - 1) for p in pivots.values())


# ---------------------------------------------------------------------------
# symplectic predicates


def is_symplectic(F: F2Matrix) -> bool:
    """True iff F J F^T = J, i.e. F preserves the form on all basis pairs."""
    nn = 2 * F.n
    cols = _transpose(F.rows, nn)
    for i in range(nn):
        for j in range(i + 1, nn):
            want = 1 if j == i ^ 1 else 0
            if _omega(cols[i], cols[j]) != want:
                return False
    return True


def fixed_space_dim(F: F2Matrix) -> int:
    """dim ker(F - 1) over GF(2); the number of fixed vectors is 2^result.

    F - 1 is square, so its rows satisfy as many independent relations as
    its kernel has dimensions."""
    rows = [r ^ (1 << i) for i, r in enumerate(F.rows)]
    return len(_gauss_jordan(rows, 2 * F.n)[1])


def transvection(a: int, v: int, n: int) -> int:
    """Symplectic transvection Z_a: v -> v + <v,a> a."""
    return v ^ a if symplectic_form(v, a, n) else v


def transvection_matrix(a: int, n: int) -> F2Matrix:
    nn = 2 * n
    cols = [transvection(a, 1 << j, n) for j in range(nn)]
    return F2Matrix(_transpose(cols, nn), n)


# ---------------------------------------------------------------------------
# enumeration of Sp(2n, F_2)
#
# Every F in Sp(2n) factors uniquely as F = L(f1, g) (I_2 + G') where
# (f1, g) is the image of the first hyperbolic pair (any of the
# (2^{2n}-1) 2^{2n-1} valid pairs), L is a fixed representative mapping
# (e0, e1) -> (f1, g), and G' ranges over Sp(2n-2) acting on the trailing
# coordinates.  Iterating this gives both a deterministic enumeration and
# an index <-> element bijection used for exactly-uniform sampling.


@functools.cache
def sp_order(n: int) -> int:
    """|Sp(2n, F_2)| = 2^{n^2} prod_{i=1..n} (4^i - 1)."""
    total = 1 << (n * n)
    for i in range(1, n + 1):
        total *= (1 << (2 * i)) - 1
    return total


def _second_image(f1, b, form=_omega):
    """The b-th vector g with <f1, g> = 1: the bits of b deposited around
    j* = ctz(J f1), and bit j* set so that <f1, g> = 1.  Python ints with
    form=_omega, or int64 arrays elementwise with form=_forms."""
    jf = _swap_pairs(f1)
    low = jf & -jf
    dep = (b & (low - 1)) | ((b & -low) << 1)
    return dep | low * (1 ^ form(dep, f1))


def _symplectic_basis(form, m: int, pairs=(), u_pool=None) -> list[int]:
    """Columns (u1, v1, u2, v2, ...) in which the nondegenerate alternating
    form on F_2^m is standard: form(u_i, v_i) = 1, all other pairs 0.

    The basis starts with the given hyperbolic pairs.  Each round projects
    the unit vectors, and u_pool when given, onto the form-complement of
    the pairs so far, c -> c ^ v form(u, c) ^ u form(v, c) per pair (u, v).
    The new u is the first nonzero projection, of u_pool when given and of
    the unit vectors otherwise, and the new v is the first projection of a
    unit vector that pairs with u.  An isotropic u_pool of dimension m/2
    thus becomes the span of the u_i.

    Projection is linear and the rounds' projections compose, so a vector
    that some round finds dependent on the vectors before it stays
    dependent on their projections in every later round.  It is then
    neither the first with a nonzero projection nor the first whose
    projection pairs with u, as a vector before it would be.  Keeping only
    the independent projections of each round picks the same u and v.
    """
    cols = [c for pair in pairs for c in pair]
    units = [1 << j for j in range(m)]
    # v comes from the unit vectors, u from u_pool when given
    pools = [units] if u_pool is None else [units, list(u_pool)]
    new = cols
    while len(cols) < m:
        for u, v in zip(new[::2], new[1::2]):
            pools = [[c ^ v * form(u, c) ^ u * form(v, c) for c in pool] for pool in pools]
        u = next(c for c in pools[-1] if c)
        v = next(c for c in pools[0] if form(u, c))
        new = [u, v]
        cols += new
    return cols


def _pair_representative(q: int, n: int) -> tuple[int, ...]:
    """Rows of the coset representative for pair index q in [0, (2^{2n}-1) 2^{2n-1})."""
    nn = 2 * n
    f1_idx, b = divmod(q, 1 << (nn - 1))
    f1 = f1_idx + 1
    cols = _symplectic_basis(_omega, nn, [(f1, _second_image(f1, b))])
    return _transpose(cols, nn)


def enumerate_sp(n: int) -> Iterator[np.ndarray]:
    """Yield every element of Sp(2n, F_2) exactly once (1 <= n <= 3), in
    index order: the rows of symplectic_from_index(0, n), (1, n), ... as
    (S, 2n) int64 stacks of at most SP_ENUM_BLOCK consecutive indices,
    decoded by the stack decoder."""
    if n < 1:
        raise DimensionError(f"Sp(2n,F2) needs n >= 1, got n={n}")
    if n > SP_ENUM_MAX_N:
        raise CapacityError(
            f"|Sp({2 * n},F2)| = {sp_order(n)} is beyond exhaustive enumeration; "
            "use random_symplectic for sampling"
        )
    total = sp_order(n)
    for lo in range(0, total, SP_ENUM_BLOCK):
        yield _rows_from_indices(range(lo, min(lo + SP_ENUM_BLOCK, total)), n)


def symplectic_from_index(index: int, n: int) -> F2Matrix:
    """The index-th element of the enumeration order, 0 <= index < sp_order(n)."""
    if not 0 <= index < sp_order(n):
        raise ValueError("index out of range")
    rows = _rows_from_index(index, n)
    return F2Matrix(rows, n)


def _rows_from_index(index: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return _pair_representative(index, 1)
    q, r = divmod(index, sp_order(n - 1))
    # the (n-1)-qubit factor acts on the trailing coordinates
    sub = (1, 2) + tuple(row << 2 for row in _rows_from_index(r, n - 1))
    return _mat_mul(_pair_representative(q, n), sub)


# ---------------------------------------------------------------------------
# stacks of symplectic matrices: (S, 2n) int64 arrays of rows or columns


def _forms(a, b):
    """<a, b> elementwise over int64 arrays, as 0/1."""
    return np.bitwise_count(a & _swap_pairs(b)) & 1


def _transpose_stack(a: np.ndarray, m: int) -> np.ndarray:
    """Rows to columns (or back) of a stack of m x m bit matrices."""
    bits = (a[:, :, None] >> np.arange(m)) & 1
    return (bits << np.arange(m)[:, None]).sum(axis=1)


def _apply_stack(cols: np.ndarray, vecs: np.ndarray, m: int) -> np.ndarray:
    """(S, p) images of the p vectors of each sample under its m x m matrix."""
    bits = (vecs[:, :, None] >> np.arange(m)) & 1
    return np.bitwise_xor.reduce(bits * cols[:, None, :], axis=2)


def _is_symplectic_stack(cols: np.ndarray) -> np.ndarray:
    """(S,) flags: is_symplectic of each sample, given its columns."""
    m = cols.shape[1]
    J = np.arange(m)[:, None] == np.arange(m) ^ 1
    return (_forms(cols[:, :, None], cols[:, None, :]) == J).all(axis=(1, 2))


def _pair_representatives(q: np.ndarray, k: int) -> np.ndarray:
    """(S, 2k) columns of _pair_representative(q_s, k) for each pair index q_s.

    g is _second_image of each (f1, b), and the basis is completed by the
    rule of _symplectic_basis, for every sample at once.
    """
    m = 2 * k
    f1 = (q >> (m - 1)) + 1
    b = q & ((1 << (m - 1)) - 1)
    cols = np.empty((len(q), m), dtype=np.int64)
    cols[:, 0] = f1
    cols[:, 1] = _second_image(f1, b, _forms)
    proj = np.tile(1 << np.arange(m), (len(q), 1))
    s = np.arange(len(q))
    for r in range(2, m, 2):
        u, v = cols[:, r - 2, None], cols[:, r - 1, None]
        proj ^= v * _forms(u, proj) ^ u * _forms(v, proj)
        cols[:, r] = proj[s, np.argmax(proj != 0, axis=1)]
        cols[:, r + 1] = proj[s, np.argmax(_forms(cols[:, r, None], proj), axis=1)]
    return cols


def _rows_from_indices(indices, n: int) -> np.ndarray:
    """(S, 2n) int64 rows of symplectic_from_index(i, n) for each i of indices.

    Each index is split into its per-level pair indices, as by
    _rows_from_index; the levels' representatives are multiplied as bit
    matrices over the whole stack, innermost first.
    """
    rest = np.array(indices, dtype=object)  # indices pass 2^63 from n = 6 on
    pair_idx = []
    for k in range(n, 1, -1):
        pair_idx.append((rest // sp_order(k - 1)).astype(np.int64))
        rest = rest % sp_order(k - 1)
    cols = _pair_representatives(rest.astype(np.int64), 1)
    for k, q in zip(range(2, n + 1), reversed(pair_idx)):
        left = _pair_representatives(q, k)
        cols = np.concatenate([left[:, :2], _apply_stack(left, cols << 2, 2 * k)], axis=1)
    return _transpose_stack(cols, 2 * n)


def _rand_below_many(rng, bounds) -> list[int]:
    """Uniform integers in [0, b) for each b of bounds, any size.

    The result and the generator's final state equal those of one
    _rand_below call per bound, in order: each bound takes the top bits of
    the next ceil(bits/32) 32-bit words and rejects values >= b.  Each
    rng.integers call draws the words that the remaining bounds need if
    nothing more is rejected, so no word is drawn that those calls would
    not draw.
    """
    sizes = [(b.bit_length() + 31) // 32 for b in bounds]
    need = sum(sizes)  # words that the bounds from the current one on need
    out = []
    words, pos = [], 0
    for b, nw in zip(bounds, sizes):
        while True:
            if pos + nw > len(words):
                words = words[pos:]
                words += rng.integers(0, 1 << 32, size=need - len(words),
                                      dtype=np.uint64).tolist()
                pos = 0
            x = words[pos]
            for w in words[pos + 1:pos + nw]:
                x = (x << 32) | w
            pos += nw
            x >>= nw * 32 - b.bit_length()
            if x < b:
                out.append(x)
                break
        need -= nw
    return out


def _rand_below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) from a numpy Generator, any bound size."""
    return _rand_below_many(rng, [bound])[0]


def random_symplectic(n: int, rng: np.random.Generator) -> F2Matrix:
    """Exactly uniform element of Sp(2n, F_2).

    Draws a uniform index into the constructive enumeration, so every
    group element has probability exactly 1/|Sp(2n, F_2)|.
    """
    return symplectic_from_index(_rand_below(rng, sp_order(n)), n)


# ---------------------------------------------------------------------------
# orbit counts and fixed-space statistics, in closed form


@functools.cache
def _gaussian_binomial(m: int, r: int) -> int:
    """Number of r-dimensional subspaces of F_2^m."""
    num = math.prod((1 << (m - i)) - 1 for i in range(r))
    return num // math.prod((1 << (i + 1)) - 1 for i in range(r))


@functools.cache
def _gl_order(k: int) -> int:
    """|GL(k, F_2)|."""
    return math.prod((1 << k) - (1 << i) for i in range(k))


def sp_orbit_count(n: int, m: int) -> int:
    """Number of Sp(2n, F_2)-orbits on m-tuples of vectors of F_2^{2n}.

    By Witt's theorem an orbit is fixed by the relations of the tuple, a
    subspace of F_2^m of codimension r, and the form induced on the
    quotient F_2^r, an alternating form of rank 2s; it occurs iff
    r - s <= n.  There are [r, 2s]_2 |GL(2s)| / |Sp(2s)| such forms.
    By Burnside's lemma this is also the group average of 2^{m dim ker(F-1)}.
    """
    if n < 1:
        raise DimensionError(f"Sp(2n,F2) needs n >= 1, got n={n}")
    if m < 0:
        raise ValueError(f"tuple length must be >= 0, got {m}")
    return _orbit_counts(n, m)[m]


def _orbit_counts(n: int, m_max: int) -> list[int]:
    """sp_orbit_count(n, m) for m = 0..m_max; the number of forms on the
    quotient F_2^r is summed once per r and shared by every m."""
    forms = [
        sum(
            _gaussian_binomial(r, 2 * s) * _gl_order(2 * s) // sp_order(s)
            for s in range(max(r - n, 0), r // 2 + 1)
        )
        for r in range(m_max + 1)
    ]
    return [
        sum(_gaussian_binomial(m, r) * forms[r] for r in range(m + 1))
        for m in range(m_max + 1)
    ]


@functools.lru_cache(maxsize=None)
def fixed_dim_histogram(n: int) -> tuple[int, ...]:
    """Histogram over Sp(2n, F_2) of dim ker(F - 1); entry k counts dims == k.

    By Burnside's lemma sum_k c_k 2^{mk} = |Sp| sp_orbit_count(n, m); the
    equations m = 0..2n form a Vandermonde system in the nodes 2^k, solved
    exactly by Lagrange interpolation.  The Lagrange numerators
    prod_{j != k} (x - 2^j) come from one product over every j by
    synthetic division.
    """
    nn = 2 * n
    moments = [sp_order(n) * c for c in _orbit_counts(n, nn)]
    # prod_j (x - 2^j), coefficients lowest first
    full = [1]
    for j in range(nn + 1):
        full = [a - (b << j) for a, b in zip([0] + full, full + [0])]
    counts = []
    for k in range(nn + 1):
        # full / (x - 2^k): the quotient's coefficients, highest first
        poly, q = [], 0
        for a in reversed(full[1:]):
            q = a + (q << k)
            poly.append(q)
        num = sum(p * mom for p, mom in zip(reversed(poly), moments))
        den = math.prod((1 << k) - (1 << j) for j in range(nn + 1) if j != k)
        c, rem = divmod(num, den)
        if rem or c < 0:
            raise AssertionError(f"fixed-space count at dim {k} is not a count")
        counts.append(c)
    return tuple(counts)


# ---------------------------------------------------------------------------
# isotropic subspaces


@functools.lru_cache(maxsize=None)
def maximal_isotropic_subspaces(n: int) -> tuple[IsotropicSubspace, ...]:
    """All dimension-n isotropic subspaces of F_2^{2n}, in canonical form.

    Their number is prod_{i=1..n} (2^i + 1).  Reduced echelon bases are
    grown one row per level with descending pivots, the whole frontier of
    partial bases at once: a new row v has its pivot h below the last
    pivot so far, at a bit no earlier row sets, with room below h for the
    pivots still to come, and is orthogonal to every row.  Each level lists
    the (basis, h) pairs, expands each to its candidates v in
    [2^h, 2^{h+1}) and keeps the orthogonal ones.  Parents stay in order
    and their candidates ascend, so the frontier stays sorted and each
    subspace is reached once, in sorted order.
    """
    if n > ISOTROPIC_MAX_N:
        raise CapacityError(f"isotropic enumeration supported for n <= {ISOTROPIC_MAX_N}")
    bits = np.arange(2 * n)
    bases = np.zeros((1, 0), dtype=np.int64)
    used = np.zeros(1, dtype=np.int64)  # OR of each basis's rows
    top = np.array([2 * n])  # last pivot of each basis
    for level in range(n):
        free = (used[:, None] >> bits & 1) == 0
        room = np.cumsum(free, axis=1) - free >= n - level - 1
        parent, h = np.nonzero(free & room & (bits < top[:, None]))
        size = 1 << h
        start = np.cumsum(size) - size
        parent, h = np.repeat(parent, size), np.repeat(h, size)
        v = (1 << h) + np.arange(len(h)) - np.repeat(start, size)
        keep = ~_forms(bases[parent], v[:, None]).any(axis=1)
        parent, h, v = parent[keep], h[keep], v[keep]
        bases = np.concatenate([bases[parent], v[:, None]], axis=1)
        used, top = used[parent] | v, h
    return tuple(IsotropicSubspace(tuple(b), n) for b in bases.tolist())


# ---------------------------------------------------------------------------
# serialization


def matrix_to_hex(F: F2Matrix) -> str:
    """One lowercase hex row per line; bit k of the row int is coordinate k+1."""
    return "\n".join(format(r, "x") for r in F.rows)


def matrix_from_hex(text: str, n: int) -> F2Matrix:
    rows = tuple(int(line.strip(), 16) for line in text.strip().splitlines())
    return F2Matrix(rows, n)
