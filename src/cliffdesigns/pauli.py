"""Phase-exact Pauli operators indexed by F_2^{2n}.

A label (a, j) stands for the operator i^j W_a, where W_a is the tensor
product of single-qubit matrices sigma_{(z,x)} selected by the interleaved
bit pairs of a (see f2lin for the bit convention), and j is a power of i
kept modulo 4.  With sigma_{(z,x)} = i^{zx} X^x Z^z the bare W_a (j = 0)
is always Hermitian and squares to the identity.

Every i^j W_a is a signed permutation of the computational basis: with
(z, x) = label_split(a, n) it sends |k> to i^{j + |z&x|} (-1)^{|z&k|} |k ^ x>,
|.| the popcount.  One kernel returns that pair (x, phases); dense
matrices, the Clifford lift and its word action, and the copy-pair means
of stabrep's isotropic-orbit states all read W_a from it, so the sign and
i-power conventions live in one place.

The characteristic function of a state collects all d^2 real expectation
values <psi|W_a|psi>.  One kernel computes it for a batch of states.  Per
X-mask m it keeps one product conj(psi_k) psi_{k^m} of each Hermitian pair
{k, k^m} and transforms its real and imaginary parts by real Walsh-Hadamard
GEMMs of length L = d/2, H_L = H_{L/b} (x) H_b, b = min(L, 32): 2 d L (L/b + b)
real multiply-adds per state, not d^3 complex ones.  The purity identity
checks each state's transform.  It takes the batch in chunks of at most 2^16
transformed entries, so memory stays a few MB plus two gather tables of
d/2 entries per row: d rows per state, for the batch's state count rounded
up to a power of 2, and at most max(2^16/d, d) rows, so one state reads
tables of d^2/2 entries and a large batch those of one full chunk.  The
cached tables are read-only, as every caller shares them.
"""

from __future__ import annotations

import functools

import numpy as np

from .f2lin import DimensionError, _Record, _set

__all__ = [
    "PauliLabel",
    "CharacteristicFunction",
    "pauli_matrix",
    "characteristic_function",
    "ell4_norm4",
    "alpha_plus",
    "label_split",
    "label_join",
]

_I_POW = np.array([1, 1j, -1, -1j])

NORM_ATOL = 1e-10


class NormalizationError(ValueError):
    """State vector is not normalized to within tolerance."""


class PauliLabel(_Record):
    """The operator i^phase_exp * W_a on n qubits."""

    __slots__ = ("n", "a", "phase_exp")

    def __init__(self, n: int, a: int, phase_exp: int = 0):
        if not 0 <= a < (1 << (2 * n)):
            raise DimensionError("label out of range for n qubits")
        _set(self, "n", n)
        _set(self, "a", a)
        _set(self, "phase_exp", phase_exp % 4)

    @staticmethod
    def identity(n: int) -> "PauliLabel":
        return PauliLabel(n, 0, 0)

    def inverse(self) -> "PauliLabel":
        # W_a^2 = 1, so the inverse only flips the i-power
        return PauliLabel(self.n, self.a, -self.phase_exp)


def _read_only(*arrays: np.ndarray):
    """The arrays marked read-only, as a cached table is shared by every caller:
    the one array, or a tuple of them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@functools.cache
def _split_table() -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """(z, x) nibbles of each label byte, the byte's first qubit in the top
    bit: as Python ints for int labels, and as the first two rows of a
    read-only (3, 256) array whose last row counts the byte's Y factors, |z & x|."""
    b = np.arange(256)
    z, x = (sum((b >> 2 * i + s & 1) << 3 - i for i in range(4)) for s in (0, 1))
    return tuple(zip(z.tolist(), x.tolist())), _read_only(np.stack([z, x, np.bitwise_count(z & x)]))


def label_split(a: int, n: int) -> tuple[int, int]:
    """Compressed (z_mask, x_mask) in state-bit order (qubit 1 = MSB).

    a may also be an int array, split elementwise (_split_labels).  Each
    byte of a holds four qubits and is looked up in one table; the nibbles
    of the qubits past n are shifted out at the end."""
    if isinstance(a, np.ndarray):
        return _split_labels(a, n)[:2]
    pairs = _split_table()[0]
    z = x = 0
    for j in range((n + 3) // 4):
        zb, xb = pairs[a >> 8 * j & 255]
        z = z << 4 | zb
        x = x << 4 | xb
    shift = -n % 4
    return z >> shift, x >> shift


def _split_labels(a: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """label_split of an int array, and the Y count |z & x| of each label:
    one table row per byte, the Y counts summed over the bytes."""
    table = _split_table()[1]
    zxy = table.take(a & 255, axis=1)
    for j in range(1, (n + 3) // 4):
        zxy[:2] <<= 4
        zxy += table.take(a >> 8 * j & 255, axis=1)
    zxy[:2] >>= -n % 4
    return zxy[0], zxy[1], zxy[2]


def label_join(z: int, x: int, n: int) -> int:
    """Inverse of label_split."""
    a = 0
    for i in range(1, n + 1):
        a |= ((z >> (n - i)) & 1) << (2 * (i - 1))
        a |= ((x >> (n - i)) & 1) << (2 * (i - 1) + 1)
    return a


@functools.lru_cache(maxsize=None)
def _parity_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices k < 2^n, in the smallest unsigned type that holds
    them, and (-1)^{|k|} for each, as int8; both read-only."""
    k = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    return _read_only(k, (1 - 2 * (np.bitwise_count(k) & 1)).astype(np.int8))


def _pauli_parts(n: int, a, phase_exp=0):
    """(x, z, c) with (i^j W_a)[k ^ x, k] = c (-1)^{|z&k|} for every basis
    index k, c a power of i.

    a and j are ints or int arrays of one shape, and so are x, z and c.
    A stack of labels is split by whole-array table lookups that also
    count the Y factors, and a single label by Python int operations.
    """
    if isinstance(a, np.ndarray):
        z, x, y = _split_labels(a, n)
    else:
        z, x = label_split(a, n)
        y = (z & x).bit_count()
    return x, z, _I_POW.take(phase_exp + y, mode="wrap")


def _signed_perms(n: int, a, phase_exp=0):
    """(x, v) with (i^j W_a)[k ^ x, k] = v[..., k] for every basis index k;
    x has the shape of a and v one more axis of length d (_pauli_parts)."""
    x, z, c = _pauli_parts(n, a, phase_exp)
    k, sign = _parity_signs(n)
    return x, c[..., None] * sign[np.asarray(z)[..., None] & k]


def _signed_perm(p: PauliLabel) -> tuple[int, np.ndarray]:
    """(x, v) with (i^j W_a)[k ^ x, k] = v[k] for every basis index k."""
    return _signed_perms(p.n, p.a, p.phase_exp)


def pauli_matrix(p: PauliLabel) -> np.ndarray:
    """Dense d x d realization of i^j W_a."""
    x, v = _signed_perm(p)
    k = np.arange(len(v))
    out = np.zeros((len(v), len(v)), dtype=complex)
    out[k ^ x, k] = v
    return out


class CharacteristicFunction(_Record):
    """All d^2 expectation values <psi|W_a|psi>, indexed by the label int a."""

    __slots__ = ("values", "n")

    def __init__(self, values: np.ndarray, n: int):
        _set(self, "values", values)
        _set(self, "n", n)

    def value(self, a: int) -> float:
        return float(self.values[a])


def _check_normalized(psis: np.ndarray) -> None:
    """A state, or every row of a batch of states, has unit norm; NaN fails."""
    _check_norms(np.linalg.norm(psis, axis=-1).reshape(-1))


def _check_norms(nrm: np.ndarray) -> None:
    """Every entry of nrm, a row's norm, is 1 within NORM_ATOL; NaN fails."""
    ok = np.abs(nrm - 1.0) <= NORM_ATOL
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise NormalizationError(
            f"state norm {nrm[bad[0]]} (row {bad[0]}) differs from 1 beyond {NORM_ATOL}")


# ---------------------------------------------------------------------------
# the characteristic-function kernel
#
# Xi(label_join(z, m)) = (-i)^{|z&m|} sum_k (-1)^{|z&k|} f_m(k), with
# f_m(k) = conj(psi_k) psi_{k^m} and |.| the popcount: a Walsh-Hadamard
# transform over k per X-mask m.  As f_m(k^m) = conj(f_m(k)), the sum runs
# over one k of each Hermitian pair {k, k^m}: the k with bit j of m clear,
# j the top bit of m.  With g = f_m on those d/2 representatives, indexed by
# the other bits of k, Xi(., m) is +-2 H_{d/2}(Re g) where |z&m| is even and
# +-2 H_{d/2}(Im g) where it is odd, the sign 1 - (|z&m| & 2) either way.
# The real line m = 0 takes j = n - 1 and g = ((p_0 + p_1) + i (p_0 - p_1)) / 2,
# p_0 and p_1 the values |psi_k|^2 on the two halves of k, so it is 2 H(Re g)
# on z_j = 0 and 2 H(Im g) on z_j = 1; the /2 and x2 are exact.  No half of
# a transform is thrown away, and ||Xi||_4^4 = 16 sum (H Re g)^4 + (H Im g)^4
# needs no sign.
#
# With L = d/2, H_L = H_{L/b} (x) H_b, b = min(L, 32), and arrays laid out
# [u_hi, Re/Im, row, u_lo] (the representative u likewise), row = state * d
# + m, both factors are plain 2-D GEMMs: 2 d L (L/b + b) multiply-adds per
# state, about a quarter of the 2 d^2 (d/b + b) that full-length transforms
# of both parts take.  A chunk holds _CHUNK // d rows, at most _CHUNK
# transformed entries, a shape fixed by d alone.  The gather tables cover
# the rows a batch reads (_table_rows): a chunk's rows, or fewer when the
# whole batch is smaller, so one state builds tables of d rows, not of
# _CHUNK // d.  The purity identity sum_a Xi(a)^2 = d Xi(0)^2 checks the
# transform of every state.

_CHUNK = 1 << 16
_WHT_BLOCK = 32

# relative bound on the purity gap; over Haar states at n = 1..12 the worst
# gap is 2.0e-15
PURITY_RTOL = 1e-12


@functools.lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    """The read-only 2^n x 2^n Walsh-Hadamard matrix, (-1)^{|i & j|}."""
    d = 1 << n
    idx = np.arange(d)
    pc = np.bitwise_count(idx[:, None] & idx[None, :])
    return _read_only(1.0 - 2.0 * (pc & 1))


def _blocks(d: int) -> tuple[int, int]:
    """(b, rows per chunk) for dimension d."""
    return min(d // 2, _WHT_BLOCK), max(_CHUNK // d, 1)


def _pair_split(u: np.ndarray, m: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(k, top): top is the top bit of the mask m, and d/2 for m = 0, and k
    is u with a 0 put in at that bit, the representative of a Hermitian
    pair {k, k ^ m} (of the halves {k, k ^ d/2} for m = 0)."""
    top = np.left_shift(1, np.frexp(np.where(m, m, d >> 1))[1] - 1)
    return (u & -top) << 1 | (u & top - 1), top


def _table_rows(d: int, s: int) -> int:
    """Rows of the gather tables for a batch of s states: d per state, for s
    rounded up to a power of 2, and at most max(chunk, d), the rows one
    chunk reads."""
    return min(max(_blocks(d)[1], d), d << (s - 1).bit_length())


@functools.lru_cache(maxsize=None)
def _kernel_tables(n: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of k and k ^ m over the given rows, [u_hi, row, u_lo],
    read-only; rows is a multiple of d (_table_rows)."""
    d = 1 << n
    b, _ = _blocks(d)
    r = np.arange(rows).reshape(1, -1, 1)
    m = r % d
    k = _pair_split(np.arange(d // 2).reshape(-1, 1, b), m, d)[0]
    return _read_only(r - m + k, r - m + (k ^ m))


def _xi_chunks(psis: np.ndarray):
    """Yield (lo, t) covering Xi of every row of an (S, d) batch of states.

    t[u_hi, h, r, u_lo] is H_{d/2}(Re g) (h = 0) or H_{d/2}(Im g) (h = 1)
    at u_hi * b + u_lo for the row lo + r = s * d + m; the caller may
    overwrite it.  After the last chunk it raises NormalizationError for a
    row off the unit sphere and AssertionError for a state whose transform
    breaks the purity identity; both read Xi(0) = ||psi||^2 off the
    transform.
    """
    psis = np.asarray(psis)
    n = _infer_n(psis, ndim=2)
    if n < 1:
        raise DimensionError("the characteristic function needs a state of at least one qubit")
    s, d = psis.shape
    flat = np.ascontiguousarray(psis, dtype=complex).ravel()
    own, partner = _kernel_tables(n, _table_rows(d, s))
    b, step = _blocks(d)
    q = d // 2 // b
    had_lo, had_hi = _hadamard(b.bit_length() - 1), _hadamard(q.bit_length() - 1)
    purity, xi0 = np.zeros(s), np.zeros(s)
    for lo in range(0, s * d, step):
        rows = min(step, s * d - lo)
        first, cols = lo - lo % d, slice(lo % d, lo % d + rows)
        prod = flat[first:][own[:, cols]]
        np.conjugate(prod, out=prod)
        prod *= flat[first:][partner[:, cols]]
        w = np.empty((q, 2, rows, b))
        w[:, 0] = prod.real
        w[:, 1] = prod.imag
        # the real lines, rows m = 0, of the states that start in this chunk
        new = slice(-(-lo // d), -(-(lo + rows) // d))
        zero = slice(new.start * d - lo, rows, d)
        sq = flat[new.start * d : new.stop * d]
        sq = (sq.real**2 + sq.imag**2).reshape(-1, 2, q, b).transpose(1, 2, 0, 3)
        np.add(sq[0], sq[1], out=w[:, 0, zero])
        np.subtract(sq[0], sq[1], out=w[:, 1, zero])
        w[:, :, zero] *= 0.5
        t = (w.reshape(-1, b) @ had_lo).reshape(q, -1)
        if q > 1:
            t = had_hi @ t
        t = t.reshape(q, 2, rows, b)
        blocks = t.reshape(2 * q, max(rows // d, 1), -1)
        purity[lo // d : lo // d + len(blocks[0])] += np.einsum("psx,psx->s", blocks, blocks)
        xi0[new] = t[0, 0, zero, 0]
        yield lo, t
    _check_norms(np.sqrt(2 * xi0))
    _check_purity(purity, xi0, d)


def _check_purity(purity: np.ndarray, xi0: np.ndarray, d: int) -> None:
    """sum_a Xi(a)^2 = d Xi(0)^2 for every state, where sum_a Xi(a)^2 =
    4 purity and Xi(0) = 2 xi0, within PURITY_RTOL; NaN fails."""
    x2 = d * xi0 * xi0
    gap = purity - x2
    ok = np.abs(gap) <= PURITY_RTOL * x2
    if not ok.all():
        bad = np.flatnonzero(~ok)
        raise AssertionError(
            f"purity identity off by {4 * gap[bad[0]]} (row {bad[0]}) beyond {PURITY_RTOL} relative")


def _ell4_rows(psis: np.ndarray) -> np.ndarray:
    """||Xi||_4^4 of every row, each summed in an order fixed by d alone."""
    out, d = np.zeros(len(psis)), psis.shape[-1]
    for lo, t in _xi_chunks(psis):
        t *= t
        blocks = t.reshape(2 * len(t), max(t.shape[2] // d, 1), -1)
        # per state and [u_hi, h] block, then the builtin sum adds the
        # blocks in turn: an order fixed by d, for any number of states
        out[lo // d : lo // d + len(blocks[0])] += sum(np.einsum("psx,psx->ps", blocks, blocks))
    return 16.0 * out


@functools.lru_cache(maxsize=None)
def _label_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """label_join(z, m) and the factor +-2 that carry each entry of t to
    Xi(z, m), in the kernel's [u_hi, h, m, u_lo] layout over d rows, read-only."""
    d = 1 << n
    b, _ = _blocks(d)
    h = np.arange(2).reshape(1, 2, 1, 1)
    m = np.arange(d).reshape(1, 1, d, 1)
    k, top = _pair_split(np.arange(d // 2).reshape(-1, 1, 1, b), m, d)
    z = k | top * (h ^ np.bitwise_count(k & m) & 1)  # |z & m| has the parity h, or z_top = h
    return _read_only(label_join(z, m, n), 2.0 - 2.0 * (np.bitwise_count(z & m) & 2))


def characteristic_function(psi: np.ndarray) -> CharacteristicFunction:
    """Expectation values of all d^2 Pauli operators on a normalized state."""
    n = _infer_n(psi)
    out = np.empty(1 << (2 * n))
    for lo, t in _xi_chunks(psi[None, :]):
        labels, signs = _label_table(n)
        cols = slice(lo, lo + t.shape[2])
        out[labels[:, :, cols]] = t * signs[:, :, cols]
    return CharacteristicFunction(out, n)


def ell4_norm4(xi: CharacteristicFunction) -> float:
    """Fourth power of the l4-norm: sum of the fourth powers of all entries."""
    x2 = xi.values * xi.values
    return float(np.sum(x2 * x2))


def alpha_plus(psi: np.ndarray) -> float:
    """Stabilizer-code overlap tr[P_{n,4} (|psi><psi|)^{x4}] = ||Xi||_4^4 / d^2."""
    n = _infer_n(psi)
    return float(_ell4_rows(psi[None, :])[0] / (1 << (2 * n)))


def alpha_plus_batch(psis: np.ndarray) -> np.ndarray:
    """alpha_plus for a batch of normalized states, one per row.

    Validates each row as alpha_plus does and matches it bit for bit, at
    any batch size.  A state costs 2 d L (L/b + b) real multiply-adds,
    L = d/2 and b = min(L, 32): two real transforms of length L per X-mask,
    over one product of each Hermitian pair, and their fourth powers need
    no signs.  Memory stays a few MB however many rows there are; this is
    the hot path of the Monte-Carlo moment studies.
    """
    psis = np.asarray(psis)
    return _ell4_rows(psis) / psis.shape[-1] ** 2


def _infer_n(psi: np.ndarray, ndim: int = 1) -> int:
    d = psi.shape[-1]
    n = d.bit_length() - 1
    if psi.ndim != ndim or (1 << n) != d:
        what = "vector" if ndim == 1 else "batch of rows"
        raise DimensionError(f"state must be a {what} of power-of-2 length")
    return n
