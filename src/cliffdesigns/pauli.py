"""Phase-exact Pauli operators indexed by F_2^{2n}.

A label (a, j) stands for the operator i^j W_a, where W_a is the tensor
product of single-qubit matrices sigma_{(z,x)} selected by the interleaved
bit pairs of a (see f2lin for the bit convention), and j is a power of i
kept modulo 4.  With sigma_{(z,x)} = i^{zx} X^x Z^z the bare W_a (j = 0)
is always Hermitian and squares to the identity.

Every i^j W_a is a signed permutation of the computational basis: with
(z, x) = label_split(a, n) it sends |k> to i^{j + |z&x|} (-1)^{|z&k|} |k ^ x>,
|.| the popcount.  One kernel returns that pair (x, phases); dense
matrices, the action on states and matrices, and the Clifford lift all
read W_a from it, so the sign and i-power conventions live in one place.

The characteristic function of a state collects all d^2 real expectation
values <psi|W_a|psi>.  One kernel computes it for a batch of states, by
real Walsh-Hadamard GEMMs H_d = H_{d/b} (x) H_b, b = min(d, 32), for every
X-mask: 2 d^2 (d/b + b) real multiply-adds per state, not d^3 complex ones.
It takes the batch in chunks of at most 2^16 Xi entries, so memory stays a
few MB plus index tables of max(2^16, d^2) entries per d.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .f2lin import DimensionError, symplectic_form

__all__ = [
    "PauliLabel",
    "CharacteristicFunction",
    "pauli_matrix",
    "pauli_product",
    "apply_pauli",
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


@dataclass(frozen=True)
class PauliLabel:
    """The operator i^phase_exp * W_a on n qubits."""

    n: int
    a: int
    phase_exp: int = 0

    def __post_init__(self):
        if not 0 <= self.a < (1 << (2 * self.n)):
            raise DimensionError("label out of range for n qubits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @staticmethod
    def identity(n: int) -> "PauliLabel":
        return PauliLabel(n, 0, 0)

    def inverse(self) -> "PauliLabel":
        # W_a^2 = 1, so the inverse only flips the i-power
        return PauliLabel(self.n, self.a, -self.phase_exp)


@functools.cache
def _split_table() -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """(z, x) nibbles of each label byte, the byte's first qubit in the top
    bit: as Python ints for int labels and as a (256, 2) array."""
    pairs = tuple(
        tuple(sum((b >> 2 * i + s & 1) << 3 - i for i in range(4)) for s in (0, 1))
        for b in range(256)
    )
    return pairs, np.array(pairs)


def label_split(a: int, n: int) -> tuple[int, int]:
    """Compressed (z_mask, x_mask) in state-bit order (qubit 1 = MSB).

    a may also be an int array, split elementwise.  Each byte of a holds
    four qubits and is looked up in one table; the nibbles of the qubits
    past n are shifted out at the end."""
    pairs, table = _split_table()
    nbytes = (n + 3) // 4
    pad = 4 * nbytes - n
    if isinstance(a, np.ndarray):
        zx = table.take(a & 255, axis=0)
        for j in range(1, nbytes):
            zx <<= 4
            zx |= table.take(a >> 8 * j & 255, axis=0)
        zx >>= pad
        return zx[..., 0], zx[..., 1]
    z = x = 0
    for j in range(nbytes):
        zb, xb = pairs[a >> 8 * j & 255]
        z = z << 4 | zb
        x = x << 4 | xb
    return z >> pad, x >> pad


def label_join(z: int, x: int, n: int) -> int:
    """Inverse of label_split."""
    a = 0
    for i in range(1, n + 1):
        a |= ((z >> (n - i)) & 1) << (2 * (i - 1))
        a |= ((x >> (n - i)) & 1) << (2 * (i - 1) + 1)
    return a


@functools.lru_cache(maxsize=None)
def _parity_signs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis indices k < 2^n and (-1)^{|k|} for each."""
    k = np.arange(1 << n)
    return k, 1.0 - 2.0 * (np.bitwise_count(k) & 1)


def _signed_perms(n: int, a, phase_exp=0):
    """(x, v) with (i^j W_a)[k ^ x, k] = v[..., k] for every basis index k.

    a and j are ints or int arrays of one shape; x has that shape and v one
    more axis of length d.  label_split works on either, so a stack of
    labels is split by whole-array bit operations and a single label by
    Python int ones.
    """
    z, x = label_split(a, n)
    k, sign = _parity_signs(n)
    ipow = _I_POW[(phase_exp + np.bitwise_count(z & x)) % 4]
    return x, ipow[..., None] * sign[np.asarray(z)[..., None] & k]


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


def _product_phase(a: int, b: int, n: int) -> int:
    """i-power phi with W_a W_b = i^phi W_{a^b}, tracked exactly mod 4: the
    per-qubit zx + z'x' + 2zx' - (z^z')(x^x'), each term summed by a popcount."""
    even = (1 << (2 * n)) // 3  # the z bit of every qubit
    z, x, zp, xp = a & even, a >> 1 & even, b & even, b >> 1 & even
    phi = (z & x).bit_count() + (zp & xp).bit_count() + 2 * (z & xp).bit_count()
    return (phi - ((z ^ zp) & (x ^ xp)).bit_count()) % 4


def pauli_product(p: PauliLabel, q: PauliLabel) -> PauliLabel:
    """Label of the matrix product, with the i-power tracked exactly."""
    if p.n != q.n:
        raise DimensionError("qubit count mismatch")
    phase = (p.phase_exp + q.phase_exp + _product_phase(p.a, q.a, p.n)) % 4
    return PauliLabel(p.n, p.a ^ q.a, phase)


def commutes(p: PauliLabel, q: PauliLabel) -> bool:
    return symplectic_form(p.a, q.a, p.n) == 0


# ---------------------------------------------------------------------------
# action on states and matrices


def apply_pauli(p: PauliLabel, psi: np.ndarray) -> np.ndarray:
    """i^j W_a psi for a (d,) state or a (d, m) matrix, by a signed row permutation."""
    d = 1 << p.n
    if psi.ndim not in (1, 2) or psi.shape[0] != d:
        raise DimensionError(f"expected a ({d},) state or a ({d}, m) matrix")
    x, v = _signed_perm(p)
    out = np.empty(psi.shape, dtype=complex)
    out[np.arange(d) ^ x] = v.reshape((d,) + (1,) * (psi.ndim - 1)) * psi
    return out


@dataclass(frozen=True)
class CharacteristicFunction:
    """All d^2 expectation values <psi|W_a|psi>, indexed by the label int a."""

    values: np.ndarray
    n: int

    def value(self, a: int) -> float:
        return float(self.values[a])


def _check_normalized(psis: np.ndarray) -> None:
    """A state, or every row of a batch of states, has unit norm; NaN fails."""
    nrm = np.linalg.norm(psis, axis=-1).reshape(-1)
    bad = np.flatnonzero(~(np.abs(nrm - 1.0) <= NORM_ATOL))
    if bad.size:
        raise NormalizationError(
            f"state norm {nrm[bad[0]]} (row {bad[0]}) differs from 1 beyond {NORM_ATOL}")


# ---------------------------------------------------------------------------
# the characteristic-function kernel
#
# Xi(label_join(z, m)) = (-i)^{|z&m|} sum_k (-1)^{|z&k|} conj(psi_k) psi_{k^m},
# with |.| the popcount: a Walsh-Hadamard transform over k per X-mask m.  The
# real and imaginary parts of the products are transformed apart; odd |z&m|
# keeps Im, even keeps Re, and the other half is the imaginary residue.  With
# H_d = H_{d/b} (x) H_b and arrays laid out [z_hi, row, z_lo] (k likewise),
# row = state * d + m, both factors are plain 2-D GEMMs.  A chunk holds
# _CHUNK // d rows, at most _CHUNK entries of Xi, a shape fixed by d alone.

_CHUNK = 1 << 16
_WHT_BLOCK = 32


@functools.lru_cache(maxsize=None)
def _hadamard(n: int) -> np.ndarray:
    d = 1 << n
    idx = np.arange(d)
    pc = np.bitwise_count(idx[:, None] & idx[None, :])
    return 1.0 - 2.0 * (pc & 1)


def _blocks(d: int) -> tuple[int, int]:
    """(b, rows per chunk) for dimension d."""
    return min(d, _WHT_BLOCK), max(_CHUNK // d, 1)


@functools.lru_cache(maxsize=None)
def _kernel_tables(n: int):
    """Gather indices and Re/Im selectors over max(chunk, d) rows, [z_hi, row, z_lo]."""
    d = 1 << n
    b, step = _blocks(d)
    k = np.arange(d).reshape(d // b, 1, b)
    r = np.arange(max(step, d)).reshape(1, -1, 1)
    m = r % d
    pc = np.bitwise_count(k & m)  # k doubles as z: same layout
    return r - m + (k ^ m), (pc & 1).astype(bool), 1.0 - (pc & 2)


def _xi_chunks(psis: np.ndarray, imag_atol: float = 1e-12):
    """Yield (lo, xi) covering Xi of every row of an (S, d) batch of states.

    xi[z_hi, r, z_lo] is Xi(z_hi * b + z_lo, m) of state s, where
    lo + r = s * d + m.  Raises NormalizationError for a row off the unit
    sphere and AssertionError when the imaginary residue exceeds imag_atol.
    """
    psis = np.asarray(psis)
    n = _infer_n(psis, ndim=2)
    s, d = psis.shape
    _check_normalized(psis)
    flat = np.ascontiguousarray(psis, dtype=complex).ravel()
    src, odd, sign = _kernel_tables(n)
    b, step = _blocks(d)
    q = d // b
    had_lo, had_hi = _hadamard(b.bit_length() - 1), _hadamard(n - b.bit_length() + 1)
    for lo in range(0, s * d, step):
        rows = min(step, s * d - lo)
        first, m0 = lo - lo % d, lo % d
        cols = slice(m0, m0 + rows)
        states = max(rows // d, 1)
        own = flat[first : first + states * d].reshape(states, q, 1, b).transpose(1, 0, 2, 3)
        prod = own.conj() * flat[first:][src[:, cols]].reshape(q, states, -1, b)
        w = np.empty((q, 2, rows, b))
        w[:, 0] = prod.reshape(q, rows, b).real
        w[:, 1] = prod.reshape(q, rows, b).imag
        t = (w.reshape(-1, b) @ had_lo).reshape(q, -1)
        if q > 1:
            t = had_hi @ t
        t = t.reshape(q, 2, rows, b)
        pick = odd[:, cols]
        residue = np.abs(np.where(pick, t[:, 0], t[:, 1]))
        if residue.max() > imag_atol:
            raise AssertionError(f"imaginary residue {residue.max()} in Pauli expectations")
        xi = np.where(pick, t[:, 1], t[:, 0])
        xi *= sign[:, cols]
        yield lo, xi


def _ell4_rows(psis: np.ndarray) -> np.ndarray:
    """||Xi||_4^4 of every row, each summed in an order fixed by d alone."""
    out = np.zeros(len(psis))
    for lo, xi in _xi_chunks(psis):
        q, rows, b = xi.shape
        d = q * b
        states = max(rows // d, 1)
        x4 = xi * xi
        x4 *= x4
        out[lo // d : lo // d + states] += x4.reshape(q, states, -1).sum(axis=2).sum(axis=0)
    return out


@functools.lru_cache(maxsize=None)
def _label_table(n: int) -> np.ndarray:
    """label_join(z, m) for every (z, m), in the kernel's [z_hi, m, z_lo] layout."""
    d = 1 << n
    b, _ = _blocks(d)
    z, m = np.broadcast_arrays(np.arange(d).reshape(d // b, 1, b), np.arange(d).reshape(1, d, 1))
    return label_join(z, m, n)


def characteristic_function(psi: np.ndarray, imag_atol: float = 1e-12) -> CharacteristicFunction:
    """Expectation values of all d^2 Pauli operators on a normalized state."""
    n = _infer_n(psi)
    out = np.empty(1 << (2 * n))
    labels = _label_table(n)
    for lo, xi in _xi_chunks(psi[None, :], imag_atol):
        out[labels[:, lo : lo + xi.shape[1]]] = xi
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
    any batch size.  A state costs 2 d^2 (d/b + b) real multiply-adds,
    b = min(d, 32), and memory stays a few MB however many rows there are;
    this is the hot path of the Monte-Carlo moment studies.
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
