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

    def __init__(self, matrix: np.ndarray, n: int, action=None):
        self.matrix = matrix
        self.n = n
        self._action = action

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
        return self.action[0]

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

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("row,col,re,im\n")
            for r in range(self.d):
                for c in range(self.d):
                    v = self.matrix[r, c]
                    fh.write(f"{r},{c},{v.real!r},{v.imag!r}\n")


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
    F = F2Matrix(tuple(f2lin._cols_to_rows(cols, 2 * n)), n)
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


def transvection_decomposition(F: F2Matrix) -> list[int]:
    """Vectors v_1..v_m with F = Z_{v_1} Z_{v_2} ... Z_{v_m} (at most 4 per pair)."""
    if not is_symplectic(F):
        raise ValueError("input is not symplectic")
    n = F.n
    cols = [F.column(j) for j in range(2 * n)]
    out = []

    def apply_left(v):
        # cols <- Z_v cols: c -> c ^ v wherever <c, v> = 1
        jv = f2lin._swap_pairs(v)
        cols[:] = [c ^ v if f2lin._parity(c & jv) else c for c in cols]
        out.append(v)

    for k in range(n):
        for j, extra in ((2 * k, []), (2 * k + 1, [(1 << (2 * k), 1)])):
            target = 1 << j
            c = cols[j]
            if c == target:
                continue
            if f2lin._omega(c, target):
                apply_left(c ^ target)
            else:
                w = _midpoint(c, target, extra, k, n)
                apply_left(c ^ w)
                apply_left(w ^ target)
    if cols != [1 << i for i in range(2 * n)]:
        raise AssertionError("transvections did not reduce F to the identity")
    return out


def _midpoint(c: int, target: int, extra, k: int, n: int) -> int:
    # search a w supported on coordinates >= 2k with <c,w> = <target,w> = 1
    # and the given extra pairings, so earlier basis pairs stay fixed
    want = [(f2lin._swap_pairs(c), 1), (f2lin._swap_pairs(target), 1)]
    want += [(f2lin._swap_pairs(v), bit) for v, bit in extra]
    for raw in range(1, 1 << (2 * (n - k))):
        w = raw << (2 * k)
        if all(f2lin._parity(w & jv) == bit for jv, bit in want):
            return w
    raise AssertionError("no transvection midpoint found")


def _lift_words(n: int, words, labels=None) -> np.ndarray:
    """(S, d, d) stack of unitaries: word s is lifted as the product of the
    factors (1 + i W_v)/sqrt(2) over its vectors v, then multiplied on the
    left by W_{labels[s]}.

    The samples are sorted by word length, longest first, so step t
    updates the prefix of samples with more than t vectors.  One
    _signed_perms call gives every (x, v) of the stack, the labels in an
    extra last column.  A step is U <- (U + i (U W_v))/sqrt(2), with U W_v
    gathered by a flat take at indices [s, r, k ^ x_s]: as x_s < d, XOR
    with the flat index [s, r, k] changes k alone.  These are the
    elementwise operations of a one-by-one lift, so every entry of a
    stack equals the entry of that sample lifted alone, bit for bit.
    """
    d = 1 << n
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    width = int(lengths.max(initial=0))
    vecs = np.zeros((len(words), width + 1), dtype=np.int64)
    for row, s in enumerate(order):
        vecs[row, :lengths[row]] = words[s]
    if labels is not None:
        vecs[:, width] = np.asarray(labels, dtype=np.int64)[order]
    x, v = _signed_perms(n, vecs)
    flat = np.arange(len(words) * d * d).reshape(-1, d, d)
    U = np.tile(np.eye(d, dtype=complex), (len(words), 1, 1))
    # m counts the samples with more than t vectors, a prefix as lengths descend
    for t, m in enumerate(np.searchsorted(-lengths, -np.arange(width))):
        gathered = np.take(U, flat[:m] ^ x[:m, t, None, None])
        U[:m] = (U[:m] + 1j * (gathered * v[:m, t, None, :])) / _ROOT2
    # an extra global phase keeps the entries in Q[i] for odd word lengths
    np.multiply(U, _EIGHTH_PHASE, out=U, where=(lengths % 2 == 1)[:, None, None])
    if labels is not None:
        # row j of W_a U is v[j ^ x] times row j ^ x of U
        U = np.take(v[:, width, :, None] * U, flat ^ (x[:, width, None, None] << n))
    out = np.empty_like(U)
    out[order] = U
    return out


def lift_symplectic(F: F2Matrix) -> CliffordElement:
    """Some Clifford unitary inducing F, built from transvection factors.

    Each transvection Z_v lifts to (1 + i W_v)/sqrt(2); an extra global
    phase keeps all matrix entries in Q[i] when the factor count is odd.
    The representative is one of the 4d^2 unitaries inducing F and is
    deterministic but otherwise arbitrary.
    """
    return CliffordElement(_lift_words(F.n, [transvection_decomposition(F)])[0], F.n)


def random_clifford_unitaries(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """Stack of count uniform projective Clifford unitaries, shape (count, d, d).

    Each sample draws a uniform symplectic and then a uniform Pauli label,
    as random_clifford does, so the stack equals count random_clifford
    draws from the same generator, entry for entry; it is lifted at once.
    """
    words, labels = [], []
    for _ in range(count):
        words.append(transvection_decomposition(f2lin.random_symplectic(n, rng)))
        labels.append(f2lin._rand_below(rng, 1 << (2 * n)))
    return _lift_words(n, words, labels)


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform projective Clifford element: random symplectic lift times a
    uniform Pauli.  The global phase of the representative is irrelevant for
    every metric in this package."""
    return CliffordElement(random_clifford_unitaries(n, rng, 1)[0], n)


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
    """One unitary per projective Clifford element, shape (|Sp| d^2, d, d).

    Supported for n <= 2 (24 and 11 520 elements)."""
    if n > ORBIT_MAX_N:
        raise CapacityError(
            f"projective Clifford group at n={n} has {f2lin.sp_order(n) * 4**n}"
            " elements; orbits are materialized only for n <= 2"
        )
    d = 1 << n
    words = [transvection_decomposition(F) for F in f2lin.enumerate_sp(n)]
    per = max(STACK_ENTRIES // d**4, 1)  # symplectics per stack, each with d^2 labels
    stacks = []
    for lo in range(0, len(words), per):
        chunk = words[lo:lo + per]
        stacks.append(_lift_words(n, [w for w in chunk for _ in range(d * d)],
                                  np.tile(np.arange(d * d), len(chunk))))
    return np.concatenate(stacks)


def projective_orbit(psi: np.ndarray, n: int, dedup_decimals: int = 9) -> list[np.ndarray]:
    """All distinct states (up to global phase) in the Clifford orbit of psi.

    Deduplication keys on the d^2 entries of |psi><psi| rounded to
    dedup_decimals digits.
    """
    group = projective_clifford_unitaries(n)
    states = group @ psi
    seen = {}
    for s in states:
        proj = np.outer(s, s.conj())
        key = (np.round(proj.real, dedup_decimals) + 0.0).tobytes() + (
            np.round(proj.imag, dedup_decimals) + 0.0
        ).tobytes()
        if key not in seen:
            seen[key] = s
    return list(seen.values())
