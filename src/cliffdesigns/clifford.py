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

import functools
from dataclasses import dataclass

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, fixed_space_dim, is_symplectic, symplectic_form
from .pauli import PauliLabel, _product_phase, _signed_perm, apply_pauli, label_join, pauli_matrix

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
    "clifford_trace_check",
    "projective_orbit",
    "projective_clifford_unitaries",
]

ORBIT_MAX_N = 2

_H2 = (0.5 + 0.5j) * np.array([[1, 1], [1, -1]], dtype=complex)
_S2 = np.array([[1, 0], [0, -1j]], dtype=complex)


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
    for k in range(2 * n):
        b, f = _identify_signed_pauli(_times_pauli(Um, PauliLabel(n, 1 << k)) @ Udag, n)
        cols.append(b)
        signs.append(f)
    F = F2Matrix(tuple(f2lin._cols_to_rows(cols, 2 * n)), n)
    if not is_symplectic(F):
        raise NotCliffordError("extracted action is not symplectic")
    return F, tuple(signs)


def _times_pauli(M: np.ndarray, p: PauliLabel) -> np.ndarray:
    """M @ (i^j W_a) by a column gather: column k is v[k] times column k ^ x of M."""
    x, v = _signed_perm(p)
    return M[:, np.arange(len(v)) ^ x] * v


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
    if not np.allclose(V, (1 - 2 * f) * expected, atol=atol):
        raise NotCliffordError("conjugated Pauli mismatch beyond tolerance")
    return b, f


# ---------------------------------------------------------------------------
# lifting symplectic matrices


def transvection_decomposition(F: F2Matrix) -> list[int]:
    """Vectors v_1..v_m with F = Z_{v_1} Z_{v_2} ... Z_{v_m} (at most 4 per pair)."""
    if not is_symplectic(F):
        raise ValueError("input is not symplectic")
    n = F.n
    nn = 2 * n
    g = list(F.rows)
    out = []

    def gcol(j):
        return f2lin._column(tuple(g), j)

    def apply_left(v):
        # g <- Z_v g, i.e. transvect every column
        cols = [f2lin.transvection(v, gcol(j), n) for j in range(nn)]
        g[:] = f2lin._cols_to_rows(cols, nn)
        out.append(v)

    for k in range(n):
        lead = 1 << (2 * k)
        partner = 1 << (2 * k + 1)
        c = gcol(2 * k)
        if c != lead:
            if symplectic_form(c, lead, n):
                apply_left(c ^ lead)
            else:
                w = _midpoint(c, lead, [], k, n)
                apply_left(c ^ w)
                apply_left(w ^ lead)
        c = gcol(2 * k + 1)
        if c != partner:
            if symplectic_form(c, partner, n):
                apply_left(c ^ partner)
            else:
                w = _midpoint(c, partner, [(lead, 1)], k, n)
                apply_left(c ^ w)
                apply_left(w ^ partner)
    if tuple(g) != tuple(1 << i for i in range(nn)):
        raise AssertionError("transvections did not reduce F to the identity")
    return out


def _midpoint(c: int, target: int, extra, k: int, n: int) -> int:
    # search a w supported on coordinates >= 2k with <c,w> = <target,w> = 1
    # and the given extra pairings, so earlier basis pairs stay fixed
    span = 2 * (n - k)
    for raw in range(1, 1 << span):
        w = raw << (2 * k)
        if symplectic_form(c, w, n) != 1:
            continue
        if symplectic_form(target, w, n) != 1:
            continue
        if all(symplectic_form(v, w, n) == want for v, want in extra):
            return w
    raise AssertionError("no transvection midpoint found")


def lift_symplectic(F: F2Matrix) -> CliffordElement:
    """Some Clifford unitary inducing F, built from transvection factors.

    Each transvection Z_v lifts to (1 + i W_v)/sqrt(2), applied as
    U <- (U + i U W_v)/sqrt(2) by a column gather; an extra global
    phase keeps all matrix entries in Q[i] when the factor count is odd.
    The representative is one of the 4d^2 unitaries inducing F and is
    deterministic but otherwise arbitrary.
    """
    n = F.n
    vecs = transvection_decomposition(F)
    U = np.eye(1 << n, dtype=complex)
    for v in vecs:
        U = (U + 1j * _times_pauli(U, PauliLabel(n, v))) / np.sqrt(2.0)
    if len(vecs) % 2:
        U = U * np.exp(-0.25j * np.pi)
    return CliffordElement(U, n, action=None)


def random_clifford(n: int, rng: np.random.Generator) -> CliffordElement:
    """Uniform projective Clifford element: random symplectic lift times a
    uniform Pauli.  The global phase of the representative is irrelevant for
    every metric in this package."""
    F = f2lin.random_symplectic(n, rng)
    U = lift_symplectic(F)
    a = int(f2lin._rand_below(rng, 1 << (2 * n)))
    return CliffordElement(apply_pauli(PauliLabel(n, a), U.matrix), n)


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
    mats = []
    for F in f2lin.enumerate_sp(n):
        UF = lift_symplectic(F).matrix
        for a in range(d * d):
            mats.append(apply_pauli(PauliLabel(n, a), UF))
    return np.array(mats)


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
