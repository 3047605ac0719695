"""The diagonal-Pauli stabilizer code on k copies and its decomposition.

For k a multiple of 4 the operators W_a x ... x W_a (k factors) form a
stabilizer group; the joint +1 eigenspace V_{n,k} has dimension d^{k-2}
and projector P_{n,k} = (1/d^2) sum_a W_a^{(x k)}.  For k = 4 this code is
the one extra invariant subspace the Clifford group has beyond the
symmetric-group commutant, and everything about the decomposition of
(C^d)^{x4} under Clifford x S_4 reduces to exact integer data:

* dimension_table   -- Specht/Weyl dimensions split by the code and its
                       complement, as exact integers,
* orbit_counting_dims -- an independent combinatorial route to the two
                       multiplicity-free rows: letter-string orbits
                       counted by Burnside's lemma,
* symplectic_character / sp_multiplicity_sum / clifford_frame_potential --
                       exact characters of Sp(2n, F_2) elements from
                       fixed-space dimensions, and the group sums over
                       Sp(2n, F_2) as closed-form orbit counts.

The code objects (apply_code_projector, stab_code_basis,
isotropic_orbit_states) read k copies copy-major, copy 0 the most
significant base-d digit, through one rule (_copy_digits), and form no
d^k x d^k array: P acts on a stack of vectors as a Z-parity mask and a
mean of d index shifts, and W_a on some copies as a gather signed by
pauli._signed_perms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, IsotropicSubspace, fixed_space_dim
from .pauli import _signed_perms

__all__ = [
    "PARTITIONS",
    "DimensionRow",
    "apply_code_projector",
    "stab_code_basis",
    "dimension_table",
    "orbit_counting_dims",
    "symplectic_character",
    "sp_multiplicity_sum",
    "clifford_frame_potential",
    "isotropic_orbit_states",
]

PARTITIONS = ((4,), (1, 1, 1, 1), (2, 2), (2, 1, 1), (3, 1))

SPECHT_DIM = {(4,): 1, (1, 1, 1, 1): 1, (2, 2): 2, (2, 1, 1): 3, (3, 1): 3}

# characters of S_4 by cycle type
S4_CHARACTER = {
    (4,): {(1, 1, 1, 1): 1, (2, 2): 1, (2, 1, 1): 1, (3, 1): 1, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 2): 1, (2, 1, 1): -1, (3, 1): 1, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 2): 2, (2, 1, 1): 0, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 2): -1, (2, 1, 1): -1, (3, 1): 0, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 2): -1, (2, 1, 1): 1, (3, 1): 0, (4,): -1},
}

# the largest stab_code_basis, 64 MiB of complex entries: every d^k <= 4096
CODE_BASIS_MAX_ENTRIES = 1 << 22


def weyl_dim(lam: tuple, d: int) -> Fraction:
    """Dimension of the degree-4 unitary-group irrep for partition lam."""
    if lam == (4,):
        return Fraction(d * (d + 1) * (d + 2) * (d + 3), 24)
    if lam == (1, 1, 1, 1):
        return Fraction(d * (d - 1) * (d - 2) * (d - 3), 24)
    if lam == (2, 2):
        return Fraction(d * d * (d * d - 1), 12)
    if lam == (2, 1, 1):
        return Fraction(d * (d - 2) * (d * d - 1), 8)
    if lam == (3, 1):
        return Fraction(d * (d + 2) * (d * d - 1), 8)
    raise ValueError(f"not a partition of 4: {lam!r}")


# ---------------------------------------------------------------------------
# the code on k copies, matrix-free


def _check_k(k: int) -> None:
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")


def _copy_digits(J, n: int, copies, k: int):
    """The base-d digits of the copy-major indices J on the given copies,
    copy 0 the most significant, and the index with digit 1 on each of
    them: XOR by x times it puts x on those copies."""
    places = [n * (k - 1 - c) for c in copies]
    return np.array([J >> p & (1 << n) - 1 for p in places]), sum(1 << p for p in places)


def apply_code_projector(v, n: int, k: int = 4) -> np.ndarray:
    """P_{n,k} = (1/d^2) sum_a W_a^{(x k)} applied to the last axis of v.

    For k a multiple of 4 the i-powers cancel, so W_a^{(x k)} =
    X_x^{(x k)} Z_z^{(x k)} and P = Pi_X Pi_Z: Pi_Z keeps the J whose k
    digits XOR to 0, and Pi_X is the mean of the d shifts J ^ (x, ..., x).
    """
    _check_k(k)
    d = 1 << n
    v = np.asarray(v)
    if v.shape[-1] != d**k:
        raise ValueError(f"last axis must have length d^k = {d**k}, got {v.shape[-1]}")
    J = np.arange(d**k)
    digits, ones = _copy_digits(J, n, range(k), k)
    u = np.where(np.bitwise_xor.reduce(digits) == 0, v, 0)
    return sum(np.take(u, J ^ x * ones, axis=-1) for x in range(d)) / d


def stab_code_basis(n: int, k: int = 4) -> np.ndarray:
    """Orthonormal basis of the code, shape (d^{k-2}, d^k).

    Row r is the uniform superposition of J_r ^ (x, ..., x) over x < d,
    J_r the r-th smallest index whose copy-0 digit is 0 and whose k digits
    XOR to 0: the diagonal Paulis fix such J, and X_x^{(x k)} permutes the
    d indices of each row.
    """
    _check_k(k)
    d = 1 << n
    if d ** (2 * k - 2) > CODE_BASIS_MAX_ENTRIES:
        raise CapacityError(f"code basis limited to {CODE_BASIS_MAX_ENTRIES} entries; "
                            f"requested d^(k-2) x d^k = {d ** (2 * k - 2)}")
    J = np.arange(d ** (k - 1))  # the copy-0 digit is 0
    digits, ones = _copy_digits(J, n, range(k), k)
    rows = J[np.bitwise_xor.reduce(digits) == 0]
    out = np.zeros((len(rows), d**k), dtype=complex)
    np.put_along_axis(out, rows[:, None] ^ np.arange(d) * ones, np.sqrt(1.0 / d), axis=1)
    return out


# ---------------------------------------------------------------------------
# exact dimension ledger


@dataclass(frozen=True)
class DimensionRow:
    lam: tuple
    d_lam: int
    D_lam: int
    D_plus: int
    D_minus: int

    def to_dict(self) -> dict:
        return {
            "partition": list(self.lam),
            "specht_dim": self.d_lam,
            "weyl_dim": self.D_lam,
            "code_part": self.D_plus,
            "complement_part": self.D_minus,
        }


def dimension_table(n: int) -> list[DimensionRow]:
    """Exact splitting of each Weyl module by the 4-copy stabilizer code.

    Traces against the code projector reduce to the cycle-type rule
    tr(U_sigma W_a^{x4}) = d^{#even cycles} for a != 0 (zero if sigma has an
    odd cycle), so each entry is integer arithmetic.
    """
    d = 1 << n
    rows = []
    for lam in PARTITIONS:
        D = weyl_dim(lam, d)
        chi22 = S4_CHARACTER[lam][(2, 2)]
        chi4 = S4_CHARACTER[lam][(4,)]
        plus = (D + Fraction((d * d - 1) * (3 * chi22 * d * d + 6 * chi4 * d), 24)) / (d * d)
        minus = D - plus
        if plus.denominator != 1 or minus.denominator != 1 or D.denominator != 1:
            raise AssertionError(f"non-integer dimension for {lam}")
        rows.append(DimensionRow(lam, SPECHT_DIM[lam], int(D), int(plus), int(minus)))
    return rows


def orbit_counting_dims(n: int) -> tuple[int, int]:
    """Independent route to the two multiplicity-free code dimensions.

    The code has a basis labeled by strings over {0,1,2,3} of length n on
    which copy permutations act by relabeling letters 1,2,3.  The number of
    string orbits gives the symmetric part: by Burnside's lemma over S_3
    (fixed strings 4^n, 2^n and 1 per identity, transposition, 3-cycle)
    it is (4^n + 3 2^n + 2)/6.  Less the 2^n orbits with at most one
    distinct nonzero letter, it gives the antisymmetric part.
    """
    total = ((1 << (2 * n)) + 3 * (1 << n) + 2) // 6
    return total, total - (1 << n)


# ---------------------------------------------------------------------------
# symplectic character sums


def symplectic_character(F: F2Matrix, k: int = 4) -> int:
    """Exact character of the code representation: [(-4)^{k/4}/2]^{dim ker(F-1)}."""
    _check_k(k)
    base = (-4) ** (k // 4) // 2
    return base ** fixed_space_dim(F)


def sp_multiplicity_sum(n: int, k: int = 4) -> Fraction:
    """(1/|Sp|) sum_F f(F)^{k-2} over Sp(2n, F_2), f(F) = 2^{dim ker(F-1)}:
    the squared-multiplicity sum of the code representation, which by
    Burnside's lemma is the number of orbits on (k-2)-tuples of vectors."""
    _check_k(k)
    return Fraction(f2lin.sp_orbit_count(n, k - 2))


def clifford_frame_potential(n: int, t: int = 4) -> Fraction:
    """Frame potential of the n-qubit Clifford group, exact.

    Equals the average of f(F)^{t-1} over Sp(2n, F_2), f(F) being the
    number of fixed vectors of F, which by Burnside's lemma is the number
    of orbits on (t-1)-tuples of vectors; closed form for every n.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    return Fraction(f2lin.sp_orbit_count(n, t - 1))


# ---------------------------------------------------------------------------
# code states labeled by maximal isotropic subspaces


def _copy_mean(u, n: int, x, v, copies) -> np.ndarray:
    """The mean over (x_a, v_a) = pauli._signed_perms of W_a on the given
    copies of four, applied to the last axis of u: term a scales u by v_a
    at those copies' digits and gathers it at J ^ (x_a on those copies)."""
    J = np.arange(u.shape[-1])
    digits, unit = _copy_digits(J, n, copies, 4)
    return sum(np.take(u * np.prod(va[digits], axis=0), J ^ xa * unit, axis=-1)
               for xa, va in zip(x.tolist(), v)) / len(v)


def isotropic_orbit_states(n: int) -> list[tuple[IsotropicSubspace, np.ndarray]]:
    """One code state per maximal isotropic subspace M of F_2^{2n}.

    The state v_M is the unique joint +1 eigenvector of the diagonal Paulis
    together with W_a x W_a x 1 x 1 and W_a x 1 x W_a x 1 for a in M, and
    lives in the symmetric part of the code.  |v_M><v_M| = P q1 q2, q1 and
    q2 the means over M of those two Paulis, and <0|v_M> is nonzero: v_M is
    P q1 q2 e_0, normalized.  n <= 3, as each state holds d^4 amplitudes
    and n = 4 would hold 2 295 states of 1 MB each.
    """
    if n > 3:
        raise CapacityError("isotropic-orbit states supported for n <= 3; "
                            "n = 4 would hold 2295 states of 1 MB each")
    e0 = np.eye(1, (1 << n) ** 4, dtype=complex)[0]
    out = []
    for M in f2lin.maximal_isotropic_subspaces(n):
        x, v = _signed_perms(n, np.asarray(M.vectors(), dtype=np.int64))
        u = apply_code_projector(_copy_mean(_copy_mean(e0, n, x, v, (0, 2)), n, x, v, (0, 1)), n)
        out.append((M, u / np.linalg.norm(u)))
    return out
