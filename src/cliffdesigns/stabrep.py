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

The dense code objects (stab_projector, stab_code_basis, vec_pauli_basis,
isotropic_orbit_states) index k copies copy-major, copy 0 the most
significant base-d digit, and read every W_a from pauli._signed_perms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, IsotropicSubspace, fixed_space_dim
from .pauli import _signed_perms

__all__ = [
    "PARTITIONS",
    "DimensionRow",
    "stab_projector",
    "stab_code_basis",
    "vec_pauli_basis",
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

DENSE_DIM_MAX = 4096


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
# dense projectors


def _check_stab_args(n: int, k: int) -> None:
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")
    if (1 << n) ** k > DENSE_DIM_MAX:
        raise CapacityError(
            f"dense stabilizer projector limited to dimension {DENSE_DIM_MAX}; "
            f"requested d^k = {(1 << n) ** k}"
        )


def _copy_pauli_mean(n: int, labels, copies, k: int) -> np.ndarray:
    """The mean over a in labels of W_a on each of the given copies and 1 on
    the others, as a d^k x d^k array: W_a sends |j> to v_a[j] |j ^ x_a>, so
    each term sends J to J ^ X_a, X_a the digit x_a on each given copy, times
    v_a at their digits of J.  Exact when len(labels) is a power of 2."""
    d = 1 << n
    x, v = _signed_perms(n, np.asarray(labels, dtype=np.int64))
    shifts = [n * (k - 1 - c) for c in copies]
    J = np.arange(d**k)
    out = np.zeros((d**k, d**k), dtype=complex)
    for xa, va in zip(x.tolist(), v):
        term = np.prod([va[J >> s & d - 1] for s in shifts], axis=0)
        out[J ^ sum(xa << s for s in shifts), J] += term / len(v)
    return out


@functools.lru_cache(maxsize=None)
def stab_projector(n: int, k: int = 4) -> np.ndarray:
    """Projector (1/d^2) sum_a W_a^{(x k)} onto the k-copy stabilizer code,
    read-only as it is shared by every caller."""
    _check_stab_args(n, k)
    out = _copy_pauli_mean(n, range(1 << 2 * n), range(k), k)
    out.flags.writeable = False
    return out


def stab_code_basis(n: int, k: int = 4) -> np.ndarray:
    """Orthonormal basis of the code, shape (d^{k-2}, d^k).

    Row r is the uniform superposition of J_r ^ (x, ..., x) over x < d,
    J_r the r-th smallest index whose copy-0 digit is 0 and whose k digits
    XOR to 0: the diagonal Paulis fix such J, and X_x^{(x k)} permutes the
    d indices of each row.
    """
    _check_stab_args(n, k)
    d = 1 << n
    J = np.arange(d ** (k - 1))  # the copy-0 digit is 0
    rows = J[np.bitwise_xor.reduce([J >> n * c & d - 1 for c in range(k - 1)]) == 0]
    out = np.zeros((len(rows), d**k), dtype=complex)
    ones = sum(1 << n * c for c in range(k))  # the digit 1 on every copy
    np.put_along_axis(out, rows[:, None] ^ np.arange(d) * ones, np.sqrt(1.0 / d), axis=1)
    return out


def vec_pauli_basis(n: int) -> np.ndarray:
    """The d^2 orthogonal code vectors vec(W_a) x vec(W_a), shape (d^2, d^4)."""
    _check_stab_args(n, 4)
    d = 1 << n
    x, v = _signed_perms(n, np.arange(d * d))
    j = np.arange(d)
    idx = (x[:, None] ^ j) * d + j  # vec(W_a) holds v_a[j] there, row-major
    out = np.zeros((d * d, d * d, d * d), dtype=complex)
    a = np.arange(d * d)[:, None, None]
    out[a, idx[:, :, None], idx[:, None, :]] = v[:, :, None] * v[:, None, :]
    return out.reshape(d * d, d**4)


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
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")
    base = (-4) ** (k // 4) // 2
    return base ** fixed_space_dim(F)


def sp_multiplicity_sum(n: int, k: int = 4) -> Fraction:
    """(1/|Sp|) sum_F f(F)^{k-2} over Sp(2n, F_2), f(F) = 2^{dim ker(F-1)}:
    the squared-multiplicity sum of the code representation, which by
    Burnside's lemma is the number of orbits on (k-2)-tuples of vectors."""
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")
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


def isotropic_orbit_states(n: int) -> list[tuple[IsotropicSubspace, np.ndarray]]:
    """One code state per maximal isotropic subspace M of F_2^{2n}.

    The state is the unique joint +1 eigenvector of the diagonal Paulis
    together with W_a x W_a x 1 x 1 and W_a x 1 x W_a x 1 for a in M; it is
    produced by projecting the first computational basis vector with a
    nonzero image and lives in the symmetric part of the code.
    """
    if n > 2:
        raise CapacityError("isotropic-orbit states supported for n <= 2")
    proj_code = stab_projector(n, 4)
    out = []
    for M in f2lin.maximal_isotropic_subspaces(n):
        q1 = _copy_pauli_mean(n, M.vectors(), (0, 1), 4)
        q2 = _copy_pauli_mean(n, M.vectors(), (0, 2), 4)
        proj = proj_code @ q1 @ q2
        nonzero = np.linalg.norm(proj, axis=0) > 1e-8
        if not nonzero.any():
            raise AssertionError("code projector annihilates every basis vector")
        v = proj[:, nonzero.argmax()]
        out.append((M, v / np.linalg.norm(v)))
    return out
