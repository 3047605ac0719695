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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import f2lin
from .f2lin import CapacityError, F2Matrix, IsotropicSubspace, fixed_space_dim
from .pauli import PauliLabel, pauli_matrix

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


def _reorder_qubit_major_to_copy_major(arr: np.ndarray, n: int, k: int) -> np.ndarray:
    """Permute tensor legs of a (2^{nk})-dim vector or square matrix from
    per-qubit copy blocks to per-copy qubit blocks."""
    bits = n * k
    perm = [0] * bits
    for c in range(k):
        for q in range(n):
            perm[c * n + q] = q * k + c
    if arr.ndim == 1:
        return arr.reshape((2,) * bits).transpose(perm).reshape(-1)
    full = perm + [bits + p for p in perm]
    dim = 1 << bits
    return arr.reshape((2,) * (2 * bits)).transpose(full).reshape(dim, dim)


def _check_stab_args(n: int, k: int) -> None:
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")
    if (1 << n) ** k > DENSE_DIM_MAX:
        raise CapacityError(
            f"dense stabilizer projector limited to dimension {DENSE_DIM_MAX}; "
            f"requested d^k = {(1 << n) ** k}"
        )


@functools.lru_cache(maxsize=None)
def stab_projector(n: int, k: int = 4) -> np.ndarray:
    """Projector (1/d^2) sum_a W_a^{(x k)} onto the k-copy stabilizer code."""
    _check_stab_args(n, k)
    p1 = np.zeros((1 << k, 1 << k), dtype=complex)
    for a in range(4):
        w = pauli_matrix(PauliLabel(1, a))
        term = np.array([[1.0 + 0j]])
        for _ in range(k):
            term = np.kron(term, w)
        p1 += term
    p1 /= 4.0
    out = p1
    for _ in range(n - 1):
        out = np.kron(out, p1)
    if n > 1:
        out = _reorder_qubit_major_to_copy_major(out, n, k)
    return out


def stab_code_basis(n: int, k: int = 4) -> np.ndarray:
    """Orthonormal basis of the code, shape (d^{k-2}, d^k).

    Single-qubit basis vectors are (|u> + |~u>)/sqrt(2) over even-weight
    bitstrings u with leading bit 0; the n-qubit basis takes all tensor
    combinations.
    """
    _check_stab_args(n, k)
    dim = 1 << k
    singles = []
    for u in range(dim // 2):  # leading bit of u is 0
        if bin(u).count("1") % 2:
            continue
        v = np.zeros(dim, dtype=complex)
        v[u] = 1 / np.sqrt(2.0)
        v[u ^ (dim - 1)] += 1 / np.sqrt(2.0)
        singles.append(v)
    out = []
    for combo in itertools.product(singles, repeat=n):
        v = np.array([1.0 + 0j])
        for w in combo:
            v = np.kron(v, w)
        if n > 1:
            v = _reorder_qubit_major_to_copy_major(v, n, k)
        out.append(v)
    return np.array(out)


def vec_pauli_basis(n: int) -> np.ndarray:
    """The d^2 orthogonal code vectors vec(W_a) x vec(W_a), shape (d^2, d^4)."""
    if n > 3:
        raise CapacityError("vectorized Pauli basis supported for n <= 3")
    d = 1 << n
    out = np.empty((d * d, d**4), dtype=complex)
    for a in range(d * d):
        v = pauli_matrix(PauliLabel(n, a)).reshape(-1)
        out[a] = np.kron(v, v)
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
    if n > 6:
        raise CapacityError("string-orbit counting supported for n <= 6")
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
    d = 1 << n
    eye = np.eye(d)
    proj_code = stab_projector(n, 4)
    out = []
    for M in f2lin.maximal_isotropic_subspaces(n):
        q1 = np.zeros((d**4, d**4), dtype=complex)
        q2 = np.zeros((d**4, d**4), dtype=complex)
        for a in M.vectors():
            w = pauli_matrix(PauliLabel(n, a))
            q1 += np.kron(np.kron(w, w), np.kron(eye, eye))
            q2 += np.kron(np.kron(w, eye), np.kron(w, eye))
        q1 /= d
        q2 /= d
        proj = proj_code @ q1 @ q2
        state = None
        for j in range(d**4):
            v = proj[:, j]
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                state = v / nrm
                break
        if state is None:
            raise AssertionError("code projector annihilates every basis vector")
        out.append((M, state))
    return out
