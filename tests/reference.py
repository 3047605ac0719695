"""Brute-force oracles that the tests check the package against.

Each routine here is a second, independent route to a number the package
computes in closed form or by exact combinatorics:

* the S8 permutation census and the five-case assembly of E[alpha_+^2],
  with a dense 256-dimensional n = 1 evaluation (moments),
* dense isotypic (Young) projectors of S4 on (C^d)^{x4}, and the code
  projector (whole, or a column block at a time), code basis, vec-Pauli
  basis and isotropic-orbit states built from Kronecker products of
  single-qubit Paulis (stabrep),
* the code character tr(U^{x k} P_{n,k}) from the dense Clifford unitary,
  and the multiplicity sum over an explicit subgroup of Sp(2n, F2)
  (stabrep),
* the code overlap of a product of four states, and the frame potential
  of an explicit state set as the double sum over its pairs (designs),
* the projective orbit deduplicated one state at a time, the matrix-step
  lift of transvection words (one dense product per factor), and the
  projective group lifted by it one labelled word per element (clifford),
* the letter-string orbits swept one string at a time (stabrep),
* the second image of a hyperbolic pair built bit by bit, the bit
  matrix transposed one column or one row at a time, the maximal
  isotropic subspaces grown depth first one candidate at a time, the
  orbit counts and fixed-space histogram with every sum and Lagrange
  numerator formed afresh, the symplectic basis completed from a pool
  filtered to its independent projections, and with the form called once
  per pairing, and Sp(2n, F2) streamed as one F2Matrix per element (f2lin),
* the transvection midpoint found by a search over candidate vectors
  (clifford),
* the Pauli label product with its phase summed, and a label split, one
  qubit at a time, and the characteristic function by full-length
  Walsh-Hadamard transforms of both the real and the imaginary part of
  every product, the unused half checked as an imaginary residue (pauli),
* the basis-cycler test as two walks over the powers, one for fixed
  points and order, one for the z-type spread, the basis cycler found
  by exhaustive search over Sp(2n, F2), the cycler orbit walked by
  dense matrix-vector products, the dense matrix of a read cycler normal
  form, and the epsilon root found by bisection or regula falsi on the
  chord (fiducial).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator

import numpy as np

from cliffdesigns.clifford import _transvection_words
from cliffdesigns.designs import BOUND_SLACK, epsilon, sym_dim
from cliffdesigns.f2lin import (
    CapacityError,
    DimensionError,
    F2Matrix,
    IsotropicSubspace,
    _gaussian_binomial,
    _gl_order,
    _omega,
    _cols_from_indices,
    enumerate_sp,
    fixed_space_dim,
    maximal_isotropic_subspaces,
    sp_order,
    symplectic_form,
)
from cliffdesigns.fiducial import ConvergenceError, InfeasibleError, _is_basis_cycler
from cliffdesigns.pauli import (
    NormalizationError,
    PauliLabel,
    _check_normalized,
    _hadamard,
    _infer_n,
    _signed_perm,
    _signed_perms,
    characteristic_function,
    label_join,
    pauli_matrix,
)
from cliffdesigns.stabrep import S4_CHARACTER, SPECHT_DIM, _check_k

YOUNG_DENSE_MAX_N = 2

# Census of S_8 permutations with no odd-length cycle, by cycle type:
#   total        -- all such permutations,
#   balanced     -- every cycle visits an even number of the first four and
#                   of the last four tensor slots,
#   signed       -- balanced counted with the sign of the number of
#                   first/second-half interleavings per cycle.
S8_CLASS_COUNTS = {
    (2, 2, 2, 2): {"total": 105, "balanced": 9, "signed": 9, "even_cycles": 4},
    (4, 2, 2): {"total": 1260, "balanced": 252, "signed": 108, "even_cycles": 3},
    (4, 4): {"total": 1260, "balanced": 684, "signed": 108, "even_cycles": 2},
    (6, 2): {"total": 3360, "balanced": 1440, "signed": 288, "even_cycles": 2},
    (8,): {"total": 5040, "balanced": 5040, "signed": 432, "even_cycles": 1},
}


def permutation_cycles(perm) -> list[list[int]]:
    """The cycles of a permutation given as its tuple of images."""
    seen = [False] * len(perm)
    cycles = []
    for i in range(len(perm)):
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        if cyc:
            cycles.append(cyc)
    return cycles


def cycle_type(perm: tuple) -> tuple:
    return tuple(sorted(map(len, permutation_cycles(perm)), reverse=True))


# ---------------------------------------------------------------------------
# the second moment of alpha_+ from the S8 census


def _case_values(d: int) -> dict[str, Fraction]:
    """tr[P_[8] (W_a^{x4} x W_b^{x4})] for the five Pauli-pair cases."""
    fact8 = 40320
    d8 = Fraction(sym_dim(d, 8))
    d4 = Fraction(sym_dim(d, 4))
    # tr(P_[4] W^{x4}) for W != 1: three (2,2) and six (4) permutations
    p4w = Fraction(3 * d * d + 6 * d, 24)
    equal = Fraction(
        sum(c["total"] * d ** c["even_cycles"] for c in S8_CLASS_COUNTS.values()), fact8
    )
    commuting = Fraction(
        sum(c["balanced"] * d ** c["even_cycles"] for c in S8_CLASS_COUNTS.values()), fact8
    )
    anticommuting = Fraction(
        sum(c["signed"] * d ** c["even_cycles"] for c in S8_CLASS_COUNTS.values()), fact8
    )
    return {
        "both_identity": d8,
        "one_identity": d8 / d4 * p4w,
        "equal": equal,
        "commuting": commuting,
        "anticommuting": anticommuting,
    }


def census_second_moment(n: int) -> Fraction:
    """E[alpha_+^2] over Haar-random states, as an exact rational.

    The sum over Pauli pairs of tr[P_[8] (W_a^{x4} x W_b^{x4})] splits into
    five cases (both identity, one identity, equal, commuting,
    anticommuting), each weighted by its number of pairs.
    """
    d = 1 << n
    vals = _case_values(d)
    n_pairs_comm = (d * d - 1) * (d * d // 2 - 2)
    n_pairs_anti = (d * d - 1) * (d * d // 2)
    total = (
        vals["both_identity"]
        + 2 * (d * d - 1) * vals["one_identity"]
        + (d * d - 1) * vals["equal"]
        + n_pairs_comm * vals["commuting"]
        + n_pairs_anti * vals["anticommuting"]
    )
    return total / (d**4 * sym_dim(d, 8))


def regenerate_s8_class_counts() -> dict:
    """Recompute S8_CLASS_COUNTS by brute force over all 40 320 permutations.

    The signed count uses the phase-exact single-qubit Pauli product with
    the anticommuting pair (Z, X): a balanced cycle multiplies out to
    +-identity and the sign is read off the i-power.
    """
    z = PauliLabel(1, 1)
    x = PauliLabel(1, 2)
    out = {}
    for perm in itertools.permutations(range(8)):
        ct = cycle_type(perm)
        if any(l % 2 for l in ct):
            continue
        entry = out.setdefault(
            ct, {"total": 0, "balanced": 0, "signed": 0, "even_cycles": len(ct)}
        )
        entry["total"] += 1
        cycles = permutation_cycles(perm)
        balanced = all(
            sum(1 for e in cyc if e < 4) % 2 == 0 and sum(1 for e in cyc if e >= 4) % 2 == 0
            for cyc in cycles
        )
        if not balanced:
            continue
        entry["balanced"] += 1
        sign = 1
        for cyc in cycles:
            prod = PauliLabel.identity(1)
            for e in cyc:
                prod = pauli_product(prod, z if e < 4 else x)
            if prod.a != 0 or prod.phase_exp % 2:
                raise AssertionError(f"balanced cycle gives Pauli product {prod}, not +-1")
            sign *= 1 if prod.phase_exp == 0 else -1
        entry["signed"] += sign
    return out


def dense_second_moment_qubit() -> float:
    """E[alpha_+^2] at n = 1 from dense 256-dimensional projectors.

    Builds the 8-copy symmetric projector by summing all permutation
    operators and contracts it against the doubled code projector.
    """
    idx = np.arange(256)
    bits = [(idx >> (7 - c)) & 1 for c in range(8)]
    counts = np.zeros((256, 256))
    for perm in itertools.permutations(range(8)):
        y = sum(bits[perm[c]] << (7 - c) for c in range(8))
        np.add.at(counts, (y, idx), 1.0)
    p8 = counts / 40320.0
    p14 = stab_projector_kron(1, 4)
    doubled = np.kron(p14, p14)
    d8 = 9  # dim of the 8-fold symmetric subspace at d = 2
    return float(np.trace(doubled @ p8).real / d8)


# ---------------------------------------------------------------------------
# the dense code objects from Kronecker products of single-qubit Paulis


def reorder_qubit_major_to_copy_major(arr: np.ndarray, n: int, k: int) -> np.ndarray:
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


def _check_kron_args(n: int, k: int, dim_max: int) -> None:
    _check_k(k)
    if (1 << n) ** k > dim_max:
        raise CapacityError(f"Kronecker oracle limited to d^k <= {dim_max}; "
                            f"requested d^k = {(1 << n) ** k}")


def _one_qubit_code_projector(k: int) -> np.ndarray:
    """(1/4) sum_a W_a^{(x k)} at n = 1, from dense Pauli matrices."""
    p1 = np.zeros((1 << k, 1 << k), dtype=complex)
    for a in range(4):
        w = pauli_matrix(PauliLabel(1, a))
        term = np.array([[1.0 + 0j]])
        for _ in range(k):
            term = np.kron(term, w)
        p1 += term
    return p1 / 4.0


def stab_projector_kron(n: int, k: int = 4) -> np.ndarray:
    """The code projector P_{n,k} as the n-fold Kronecker power of the
    one-qubit projector, its legs reordered copy-major; d^k <= 256, past
    which stab_projector_kron_columns gives it a column block at a time."""
    _check_kron_args(n, k, 256)
    p1 = _one_qubit_code_projector(k)
    out = p1
    for _ in range(n - 1):
        out = np.kron(out, p1)
    if n > 1:
        out = reorder_qubit_major_to_copy_major(out, n, k)
    return out


def _qubit_strings(J: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """Per qubit q, the k-bit string that qubit takes across the copies of
    the copy-major indices J, copy 0 the most significant bit: the row or
    column of J in qubit q's one-qubit factor."""
    return [sum((J >> n * (k - c) - 1 - q & 1) << k - 1 - c for c in range(k))
            for q in range(n)]


def stab_projector_kron_columns(n: int, k: int, cols) -> np.ndarray:
    """The columns cols of stab_projector_kron(n, k), each entry the product
    over qubits of the one-qubit projector at that qubit's k-bit strings;
    no d^k x d^k array is formed."""
    _check_kron_args(n, k, 4096)
    p1 = _one_qubit_code_projector(k)
    rows = _qubit_strings(np.arange((1 << n) ** k), n, k)
    strings = _qubit_strings(np.asarray(cols), n, k)
    out = p1[np.ix_(rows[0], strings[0])]
    for r, c in zip(rows[1:], strings[1:]):
        out *= p1[np.ix_(r, c)]
    return out


def stab_code_basis_kron(n: int, k: int = 4) -> np.ndarray:
    """stabrep.stab_code_basis as tensor products of the single-qubit
    vectors (|u> + |~u>)/sqrt(2) over even-weight bitstrings u with leading
    bit 0, in lexicographic order of the qubits' u."""
    _check_kron_args(n, k, 4096)
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
            v = reorder_qubit_major_to_copy_major(v, n, k)
        out.append(v)
    return np.array(out)


def vec_pauli_basis_kron(n: int) -> np.ndarray:
    """The d^2 orthogonal code vectors vec(W_a) x vec(W_a), shape
    (d^2, d^4), from dense Pauli matrices."""
    d = 1 << n
    out = np.empty((d * d, d**4), dtype=complex)
    for a in range(d * d):
        v = pauli_matrix(PauliLabel(n, a)).reshape(-1)
        out[a] = np.kron(v, v)
    return out


def isotropic_orbit_states_kron(n: int) -> list[tuple[IsotropicSubspace, np.ndarray]]:
    """stabrep.isotropic_orbit_states with the projectors built from dense
    Pauli matrices, one Kronecker product per label."""
    d = 1 << n
    eye = np.eye(d)
    proj_code = stab_projector_kron(n, 4)
    out = []
    for M in maximal_isotropic_subspaces(n):
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


# ---------------------------------------------------------------------------
# dense isotypic projectors


@functools.lru_cache(maxsize=None)
def _perm_operators(d: int) -> dict:
    idx = np.arange(d**4)
    digits = [(idx // d ** (3 - c)) % d for c in range(4)]
    ops = {}
    for perm in itertools.permutations(range(4)):
        y = sum(digits[perm[c]] * d ** (3 - c) for c in range(4))
        m = np.zeros((d**4, d**4), dtype=complex)
        m[y, idx] = 1.0
        ops[perm] = m
    return ops


def young_projector(lam: tuple, n: int) -> np.ndarray:
    """Isotypic projector (d_lam/24) sum_sigma chi_lam(sigma) U_sigma."""
    if lam not in SPECHT_DIM:
        raise ValueError(f"not a partition of 4: {lam!r}")
    if n > YOUNG_DENSE_MAX_N:
        raise CapacityError("dense isotypic projectors supported for n <= 2")
    d = 1 << n
    chi = S4_CHARACTER[lam]
    out = np.zeros((d**4, d**4), dtype=complex)
    for perm, op in _perm_operators(d).items():
        out += chi[cycle_type(perm)] * op
    return (SPECHT_DIM[lam] / 24.0) * out


# ---------------------------------------------------------------------------
# character sums from dense unitaries and explicit groups


def numeric_symplectic_character(U, k: int = 4) -> float:
    """tr(U^{x k} P_{n,k}) evaluated from the dense unitary.

    Uses tr(U^{x k} W_a^{x k}) = [tr(U W_a)]^k so no d^k-dimensional matrix
    is formed.
    """
    n = U.n
    d = 1 << n
    k_idx = np.arange(d)
    total = 0.0 + 0.0j
    for a in range(d * d):
        x, v = _signed_perm(PauliLabel(n, a))
        total += np.sum(U.matrix[k_idx, k_idx ^ x] * v) ** k
    return float((total / d**2).real)


def multiplicity_sum(R, k: int = 4) -> Fraction:
    """(1/|R|) sum_{F in R} f(F)^{k-2} with f(F) = 2^{dim ker(F-1)}.

    For a subgroup R this equals the squared-multiplicity sum of the code
    representation restricted to R, and also the number of R-orbits on
    (k-2)-tuples of vectors.  Closure is checked pairwise for small R and
    on 512 random pairs for large R.
    """
    if k % 4 != 0 or k <= 0:
        raise ValueError("k must be a positive multiple of 4")
    mats = list(R)
    if not mats:
        raise ValueError("empty set")
    _check_closure(mats)
    total = sum(2 ** ((k - 2) * fixed_space_dim(F)) for F in mats)
    return Fraction(total, len(mats))


def _check_closure(mats) -> None:
    keys = {m.rows for m in mats}
    if len(keys) != len(mats):
        raise ValueError("input contains duplicate elements")
    m = len(mats)
    if m * m <= 4096:
        pairs = itertools.product(mats, mats)
    else:
        rng = np.random.default_rng(0)
        pairs = (
            (mats[int(i)], mats[int(j)])
            for i, j in zip(rng.integers(m, size=512), rng.integers(m, size=512))
        )
    for a, b in pairs:
        if (a @ b).rows not in keys:
            raise ValueError("input set is not closed under multiplication")


# ---------------------------------------------------------------------------
# product states


def product_state_bound_check(psi1, psi2, psi3, psi4) -> float:
    """tr[P_{n,4} (rho_1 x rho_2 x rho_3 x rho_4)], asserted within [0, 1/d].

    Evaluated as (1/d^2) sum_a prod_j Xi_a(psi_j); the code contains no
    product state, so 1/d is the largest possible value.
    """
    xis = [characteristic_function(np.asarray(p)) for p in (psi1, psi2, psi3, psi4)]
    n = xis[0].n
    if any(x.n != n for x in xis):
        raise ValueError("states must share the qubit count")
    d = 1 << n
    val = float(np.sum(xis[0].values * xis[1].values * xis[2].values * xis[3].values)) / d**2
    if not -1e-10 <= val <= 1 / d + 1e-10:
        raise AssertionError(f"product-state overlap {val} outside [0, 1/d]")
    return val


# ---------------------------------------------------------------------------
# frame potentials


def frame_potential(states, t: int, weights=None, block: int = 2048) -> float:
    """Weighted frame potential sum_{jk} w_j w_k |<psi_j|psi_k>|^{2t}.

    With no weights this is the plain (1/K^2) double sum.  Blocked over
    rows so large unions never materialize a full Gram matrix.
    """
    psis = np.asarray(states)
    if psis.ndim != 2 or psis.shape[0] == 0:
        raise ValueError("need a nonempty list of state vectors")
    k = psis.shape[0]
    if weights is None:
        w = np.full(k, 1.0 / k)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (k,) or not (w >= 0).all():
            raise ValueError("weights must be nonnegative, one per state")
        if not abs(w.sum() - 1.0) <= 1e-10:
            raise NormalizationError(f"weights sum to {w.sum()}, not 1")
    conj = psis.conj()
    total = 0.0
    for lo in range(0, k, block):
        # in place: a block holds one complex and one real K-wide array
        p = np.abs(psis[lo : lo + block] @ conj.T)
        np.square(p, out=p)
        np.power(p, t, out=p)
        total += float(np.einsum("i,ij,j->", w[lo : lo + block], p, w))
    d = psis.shape[1]
    if not total >= 1.0 / sym_dim(d, t) - BOUND_SLACK:
        raise AssertionError(f"frame potential {total} is not at or above the design minimum")
    return total


# ---------------------------------------------------------------------------
# projective orbits


def lift_words_dense(n: int, words, lengths, labels=None) -> np.ndarray:
    """(S, d, d) stack of unitaries, one dense matrix step per factor: word
    s, the first lengths[s] vectors of row s of the (S, W) array words, is
    the product of the factors (1 + i W_v)/sqrt(2) over its vectors,
    multiplied on the right in reading order, times e^{-i pi/4} for an odd
    length, then multiplied on the left by W_{labels[s]}.

    A step is U <- (U + i (U W_v))/sqrt(2), the column gather
    (U W_v)[r, k] = v[k] U[r, k ^ x]; one sample at a time.
    """
    words, lengths = np.asarray(words), np.asarray(lengths)
    d = 1 << n
    k = np.arange(d)
    out = np.empty((len(lengths), d, d), dtype=complex)
    for s, (word, length) in enumerate(zip(words, lengths)):
        U = np.eye(d, dtype=complex)
        for vec in word[:length]:
            x, v = _signed_perms(n, int(vec))
            U = (U + 1j * (U[:, k ^ x] * v)) / np.sqrt(2.0)
        if length % 2:
            U = U * np.exp(-0.25j * np.pi)
        if labels is not None:
            x, v = _signed_perms(n, int(labels[s]))
            U = (v[:, None] * U)[k ^ x]
        out[s] = U
    return out


@functools.cache
def projective_group_repeat(n: int) -> np.ndarray:
    """The projective Clifford group in the order of
    projective_clifford_unitaries(n): every symplectic's transvection word
    repeated d^2 times, once per Pauli label, and each labelled word lifted
    by lift_words_dense."""
    d2 = 1 << (2 * n)
    words, lengths = _transvection_words(_cols_from_indices(range(sp_order(n)), n), n)
    return lift_words_dense(n, np.repeat(words, d2, axis=0), np.repeat(lengths, d2),
                            np.tile(np.arange(d2), len(lengths)))


def projective_orbit_loop(psi, n: int, decimals: int = 9) -> list[np.ndarray]:
    """The distinct states of the Clifford orbit of psi, in group order.

    One state of projective_group_repeat(n) @ psi at a time: the key is the
    bytes of |psi><psi| rounded to `decimals` digits, real parts then
    imaginary parts, with signed zeros folded; the first state of each key
    is kept.
    """
    seen = {}
    for s in projective_group_repeat(n) @ psi:
        proj = np.outer(s, s.conj())
        key = (np.round(proj.real, decimals) + 0.0).tobytes() + (
            np.round(proj.imag, decimals) + 0.0
        ).tobytes()
        if key not in seen:
            seen[key] = s
    return list(seen.values())


# ---------------------------------------------------------------------------
# letter-string orbits, GF(2) bit loops, the Pauli product phase and the
# basis-cycler walks


def string_orbit_sweep(n: int) -> tuple[int, int]:
    """(orbits, orbits with two or more distinct nonzero letters) of the
    strings over {0,1,2,3} of length n under relabeling of letters 1,2,3,
    by canonicalizing all 4^n strings."""
    perms3 = list(itertools.permutations((1, 2, 3)))
    total = set()
    type3 = set()
    for s in itertools.product((0, 1, 2, 3), repeat=n):
        canon = min(tuple(0 if c == 0 else p[c - 1] for c in s) for p in perms3)
        total.add(canon)
        if len({c for c in s if c != 0}) >= 2:
            type3.add(canon)
    return len(total), len(type3)


def second_image_loop(f1: int, b: int, n: int) -> int:
    """The b-th vector g with <f1, g> = 1, enumerated via an affine basis:
    j* is the first coordinate j with bit j ^ 1 of f1 set, and bit k of b
    selects the k-th unit vector other than e_{j*}, corrected to pair
    trivially with f1."""
    nn = 2 * n
    jstar = next(j for j in range(nn) if (f1 >> (j ^ 1)) & 1)
    g = 1 << jstar
    k = 0
    for i in range(nn):
        if i == jstar:
            continue
        if (b >> k) & 1:
            h = 1 << i
            if (f1 >> (i ^ 1)) & 1:
                h ^= 1 << jstar
            g ^= h
        k += 1
    return g


def midpoint_search(c: int, j: int, n: int) -> int | None:
    """The first w = raw << 2k, raw = 1, 2, ..., with k = j // 2, that pairs
    to 1 with c, with e_j and, for odd j, with e_{2k}; None if no w does."""
    k = j // 2
    want = [c, 1 << j] + ([1 << (2 * k)] if j % 2 else [])
    for raw in range(1, 1 << (2 * (n - k))):
        w = raw << (2 * k)
        if all(symplectic_form(w, v, n) for v in want):
            return w
    return None


def column_loop(rows, j: int) -> int:
    """Column j of the bit matrix with the given rows."""
    c = 0
    for i, r in enumerate(rows):
        c |= ((r >> j) & 1) << i
    return c


def cols_to_rows_loop(cols, nn: int) -> list[int]:
    """The nn rows of the bit matrix with the given columns."""
    rows = [0] * nn
    for j, c in enumerate(cols):
        for i in range(nn):
            if (c >> i) & 1:
                rows[i] |= 1 << j
    return rows


def product_phase_loop(a: int, b: int, n: int) -> int:
    """i-power phi with W_a W_b = i^phi W_{a^b}, summed qubit by qubit."""
    phi = 0
    for i in range(n):
        z, x = (a >> 2 * i) & 1, (a >> 2 * i + 1) & 1
        zp, xp = (b >> 2 * i) & 1, (b >> 2 * i + 1) & 1
        phi += z * x + zp * xp + 2 * z * xp - (z ^ zp) * (x ^ xp)
    return phi % 4


def pauli_product(p: PauliLabel, q: PauliLabel) -> PauliLabel:
    """Label of the matrix product, its i-power from product_phase_loop."""
    if p.n != q.n:
        raise DimensionError("qubit count mismatch")
    return PauliLabel(p.n, p.a ^ q.a, p.phase_exp + q.phase_exp + product_phase_loop(p.a, q.a, p.n))


def cycler_two_walks(F, n: int) -> bool:
    """Order d+1 with all powers F^1..F^d free of nonzero fixed points (one
    walk), and the orbit of the z-type subspace a spread (a second walk)."""
    d = 1 << n
    power = F
    for _ in range(d):
        if fixed_space_dim(power) != 0:
            return False
        power = power @ F
    if power.rows != F2Matrix.identity(n).rows:
        return False
    mz = tuple(1 << (2 * i) for i in range(n))
    power = F
    for _ in range(d):
        if len(independent_rows(tuple(power.apply(b) for b in mz) + mz)) != 2 * n:
            return False
        power = power @ F
    return True


def bisection_loop(psi1, psi2, tol: float, max_iter: int = 200, mode: str = "bisect"):
    """State with |epsilon| <= tol between the endpoints, by iteration on the
    chord: the midpoint (mode 'bisect') or the epsilon-weighted point (mode
    'secant', plain regula falsi) replaces the endpoint of its sign.  The
    global phase of psi2 is re-fixed every step, so every point stays on the
    great-circle arc from psi1 to psi2."""
    if mode not in ("bisect", "secant"):
        raise ValueError("mode must be 'bisect' or 'secant'")
    e1 = epsilon(psi1)
    e2 = epsilon(psi2)
    if abs(e2) <= tol:
        return psi2
    if abs(e1) <= tol:
        return psi1
    if not (e1 > 0 > e2):
        raise InfeasibleError(f"need epsilon(psi1) > 0 > epsilon(psi2), got {e1}, {e2}")
    if abs(np.vdot(psi1, psi2)) < 1e-12:
        raise InfeasibleError("endpoints are orthogonal")
    p1, p2 = psi1.copy(), psi2.copy()
    for _ in range(max_iter):
        ov = np.vdot(p1, p2)
        if abs(ov) < 1e-14:
            raise ConvergenceError("endpoints became orthogonal during iteration")
        p2 = p2 * (ov.conjugate() / abs(ov))
        if mode == "bisect":
            mid = p1 + p2
        else:
            mid = e1 * p1 - e2 * p2
        mid = mid / np.linalg.norm(mid)
        em = epsilon(mid)
        if abs(em) <= tol:
            return mid
        if em >= 0:
            p1, e1 = mid, em
        else:
            p2, e2 = mid, em
    raise ConvergenceError(f"|epsilon| > {tol} after {max_iter} iterations")


def dense_cycler_walk(M: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The orbit r, Mr, ..., M^{d+1} r as rows, one dense matrix-vector
    product per power: the walk the normal-form step replaces."""
    d = len(r)
    orbit = np.empty((d + 2, d), dtype=complex)
    orbit[0] = r
    for j in range(d + 1):
        np.dot(M, orbit[j], out=orbit[j + 1])
    return orbit


def cycler_form_matrix(form) -> np.ndarray:
    """The dense matrix c D1 H P_B D2 of a read normal form, entry by entry:
    column k = B^{-1} j is c i^{q1(y)} (-1)^{y . j} i^{q2(k)}."""
    d = form.scale.size
    out = np.empty((d, d), dtype=complex)
    out[:, form.gather.ravel()] = (form.scale.reshape(d, 1) * _hadamard(d.bit_length() - 1)
                                   * form.phase.ravel())
    return out


def singer_search(n: int) -> F2Matrix:
    """First basis cycler in the enumeration order of Sp(2n, F2), found by
    exhaustive search over the object stream (n <= 2)."""
    return next(F for F in sp_elements(n) if _is_basis_cycler(F, n))


def sp_elements(n: int) -> Iterator[F2Matrix]:
    """Every element of Sp(2n, F2) as an F2Matrix, in index order: the row
    stacks of enumerate_sp one object per row, for n <= 2."""
    if n > 2:
        raise CapacityError(f"{sp_order(n)} F2Matrix objects; use enumerate_sp's stacks")
    for stack in enumerate_sp(n):
        for rows in stack.tolist():
            yield F2Matrix(tuple(rows), n)


def independent_rows(rows) -> list[int]:
    """The rows that are independent of the rows before them."""
    out = []
    pivots = {}
    for v in rows:
        r = v
        while r and (h := r.bit_length() - 1) in pivots:
            r ^= pivots[h]
        if r:
            pivots[h] = r
            out.append(v)
    return out


def symplectic_basis_filtered(form, m: int, pairs=(), u_pool=None) -> list[int]:
    """f2lin._symplectic_basis with the pools filtered: each round projects
    the pools onto the complement of the newest pairs and keeps the
    projections independent of those before them; u is the first of the
    u pool (or of the unit pool), v the first unit-pool vector pairing
    with u."""

    def project(pool, new):
        out = []
        for c in pool:
            for (a, b) in new:
                if form(a, c):
                    c ^= b
                if form(b, c):
                    c ^= a
            out.append(c)
        return independent_rows(out)

    pairs = list(pairs)
    pool = [1 << j for j in range(m)]
    new = pairs
    while 2 * len(pairs) < m:
        pool = project(pool, new)
        if u_pool is None:
            u = pool[0]
        else:
            u_pool = project(u_pool, new)
            u = u_pool[0]
        v = next(c for c in pool if form(u, c))
        new = [(u, v)]
        pairs += new
    return [c for pair in pairs for c in pair]


def symplectic_basis_callable(form, m: int, pairs=(), u_pool=None) -> list[int]:
    """f2lin._symplectic_basis with the form a callable form(u, c), called
    once per pairing: each round projects the unit pool, and u_pool when
    given, onto the complement of the newest pair; u is the first nonzero
    projection of the u pool (or of the unit pool), v the first unit-pool
    projection pairing with u."""
    cols = [c for pair in pairs for c in pair]
    pools = [[1 << j for j in range(m)]] + ([] if u_pool is None else [list(u_pool)])
    new = cols
    while len(cols) < m:
        for u, v in zip(new[::2], new[1::2]):
            pools = [[c ^ v * form(u, c) ^ u * form(v, c) for c in pool] for pool in pools]
        u = next(c for c in pools[-1] if c)
        v = next(c for c in pools[0] if form(u, c))
        new = [u, v]
        cols += new
    return cols


def isotropic_grow(n: int) -> tuple[IsotropicSubspace, ...]:
    """All dimension-n isotropic subspaces of F_2^{2n}, their reduced
    echelon bases grown depth first, one candidate row at a time."""
    out = []

    def grow(basis: tuple[int, ...], used: int, top: int) -> None:
        if len(basis) == n:
            out.append(IsotropicSubspace(basis, n))
            return
        for v in range(1, 1 << top):
            h = v.bit_length() - 1
            if not (used >> h) & 1 and not any(_omega(v, b) for b in basis):
                grow(basis + (v,), used | v, h)

    grow((), 0, 2 * n)
    return tuple(out)


def orbit_count_loop(n: int, m: int) -> int:
    """sp_orbit_count(n, m), summing the forms on F_2^r afresh for each r."""
    total = 0
    for r in range(m + 1):
        forms = sum(
            _gaussian_binomial(r, 2 * s) * _gl_order(2 * s) // sp_order(s)
            for s in range(r // 2 + 1)
            if r - s <= n
        )
        total += _gaussian_binomial(m, r) * forms
    return total


def histogram_lagrange_loop(n: int) -> tuple[int, ...]:
    """fixed_dim_histogram(n), each Lagrange numerator prod_{j != k} (x - 2^j)
    multiplied out afresh."""
    nn = 2 * n
    moments = [sp_order(n) * orbit_count_loop(n, m) for m in range(nn + 1)]
    counts = []
    for k in range(nn + 1):
        poly, den = [1], 1
        for j in range(nn + 1):
            if j != k:
                poly = [a - (b << j) for a, b in zip([0] + poly, poly + [0])]
                den *= (1 << k) - (1 << j)
        c, rem = divmod(sum(p * mom for p, mom in zip(poly, moments)), den)
        if rem or c < 0:
            raise AssertionError(f"fixed-space count at dim {k} is not a count")
        counts.append(c)
    return tuple(counts)


def label_split_loop(a, n: int):
    """pauli.label_split one bit per qubit: (z, x) in state-bit order."""
    z = x = 0
    for i in range(n):
        z = z << 1 | a >> 2 * i & 1
        x = x << 1 | a >> 2 * i + 1 & 1
    return z, x


_FULL_CHUNK = 1 << 16


@functools.cache
def _full_length_tables(n: int):
    """Gather indices k ^ m, Re/Im selectors and signs over max(chunk, d)
    rows, laid out [z_hi, row, z_lo]."""
    d = 1 << n
    b, step = min(d, 32), max(_FULL_CHUNK // d, 1)
    k = np.arange(d).reshape(d // b, 1, b)
    r = np.arange(max(step, d)).reshape(1, -1, 1)
    m = r % d
    pc = np.bitwise_count(k & m)  # k doubles as z: same layout
    return r - m + (k ^ m), (pc & 1).astype(bool), 1.0 - (pc & 2)


def xi_full_length(psis, imag_atol: float = 1e-12):
    """Yield (lo, xi): Xi of every row of an (S, d) batch, xi[z_hi, r, z_lo]
    = Xi(z_hi * b + z_lo, m) of state s where lo + r = s * d + m.

    Every product conj(psi_k) psi_{k^m} is formed for all d values of k and
    both its real and imaginary parts are transformed at length d; odd
    |z&m| keeps Im, even keeps Re, and the other half must vanish within
    imag_atol (AssertionError otherwise).
    """
    psis = np.asarray(psis)
    n = _infer_n(psis, ndim=2)
    s, d = psis.shape
    _check_normalized(psis)
    flat = np.ascontiguousarray(psis, dtype=complex).ravel()
    src, odd, sign = _full_length_tables(n)
    b, step = min(d, 32), max(_FULL_CHUNK // d, 1)
    q = d // b
    had_lo, had_hi = _hadamard(b.bit_length() - 1), _hadamard(q.bit_length() - 1)
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


def ell4_rows_full_length(psis) -> np.ndarray:
    """||Xi||_4^4 of every row of a batch, from xi_full_length."""
    psis = np.asarray(psis)
    d = psis.shape[-1]
    out = np.zeros(len(psis))
    for lo, xi in xi_full_length(psis):
        states = max(xi.shape[1] // d, 1)
        x2 = xi * xi
        out[lo // d : lo // d + states] += (x2 * x2).reshape(len(xi), states, -1).sum(axis=(0, 2))
    return out


def characteristic_full_length(psi) -> np.ndarray:
    """All d^2 values Xi(a) of one state, indexed by the label a, from xi_full_length."""
    n = _infer_n(psi)
    d = 1 << n
    b = min(d, 32)
    z, m = np.broadcast_arrays(np.arange(d).reshape(d // b, 1, b), np.arange(d).reshape(1, d, 1))
    labels = label_join(z, m, n)
    out = np.empty(d * d)
    for lo, xi in xi_full_length(psi[None, :]):
        out[labels[:, lo : lo + xi.shape[1]]] = xi
    return out
