"""Brute-force oracles that the tests check the package against.

Each routine here is a second, independent route to a number the package
computes in closed form or by exact combinatorics:

* the S8 permutation census and the five-case assembly of E[alpha_+^2],
  with a dense 256-dimensional n = 1 evaluation (moments),
* dense isotypic (Young) projectors of S4 on (C^d)^{x4} (stabrep),
* the code character tr(U^{x k} P_{n,k}) from the dense Clifford unitary,
  and the multiplicity sum over an explicit subgroup of Sp(2n, F2)
  (stabrep),
* the code overlap of a product of four states (designs),
* the projective orbit deduplicated one state at a time, and the
  projective group lifted one labelled word per element (clifford),
* the letter-string orbits swept one string at a time (stabrep),
* the second image of a hyperbolic pair built bit by bit, the bit
  matrix transposed one column or one row at a time, the maximal
  isotropic subspaces grown depth first one candidate at a time, the
  orbit counts and fixed-space histogram with every sum and Lagrange
  numerator formed afresh, the symplectic basis completed from a pool
  filtered to its independent projections, and Sp(2n, F2) streamed as
  one F2Matrix per element (f2lin),
* the transvection midpoint found by a search over candidate vectors
  (clifford),
* the Pauli product phase summed, and a label split, one qubit at a
  time (pauli),
* the basis-cycler test as two walks over the powers, one for fixed
  points and order, one for the z-type spread, and the basis cycler found
  by exhaustive search over Sp(2n, F2) (fiducial).
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Iterator

import numpy as np

from cliffdesigns.clifford import _lifted, _transvection_words, projective_clifford_unitaries
from cliffdesigns.designs import sym_dim
from cliffdesigns.f2lin import (
    CapacityError,
    F2Matrix,
    IsotropicSubspace,
    _gaussian_binomial,
    _gl_order,
    _omega,
    _rows_from_indices,
    enumerate_sp,
    fixed_space_dim,
    sp_order,
    symplectic_form,
)
from cliffdesigns.fiducial import _is_basis_cycler
from cliffdesigns.pauli import PauliLabel, _signed_perm, characteristic_function, pauli_product
from cliffdesigns.stabrep import S4_CHARACTER, SPECHT_DIM, stab_projector

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
    p14 = stab_projector(1, 4)
    doubled = np.kron(p14, p14)
    d8 = 9  # dim of the 8-fold symmetric subspace at d = 2
    return float(np.trace(doubled @ p8).real / d8)


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
# projective orbits


def projective_orbit_loop(psi, n: int, decimals: int = 9) -> list[np.ndarray]:
    """The distinct states of the Clifford orbit of psi, in group order.

    One state at a time: the key is the bytes of |psi><psi| rounded to
    `decimals` digits, real parts then imaginary parts, with signed zeros
    folded; the first state of each key is kept.
    """
    seen = {}
    for s in projective_clifford_unitaries(n) @ psi:
        proj = np.outer(s, s.conj())
        key = (np.round(proj.real, decimals) + 0.0).tobytes() + (
            np.round(proj.imag, decimals) + 0.0
        ).tobytes()
        if key not in seen:
            seen[key] = s
    return list(seen.values())


def projective_group_repeat(n: int) -> np.ndarray:
    """projective_clifford_unitaries(n) with every symplectic's transvection
    word repeated d^2 times, once per Pauli label, and each labelled word
    lifted as its own sample."""
    d2 = 1 << (2 * n)
    words, lengths = _transvection_words(_rows_from_indices(range(sp_order(n)), n), n)
    return _lifted(n, np.repeat(words, d2, axis=0), np.repeat(lengths, d2),
                   np.tile(np.arange(d2), len(lengths)))


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
