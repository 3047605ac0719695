"""Reference values computed without importing cliffdesigns.

Pauli expectations come from dense Kronecker products of the 2x2 Pauli
matrices, so they share no code with the program's Hadamard-transform
kernel. Closed forms are exact `Fraction`s. GF(2) helpers follow the
program's documented conventions (README "Conventions"): a vector of
F2^(2n) is an int whose bit pairs (2i, 2i+1) are (z, x) of one qubit, and
a matrix is a tuple of row bitmasks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

import numpy as np

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# The three-qubit Hoggar fiducial, as printed in the paper.
HOGGAR = np.array([1 + 1j, 0, -1, 1, -1j, -1, 0, 0], dtype=complex) / math.sqrt(6.0)


# ---------------------------------------------------------------------------
# states


def psi_t() -> np.ndarray:
    """Single-qubit state with Bloch vector (1, 1, 1)/sqrt(3)."""
    theta = math.acos(1.0 / math.sqrt(3.0))
    return np.array([math.cos(theta / 2), np.exp(0.25j * math.pi) * math.sin(theta / 2)])


def psi_t_power(n: int) -> np.ndarray:
    return reduce(np.kron, [psi_t()] * n)


def zero_state(n: int) -> np.ndarray:
    out = np.zeros(1 << n, dtype=complex)
    out[0] = 1.0
    return out


def haar_states(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Pauli expectations by dense Kronecker products


def ell4_norm4(states: np.ndarray) -> np.ndarray:
    """sum_P <psi|P|psi>^4 over all 4^n Pauli strings, one value per row.

    A 1-d input is treated as a batch of one and a float is returned.
    """
    batch = np.atleast_2d(states)
    d = batch.shape[1]
    n = d.bit_length() - 1
    if 1 << n != d:
        raise ValueError("state length must be a power of 2")
    conj = batch.conj()
    acc = np.zeros(batch.shape[0])
    for word in itertools.product(PAULIS, repeat=n):
        w = reduce(np.kron, word, np.ones((1, 1), dtype=complex))
        ev = np.sum(conj * (batch @ w.T), axis=1)
        if np.max(np.abs(ev.imag)) > 1e-9:
            raise ArithmeticError("Pauli expectation is not real")
        acc += ev.real**4
    return float(acc[0]) if states.ndim == 1 else acc


def epsilon_of_ell4(ell4, d: int):
    """epsilon = d(d+3)/4 * alpha_+ - 1 with alpha_+ = ||Xi||_4^4 / d^2."""
    return (d + 3) * ell4 / (4 * d) - 1


def epsilon(psi: np.ndarray) -> float:
    return epsilon_of_ell4(ell4_norm4(psi), psi.shape[0])


def epsilon_psi_t_power(n: int) -> Fraction:
    """epsilon of psi_T^{(x)n}; ||Xi||_4^4 is multiplicative and 4/3 per factor."""
    return epsilon_of_ell4(Fraction(4, 3) ** n, 1 << n)


def epsilon_zero_state(n: int) -> Fraction:
    d = 1 << n
    return Fraction(d - 1, 4)


# ---------------------------------------------------------------------------
# closed forms


def sym_dim(d: int, t: int) -> int:
    return math.comb(d + t - 1, t)


def phi4(eps, d: int):
    """Fourth frame potential of a Clifford orbit with deviation eps."""
    one = Fraction(1) if isinstance(eps, Fraction) else 1.0
    return (one + 4 * eps * eps / ((d - 1) * (d + 4))) / sym_dim(d, 4)


def haar_alpha_mean(d: int) -> Fraction:
    return Fraction(4, d * (d + 3))


def haar_epsilon_second_moment(d: int) -> Fraction:
    return Fraction(6 * (d - 1), (d + 5) * (d + 6) * (d + 7))


def haar_alpha_second_moment(d: int) -> Fraction:
    """E[alpha^2] = (E[eps^2] + 1) / c^2 with c = d(d+3)/4, since E[eps] = 0."""
    c = Fraction(d * (d + 3), 4)
    return (haar_epsilon_second_moment(d) + 1) / (c * c)


def haar_alpha_variance(d: int) -> Fraction:
    return haar_alpha_second_moment(d) - haar_alpha_mean(d) ** 2


def chebyshev_bound(d: int, xi: float) -> float:
    return min(1.0, float(haar_epsilon_second_moment(d)) / xi**2)


def sp_order(n: int) -> int:
    """|Sp(2n, F2)| = 2^{n^2} prod_{i=1..n} (4^i - 1)."""
    return 2 ** (n * n) * math.prod(4**i - 1 for i in range(1, n + 1))


def maximal_isotropic_count(n: int) -> int:
    return math.prod(2**i + 1 for i in range(1, n + 1))


def weyl_dim(lam: tuple, d: int) -> int:
    """Dimension of the U(d) irrep lam by the hook-content formula."""
    num = Fraction(1)
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (cols[j] - i) - 1
            num *= Fraction(d + j - i, hook)
    return int(num)


def specht_dim(lam: tuple) -> int:
    """Dimension of the symmetric-group irrep lam by the hook length formula."""
    hooks = 1
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])]
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def symmetric_code_dim(n: int) -> int:
    """S_3-orbits of strings over {0,1,2,3}^n (Burnside): the code part of lam = (4)."""
    return (4**n + 3 * 2**n + 2) // 6


# Group frame potentials (t = 4) and k = 4 multiplicity sums, n = 1, 2, 3.
CLIFFORD_FRAME_POTENTIAL_T4 = {1: 15, 2: 29, 3: 30}
MULTIPLICITY_SUM_K4 = {1: 5, 2: 6, 3: 6}

# -epsilon of basis-cycler eigenstates times psi_T, with the paper's
# reported precision.
SINGER_REFERENCE = {1: (2.0 / 9.0, 1e-10), 2: (0.12, 5e-3), 4: (0.0312, 5e-4), 8: (0.0020, 5e-4)}


# ---------------------------------------------------------------------------
# GF(2)


def symplectic_form(a: int, b: int) -> int:
    """sum_i z_i(a) x_i(b) + x_i(a) z_i(b) mod 2."""
    even = int("01" * 64, 2)
    swapped = ((b & even) << 1) | ((b >> 1) & even)
    return bin(a & swapped).count("1") & 1


def f2_rank(rows) -> int:
    pivots = []
    for r in rows:
        for p in pivots:
            r = min(r, r ^ p)
        if r:
            pivots.append(r)
            pivots.sort(reverse=True)
    return len(pivots)


def fixed_space_dim(rows) -> int:
    """dim ker(F - 1) for F given by row bitmasks."""
    return len(rows) - f2_rank([r ^ (1 << i) for i, r in enumerate(rows)])


def columns(rows) -> list[int]:
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(len(rows))]


def is_symplectic(rows) -> bool:
    cols = columns(rows)
    nn = len(rows)
    return all(
        symplectic_form(cols[i], cols[j]) == symplectic_form(1 << i, 1 << j)
        for i in range(nn)
        for j in range(i + 1, nn)
    )


def span(basis) -> set[int]:
    out = {0}
    for b in basis:
        out |= {v ^ b for v in out}
    return out
