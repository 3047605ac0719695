"""Constructions of exact and approximate 4-design fiducial vectors.

Three constructive routes are implemented:

* tensor completion -- given a state whose characteristic-function l4-norm
  is small enough, append one qubit whose Bloch vector solves a quartic so
  the product state has epsilon = 0 exactly;
* the epsilon root on a great circle -- between a positive-epsilon and a
  negative-epsilon state (stabilizer states and cycler eigenstates are the
  canonical endpoints) epsilon is a nine-term trigonometric series of the
  arc angle, and the state at its first zero is the fiducial;
* weighted two-orbit designs -- mix the orbits of a positive and a
  negative state with total weights proportional to the partner's
  |epsilon|, which cancels the deviation exactly.

The module also builds basis cyclers (Singer unitaries): Clifford elements
of projective order d+1 whose symplectic action has no nonzero fixed point
in any nontrivial power.  Their eigenstates are balanced across a complete
set of mutually unbiased bases and give the negative-epsilon seeds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import clifford, f2lin
from .designs import (
    POTENTIAL_RTOL,
    bloch_state,
    epsilon,
    epsilon_from_ell4,
    fourth_moment,
    orbit_frame_potential,
    sym_dim,
)
from .f2lin import _Record, _set
from .pauli import (_check_normalized, _ell4_rows, _hadamard, _infer_n,
                    characteristic_function, ell4_norm4)

__all__ = [
    "BlochVector",
    "WeightedDesign",
    "InfeasibleError",
    "ConvergenceError",
    "named_fiducial",
    "psi_t",
    "hoggar_fiducial",
    "solve_bloch_quartic",
    "tensor_completion",
    "bisection_root",
    "weighted_two_orbit",
    "singer_symplectic",
    "singer_epsilon_table",
    "five_design_probe",
]

# eigenstates of one cycler share one deviation; they may differ by this much
SPREAD_ATOL = 1e-9
# largest error of the purity identity on the z-type line of a cycler eigenstate
BALANCE_ATOL = 1e-9
# a cycler's spectral projection of a unit vector this short counts as empty
BIN_ATOL = 1e-9


class InfeasibleError(ValueError):
    """A stated feasibility bound of a construction is violated."""


class ConvergenceError(RuntimeError):
    """A root solve ended without reaching its tolerance."""


class BlochVector(_Record):
    """Unit vector (x, y, z) of a qubit state on the Bloch sphere."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        if not abs(x**2 + y**2 + z**2 - 1.0) <= 1e-12:
            raise ValueError("Bloch vector must be unit length")
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)

    def state(self) -> np.ndarray:
        return bloch_state(self.x, self.y, self.z)

    def quartic(self) -> float:
        return self.x**4 + self.y**4 + self.z**4


class WeightedDesign(_Record):
    """Two Clifford orbits weighted into a 4-design.  orbit_weights are the
    orbits' total weights; orbit_sizes and the per-state weights, total
    weight over orbit size, are known for n <= 2 and None beyond."""

    __slots__ = ("orbit_weights", "phi4", "orbit_sizes", "weights")

    def __init__(self, orbit_weights: tuple[float, float], phi4: float,
                 orbit_sizes: tuple[int, int] | None, weights: tuple[float, float] | None):
        _set(self, "orbit_weights", orbit_weights)
        _set(self, "phi4", phi4)
        _set(self, "orbit_sizes", orbit_sizes)
        _set(self, "weights", weights)


def psi_t() -> np.ndarray:
    """Single-qubit magic state, Bloch vector (1,1,1)/sqrt(3)."""
    r = 1.0 / math.sqrt(3.0)
    return bloch_state(r, r, r)


def hoggar_fiducial() -> np.ndarray:
    """Three-qubit fiducial of the 64-line equiangular set; ||Xi||_4^4 = 16/9."""
    v = np.array([1 + 1j, 0, -1, 1, -1j, -1, 0, 0], dtype=complex)
    return v / math.sqrt(6.0)


def named_fiducial(name: str) -> np.ndarray:
    """Resolve 'psi_T', 'hoggar' or 'bloch:x,y,z' to a state vector."""
    if name == "psi_T":
        return psi_t()
    if name == "hoggar":
        return hoggar_fiducial()
    if name.startswith("bloch:"):
        try:
            x, y, z = (float(t) for t in name[len("bloch:"):].split(","))
        except ValueError:
            x = y = z = math.nan
        if not all(map(math.isfinite, (x, y, z))):
            raise ValueError(f"fiducial name {name!r} needs three finite numbers, as in bloch:x,y,z")
        return bloch_state(x, y, z)
    raise ValueError(f"unknown fiducial name {name!r}")


# ---------------------------------------------------------------------------
# tensor completion


def solve_bloch_quartic(c: float) -> BlochVector:
    """Bloch vector with x^4 + y^4 + z^4 = c - 1, on the symmetric y = z branch.

    Solvable iff 1/3 <= c - 1 <= 1.  Of the two roots of
    (3/2) s^2 - s + 1/2 - (c-1) = 0 for s = x^2 the larger one is taken,
    which makes the output deterministic.
    """
    tau = c - 1.0
    if not 1.0 / 3.0 - 1e-12 <= tau <= 1.0 + 1e-12:
        raise InfeasibleError(f"target quartic {tau} outside [1/3, 1]")
    tau = min(max(tau, 1.0 / 3.0), 1.0)
    s = (1.0 + math.sqrt(max(0.0, 6.0 * tau - 2.0))) / 3.0
    s = min(s, 1.0)
    x = math.sqrt(s)
    y = z = math.sqrt(max(0.0, (1.0 - s) / 2.0))
    out = BlochVector(x, y, z)
    if not abs(out.quartic() - tau) <= 1e-12:
        raise AssertionError("quartic residual too large")
    return out


def tensor_completion(psi_prev: np.ndarray, n: int) -> np.ndarray:
    """Append one qubit to an (n-1)-qubit state to reach epsilon = 0 exactly.

    Requires 2d/(d+2) <= ||Xi(psi_prev)||_4^4 <= 3d/(d+3) with d = 2^n;
    the appended Bloch vector solves x^4+y^4+z^4 = c-1 for
    c = 4d / [(d+3) ||Xi(psi_prev)||_4^4], and multiplicativity of the
    l4-norm over tensor factors does the rest.
    """
    d = 1 << n
    if psi_prev.shape != (d // 2,):
        raise ValueError("psi_prev must be an (n-1)-qubit state")
    ell = float(_ell4_rows(psi_prev[None, :])[0])
    lo, hi = 2 * d / (d + 2), 3 * d / (d + 3)
    if not lo - 1e-9 <= ell <= hi + 1e-9:
        raise InfeasibleError(
            f"||Xi||_4^4 = {ell} outside [{lo}, {hi}] for n={n}; tensor completion infeasible"
        )
    c = 4 * d / ((d + 3) * ell)
    return np.kron(psi_prev, solve_bloch_quartic(c).state())


# ---------------------------------------------------------------------------
# the epsilon root on a great circle
#
# On psi(theta) = cos(theta) p1 + sin(theta) q, with p1 and q orthonormal,
# Xi(a) = cos^2 A_a + sin^2 B_a + 2 sin cos C_a is quadratic in (cos, sin),
# so epsilon(theta) = sum_{k=-4}^{4} c_k e^{2ik theta} exactly: a real
# series of period pi, fixed by its values at the nine angles j pi / 9.

# cells of the grid on which the series' first sign change is bracketed;
# two crossings inside one cell cancel and are not seen
ARC_GRID = 256
# Newton steps on the series, each kept inside the bracketing cell
POLISH_STEPS = 6


def _series(theta, w: np.ndarray, deriv: int = 0):
    """d^deriv/dtheta^deriv of Re sum_k w_k e^{2ik theta}, k = 0..len(w)-1."""
    k = np.arange(len(w))
    return (np.exp(2j * np.multiply.outer(theta, k)) @ (w * (2j * k) ** deriv)).real


def _arc_series(p1: np.ndarray, q: np.ndarray) -> np.ndarray:
    """w with epsilon(cos(theta) p1 + sin(theta) q) = Re sum_k w_k e^{2ik theta}:
    w_0 = c_0 and w_k = 2 c_k for k = 1..4, from one kernel call on nine states."""
    theta = np.arange(9) * (math.pi / 9)
    states = np.cos(theta)[:, None] * p1 + np.sin(theta)[:, None] * q
    # the length-9 DFT as one product, which needs no numpy.fft
    dft = np.exp(-2j * np.multiply.outer(theta, np.arange(5))) * np.array([1, 2, 2, 2, 2]) / 9
    return epsilon_from_ell4(_ell4_rows(states), len(p1)) @ dft


def _first_crossing(w: np.ndarray, theta_end: float) -> tuple[float, int]:
    """(theta, sign changes) of the series w on [0, theta_end].

    theta is the sign change nearest theta = 0, whatever follows it on the
    arc: the first root met on the way from p1.  A grid of ARC_GRID cells
    brackets it, and Newton steps on the series, clipped to the cell,
    polish the secant point of the cell.  The count is of sign changes on
    that grid.
    """
    grid = np.linspace(0.0, theta_end, ARC_GRID + 1)
    vals = _series(grid, w)
    neg = np.signbit(vals)
    cells = np.flatnonzero(neg[:-1] != neg[1:])
    if not len(cells):
        raise ConvergenceError("the epsilon series has no sign change on the arc")
    i = cells[0]
    lo, hi = grid[i], grid[i + 1]
    theta = lo - vals[i] * (hi - lo) / (vals[i + 1] - vals[i])
    for _ in range(POLISH_STEPS):
        theta = np.clip(theta - _series(theta, w) / _series(theta, w, 1), lo, hi)
    return float(theta), len(cells)


def bisection_root(
    psi1: np.ndarray,
    psi2: np.ndarray,
    tol: float = 1e-8,
    *,
    info: dict | None = None,
) -> np.ndarray:
    """Normalized state with |epsilon| <= tol on the arc from psi1 to psi2.

    Needs epsilon(psi1) > 0 > epsilon(psi2) and a nonzero overlap; an
    endpoint with |epsilon| <= tol is returned as it is.  With the phase of
    psi2 fixed so that <psi1|psi2> > 0 and q the unit part of psi2
    orthogonal to psi1, the arc is cos(theta) psi1 + sin(theta) q for
    0 <= theta <= theta_end, the angle of psi2.  epsilon on it is a series
    read off one kernel call (`_arc_series`), and the root is the series'
    sign change nearest psi1 (`_first_crossing`).  The kernel's epsilon of
    that state must be within tol; one Newton step on it, at most one grid
    cell long, is allowed, and then ConvergenceError is raised.

    A dict passed as info receives theta, theta_end, sign_changes,
    series_residual (|series| at theta) and kernel_steps (0 or 1); it is
    left empty when an endpoint is returned.
    """
    e1 = epsilon(psi1)
    e2 = epsilon(psi2)
    if abs(e2) <= tol:
        return psi2
    if abs(e1) <= tol:
        return psi1
    if not (e1 > 0 > e2):
        raise InfeasibleError(f"need epsilon(psi1) > 0 > epsilon(psi2), got {e1}, {e2}")
    ov = np.vdot(psi1, psi2)
    if abs(ov) < 1e-12:
        raise InfeasibleError("endpoints are orthogonal")
    p1 = psi1 / np.linalg.norm(psi1)
    r = psi2 * (ov.conjugate() / abs(ov)) / np.linalg.norm(psi2)
    cos_end = np.vdot(p1, r).real
    r -= cos_end * p1
    theta_end = math.atan2(np.linalg.norm(r), cos_end)
    q = r / np.linalg.norm(r)
    w = _arc_series(p1, q)
    theta, changes = _first_crossing(w, theta_end)
    psi = math.cos(theta) * p1 + math.sin(theta) * q
    e = epsilon(psi)
    steps = 0
    if abs(e) > tol:
        cell = theta_end / ARC_GRID
        theta -= float(np.clip(e / _series(theta, w, 1), -cell, cell))
        psi = math.cos(theta) * p1 + math.sin(theta) * q
        e = epsilon(psi)
        steps = 1
    if info is not None:
        info.update(theta=theta, theta_end=theta_end, sign_changes=changes,
                    series_residual=float(abs(_series(theta, w))), kernel_steps=steps)
    if abs(e) > tol:
        raise ConvergenceError(
            f"|epsilon| = {abs(e):.3g} > {tol} at the series root and after one Newton step")
    return psi


# ---------------------------------------------------------------------------
# weighted two-orbit designs


def weighted_two_orbit(psi1: np.ndarray, psi2: np.ndarray, n: int) -> WeightedDesign:
    """Exact weighted 4-design from the union of two Clifford orbits.

    With epsilon(psi1) > 0 > epsilon(psi2), total orbit weights
    W1 = |eps2| / (|eps1| + |eps2|) and W2 = |eps1| / (|eps1| + |eps2|)
    cancel the code-component deviation exactly: phi4 is
    fourth_moment at the weighted mean W1 eps1 + W2 eps2 = 0, at any n,
    and no orbit is formed.  It must be at or above the design minimum
    1/C(d+3, 4), relative to it within POTENTIAL_RTOL.  For n <= 2 the
    orbit sizes are |G| / |Stab(psi)| (clifford._stabilizer_count) and the
    per-state weights are |eps2| / (|orb1| (|eps1| + |eps2|)) and the
    mirrored expression; beyond that both are None.
    """
    d = 1 << n
    if psi1.shape != (d,) or psi2.shape != (d,):
        raise f2lin.DimensionError(f"expected two states of length {d} for n={n}")
    e1 = epsilon(psi1)
    e2 = epsilon(psi2)
    if not (e1 > 0 > e2):
        raise InfeasibleError(f"need epsilon(psi1) > 0 > epsilon(psi2), got {e1}, {e2}")
    tot = abs(e1) + abs(e2)
    w1, w2 = abs(e2) / tot, abs(e1) / tot
    e = w1 * e1 + w2 * e2
    phi4 = fourth_moment(e, e, d)
    if not phi4 * sym_dim(d, 4) >= 1.0 - POTENTIAL_RTOL:
        raise AssertionError(f"frame potential {phi4} is not at or above the design minimum")
    if n > clifford.ORBIT_MAX_N:
        return WeightedDesign(orbit_weights=(w1, w2), phi4=phi4, orbit_sizes=None, weights=None)
    order = f2lin.sp_order(n) << 2 * n
    k1, k2 = (order // clifford._stabilizer_count(psi, n) for psi in (psi1, psi2))
    return WeightedDesign(orbit_weights=(w1, w2), phi4=phi4, orbit_sizes=(k1, k2),
                          weights=(abs(e2) / (k1 * tot), abs(e1) / (k2 * tot)))


# ---------------------------------------------------------------------------
# GF(2^m) machinery for basis cyclers


def _gf_mul(a: int, b: int, p: int, m: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= p
    return out


def _gf_pow(a: int, e: int, p: int, m: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = _gf_mul(out, a, p, m)
        a = _gf_mul(a, a, p, m)
        e >>= 1
    return out


# the smallest primitive polynomial of each even degree m over GF(2), x^m
# as bit m: its root generates GF(2^m)*; tests/reference.py's search
# re-derives the table
_PRIMITIVE_POLYNOMIALS = {2: 0x7, 4: 0x13, 6: 0x43, 8: 0x11D, 10: 0x409, 12: 0x1053,
                          14: 0x402B, 16: 0x1002D, 18: 0x40027, 20: 0x100009}
# basis cyclers are built for n <= SINGER_MAX_N, the degrees m = 2n of the
# table.  The eigenbasis takes about 0.15 s at n = 10, and each further
# qubit would take about 4 times the time and memory of its two orbits
SINGER_MAX_N = max(_PRIMITIVE_POLYNOMIALS) // 2


def _power_traces(p: int, m: int, count: int) -> list[int]:
    """Tr(x^k) for k < count in GF(2^m) = GF(2)[x]/(p), Tr(u) = sum u^{2^j}:
    the power sums s_k of the roots of p, by Newton's identities mod 2,
    s_k = sum_{j=1}^{min(k-1, m)} e_j s_{k-j} + k e_k, with e_j the
    coefficient of x^{m-j} in p (e_k = 0 past m)."""
    e = [p >> m - j & 1 for j in range(m + 1)]
    s = [m & 1]
    for k in range(1, count):
        acc = k & e[k] if k <= m else 0
        for j in range(1, min(k, m + 1)):
            acc ^= e[j] & s[k - j]
        s.append(acc)
    return s


@functools.lru_cache(maxsize=None)
def singer_symplectic(n: int) -> f2lin.F2Matrix:
    """Symplectic action of a basis cycler: order d+1, fixed-point-free powers.

    Built from GF(4^n) arithmetic for every n >= 1: multiplication by a
    norm-one element of order 2^n + 1 preserves the alternating form
    Tr(u v^{2^n} beta) once beta is trace-orthogonal to the subfield
    GF(2^n); expressing that form in a symplectic basis gives a
    standard-form matrix.  The field's polynomial comes from a table, so
    n <= SINGER_MAX_N, and past it CapacityError is raised before any
    work.  The cycler walk and the symplectic check are its proof.
    """
    if n < 1:
        raise f2lin.DimensionError(f"basis cyclers need n >= 1, got n={n}")
    if n > SINGER_MAX_N:
        raise f2lin.CapacityError(f"basis cyclers are built for n <= {SINGER_MAX_N}, got n={n}")
    m = 2 * n
    p = _PRIMITIVE_POLYNOMIALS[m]
    # the trace form Tr(u w) = parity(u & gram w): gram[i][j] = Tr(x^{i+j})
    traces = _power_traces(p, m, 2 * m - 1)
    gram = tuple(sum(traces[i + j] << j for j in range(m)) for i in range(m))
    # columns of the Frobenius map u -> u^{2^n}, (x^i)^{2^n} = y^i for
    # y = x^{2^n}; its fixed points are the subfield GF(2^n)
    y = _gf_pow(2, 1 << n, p, m)
    frob_cols = [1]
    for _ in range(m - 1):
        frob_cols.append(_gf_mul(frob_cols[-1], y, p, m))
    fq_basis = f2lin._kernel([c ^ (1 << i) for i, c in enumerate(frob_cols)], m)
    if len(fq_basis) != n:
        raise AssertionError(f"subfield GF(2^{n}) has a basis of {len(fq_basis)} elements")
    fq_gram = [f2lin._mat_vec(gram, c) for c in fq_basis]
    beta = next(b for b in range(1, 1 << m) if not any(f2lin._parity(b & g) for g in fq_gram))
    # Tr(u v^{2^n} beta) = parity(u & form_rows v), form_rows = gram (beta .) Frobenius;
    # the form is alternating, so u -> form_rows u is its Gram map
    beta_rows = f2lin._transpose([_gf_mul(beta, 1 << i, p, m) for i in range(m)], m)
    form_rows = f2lin._mat_mul(gram, f2lin._mat_mul(beta_rows, f2lin._transpose(frob_cols, m)))

    # the subfield is one line of the spread the cycler permutes; anchoring
    # it on the z-type coordinates makes the computational basis one of the
    # d+1 cycled bases
    cols = f2lin._symplectic_basis(lambda u: f2lin._mat_vec(form_rows, u), m, u_pool=fq_basis)
    pmat_rows = f2lin._transpose(cols, m)
    pinv_rows = f2lin._inverse(pmat_rows, m)
    alpha = _gf_pow(2, (1 << n) - 1, p, m)
    alpha_rows = f2lin._transpose([_gf_mul(alpha, 1 << i, p, m) for i in range(m)], m)
    F = f2lin.F2Matrix(
        f2lin._mat_mul(pinv_rows, f2lin._mat_mul(alpha_rows, pmat_rows)), n
    )
    if not f2lin.is_symplectic(F):
        raise AssertionError("field-built cycler action is not symplectic")
    if not _is_basis_cycler(F, n):
        raise AssertionError("field-built action is not a basis cycler")
    return F


def _is_basis_cycler(F: f2lin.F2Matrix, n: int) -> bool:
    """Order d+1, powers F^1..F^d free of nonzero fixed points, and the
    orbit of the z-type subspace L a spread, checked in one walk.

    Then the d+1 bases U^k (computational basis) are pairwise mutually
    unbiased for any unitary U inducing F.

    The walk holds F^k s for the d-1 nonzero vectors s of L and
    k = 0..d+1, as int64 arrays.  F^k is linear, so F^k s is the XOR of
    F^k z_j over the z-type basis vectors z_j in s: the n vectors F^k z_j
    are found by doubling, F^{k + 2^t} z = F^{2^t} (F^k z) for k < 2^t,
    with F^{2^t} squared once per step and applied through one XOR table
    per byte of a vector, ceil(log2(d+2)) steps in all; their spans, one
    doubling per z_j, give every F^k s.  The walk fails if some F^k s
    equals s (1 <= k <= d), and it passes iff F^{d+1} s = s for every s
    and the d-1 orbits have distinct minima.
    Proof of equivalence.  If the walk passes, each orbit has exactly d+1
    elements, and distinct minima make the d-1 orbits distinct, hence
    disjoint: together they hold (d-1)(d+1) = d^2-1 vectors, every
    nonzero one.  Each is some F^j s, so F^{d+1} = 1, and F^k v = v with
    v = F^j s != 0 and 1 <= k <= d would give F^k s = s.  A nonzero v in
    L and in F^k L (1 <= k <= d) is some s and some F^k s', so s and s'
    share an orbit, s = s' and F^k s = s; so L meets F^k L only in 0,
    hence F^j L meets F^{j+k} L only in 0, and the d+1 subspaces of
    dimension n form a spread.  Conversely, if
    F is such a cycler, no F^k s equals s, F^{d+1} s = s, and two
    s != s' in one orbit would give s' = F^k s in L and F^k L, so the
    orbits and their minima are distinct.

    The walk holds (d+2)(d-1) vectors, so n is capped at SINGER_MAX_N.
    """
    if n > SINGER_MAX_N:
        raise f2lin.CapacityError(f"the cycler walk holds (d+2)(d-1) vectors; n <= {SINGER_MAX_N}, "
                                  f"got n={n}")
    nn = 2 * n
    d = 1 << n
    bits = np.arange(256)[:, None] >> np.arange(8) & 1

    def apply(cols, *vs):
        # cols: the columns of a map, padded to whole bytes; tables[b][u] is
        # the map applied to the vector with byte b equal to u, other bytes 0
        tables = [np.bitwise_xor.reduce(bits * cols[8 * b:8 * b + 8], axis=1)
                  for b in range(len(cols) // 8)]
        outs = [tables[0][v & 255] for v in vs]
        for b, table in enumerate(tables[1:], 1):
            for out, v in zip(outs, vs):
                out ^= table[v >> 8 * b & 255]
        return outs

    # power holds the columns of F^{2^t}; walk[k, j] = F^k z_j, k < 2^t,
    # the z_j on the z coordinates 0, 2, .., 2n - 2
    power = np.array(f2lin._transpose(F.rows, nn) + (0,) * (-nn % 8), dtype=np.int64)
    walk = (1 << 2 * np.arange(n, dtype=np.int64))[None, :]
    while len(walk) < d + 2:
        step, power = apply(power, walk[:d + 2 - len(walk)], power)
        walk = np.concatenate((walk, step))
    # span[k, i] = F^k s for s with the z-bits of i + 1, as i = 0..d-2
    span = np.zeros((d + 2, 1), dtype=np.int64)
    for j in range(n):
        span = np.concatenate((span, span ^ walk[:, j, None]), axis=1)
    span = span[:, 1:]
    start = span[0]
    if (span[1:d + 1] == start).any():
        return False
    lo = np.sort(span[:d + 1].min(axis=0))
    return bool((span[d + 1] == start).all() and (lo[1:] != lo[:-1]).all())


# i^q for q = 0..3; times c, each product is exact
_IPOW = np.array([1, 1j, -1, -1j])


class _CyclerForm(_Record):
    """A Clifford unitary U = c D1 H P_B D2 with full-support columns, as
    the arrays one step of its orbit reads (_cycler_walk), each of length
    d laid out as (a, b) = (2^floor(n/2), 2^ceil(n/2)) by high and low bits."""

    __slots__ = ("gather", "phase", "scale", "had")

    def __init__(self, gather: np.ndarray, phase: np.ndarray, scale: np.ndarray,
                 had: tuple[np.ndarray, np.ndarray]):
        _set(self, "gather", gather)  # B^{-1} j: (P_B D2 v)[j] = (D2 v)[B^{-1} j]
        _set(self, "phase", phase)  # i^{q2(B^{-1} j)}, D2 in gathered order
        _set(self, "scale", scale)  # c i^{q1(y)}, c D1
        _set(self, "had", had)  # complex H_a and H_b; H = H_a (x) H_b


def _cycler_form(cols: np.ndarray, row: np.ndarray) -> _CyclerForm:
    """The normal form of a Clifford unitary U whose columns have full
    support, U[y, k] = c i^{q1(y)} (-1)^{y . Bk} i^{q2(k)} (Dehaene-De Moor),
    read from U e_0 and the U e_{2^b}, the rows of cols, and row 0 of U
    (clifford._lift_probes), in O(n d).

    c = U[0, 0]; q1 and q2 are the i-powers of column 0 and row 0 over c,
    and B, a GF(2) matrix, is read off the entries U[2^a, 2^b].  The read
    raises AssertionError unless
    * every probed entry is c i^q for an integer q, with c != 0;
    * q1 and q2 are Z4 quadratic forms, the diagonals of Clifford gates;
    * B is invertible;
    * the form's columns e_{2^b} equal U's.
    The i-powers are integers and c i^q is formed without rounding, so no
    tolerance enters.  Proof that the form V is then U.  D1 and D2 are
    Clifford diagonals, so V is a multiple of a Clifford unitary and
    V X_b V^-1 = Q_b is a Pauli up to sign, as is P_b = U X_b U^dag.  With
    psi = V e_0 = U e_0, Q_b psi = V e_{2^b} = U e_{2^b} = P_b psi, so the
    Pauli S_b = P_b^dag Q_b fixes psi.  Moving every S_b past the P_b to the
    right costs a sign alone, so V e_k = prod_b Q_b^{k_b} psi =
    +-prod_b P_b^{k_b} psi = +-U e_k for every k; V[0, k] = c i^{q2(k)} =
    U[0, k] != 0 fixes each sign to +.
    """
    n = len(cols) - 1
    d = 1 << n
    powers = cols[0, 0] * _IPOW
    units = 1 << np.arange(n)
    # i-powers of the columns and of row 0 in one comparison; an entry that
    # is no c i^q reads as q = 0 and fails the first check
    probe = np.concatenate((cols.ravel(), row))
    q = (probe[:, None] == powers).argmax(axis=1)
    q1, qcols, q2 = q[:d], q[d:-d].reshape(n, d), q[-d:]
    # bits[a, b] = bit a of B e_b, and kbits[k, a] = bit a of k
    bits = (qcols[:, units].T - q1[units, None] - q2[units]) >> 1 & 1
    kbits = np.arange(d)[:, None] >> np.arange(n) & 1
    gather = np.full(d, -1)
    gather[(kbits @ bits.T & 1) @ units] = np.arange(d)
    # q(k) = sum_a k_a q(e_a) + 2 sum_{a<b} k_a k_b beta_ab with beta_ab bit
    # 1 of q(e_a + e_b) - q(e_a) - q(e_b); an odd difference fails at e_a + e_b
    qs = np.stack((q1, q2))
    lin = qs[:, units]
    beta = np.triu((qs[:, units[:, None] | units] - lin[:, :, None] - lin[:, None]) >> 1 & 1, 1)
    quad = kbits @ lin.T + 2 * ((kbits @ beta) * kbits).sum(axis=2).T
    form_cols = q1[:, None] + 2 * (kbits @ bits & 1) + q2[units]
    if not (powers[0] != 0 and (probe == powers[q]).all() and ((quad - qs.T) & 3 == 0).all()
            and gather.min() >= 0 and ((form_cols - qcols.T) & 3 == 0).all()):
        raise AssertionError("cycler has no Clifford normal form c D1 H P_B D2")
    shape = (1 << n // 2, 1 << n - n // 2)
    had = tuple(_hadamard(m.bit_length() - 1).astype(complex) for m in shape)
    return _CyclerForm(gather.reshape(shape), _IPOW[q2[gather]].reshape(shape),
                       powers[q1].reshape(shape), had)


def _cycler_walk(form: _CyclerForm, r: np.ndarray) -> np.ndarray:
    """The orbit r, Ur, ..., U^{d+1} r as rows, one normal-form step per
    power: gather by B^{-1}, multiply by D2, apply H_a (x) H_b as two small
    GEMMs and multiply by c D1, O(d^{3/2}) where a dense product is O(d^2)."""
    had_a, had_b = form.had
    d = len(r)
    orbit = np.empty((d + 2, d), dtype=complex)
    orbit[0] = r
    steps = orbit.reshape(d + 2, *form.scale.shape)
    for j in range(d + 1):
        w = orbit[j][form.gather]
        w *= form.phase
        np.multiply(had_a @ (w @ had_b), form.scale, out=steps[j + 1])
    return orbit


def _cycler_bins(form: _CyclerForm, r: np.ndarray, mu=None):
    """(d+1, d) projections of r onto the eigenspaces mu w^k, k = 0..d, of
    the cycler U = form with U^{d+1} = c 1, and mu, a (d+1)-th root of c.

    With w = e^{2 pi i/(d+1)} the projector onto mu w^k is the average of
    (mu w^k)^{-j} U^j over j = 0..d, so the projections are the DFT bins
    of the orbit mu^{-j} U^j r: one normal-form step per power
    (_cycler_walk) and one FFT.  Without mu, c is read from the closing
    vector U^{d+1} r of a unit r.  The closing vector must equal c r
    within BIN_ATOL, which checks U^{d+1} = c 1 along the orbit at no
    extra step.
    """
    from numpy.fft import fft

    d = len(r)
    orbit = _cycler_walk(form, r)
    c = np.vdot(r, orbit[d + 1]) if mu is None else mu ** (d + 1)
    if not np.linalg.norm(orbit[d + 1] - c * r) <= BIN_ATOL:
        raise AssertionError("U^{d+1} is not scalar")
    if mu is None:
        # mu keeps the modulus of c, which rounding moves off 1; scaling
        # the orbit by it stops each eigenvector leaking into other bins
        mu = c ** (1 / (d + 1))
    # the transform runs along the rows of the transposed orbit, which
    # pocketfft takes faster than the columns
    scaled = np.empty((d, d + 1), dtype=complex)
    np.multiply(orbit[:d + 1].T, mu ** -np.arange(d + 1.0) / (d + 1), out=scaled)
    return fft(scaled, axis=1, out=scaled).T, mu


def singer_eigenstates(n: int) -> np.ndarray:
    """Eigenvectors of the basis cycler U, one per row; its spectrum must be nondegenerate.

    U is the lift of singer_symplectic(n).  Its normal form is read from
    n + 1 columns and row 0 of it (clifford._lift_probes, _cycler_form),
    and the d x d matrix is never formed.  U^{d+1} = c 1: the walk of
    singer_symplectic proves F^{d+1} = 1 with F free of nonzero fixed
    points, so U^{d+1} = lambda W_b for some Pauli W_b, and U commutes with
    its own power, so W_{Fb} is proportional to W_b, Fb = b and b = 0.  So
    its eigenvalues lie among the d+1 values mu w^k (_cycler_bins) and a
    nondegenerate spectrum leaves exactly one of them out.  The rows are
    ordered by k, cyclically from the missing value on: row j has
    eigenvalue w^j times that of row 0.  The projections of e_0 give the
    eigenvectors, phased by a real positive first amplitude; a second
    orbit from their normalized sum, whose overlaps with all of them are
    equal, recomputes them to a uniform accuracy.
    """
    form = _cycler_form(*clifford._lift_probes(singer_symplectic(n)))
    d = form.scale.size
    r = np.zeros(d, dtype=complex)
    r[0] = 1.0
    bins, mu = _cycler_bins(form, r)
    norms = np.linalg.norm(bins, axis=1)
    empty = np.flatnonzero(norms <= BIN_ATOL)
    if len(empty) != 1:
        raise AssertionError("cycler spectrum is degenerate")
    e = empty[0]
    # the second start is the normalized sum of the d eigenvectors, so the
    # empty bin gets weight 0
    norms[e] = np.inf
    bins = _cycler_bins(form, (1 / norms) @ bins / math.sqrt(d), mu)[0]
    vecs = np.concatenate((bins[e + 1:], bins[:e]), out=np.empty((d, d), dtype=complex))
    # vecs /= norm, bit for bit: numpy divides a complex by a real as a
    # product with its reciprocal, here on the real view
    parts = vecs.view(float)
    parts *= 1 / np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def _cycler_ell4(vecs: np.ndarray) -> np.ndarray:
    """||Xi||_4^4 of every row of a batch of basis-cycler eigenstates.

    A cycler's action F permutes the d+1 lines of the z-type spread and
    fixes each eigenstate up to a phase, so |Xi(Fa)| = |Xi(a)| and every
    line carries the z-type line's sum:
    ||Xi||_4^4 = 1 + (d+1) sum_{z != 0} Xi(z, 0)^4, where Xi(., 0) is the
    Walsh-Hadamard transform of |v_k|^2, applied as H_a (x) H_b like a
    cycler step.  The rows must be balanced across the lines; the purity
    identity sum_{z != 0} Xi(z, 0)^2 = (d-1)/(d+1) checks that and raises
    AssertionError beyond BALANCE_ATOL.
    """
    vecs = np.asarray(vecs)
    n = _infer_n(vecs, ndim=2)
    d = 1 << n
    _check_normalized(vecs)
    had_a, had_b = _hadamard(n // 2), _hadamard(n - n // 2)
    probs = (vecs.real**2 + vecs.imag**2).reshape(-1, len(had_a), len(had_b))
    xi = (had_a @ (probs @ had_b)).reshape(-1, d)[:, 1:]
    x2 = xi * xi
    balance = np.abs(x2.sum(axis=1) - (d - 1) / (d + 1)).max()
    if not balance <= BALANCE_ATOL:
        raise AssertionError(
            f"z-type purity off (d-1)/(d+1) by {balance}: not balanced across a cycled spread")
    return 1.0 + (d + 1) * (x2 * x2).sum(axis=1)


def singer_epsilon_table(n_list=(1, 2, 4)) -> list[dict]:
    """epsilon(psi_n x psi_T) for cycler eigenstates psi_n, per qubit count.

    All eigenstates of one cycler share the same value; the spread across
    the spectrum is asserted below SPREAD_ATOL and reported.  The l4-norm
    is multiplicative over tensor factors, so each eigenstate's norm is
    taken in dimension d = 2^n, from its z-type Pauli line alone
    (_cycler_ell4), and multiplied by ||Xi(psi_T)||_4^4.
    """
    ell4_t = ell4_norm4(characteristic_function(psi_t()))
    out = []
    for n in n_list:
        d = 1 << n
        ell4 = _cycler_ell4(singer_eigenstates(n))
        eps = epsilon_from_ell4(ell4 * ell4_t, 2 * d)
        spread = float(eps.max() - eps.min())
        if not spread <= SPREAD_ATOL:
            raise AssertionError(f"eigenstate deviations differ by {spread} at n={n}")
        out.append(
            {
                "n": n,
                "epsilon": float(eps.mean()),
                "spread": spread,
                "eigenstate_ell4": float(ell4.mean()),
            }
        )
    return out


# ---------------------------------------------------------------------------
# higher-design probe


def five_design_probe(psi: np.ndarray, n: int, eps_atol: float = 1e-8) -> dict:
    """Frame potentials of the orbit of an epsilon-root, against design minima.

    Records the fifth-potential deviation (and sixth/seventh for n = 1);
    nothing beyond the root precondition is asserted.
    """
    e = epsilon(psi)
    if abs(e) > eps_atol:
        raise InfeasibleError(f"|epsilon| = {abs(e)} exceeds {eps_atol}; not a root")
    d = 1 << n
    report = {"n": n, "epsilon": e}
    ts = (5, 6, 7) if n == 1 else (5,)
    for t in ts:
        val = orbit_frame_potential(psi, t)
        report[f"phi{t}"] = val
        report[f"phi{t}_minimum"] = 1.0 / sym_dim(d, t)
        report[f"phi{t}_deviation"] = val - 1.0 / sym_dim(d, t)
    return report
