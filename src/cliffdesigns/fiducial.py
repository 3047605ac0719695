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
from dataclasses import dataclass

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
    "singer_unitary",
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


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not abs(self.x**2 + self.y**2 + self.z**2 - 1.0) <= 1e-12:
            raise ValueError("Bloch vector must be unit length")

    def state(self) -> np.ndarray:
        return bloch_state(self.x, self.y, self.z)

    def quartic(self) -> float:
        return self.x**4 + self.y**4 + self.z**4


@dataclass(frozen=True)
class WeightedDesign:
    """Two Clifford orbits weighted into a 4-design.  orbit_weights are the
    orbits' total weights; orbit_sizes and the per-state weights, total
    weight over orbit size, are known for n <= 2 and None beyond."""

    orbit_weights: tuple[float, float]
    phi4: float
    orbit_sizes: tuple[int, int] | None
    weights: tuple[float, float] | None


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


def _prime_factors(x: int) -> list[int]:
    out = []
    f = 2
    while f * f <= x:
        if x % f == 0:
            out.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        out.append(x)
    return out


@functools.lru_cache(maxsize=None)
def _primitive_polynomial(m: int) -> int:
    """Smallest degree-m polynomial over GF(2) whose root generates GF(2^m)*."""
    order = (1 << m) - 1
    factors = _prime_factors(order)
    for low in range(1, 1 << m, 2):
        p = (1 << m) | low
        if _gf_pow(2, order, p, m) != 1:
            continue
        if all(_gf_pow(2, order // q, p, m) != 1 for q in factors):
            return p
    raise AssertionError(f"no primitive polynomial of degree {m}")


def _gf_trace_vector(p: int, m: int) -> int:
    """Bitmask t with Tr(u) = parity(popcount(u & t)); Tr(u) = sum u^{2^j}."""
    t = 0
    for i in range(m):
        u = 1 << i
        acc = u
        sq = u
        for _ in range(m - 1):
            sq = _gf_mul(sq, sq, p, m)
            acc ^= sq
        if acc not in (0, 1):
            raise AssertionError(f"GF(2^{m}) trace of basis element {i} is not in GF(2)")
        t |= acc << i
    return t


@functools.lru_cache(maxsize=None)
def singer_symplectic(n: int) -> f2lin.F2Matrix:
    """Symplectic action of a basis cycler: order d+1, fixed-point-free powers.

    Built from GF(4^n) arithmetic for every n >= 1: multiplication by a
    norm-one element of order 2^n + 1 preserves the alternating form
    Tr(u v^{2^n} beta) once beta is trace-orthogonal to the subfield
    GF(2^n); expressing that form in a symplectic basis gives a
    standard-form matrix.  The one-walk cycler test and the symplectic
    check are its proof.
    """
    if n < 1:
        raise f2lin.DimensionError(f"basis cyclers need n >= 1, got n={n}")
    m = 2 * n
    p = _primitive_polynomial(m)
    tr = _gf_trace_vector(p, m)
    # the trace form Tr(u w) = parity(u & gram w): gram[i][j] = Tr(x^{i+j})
    powers = [1]
    for _ in range(2 * m - 2):
        powers.append(_gf_mul(powers[-1], 2, p, m))
    traces = [f2lin._parity(x & tr) for x in powers]
    gram = tuple(sum(traces[i + j] << j for j in range(m)) for i in range(m))
    # columns of the Frobenius map u -> u^{2^n}; its fixed points are the
    # subfield GF(2^n)
    frob_cols = [_gf_pow(1 << i, 1 << n, p, m) for i in range(m)]
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

    The walk starts from the d-1 nonzero vectors s of L and applies F d
    times as int64 arrays, one XOR table per byte of a vector.  It fails
    as soon as some F^k s equals s (1 <= k <= d), and it passes iff
    F^{d+1} s = s for every s and the d-1 orbits have distinct minima.
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
    """
    nn = 2 * n
    if nn > 63:
        raise f2lin.CapacityError(f"the cycler walk holds 2n = {nn} bits in an int64, "
                                  "which has room for 63")
    cols = np.array(f2lin._transpose(F.rows, nn) + (0,) * (-nn % 8), dtype=np.int64)
    # tables[b][u]: F applied to the vector with byte b equal to u, other bytes 0
    bits = np.arange(256)[:, None] >> np.arange(8) & 1
    tables = [np.bitwise_xor.reduce(bits * cols[8 * b:8 * b + 8], axis=1)
              for b in range(len(cols) // 8)]

    def apply(v):
        out = tables[0][v & 255]
        for b, table in enumerate(tables[1:], 1):
            out ^= table[v >> 8 * b & 255]
        return out

    # the nonzero vectors of L: the bits of 1..d-1 on the z coordinates
    k = np.arange(1, 1 << n)
    start = ((k[:, None] >> np.arange(n) & 1) << 2 * np.arange(n)).sum(axis=1)
    cur = lo = start
    for _ in range(1 << n):
        cur = apply(cur)
        if (cur == start).any():
            return False
        lo = np.minimum(lo, cur)
    lo = np.sort(lo)
    return bool((apply(cur) == start).all() and (lo[1:] != lo[:-1]).all())


def singer_unitary(n: int) -> clifford.CliffordElement:
    """A Clifford basis cycler: projective order d+1.

    The walk of singer_symplectic proves F^{d+1} = 1 with F free of nonzero
    fixed points, so U^{d+1} = lambda W_b for some Pauli W_b.  U commutes
    with its own power, so W_{Fb} is proportional to W_b: Fb = b, hence
    b = 0 and U^{d+1} is scalar.  _cycler_bins checks this numerically on
    every orbit it builds.
    """
    return clifford.lift_symplectic(singer_symplectic(n))


def _cycler_bins(M: np.ndarray, r: np.ndarray, mu=None):
    """(d+1, d) projections of r onto the eigenspaces mu w^k, k = 0..d, of a
    unitary M with M^{d+1} = c 1, and mu, a (d+1)-th root of c.

    With w = e^{2 pi i/(d+1)} the projector onto mu w^k is the average of
    (mu w^k)^{-j} M^j over j = 0..d, so the projections are the DFT bins
    of the orbit mu^{-j} M^j r: one matrix-vector product per power and
    one FFT.  Without mu, c is read from the closing vector M^{d+1} r of
    a unit r.  The closing vector must equal c r within BIN_ATOL, which
    checks M^{d+1} = c 1 along the orbit at no extra product.
    """
    from numpy.fft import fft

    d = len(r)
    orbit = np.empty((d + 2, d), dtype=complex)
    orbit[0] = r
    for j in range(d + 1):
        np.dot(M, orbit[j], out=orbit[j + 1])
    c = np.vdot(r, orbit[d + 1]) if mu is None else mu ** (d + 1)
    if not np.linalg.norm(orbit[d + 1] - c * r) <= BIN_ATOL:
        raise AssertionError("U^{d+1} is not scalar")
    if mu is None:
        # mu keeps the modulus of c, which rounding moves off 1; scaling
        # the orbit by it stops each eigenvector leaking into other bins
        mu = c ** (1 / (d + 1))
    return fft(orbit[:d + 1] * (mu ** -np.arange(d + 1.0))[:, None], axis=0) / (d + 1), mu


def singer_eigenstates(n: int) -> np.ndarray:
    """Eigenvectors of the basis cycler U, one per row; its spectrum must be nondegenerate.

    U^{d+1} = c 1, so its eigenvalues lie among the d+1 values mu w^k
    (_cycler_bins) and a nondegenerate spectrum leaves exactly one of them
    out.  The rows are ordered by k, cyclically from the missing value on:
    row j has eigenvalue w^j times that of row 0.  The projections of e_0
    give the eigenvectors, phased by a real positive first amplitude; a
    second orbit from their normalized sum, whose overlaps with all of
    them are equal, recomputes them to a uniform accuracy.
    """
    M = singer_unitary(n).matrix
    d = len(M)
    r = np.zeros(d, dtype=complex)
    r[0] = 1.0
    bins, mu = _cycler_bins(M, r)
    norms = np.linalg.norm(bins, axis=1)
    empty = np.flatnonzero(norms <= BIN_ATOL)
    if len(empty) != 1:
        raise AssertionError("cycler spectrum is degenerate")
    keep = (empty[0] + 1 + np.arange(d)) % (d + 1)
    vecs = bins[keep] / norms[keep, None]
    bins = _cycler_bins(M, vecs.sum(axis=0) / math.sqrt(d), mu)[0][keep]
    return bins / np.linalg.norm(bins, axis=1, keepdims=True)


def _cycler_ell4(vecs: np.ndarray) -> np.ndarray:
    """||Xi||_4^4 of every row of a batch of basis-cycler eigenstates.

    A cycler's action F permutes the d+1 lines of the z-type spread and
    fixes each eigenstate up to a phase, so |Xi(Fa)| = |Xi(a)| and every
    line carries the z-type line's sum:
    ||Xi||_4^4 = 1 + (d+1) sum_{z != 0} Xi(z, 0)^4, where Xi(., 0) is the
    Walsh-Hadamard transform of |v_k|^2.  The rows must be balanced across
    the lines; the purity identity sum_{z != 0} Xi(z, 0)^2 = (d-1)/(d+1)
    checks that and raises AssertionError beyond BALANCE_ATOL.
    """
    vecs = np.asarray(vecs)
    n = _infer_n(vecs, ndim=2)
    d = 1 << n
    _check_normalized(vecs)
    xi = ((vecs.real**2 + vecs.imag**2) @ _hadamard(n))[:, 1:]
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
