"""Lattices over the rationals: stability, filtrations, theta cohomology.

A lattice is its exact rational Gram matrix; a basis, when one is
supplied, only gives the Gram.  One exact Gram-Schmidt pass (the LDL^T
pivots) validates the Gram, gives the squared covolume as the product of
its pivots and is the starting data of LLL.  Stability comparisons never
leave exact arithmetic: they compare squared covolumes raised to integer
powers.  The minima they need come from one shortest-vector search, which
LLL-reduces the Gram exactly before a bounded box enumeration, so its cost
follows the lattice rather than the basis it is given (Lenstra, Lenstra
and Lovasz 1982; Cohen, GTM 138, section 2.6).
The analytic layer on top -- theta sums with certified tail bounds, the
Riemann-Roch residual over Q, and the completed zeta xi(s) as the gamma
factor times an Euler-Maclaurin zeta(s) truncated by its proven remainder
bound -- is the only place floating point appears.  numpy and mpmath are
imported inside the functions that use them, so loading the module (and
the CLI) does not load them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import TYPE_CHECKING, Sequence

from zetalab.errors import (
    CapabilityError,
    ConfigError,
    InputError,
    NumericError,
    ResourceError,
)
from zetalab.exact import rat

if TYPE_CHECKING:
    import mpmath

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(rat(x) for x in row) for row in rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k))
                       for j in range(m)) for i in range(n))


def _transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def _identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def _inverse(a: Matrix) -> Matrix:
    n = len(a)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise InputError("singular matrix")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def _gram_schmidt(g) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Gram-Schmidt data (mu, B) of a symmetric Gram matrix: G = M D M^T
    with M unit lower triangular (entries mu) and D = diag(B) (Cohen,
    GTM 138, Algorithm 2.6.3).  The k-th leading minor of G is
    B_0 ... B_(k-1), so G is positive definite exactly when every pivot is
    positive; the first pivot B_k <= 0 raises before it is used as a
    divisor."""
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for k in range(n):
        for j in range(k):
            mu[k][j] = (g[k][j] - sum(mu[j][i] * mu[k][i] * b[i]
                                      for i in range(j))) / b[j]
        b[k] = Fraction(g[k][k]) - sum(mu[k][i] ** 2 * b[i] for i in range(k))
        if b[k] <= 0:
            raise InputError("Gram matrix must be positive definite")
    return mu, b


def _log_fraction(x: Fraction) -> float:
    # avoids overflow for very large numerators/denominators
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice, held as its exact rational Gram matrix.

    Construction validates the Gram with one Gram-Schmidt pass: square,
    symmetric, and positive definite exactly when every pivot is positive.
    The squared covolume is the product of those pivots.  A basis given to
    `from_basis_columns` only supplies the Gram B^T B; a singular basis is
    refused because that Gram is singular.
    """

    gram: Matrix
    covolume2: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.gram)
        if n < 1 or n > 4:
            raise CapabilityError("rank must be between 1 and 4")
        if any(len(row) != n for row in self.gram):
            raise InputError("Gram matrix must be square")
        if self.gram != _transpose(self.gram):
            raise InputError("Gram matrix must be symmetric")
        object.__setattr__(self, "covolume2", math.prod(_gram_schmidt(self.gram)[1]))

    @staticmethod
    def from_basis_columns(cols: Sequence[Sequence]) -> "Lattice":
        cols = _mat(cols)
        return Lattice(_mat_mul(cols, _transpose(cols)))

    @staticmethod
    def from_gram(gram: Sequence[Sequence]) -> "Lattice":
        return Lattice(_mat(gram))

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(_identity(n))

    @staticmethod
    def diagonal(entries: Sequence) -> "Lattice":
        """The lattice spanned by entries[i] * e_i."""
        entries = [rat(e) for e in entries]
        n = len(entries)
        return Lattice(tuple(tuple(entries[i] ** 2 if i == j else Fraction(0)
                                   for j in range(n)) for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def covolume(self) -> float:
        return math.exp(0.5 * _log_fraction(self.covolume2))

    def norm2(self, coeffs: Sequence[int]) -> Fraction:
        g = self.gram
        n = self.rank
        return sum(g[i][j] * coeffs[i] * coeffs[j]
                   for i in range(n) for j in range(n))


def deg(lat: Lattice) -> float:
    """Degree of the lattice, deg = -log covolume (exact covolume^2 input)."""
    return -0.5 * _log_fraction(lat.covolume2)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice in the dual basis: its Gram is G^-1, inverted exactly,
    so dual(dual(L)) == L on the nose."""
    return Lattice(_inverse(lat.gram))


# ---------------------------------------------------------------------------
# shortest vectors and stability

def _enumeration_box(ginv: Matrix, bound: Fraction) -> list[int]:
    """Half-widths of a box holding every x with x^T G x <= bound, from
    the inverse Gram."""
    out = []
    for i in range(len(ginv)):
        # |x_i| <= sqrt(bound * (G^-1)_ii)
        val = bound * ginv[i][i]
        out.append(math.isqrt(val.numerator // val.denominator) + 1)
    return out


def _round_frac(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def _lll(gram: Matrix) -> tuple[Matrix, tuple[tuple[int, ...], ...]]:
    """Exact LLL reduction (delta = 3/4) of a positive definite Gram matrix.

    Returns (U^T G U, U) with U integral and unimodular: the columns of U
    are the reduced basis in input coordinates.  It starts from the
    `_gram_schmidt` data mu, B and updates them in place on each size
    reduction and swap, as in Cohen, GTM 138, Algorithm 2.6.3.
    """
    n = len(gram)
    # the integral Gram den * G has the same mu and the same swaps
    den = math.lcm(*(x.denominator for row in gram for x in row))
    g = [[int(x * den) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]   # u[k]: basis vector k
    mu, b = _gram_schmidt(g)

    def size_reduce(k: int, l: int) -> None:
        if abs(mu[k][l]) > Fraction(1, 2):
            q = _round_frac(mu[k][l])
            u[k] = [a - q * c for a, c in zip(u[k], u[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = mu[k][k - 1]
        if b[k] < (Fraction(3, 4) - m * m) * b[k - 1]:
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            bb = b[k] + m * m * b[k - 1]
            mu[k][k - 1] = m * b[k - 1] / bb
            b[k] = b[k - 1] * b[k] / bb
            b[k - 1] = bb
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    gu = [[sum(g[a][c] * u[j][c] for c in range(n)) for j in range(n)]
          for a in range(n)]
    reduced = tuple(tuple(Fraction(sum(u[i][a] * gu[a][j] for a in range(n)), den)
                          for j in range(n)) for i in range(n))
    return reduced, tuple(zip(*u))


def shortest_vector(lat: Lattice) -> tuple[Fraction, tuple[int, ...]]:
    """Minimal nonzero squared length and a coefficient vector achieving it.

    The Gram is LLL-reduced first; a box enumeration on the reduced basis
    (exact norms, initial bound the smallest reduced diagonal entry) finds
    every minimal vector.  Each is mapped back to the input coordinates,
    and the lexicographically least one whose first nonzero entry is
    positive is returned.  On a reduced basis of rank <= 4 the box has
    bounded size, so the cost follows the lattice, not its basis.
    """
    reduced, u = _lll(lat.gram)
    n = lat.rank
    # integer norms: the reduced Gram over a common denominator
    den = math.lcm(*(x.denominator for row in reduced for x in row))
    m = [[int(x * den) for x in row] for row in reduced]
    terms = [(i, j, m[i][j] * (1 if i == j else 2))
             for i in range(n) for j in range(i, n)]
    best = min(m[i][i] for i in range(n))
    box = _enumeration_box(_inverse(reduced), Fraction(best, den))
    # y0 >= 0 meets every +-pair, and both members map to one representative
    ranges = [range(box[0] + 1)] + [range(-c, c + 1) for c in box[1:]]
    found = []
    for y in iproduct(*ranges):
        norm = sum(c * y[i] * y[j] for i, j, c in terms)
        if norm == 0 or norm > best:
            continue
        if norm < best:
            best, found = norm, []
        found.append(y)
    cands = []
    for y in found:
        x = tuple(sum(u[i][j] * y[j] for j in range(n)) for i in range(n))
        cands.append(max(x, tuple(-c for c in x)))
    return Fraction(best, den), min(cands)


def is_semistable(lat: Lattice) -> bool:
    """Semistability: every proper sublattice has covol' ^ (2 rank) >=
    covol ^ (2 rank'), decided exactly on squared covolumes.

    This is the statement that the Harder-Narasimhan filtration has a
    single step; the minima comparison itself lives in `_hn_steps`.
    """
    if lat.rank > 3:
        raise CapabilityError("stability decided for rank <= 3")
    return len(_hn_steps(lat.gram)[0]) == 1


# -- integer basis completion utilities

def _column_reduce_to_e1(x: Sequence[int]) -> list[list[int]]:
    """Unimodular integer V with V x = e1 (x must be primitive)."""
    n = len(x)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = list(x)

    def apply_rows(i, j, a, b, c, d):
        # rows i,j <- (a*row_i + b*row_j, c*row_i + d*row_j)
        for col in range(n):
            ri, rj = v[i][col], v[j][col]
            v[i][col] = a * ri + b * rj
            v[j][col] = c * ri + d * rj
        cur[i], cur[j] = a * cur[i] + b * cur[j], c * cur[i] + d * cur[j]

    pivot = 0
    for j in range(1, n):
        if cur[j] == 0:
            continue
        if cur[pivot] == 0:
            apply_rows(pivot, j, 0, 1, -1, 0)
            continue
        g, s, t = _xgcd(cur[pivot], cur[j])
        a, b = cur[pivot] // g, cur[j] // g
        apply_rows(pivot, j, s, t, -b, a)
    if cur[0] == 0:
        raise InputError("zero vector cannot be completed")
    if cur[0] == -1:
        v[0] = [-c for c in v[0]]
        cur[0] = 1
    if cur[0] != 1:
        raise InputError("vector is not primitive")
    return v


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _primitive(x: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for c in x:
        g = math.gcd(g, abs(c))
    if g == 0:
        raise InputError("zero vector")
    return tuple(c // g for c in x)


def _sub_quotient_grams(gram: Matrix, x: Sequence[int]) -> tuple[Fraction, Matrix]:
    """Split off the rank-1 sublattice Z*x: its squared covolume and the
    Gram of the quotient (Schur complement in an x-completed basis)."""
    n = len(gram)
    v = _column_reduce_to_e1(list(x))
    u = _inverse(_mat(v))               # integer unimodular, U e1 = x
    gp = _mat_mul(_transpose(u), _mat_mul(gram, u))
    g11 = gp[0][0]
    if n == 1:
        return g11, ()
    quot = tuple(tuple(gp[i][j] - gp[i][0] * gp[0][j] / g11
                       for j in range(1, n)) for i in range(1, n))
    return g11, quot


def _rank2_sub_gram(gram: Matrix, w: Sequence[int]) -> Matrix:
    """Gram of the rank-2 sublattice {y : <y, w>_coeff = 0} of a rank-3
    lattice, where w is a primitive dual coefficient vector."""
    v = _column_reduce_to_e1(list(w))
    vt = _transpose(_mat(v))
    kernel = tuple(tuple(vt[i][j] for j in (1, 2)) for i in range(3))
    return _mat_mul(_transpose(kernel), _mat_mul(gram, kernel))


@dataclass(frozen=True)
class HNStep:
    rank: int
    covol2: Fraction
    slope: float


@dataclass(frozen=True)
class HNFiltration:
    steps: tuple[HNStep, ...]
    stable: bool     # every proper sublattice strictly below the slope

    @property
    def is_single(self) -> bool:
        return len(self.steps) == 1


def _slope(rank: int, covol2: Fraction) -> float:
    return -_log_fraction(covol2) / (2 * rank)


def _hn_steps(gram: Matrix) -> tuple[list[tuple[int, Fraction]], bool]:
    """(rank, squared covolume) of each semistable HN quotient, top-down,
    and whether the lattice is stable (the same minima comparisons, strict);
    the one place where lattice minima are compared with the covolume."""
    n = len(gram)
    lat = Lattice(gram)
    c2 = lat.covolume2
    if n == 1:
        return [(1, c2)], True
    lam2, x = shortest_vector(lat)
    if n == 2:
        if lam2 ** 2 >= c2:
            return [(2, c2)], lam2 ** 2 > c2
    else:
        # minimal rank-2 squared covolume: covol^2 * lambda_1(L*)^2
        dlam2, w = shortest_vector(dual(lat))
        sub2_cov2 = c2 * dlam2
        if lam2 ** 3 >= c2 and sub2_cov2 ** 3 >= c2 ** 2:
            return [(3, c2)], lam2 ** 3 > c2 and sub2_cov2 ** 3 > c2 ** 2
        # compare the best rank-1 slope with the best rank-2 slope;
        # mu_1 > mu_2  iff  (rank-2 covol^2) > (rank-1 covol^2)^2, exactly.
        # Ties go to the larger rank (the maximal destabilizer convention).
        if sub2_cov2 <= lam2 * lam2:
            sub_steps = _hn_steps(_rank2_sub_gram(gram, _primitive(w)))[0]
            if len(sub_steps) != 1:
                raise NumericError("rank-2 destabilizer unexpectedly unstable")
            dest_cov2 = sub_steps[0][1]
            return [(2, dest_cov2), (1, c2 / dest_cov2)], False
    sub_cov2, quot = _sub_quotient_grams(gram, _primitive(x))
    return [(1, sub_cov2)] + _hn_steps(quot)[0], False


def hn_filtration(lat: Lattice) -> HNFiltration:
    """The canonical filtration: successive maximal-slope sublattices.

    Steps list the semistable quotients top-down (first step is the
    maximal destabilizing sublattice).  Slopes strictly decrease, which is
    asserted exactly on squared covolumes before returning.
    """
    if lat.rank > 3:
        raise CapabilityError("filtration computed for rank <= 3")
    steps, stable = _hn_steps(lat.gram)
    for (r1, c1), (r2, c2) in zip(steps, steps[1:]):
        # mu_1 > mu_2  iff  c1^r2 < c2^r1
        if not c1 ** r2 < c2 ** r1:
            raise NumericError("filtration slopes fail to decrease strictly")
    total = Fraction(1)
    for _, c in steps:
        total *= c
    if total != lat.covolume2:
        raise NumericError("filtration does not reconstruct the covolume")
    return HNFiltration(tuple(HNStep(r, c, _slope(r, c)) for r, c in steps), stable)


def unimodular_semistable_check(lat: Lattice) -> tuple[bool, bool]:
    """(semistable, stable) for an integral lattice of covolume 1.

    Unimodular lattices are always semistable; stability fails exactly
    when a proper unimodular sublattice exists, i.e. a norm-1 vector
    (rank-1) or, at rank 3, a norm-1 dual vector (rank-2 sublattice).
    """
    for row in lat.gram:
        for x in row:
            if x.denominator != 1:
                raise InputError("unimodular check needs an integral Gram")
    if lat.covolume2 != 1:
        raise InputError("unimodular check needs covolume 1")
    if lat.rank > 3:
        raise CapabilityError("stability decided for rank <= 3")
    filtration = hn_filtration(lat)
    return filtration.is_single, filtration.stable


# ---------------------------------------------------------------------------
# rank-2 reduction to the fundamental domain

def reduce_rank2(lat: Lattice, tol: float = 1e-12) -> tuple[float, float, bool]:
    """Gauss-reduce a covolume-1 rank-2 lattice to (a, b, in_domain).

    The representative is the lower-triangular basis [[a, 0], [b, 1/a]]
    modulo rotation: a is the shortest length, b the normalized inner
    product.  in_domain reports membership of the moduli fundamental
    domain 1 <= a <= sqrt(2/sqrt(3)), sqrt(a^2 - a^-2) <= b <= a -
    sqrt(a^2 - a^-2); unstable lattices (a < 1) are not in the domain.
    """
    if lat.rank != 2:
        raise InputError("reduction needs rank 2")
    if lat.covolume2 != 1:
        raise InputError("reduction needs covolume exactly 1")
    g11, g12, g22 = lat.gram[0][0], lat.gram[0][1], lat.gram[1][1]
    while True:
        if g22 < g11:
            g11, g22 = g22, g11
        mu = _round_frac(g12 / g11)
        if mu:
            # b2 <- b2 - mu b1
            g22 = g22 - 2 * mu * g12 + mu * mu * g11
            g12 = g12 - mu * g11
        if g22 >= g11 and abs(g12 / g11) <= Fraction(1, 2):
            break
    if g12 < 0:
        g12 = -g12
    a = math.sqrt(float(g11))
    b = float(g12) / a
    lower = math.sqrt(max(float(g11) - 1 / float(g11), 0.0))
    in_domain = (1 - tol <= a <= math.sqrt(2 / math.sqrt(3)) + tol
                 and lower - tol <= b <= a - lower + tol)
    return a, b, in_domain


# ---------------------------------------------------------------------------
# theta cohomology

@dataclass(frozen=True)
class ThetaValue:
    """h^0 in nats with a certified truncation tail bound."""

    value: float
    tail_bound: float
    radius: float


def _lambda1_lower_bound(ginv: Matrix) -> float:
    # lambda_1^2 >= 1/trace(G^-1), exactly computable
    trace = sum(ginv[i][i] for i in range(len(ginv)))
    return math.sqrt(1.0 / float(trace))


def _tail_bound(radius: float, lam1: float, n: int) -> float:
    """sum over |v| > R of exp(-pi |v|^2), by shells of width 1 with the
    packing bound #(|v| <= T) <= (2T/lam1 + 1)^n."""
    total = 0.0
    k = 0
    while True:
        r_lo = radius + k
        term = (2 * (r_lo + 1) / lam1 + 1) ** n * math.exp(-math.pi * r_lo * r_lo)
        total += term
        if term < 1e-3 * total or term == 0.0:
            break
        k += 1
        if k > 10000:
            raise NumericError("tail bound failed to converge")
    return total * (1 + 1e-2)


def theta_h0(lat: Lattice, eps: float = 1e-12) -> ThetaValue:
    """h^0 = log sum_{v in L} exp(-pi |v|^2), zero vector included.

    The radius is grown until the proven tail bound drops below eps; the
    partial sum is at least 1, so the bound also controls the error of
    the logarithm.
    """
    import numpy as np
    if eps <= 0:
        raise InputError("eps must be positive")
    ginv = _inverse(lat.gram)
    lam1 = _lambda1_lower_bound(ginv)
    radius = max(1.5, math.sqrt(math.log(2.0 / eps) / math.pi))
    while True:
        bound = _tail_bound(radius, lam1, lat.rank)
        if bound <= eps:
            break
        radius *= 1.5
        if radius > 1e6:
            raise NumericError("theta radius blow-up")
    bound_norm = Fraction(radius ** 2).limit_denominator(10 ** 12) + 1
    box = _enumeration_box(ginv, bound_norm)
    # vectorized norms; the sum is a float quantity and the certification
    # lives entirely in the tail bound at `radius`, so float norms with a
    # tiny slack on the cut are sound (extra boundary points only help)
    g = np.array([[float(x) for x in row] for row in lat.gram])
    cut = float(bound_norm) * (1 + 1e-9)
    n = lat.rank
    tail_axes = [np.arange(-b, b + 1, dtype=float) for b in box[1:]]
    if tail_axes:
        mesh = np.meshgrid(*tail_axes, indexing="ij")
        rest = np.stack([m.ravel() for m in mesh])          # (n-1, M)
    else:
        rest = np.zeros((0, 1))
    quad_rest = (rest * (g[1:, 1:] @ rest)).sum(axis=0) if n > 1 else np.zeros(1)
    lin_rest = (g[0, 1:] @ rest) if n > 1 else np.zeros(1)
    terms: list[float] = []
    for x0 in range(-box[0], box[0] + 1):
        norms = g[0, 0] * x0 * x0 + 2 * x0 * lin_rest + quad_rest
        chunk = norms[norms <= cut]
        if chunk.size:
            terms.extend(np.exp(-math.pi * chunk).tolist())
    total = math.fsum(sorted(terms))
    return ThetaValue(math.log(total), bound, radius)


def h1(lat: Lattice, eps: float = 1e-12) -> ThetaValue:
    """h^1(L) = h^0 of the dual lattice (the dualizing object of Q is
    trivial)."""
    return theta_h0(dual(lat), eps)


@dataclass(frozen=True)
class RRReport:
    h0: float
    h1: float
    degree: float
    residual: float
    tail_total: float

    @property
    def ok(self) -> bool:
        return abs(self.residual) <= max(self.tail_total * 4, 1e-12)


def rr_check(lat: Lattice, tol: float = 1e-9) -> RRReport:
    """Riemann-Roch over Q: h^0(L) - h^0(L*) = deg(L), within tol.

    The theta tails are requested well below tol; if that cannot be
    certified the configuration is refused rather than silently loosened.
    """
    if tol < 1e-13:
        raise ConfigError("tolerance below certifiable floor (1e-13)")
    eps = tol / 100
    t0 = theta_h0(lat, eps)
    t1 = theta_h0(dual(lat), eps)
    if t0.tail_bound + t1.tail_bound >= tol:
        raise ConfigError("certified tails exceed the requested tolerance")
    degree = deg(lat)
    residual = t0.value - t1.value - degree
    report = RRReport(t0.value, t1.value, degree, residual,
                      t0.tail_bound + t1.tail_bound)
    if abs(residual) > tol:
        raise NumericError(f"Riemann-Roch residual {residual} exceeds {tol}")
    return report


# ---------------------------------------------------------------------------
# the completed zeta function of the rationals

XI_DPS = 30
# Dirichlet terms beyond |t|/pi.  Successive Euler-Maclaurin terms differ by
# a factor of about |(s+2j-1)(s+2j)|/(2 pi N)^2, under 1/4 at N >= |t|/pi
# while 2j << |t|; the extra terms let them fall to about e^(-2 pi 12) ~
# 1e-33 near t = 0 before they grow, below what XI_DPS digits resolve.
XI_EXTRA_TERMS = 12
XI_MAX_ORDER = 40
# Left of this sigma xi(1-s) is summed instead.  The remainder bound needs
# sigma + 2j - 1 > 0, and far left the Dirichlet terms k^|sigma| dwarf
# zeta(s), so the Bernoulli table runs out: measured, it reaches eps = 1e-14
# for sigma >= -35 at heights up to 880, and fails for sigma <= -45 from
# t = 200 on and for sigma <= -70 at every height.  The cap also bounds the
# extra working digits at -XI_MIN_SIGMA log10(XI_TERM_BUDGET).
XI_MIN_SIGMA = -20
# Dirichlet terms at most; about half a second of XI_DPS-digit powers
XI_TERM_BUDGET = 10 ** 4


@functools.cache
def _em_coefficients() -> tuple[Fraction, ...]:
    """B_2k/(2k)! for k = 0..XI_MAX_ORDER, exactly."""
    import mpmath
    return tuple(Fraction(*mpmath.bernfrac(2 * k)) / math.factorial(2 * k)
                 for k in range(XI_MAX_ORDER + 1))


def _zeta_em(s: mpmath.mpc, n: int, eps: float) -> mpmath.mpc:
    """zeta(s) by Euler-Maclaurin summation at N = n (Edwards, Riemann's
    Zeta Function, section 6.4):

        zeta(s) = sum_{k<N} k^(-s) + N^(1-s)/(s-1) + N^(-s)/2 + sum_j T_j + R,
        T_j = B_2j/(2j)! (s)_(2j-1) N^(-s-2j+1),

    stopping before the first T_j whose remainder bound
    |s+2j-1|/(sigma+2j-1) |T_j| is at most eps |partial sum|.
    """
    import mpmath
    sigma = float(s.real)
    total = mpmath.fsum(mpmath.power(k, -s) for k in range(1, n))
    n_s = mpmath.power(n, -s)
    total += n * n_s / (s - 1) + n_s / 2
    rising = s                              # (s)_(2j-1)
    n_pow = n_s / n                         # N^(-s-2j+1)
    inv_n2 = mpmath.mpf(1) / (n * n)
    for j, c in enumerate(_em_coefficients()[1:], start=1):
        term = mpmath.mpf(c.numerator) / c.denominator * rising * n_pow
        edge = sigma + 2 * j - 1            # the bound needs sigma > -(2j-1)
        if edge > 0 and abs(s + 2 * j - 1) / edge * abs(term) <= eps * abs(total):
            return total
        total += term
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        n_pow *= inv_n2
    raise NumericError(f"Euler-Maclaurin remainder above eps after "
                       f"{XI_MAX_ORDER} Bernoulli terms")


def xi_q(s: complex, eps: float = 1e-14) -> complex:
    """Completed zeta xi(s) = pi^(-s/2) Gamma(s/2) zeta(s).

    The gamma factor is exp(-(s/2) log pi + loggamma(s/2)), so the
    e^(-pi |t|/4) size of xi high on the critical line comes from a product
    and nothing cancels.  zeta(s) is the Euler-Maclaurin sum of `_zeta_em`
    with N = ceil(|t|/pi) + XI_EXTRA_TERMS Dirichlet terms at XI_DPS
    digits, truncated where its proven remainder is below eps times the
    partial sum.  Left of sigma = 0 the terms k^(-s) grow like k^|sigma|
    and cancel down to zeta(s), so the working precision gains that many
    digits.  xi(s) and xi(1-s) sum different series, which makes the
    functional equation a check; only left of XI_MIN_SIGMA and at the
    trivial zeros s = -2, -4, ..., where Gamma(s/2) has its poles, is
    xi(1-s) returned instead.

    Refused: s not finite or near the poles 0, 1 (InputError), N above XI_TERM_BUDGET
    (ResourceError), a value outside the normal double range or a
    remainder the Bernoulli table cannot bring below eps (NumericError).
    """
    import mpmath
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InputError("s must be finite")
    if abs(s) < 1e-6 or abs(s - 1) < 1e-6:
        raise InputError("evaluation too close to the poles s = 0, 1")
    if eps <= 0:
        raise InputError("eps must be positive")
    trivial = round(s.real / 2)
    if s.real < XI_MIN_SIGMA or (trivial < 0 and abs(s - 2 * trivial) < 1e-6):
        # far left, or where Gamma(s/2) has a pole at a trivial zero of zeta
        return xi_q(1 - s, eps)
    n = math.ceil(abs(s.imag) / math.pi) + XI_EXTRA_TERMS
    if n > XI_TERM_BUDGET:
        raise ResourceError(f"xi at |t| = {abs(s.imag):g} needs {n} Dirichlet "
                            f"terms (budget {XI_TERM_BUDGET})")
    dps = XI_DPS + max(0, math.ceil(-s.real * math.log10(n)))
    with mpmath.workdps(dps):
        ms = mpmath.mpc(s)
        gamma_factor = mpmath.exp(-ms / 2 * mpmath.log(mpmath.pi)
                                  + mpmath.loggamma(ms / 2))
        value = complex(gamma_factor * _zeta_em(ms, n, eps))
    if not sys.float_info.min <= abs(value) < math.inf:
        raise NumericError(f"|xi({s})| is outside the normal double range")
    return value
