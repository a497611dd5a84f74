"""Lattices over the rationals: stability, filtrations, theta cohomology.

A lattice is held as its integral Gram g = den*G, den the least common
denominator of its rational Gram G; a basis, when one is supplied, only
gives g = B^T B.  One fraction-free Gram-Schmidt pass (leading minors d_k
and integers lambda_kj) validates g, gives the squared covolume and seeds
an integral LLL (Cohen, GTM 138, Alg. 2.6.7).  The dual, the HN quotients
and the theta bound stay on integers; Fractions appear only in printed
values and in `Lattice.gram`.  Stability comparisons compare squared
covolumes raised to integer powers.  The minima they need come from a
Fincke-Pohst enumeration on the d and lambda of the LLL-reduced Gram, so
its cost follows the lattice rather than the basis it is given (Fincke and
Pohst, Math. Comp. 44, 1985).
The analytic layer on top -- theta sums with certified tail bounds, the
Riemann-Roch residual over Q, and the completed zeta xi(s) as the gamma
factor times an Euler-Maclaurin zeta(s) truncated by its proven remainder
bound -- is the only place floating point appears.  In xi, mpmath computes
only the gamma factor and p^(-s) for primes p; `_zeta_em` sums zeta on
integers scaled by 2^P.  mpmath is imported inside the functions that use
it, so loading the module (and the CLI) does not load it.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from zetalab.errors import (
    ENUMERATION_BUDGET,
    CapabilityError,
    ConfigError,
    InputError,
    NumericError,
    ResourceError,
)
from zetalab.exact import bernoulli_even, rat

if TYPE_CHECKING:
    import mpmath

IntMatrix = Sequence[Sequence[int]]


def _scaled(rows: Sequence[Sequence]) -> tuple[int, IntMatrix]:
    """(den, den * a), a the rows as rationals, den their least common denominator."""
    a = [[rat(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in a]


def _gram_of(g: IntMatrix, cols: Sequence[Sequence[int]]) -> IntMatrix:
    """The Gram (c_i^T g c_j) of integer coefficient vectors c_i."""
    gc = [[sum(r * x for r, x in zip(row, c)) for row in g] for c in cols]
    return [[sum(x * y for x, y in zip(a, b)) for b in gc] for a in cols]


def _gram_schmidt(g: IntMatrix) -> tuple[list[int], IntMatrix]:
    """Fraction-free Gram-Schmidt data (d, lam) of an integral symmetric
    Gram (Cohen, GTM 138, Algorithm 2.6.7, step 2).  d[k] is the k-th
    leading minor (d[0] = 1) and lam[k][j] = d[j+1] mu[k][j] for j < k,
    all integers: every division below is exact.  G is positive definite
    exactly when every d[k] is positive; the first d[k] <= 0 raises before
    it is used as a divisor."""
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = g[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
        if u <= 0:
            raise InputError("Gram matrix must be positive definite")
        d[k + 1] = u
    return d, lam


def _adjugate(g: IntMatrix) -> IntMatrix:
    """adj(g) of an integral positive definite g: fraction-free Gauss-Jordan
    on [g | I] (Bareiss) ends with det(g) I beside adj(g).  Each division is
    exact, and pivot k is the leading minor d[k+1] > 0: no row swaps."""
    n = len(g)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = pivot
    return [row[n:] for row in m]


def _log_fraction(x: Fraction) -> float:
    # avoids overflow for very large numerators/denominators
    return math.log(x.numerator) - math.log(x.denominator)


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice, held as its integral Gram g = den * G.

    Construction checks g is square and symmetric, divides den and g by
    their gcd, so den is the least common denominator of G and equal
    lattices have equal (den, g), and refuses g unless every leading minor
    d_k of its fraction-free Gram-Schmidt pass is positive; covolume2 =
    d_n / den^n, and d, lam seed LLL.  A basis given to `from_basis_columns`
    only supplies the Gram B^T B, so a singular basis is refused through
    its singular Gram.  The rational Gram G is `gram`, built on demand.
    """

    den: int
    g: tuple[tuple[int, ...], ...]
    covolume2: Fraction = field(init=False, repr=False, compare=False)
    d: list[int] = field(init=False, repr=False, compare=False)
    lam: IntMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.g)
        if n < 1 or n > 4:
            raise CapabilityError("rank must be between 1 and 4")
        if any(len(row) != n for row in self.g):
            raise InputError("Gram matrix must be square")
        if any(self.g[i][j] != self.g[j][i] for i in range(n) for j in range(i)):
            raise InputError("Gram matrix must be symmetric")
        c = math.gcd(self.den, *(x for row in self.g for x in row))
        den, g = self.den // c, tuple(tuple(x // c for x in row) for row in self.g)
        d, lam = _gram_schmidt(g)
        self.__dict__.update(den=den, g=g, d=d, lam=lam, covolume2=Fraction(d[n], den ** n))

    @staticmethod
    def from_basis_columns(cols: Sequence[Sequence]) -> "Lattice":
        den, b = _scaled(cols)
        return Lattice(den * den, [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b])

    @staticmethod
    def from_gram(gram: Sequence[Sequence]) -> "Lattice":
        return Lattice(*_scaled(gram))

    @property
    def rank(self) -> int:
        return len(self.g)

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.g)


def deg(lat: Lattice) -> float:
    """Degree of the lattice, deg = -log covolume (exact covolume^2 input)."""
    return -0.5 * _log_fraction(lat.covolume2)


def dual(lat: Lattice) -> Lattice:
    """Dual lattice in the dual basis: its Gram is G^-1 = den adj(g) / d_n,
    inverted exactly, so dual(dual(L)) == L on the nose."""
    return Lattice(lat.d[-1], [[lat.den * x for x in row] for row in _adjugate(lat.g)])


# ---------------------------------------------------------------------------
# shortest vectors and stability

def _lll(lat: Lattice) -> tuple[tuple[tuple[int, ...], ...], list[int], IntMatrix]:
    """Integral LLL reduction (delta = 3/4, Cohen, GTM 138, Algorithm 2.6.7)
    of the lattice's Gram, from its d and lam, updated on each size
    reduction and swap.  Returns (U, d, lam): U integral and unimodular,
    its columns the reduced basis in input coordinates, and d, lam those of
    den * U^T G U.  As mu[k][j] = lam[k][j] / d[j+1] and B_k = d[k+1] / d[k],
    the rounding and the Lovasz test are the rational algorithm's."""
    n = lat.rank
    d, lam = list(lat.d), [list(row) for row in lat.lam]
    u = [[int(i == j) for j in range(n)] for i in range(n)]   # u[k]: basis vector k

    def size_reduce(k: int, l: int) -> None:
        # |mu| > 1/2, q = floor(mu + 1/2)
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            u[k] = [a - q * c for a, c in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        # B_k < (3/4 - mu^2) B_(k-1), times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * m * m:
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return tuple(zip(*u)), d, lam


def _short_vector_runs(d: list[int], lam: IntMatrix, bound: int) -> list[tuple]:
    """Every y != 0 with N = y^T g y <= bound, one of each pair +-y, g an
    integral Gram with fraction-free Gram-Schmidt data (d, lam), as runs
    (y_1.., N_1, c_0, lo, hi): the y with those y_1.. and lo <= y_0 <= hi.

    Fincke-Pohst (Math. Comp. 44, 1985), on integers: with
    t_i = d[i+1] y_i + c_i, c_i = sum_(j>i) lam[j][i] y_j, the part of
    sum_(j>=i) y_j b_j orthogonal to b_0..b_(i-1) has squared length
    N_i / d[i], N_i = (t_i^2 + d[i] N_(i+1)) / d[i+1] exactly, and level i
    keeps the y_i with N_i <= d[i] * bound, i.e. t_i^2 <= d[i] (d[i+1]
    bound - N_(i+1)).  N_0 is the norm.  The walk stops at level 1: at
    level 0 the kept y_0 form one interval, N = (t_0^2 + N_1) / d[1] as
    d[0] = 1, and the caller expands it.
    """
    n = len(d) - 1
    y = [0] * n
    runs = []

    def level(i: int, above: int, nonzero: bool) -> None:
        s = math.isqrt(d[i] * (d[i + 1] * bound - above))     # |t_i| <= s
        c = sum(lam[j][i] * y[j] for j in range(i + 1, n))
        # the first nonzero y_j from the top is positive, and y = 0 is left out
        lo = -((s + c) // d[i + 1]) if nonzero else int(i == 0)
        hi = (s - c) // d[i + 1]
        if i == 0:
            runs.append((tuple(y[1:]), above, c, lo, hi))
            return
        for yi in range(lo, hi + 1):
            y[i] = yi
            t = d[i + 1] * yi + c
            level(i - 1, (t * t + d[i] * above) // d[i + 1], nonzero or yi != 0)
        y[i] = 0

    level(n - 1, 0, False)
    return runs


def _run_norms(runs, d1: int) -> list[int]:
    """The norm of every vector in `_short_vector_runs`' runs, d1 = d[1]."""
    return [(t * t + above) // d1 for _, above, c, lo, hi in runs
            for t in range(d1 * lo + c, d1 * hi + c + 1, d1)]


def shortest_vector(lat: Lattice) -> tuple[Fraction, tuple[int, ...]]:
    """Minimal nonzero squared length and a coefficient vector achieving it.

    `_short_vector_runs` on the LLL-reduced basis, bounded by its first
    vector, finds every minimal vector; the runs reaching the least norm are
    expanded with coordinates.  Each minimal vector is mapped back to the
    input coordinates, and the lexicographically least one whose first
    nonzero entry is positive is returned.  The search tree on a reduced
    basis of rank <= 4 has bounded size, so the cost follows the lattice,
    not its basis.
    """
    u, d, lam = _lll(lat)
    n, d1 = lat.rank, d[1]
    runs = _short_vector_runs(d, lam, d1)
    best = min(_run_norms(runs, d1))
    minimal = [(y0, *ys) for ys, above, c, lo, hi in runs for y0 in range(lo, hi + 1)
               if ((d1 * y0 + c) ** 2 + above) // d1 == best]
    xs = [tuple(sum(u[i][j] * y[j] for j in range(n)) for i in range(n)) for y in minimal]
    return Fraction(best, lat.den), min(max(x, tuple(-c for c in x)) for x in xs)


def is_semistable(lat: Lattice) -> bool:
    """Semistability: every proper sublattice M has covol(M)^(2 rank) >=
    covol^(2 rank M), decided exactly on squared covolumes.

    That is, the Harder-Narasimhan filtration has a single step; the
    minima comparisons that decide it live in `_hn_steps`.
    """
    return hn_filtration(lat).is_single


# -- integer basis completion utilities

def _column_reduce_to_e1(x: Sequence[int]) -> IntMatrix:
    """Columns of a unimodular U with U e1 = +-x (x must be primitive), the
    inverse of row operations V with V x = +-e1.  Each step takes the Bezout
    pair s a + t b = 1 of the coprime a, b from `pow(a, -1, |b|)`.  The sign
    is left as it falls: callers use only the line Z x."""
    n = len(x)
    ucols = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = list(x)

    def apply_rows(i, j, a, b, c, d):
        # V <- [[a, b], [c, d]] V on rows i, j, with ad - bc = 1, so
        # U <- U [[d, -b], [-c, a]] on columns i, j
        ucols[i], ucols[j] = ([d * p - c * q for p, q in zip(ucols[i], ucols[j])],
                              [a * q - b * p for p, q in zip(ucols[i], ucols[j])])
        cur[i], cur[j] = a * cur[i] + b * cur[j], c * cur[i] + d * cur[j]

    pivot = 0
    for j in range(1, n):
        if cur[j] == 0:
            continue
        if cur[pivot] == 0:
            apply_rows(pivot, j, 0, 1, -1, 0)
            continue
        g = math.gcd(cur[pivot], cur[j])
        a, b = cur[pivot] // g, cur[j] // g
        s = pow(a, -1, abs(b))
        t = (1 - s * a) // b
        apply_rows(pivot, j, s, t, -b, a)
    if cur[0] == 0:
        raise InputError("zero vector cannot be completed")
    if abs(cur[0]) != 1:
        raise InputError("vector is not primitive")
    return ucols


def _sub_quotient_grams(lat: Lattice, x: Sequence[int]) -> tuple[Fraction, tuple[int, IntMatrix]]:
    """Split off Z*x (x primitive): its squared covolume and the quotient's
    (den, g) (Schur complement in an x-completed basis), its gcd not taken."""
    gp = _gram_of(lat.g, _column_reduce_to_e1(x))
    g11 = gp[0][0]
    quot = [[gp[i][j] * g11 - gp[i][0] * gp[0][j] for j in range(1, lat.rank)]
            for i in range(1, lat.rank)]
    return Fraction(g11, lat.den), (g11 * lat.den, quot)


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


def _hn_steps(lat: Lattice) -> tuple[list[tuple[int, Fraction]], bool]:
    """(rank, squared covolume) of each semistable HN quotient, top-down,
    and whether the lattice is stable (the same minima comparisons, strict);
    the one place where lattice minima are compared with the covolume.

    At rank 3, M = {y in L : <y, w> = 0} for a primitive w in L* has
    covol(M)^2 = c2 |w|^2, least at c2 lambda_1(L*)^2.  That M is the
    first step when it destabilizes: its nonzero vectors have |y|^2 >= lam2
    and the branch runs only if covol(M)^2 <= lam2^2, so M is semistable.
    Shortest vectors are primitive, so x completes to a basis as it is.
    """
    n = lat.rank
    c2 = lat.covolume2
    if n == 1:
        return [(1, c2)], True
    lam2, x = shortest_vector(lat)
    if n == 2:
        if lam2 ** 2 >= c2:
            return [(2, c2)], lam2 ** 2 > c2
    else:
        dlam2, _ = shortest_vector(dual(lat))
        sub2_cov2 = c2 * dlam2
        if lam2 ** 3 >= c2 and sub2_cov2 ** 3 >= c2 ** 2:
            return [(3, c2)], lam2 ** 3 > c2 and sub2_cov2 ** 3 > c2 ** 2
        # compare the best rank-1 slope with the best rank-2 slope;
        # mu_1 > mu_2  iff  (rank-2 covol^2) > (rank-1 covol^2)^2, exactly.
        # Ties go to the larger rank (the maximal destabilizer convention).
        if sub2_cov2 <= lam2 * lam2:
            return [(2, sub2_cov2), (1, c2 / sub2_cov2)], False
    sub_cov2, quot = _sub_quotient_grams(lat, x)
    return [(1, sub_cov2)] + _hn_steps(Lattice(*quot))[0], False


def hn_filtration(lat: Lattice) -> HNFiltration:
    """The canonical filtration: successive maximal-slope sublattices.

    Steps list the semistable quotients top-down (first step is the
    maximal destabilizing sublattice).  Slopes strictly decrease, since
    each first step is the maximal destabilizer, and the squared covolumes
    multiply to the lattice's, since each split in `_hn_steps` is a
    sublattice of covolume^2 s and a quotient of covolume^2 c2 / s.
    """
    if lat.rank > 3:
        raise CapabilityError("filtration computed for rank <= 3")
    steps, stable = _hn_steps(lat)
    return HNFiltration(tuple(HNStep(r, c, _slope(r, c)) for r, c in steps), stable)


# ---------------------------------------------------------------------------
# rank-2 reduction to the fundamental domain

def reduce_rank2(lat: Lattice) -> tuple[float, float, bool]:
    """Gauss-reduce a covolume-1 rank-2 lattice to (a, b, in_domain).

    The representative is the lower-triangular basis [[a, 0], [b, 1/a]]
    modulo rotation: a is the shortest length, b the normalized inner
    product.  in_domain reports membership of the moduli fundamental
    domain 1 <= a <= sqrt(2/sqrt(3)), sqrt(a^2 - a^-2) <= b <= a -
    sqrt(a^2 - a^-2); unstable lattices (a < 1) are not in the domain.
    The reduction runs on the integral Gram den * G; its reduced entries
    satisfy g22 >= g11, 2|g12| <= g11 and g11 g22 - g12^2 = den^2, and
    then three of the domain's four inequalities always hold:
      3 g11^2 <= 4 den^2 is Hermite's bound,
      g12^2 >= g11^2 - den^2 follows from g22 >= g11,
      2 g11 g12 <= den^2 + g12^2 as den^2 + g12^2 >= g11^2 >= 2 g11 |g12|.
    So in_domain is the integer test g11 >= den, and only a and b are floats.
    """
    if lat.rank != 2:
        raise InputError("reduction needs rank 2")
    if lat.covolume2 != 1:
        raise InputError("reduction needs covolume exactly 1")
    den, ((g11, g12), (_, g22)) = lat.den, lat.g
    while True:
        if g22 < g11:
            g11, g22 = g22, g11
        mu = (2 * g12 + g11) // (2 * g11)     # floor(g12 / g11 + 1/2)
        if mu:
            # b2 <- b2 - mu b1
            g22 = g22 - 2 * mu * g12 + mu * mu * g11
            g12 = g12 - mu * g11
        if g22 >= g11 and 2 * abs(g12) <= g11:
            break
    a = math.sqrt(g11 / den)
    return a, abs(g12) / den / a, g11 >= den


# ---------------------------------------------------------------------------
# theta cohomology

@dataclass(frozen=True)
class ThetaValue:
    """h^0 in nats with a certified truncation tail bound."""

    value: float
    tail_bound: float


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
    the logarithm.  The vectors inside the radius come from
    `_short_vector_runs` on the LLL-reduced basis, expanded to their exact
    integral norms alone (`_run_norms`): no coordinate vector is built.  A
    search box of more than ENUMERATION_BUDGET points raises ResourceError
    before it starts.
    """
    if not 0 < eps < math.inf:
        raise InputError("tolerance must be positive and finite")
    n, den = lat.rank, lat.den
    # lambda_1^2 >= 1/trace(G^-1), trace(G^-1) = den trace(adj g) / d_n exactly
    trace = Fraction(den * sum(row[i] for i, row in enumerate(_adjugate(lat.g))), lat.d[n])
    lam1 = math.sqrt(1.0 / float(trace))
    radius = max(1.5, math.sqrt(max(0.0, math.log(2.0 / eps)) / math.pi))
    while True:
        bound = _tail_bound(radius, lam1, n)
        if bound <= eps:
            break
        radius *= 1.5
        if radius > 1e6:
            raise NumericError("theta radius blow-up")
    bound_norm = Fraction(radius ** 2).limit_denominator(10 ** 12) + 1
    # the sum is a float quantity and the certification lives entirely in
    # the tail bound at `radius`, so a tiny slack on the cut is sound
    # (extra boundary points only help)
    cut = float(bound_norm) * (1 + 1e-9)
    top = math.floor(Fraction(cut) * den)
    _, d, lam = _lll(lat)
    # level i admits about 2 sqrt(top / B_i) + 1 values of y_i
    points = math.prod(2 * math.isqrt(top * d[i] // d[i + 1]) + 1 for i in range(n))
    if points > ENUMERATION_BUDGET:
        raise ResourceError(f"theta box of {points} points exceeds the budget "
                            f"of {ENUMERATION_BUDGET}")
    # exact norms m / den <= cut, each rounded once: the terms do not
    # depend on the basis
    total = math.fsum([1.0] + [2 * math.exp(-math.pi * (m / den))
                               for m in _run_norms(_short_vector_runs(d, lam, top), d[1])])
    return ThetaValue(math.log(total), bound)


@dataclass(frozen=True)
class RRReport:
    h0: float
    h1: float
    degree: float
    residual: float
    tail_total: float


def rr_check(lat: Lattice, tol: float = 1e-9) -> RRReport:
    """Riemann-Roch over Q: h^0(L) - h^0(L*) = deg(L), within tol.

    h^1(L) is h^0 of the dual lattice L*, as the dualizing object of Q is
    trivial.  The theta tails are requested at tol/100 (theta_h0 refuses it
    unless finite); a tol they cannot certify is refused, not loosened.
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
# Dirichlet terms at most; at XI_DPS digits about 0.05 s, 1,229 of them primes
XI_TERM_BUDGET = 10 ** 4
# Right of this sigma |xi(s)| is above the double range at every |t| the
# term budget admits, |t| < pi XI_TERM_BUDGET.  For sigma >= 2, |zeta(s)| >=
# 1/zeta(2); |Gamma(sigma/2 + it/2)| falls as |t| grows (its product
# formula), and pi^(-sigma/2) |Gamma(sigma/2 + it/2)| grows with sigma once
# psi(sigma/2) > log pi, sigma >= 8.  At sigma = 10^4, |t| = pi 10^4 the
# product is about 10^7813.
XI_MAX_SIGMA = 10 ** 4


@functools.cache
def _em_coefficients() -> tuple[Fraction, ...]:
    """B_2k/(2k)! for k = 0..XI_MAX_ORDER, exactly."""
    return tuple(b / math.factorial(2 * k) for k, b in enumerate(bernoulli_even(XI_MAX_ORDER)))


def _zeta_em(s: complex, n: int, eps: float) -> mpmath.mpc:
    """zeta(s) by Euler-Maclaurin summation at N = n (Edwards, Riemann's
    Zeta Function, section 6.4):

        zeta(s) = sum_{k<N} k^(-s) + N^(1-s)/(s-1) + N^(-s)/2 + sum_j T_j + R,
        T_j = c_j R_j,  c_j = B_2j/(2j)!,  R_j = (s)_(2j-1) N^(-s-2j+1),

    stopping before the first T_j whose remainder bound
    |s+2j-1|/(sigma+2j-1) |T_j| is at most eps |partial sum|.

    mpmath gives only p^(-s), p <= N prime, by its fixed-point log, exp and
    cos/sin; integers x, y stand for (x + iy) 2^-P everywhere else.  A
    smallest-prime-factor sieve makes each other k^(-s) a product of two
    earlier ones.  With s = (a + ib)/2^e exactly, R_(j+1) = R_j (s+2j-1)
    (s+2j)/N^2 and T_j = c_j R_j are exact products and one floor division
    each, kept to P significant bits by power-of-2 shifts, so a small T_j
    never floors to 0; the stopping rule compares squared moduli exactly.
    Floors are off by under a unit, mpmath's p^(-s) by about 2 (|s| log p +
    2) units times max(1, p^-sigma), a k^(-s) by 4 Omega(k) times that, T_j
    by (2j + 1) 2^(2-P) relative: the sum is within about W 2^-P max(1, N^-sigma),
    W = 8 (N log2 N + XI_MAX_ORDER^2)(|s| log N + 2) max(1, 1/|t|).  P =
    max(mp.prec, -log2 eps) + log2 W puts that below mp.prec-bit rounding,
    also for Im zeta ~ t zeta'(sigma) at small t.
    """
    import mpmath
    from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, log_int_fixed
    (a, da), (b, db) = s.real.as_integer_ratio(), s.imag.as_integer_ratio()
    one = max(da, db)                       # s = (a + ib)/one, one = 2^e
    a, b = a * (one // da), b * (one // db)
    w = (8 * (n * n.bit_length() + XI_MAX_ORDER ** 2) * (int(abs(s) * math.log(n)) + 2)
         << max(0, -math.frexp(s.imag)[1]))
    p = max(mpmath.mp.prec, math.ceil(-math.log2(eps))) + w.bit_length()
    spf = list(range(n + 1))                # smallest prime factor; small i write last
    for i in range(math.isqrt(n), 1, -1):
        spf[i * i::i] = [i] * ((n - i * i) // i + 1)
    terms = [(0, 0), (1 << p, 0)]           # k^(-s) for k = 0..N
    for k in range(2, n + 1):
        if spf[k] == k:                     # e^(-sigma log k) e^(-i t log k)
            lk = log_int_fixed(k, p)
            (cos, sin), mod = cos_sin_fixed(b * lk // one, p), exp_fixed(-a * lk // one, p)
            terms.append(((mod * cos) >> p, (-mod * sin) >> p))
        else:
            (x1, y1), (x2, y2) = terms[spf[k]], terms[k // spf[k]]
            terms.append(((x1 * x2 - y1 * y2) >> p, (x1 * y2 + y1 * x2) >> p))
    nx, ny = terms.pop()
    c, m2 = a - one, (a - one) ** 2 + b * b   # N^(1-s)/(s-1) = N^(-s) N one conj(s-1)/m2
    x = sum(t[0] for t in terms) + n * one * (nx * c + ny * b) // m2 + (nx >> 1)
    y = sum(t[1] for t in terms) + n * one * (ny * c - nx * b) // m2 + (ny >> 1)
    e_num, e_den = eps.as_integer_ratio()
    def rounded(ux, uy, d, q):              # (ux + i uy)/d at 2^-q, to P significant bits
        shift = max(0, p + d.bit_length() - max(abs(ux), abs(uy)).bit_length())
        return (ux << shift) // d, (uy << shift) // d, q + shift
    rx, ry, q = rounded(a * nx - b * ny, a * ny + b * nx, one * n, p)   # R_1
    for j, cj in enumerate(_em_coefficients()[1:], start=1):
        tx, ty, qt = rounded(rx * cj.numerator, ry * cj.numerator, cj.denominator, q)
        edge = a + (2 * j - 1) * one        # (sigma + 2j - 1) one, > 0 for the bound
        if edge > 0 and ((edge * edge + b * b) * (tx * tx + ty * ty) * e_den * e_den
                         <= (e_num * edge) ** 2 * (x * x + y * y) << 2 * (qt - p)):
            return mpmath.mpc(mpmath.mpf((x, -p)), mpmath.mpf((y, -p)))
        x, y = x + (tx >> (qt - p)), y + (ty >> (qt - p))
        gx, gy = edge * (edge + one) - b * b, b * (2 * edge + one)   # (s+2j-1)(s+2j) one^2
        rx, ry, q = rounded(rx * gx - ry * gy, rx * gy + ry * gx, (one * n) ** 2, q)
    raise NumericError(f"remainder above eps after {XI_MAX_ORDER} Bernoulli terms")


def xi_q(s: complex, eps: float = 1e-14) -> complex:
    """Completed zeta xi(s) = pi^(-s/2) Gamma(s/2) zeta(s).

    The gamma factor is exp(-(s/2) log pi + loggamma(s/2)), so the
    e^(-pi |t|/4) size of xi high on the critical line comes from a product
    and nothing cancels.  zeta(s) is the Euler-Maclaurin sum of `_zeta_em`
    with N = ceil(|t|/pi) + XI_EXTRA_TERMS Dirichlet terms, cut where its
    proven remainder is below eps |partial sum|: mpmath gives its p^(-s),
    integers at P >= XI_DPS digits the rest (P and its error: `_zeta_em`).
    Left of sigma = 0 the terms k^(-s) grow like k^|sigma| and cancel down
    to zeta(s), so the working precision gains that many digits.  xi(s) and
    xi(1-s) sum different series, which makes the functional equation a
    check; only left of XI_MIN_SIGMA and at the trivial zeros s = -2, -4,
    ..., where Gamma(s/2) has its poles, is xi(1-s) returned instead.

    Refused: s not finite or near the poles 0, 1, eps not positive and
    finite (InputError), N above XI_TERM_BUDGET (ResourceError), a value
    outside the normal double range, also any right of XI_MAX_SIGMA before
    its work, or a remainder the Bernoulli table cannot bring below eps
    (NumericError).
    """
    import mpmath
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InputError("s must be finite")
    # abs(s) raises past the double range, where no s is near a pole
    if abs(s.imag) < 1e-6 and (abs(s) < 1e-6 or abs(s - 1) < 1e-6):
        raise InputError("evaluation too close to the poles s = 0, 1")
    if not 0 < eps < math.inf:
        raise InputError("eps must be positive and finite")
    trivial = round(s.real / 2)
    if s.real < XI_MIN_SIGMA or (trivial < 0 and abs(s - 2 * trivial) < 1e-6):
        # far left, or where Gamma(s/2) has a pole at a trivial zero of zeta
        return xi_q(1 - s, eps)
    n = math.ceil(abs(s.imag) / math.pi) + XI_EXTRA_TERMS
    if n > XI_TERM_BUDGET:
        raise ResourceError(f"xi at |t| = {abs(s.imag):g} needs {n} Dirichlet "
                            f"terms (budget {XI_TERM_BUDGET})")
    if s.real > XI_MAX_SIGMA:
        raise NumericError(f"|xi({s})| is outside the normal double range")
    dps = XI_DPS + max(0, math.ceil(-s.real * math.log10(n)))
    with mpmath.workdps(dps):
        ms = mpmath.mpc(s)
        gamma_factor = mpmath.exp(-ms / 2 * mpmath.log(mpmath.pi)
                                  + mpmath.loggamma(ms / 2))
        value = complex(gamma_factor * _zeta_em(s, n, eps))
    if not sys.float_info.min <= abs(value) < math.inf:
        raise NumericError(f"|xi({s})| is outside the normal double range")
    return value
