"""Rank-r zeta functions built from semistable-bundle masses.

For an elliptic curve the zeta function of rank r is assembled in closed
form: Z(t) = gamma_r(0) + sum_{d >= 1} (q^d - 1) beta_r(d) t^d, with the
beta values period-r in d, so each residue class contributes a geometric
series and Z is an exact rational function with denominator
(1 - t^r)(1 - q^r t^r).  The paper's "ugly" piecewise coefficient
formula for genus >= 2 and its roots-of-unity product law are identities
about these objects that no command evaluates; tests/test_nazeta.py
checks both.

The module also carries the all-rank-2-bundles decomposition (what the
zeta function would pick up from unstable bundles), partial global Euler
products over good primes, whose rank-2 factors are integer polynomials in
p and a_p (`ffield.ap_fast`, called only where a factor uses it), and the
formal match with a genus-two spinor factor under a specific substitution.
`RankZeta` alone decides the degree and the functional equation; the only
floats, `reciprocal_roots`, come from Durand-Kerner iteration on the
normalized numerator, so the module imports no numeric library.

A numerator is an integer polynomial over one denominator, from
`na_numerator` on the `bundles` mass pairs or, at rank 2, from
`rank2_local_numerator`; `RankZeta`'s P and P/P(0) are the only Fractions
of a zeta, one per coefficient, as the all-bundles direct sums are.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from zetalab.bundles import Convention, CurveData, NumDen, invariant
from zetalab.errors import (ENUMERATION_BUDGET, CapabilityError, InputError, NumericError,
                            ResourceError)
from zetalab.exact import (
    Poly,
    RatLike,
    Series,
    complex_fsum,
    fe_transform_check,
    power_sums_from_poly,
)
from zetalab.ffield import ap_fast, prime_factors, primes_up_to


@dataclass(frozen=True)
class RankZeta:
    """A rank-r zeta function Z = P/((1-t^r)(1-q^r t^r)) of an elliptic
    curve over F_q; P = num/den with `num` an integer polynomial of degree
    2r, checked on integers, and P and P/P(0) are built once with the datum."""

    r: int
    q: int
    num: Poly
    den: int
    P: Poly = field(init=False, repr=False, compare=False)
    normalized_numerator: Poly = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num[0] == 0:
            raise InputError("numerator constant term gamma(0) must be nonzero")
        if self.num.degree != 2 * self.r:
            raise InputError(
                f"numerator degree {self.num.degree} != 2r = {2 * self.r}")
        if not fe_transform_check(self.num, self.q, self.r):
            raise InputError("numerator violates the functional equation")
        object.__setattr__(self, "P", Poly(Fraction(c, self.den) for c in self.num.coeffs))
        object.__setattr__(self, "normalized_numerator",
                           Poly(Fraction(c, self.num[0]) for c in self.num.coeffs))

    @property
    def denominator(self) -> Poly:
        r, q = self.r, self.q
        one_minus_tr = Poly([1] + [0] * (r - 1) + [-1])
        one_minus_qtr = Poly([1] + [0] * (r - 1) + [-(q ** r)])
        return one_minus_tr * one_minus_qtr


def na_numerator(q: int, r: int, gamma0: NumDen,
                 betas: Sequence[NumDen]) -> tuple[Poly, int]:
    """Numerator coefficients n_0..n_2r of a genus-1 rank-r zeta, as an
    integer polynomial over the lcm of the masses' denominators.

    Z(t) = sum_d c_d t^d, c_0 = gamma0, c_d = (q^d - 1) beta_(d mod r);
    times (1 - t^r)(1 - q^r t^r) this is n_k = c_k - (1 + q^r) c_(k-r) +
    q^r c_(k-2r), which vanishes for k > 2r as beta is period-r.
    """
    den = math.lcm(*(d for _, d in (gamma0, *betas)))
    g, *b = (n * (den // d) for n, d in (gamma0, *betas))
    qr = q ** r
    c = [g] + [(q ** d - 1) * b[d % r] for d in range(1, 2 * r + 1)]
    n = c[:]
    for k in range(r, 2 * r + 1):
        n[k] -= (1 + qr) * c[k - r]
    n[2 * r] += qr * c[0]
    return Poly(n), den


def ell_na_zeta(curve: CurveData, r: int, conv: Convention) -> RankZeta:
    """The rank-r zeta function of an elliptic curve in closed form.

    The numerator comes from `na_numerator` on the curve's gamma_r(0) and
    beta_r(0..r-1) masses, at rank 2 from gamma_2(0) = N_1/(q-1) times
    `rank2_local_numerator`; rank 1 recovers the curve's zeta function.
    """
    if r not in (1, 2, 3):
        raise CapabilityError("rank must be 1, 2 or 3")
    q, n1 = curve.q, curve.n1
    if r == 2:
        factor = rank2_local_numerator(q, q + 1 - n1, conv)
        return RankZeta(2, q, Poly([n1 * c for c in factor]), q - 1)
    gamma0 = invariant("gamma", r, 0, curve, conv)
    betas = [invariant("beta", r, j, curve, conv) for j in range(r)]
    return RankZeta(r, q, *na_numerator(q, r, gamma0, betas))


# ---------------------------------------------------------------------------
# root pairing and counts

# Durand-Kerner stops once every correction is below DK_TOL relative to
# its root, then makes DK_POLISH more sweeps; from there a sweep squares the
# error, so the polish leaves the roots at the rounding floor
DK_MAX_SWEEPS = 500
DK_TOL = 1e-10
DK_POLISH = 3


def _durand_kerner(coeffs: Sequence[float]) -> list[complex]:
    """Every root of the float polynomial with ascending `coeffs`, which
    must have simple roots and a nonzero constant term.

    Weierstrass (Durand-Kerner) iteration from a circle of the roots'
    geometric-mean radius, updating in place; a polynomial that has not
    converged within DK_MAX_SWEEPS sweeps raises NumericError.

    Every normalized numerator a command builds has simple roots.  At rank
    1, 1 - at + qt^2 has a double root only if a^2 = 4q, which no prime q
    allows.  At ranks 2 and 3 an exhaustive check found no repeated root
    for any prime q with q^2 <= ENUMERATION_BUDGET (q <= 3137), every
    a^2 <= 4q and every admissible n1, in both conventions
    (tests/test_nazeta.py repeats it for q <= 100).  `check_simple_roots`
    refuses larger q; raising that bound must extend the check.  A double
    root converges only linearly, to errors of 1e-9 to 1e-6 in spot
    checks, and a fourfold root does not converge within DK_MAX_SWEEPS.
    """
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in reversed(coeffs)]
    radius = abs(monic[-1]) ** (1 / n)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]

    def sweep() -> bool:
        """Update every root once; True if every step was below DK_TOL."""
        small = True
        for i, zi in enumerate(z):
            value = 0j
            for c in monic:
                value = value * zi + c
            spread = 1
            for j, zj in enumerate(z):
                if j != i:
                    spread *= zi - zj
            if spread == 0:
                raise NumericError("Durand-Kerner iterates collided")
            step = value / spread
            z[i] = zi - step
            small = small and abs(step) <= DK_TOL * abs(z[i])
        return small

    for _ in range(DK_MAX_SWEEPS):
        if sweep():
            for _ in range(DK_POLISH):
                sweep()
            return z
    raise NumericError(f"Durand-Kerner did not converge in {DK_MAX_SWEEPS} sweeps")


def check_simple_roots(q: int, r: int) -> None:
    """Refuse (ResourceError), before the walk over F_q, a rank-2 or rank-3
    zeta past the q its numerators' roots were checked simple for."""
    if r in (2, 3) and q * q > ENUMERATION_BUDGET:
        raise ResourceError(f"q = {q} is past q^2 <= {ENUMERATION_BUDGET}, where the "
                            "numerators of ranks 2 and 3 were checked to have simple roots")


def reciprocal_roots(z: RankZeta) -> list[complex]:
    """Float reciprocal roots w of P/P(0) = prod (1 - w t), by Durand-Kerner."""
    return [1 / r_ for r_ in
            _durand_kerner([float(c) for c in z.normalized_numerator.coeffs])]


def root_pairing_residual(q: int, omegas: Sequence[complex]) -> float:
    """Float spot-check of the root pairing w * w' = q on the reciprocal
    roots `omegas`: the largest gap between q/w and the nearest w' not yet
    matched.  It holds exactly, as `RankZeta`'s functional equation."""
    residual = 0.0
    targets = list(omegas)
    for w in omegas:
        want = q / w
        best = min(targets, key=lambda t: abs(t - want))
        residual = max(residual, abs(best - want))
        targets.remove(best)
    return residual


def na_counts(z: RankZeta, m_max: int) -> list[Fraction]:
    """The rational counts [N(1), ..., N(m_max)]: N(m) = r(1 + q^m) - p_m
    when r | m, else -p_m.

    p_m are exact power sums of the normalized numerator's reciprocal
    roots, from Newton's identities.  These are m * [log(Z / P(0))]_m term
    by term: the numerator gives -p_m and each factor of (1-t^r)(1-q^r t^r)
    gives r or r q^m when r | m (checked in tests/test_nazeta.py).
    """
    if m_max < 0:
        raise InputError("m_max must be >= 0")
    psums = power_sums_from_poly(z.normalized_numerator, m_max)
    return [Fraction((z.r * (1 + z.q ** m) if m % z.r == 0 else 0) - p_m)
            for m, p_m in enumerate(psums, start=1)]


def na_counts_log10_bound(z: RankZeta, m_max: int, omegas: Sequence[complex]) -> float:
    """log10 of a bound on the numerator and denominator of every N(m),
    m <= m_max: with D the lcm of P/P(0)'s denominators, each D w is an
    algebraic integer, so N(m) D^m is an integer, and |N(m)| <= 4r max(q, R)^m
    for R = max |w| over `omegas`, widened by 1e-6 for the float roots."""
    a = z.normalized_numerator.coeffs
    den = math.lcm(*(c.denominator for c in a))
    root = max(map(abs, omegas)) * (1 + 1e-6)
    return m_max * math.log10(max(z.q, root) * den) + math.log10(4 * z.r)


# ---------------------------------------------------------------------------
# the all-bundles decomposition for rank 2

@dataclass(frozen=True)
class SeriesComparison:
    """Coefficients of one decomposition piece, closed form vs direct sums."""

    name: str
    closed: tuple[RatLike, ...]
    direct: tuple[Fraction, ...]

    @property
    def agree(self) -> bool:
        return self.closed == self.direct


@dataclass(frozen=True)
class AllBundlesReport:
    q: int
    n1: int
    degree_zero_closed: Fraction
    degree_zero_direct: Fraction
    positive: tuple[SeriesComparison, ...]
    negative: SeriesComparison

    @property
    def all_agree(self) -> bool:
        return (self.degree_zero_closed == self.degree_zero_direct
                and all(p.agree for p in self.positive)
                and self.negative.agree)


def allbundles_rank2(curve: CurveData, order: int) -> AllBundlesReport:
    """Unstable rank-2 contributions: closed forms against direct sums.

    Every unstable rank-2 bundle splits as L_1 + L_2 with d_1 > d_2 and
    #Aut = (q-1)^2 q^(d_1-d_2).  The degree-0, positive-degree (four
    cases by h^0) and negative-degree contributions are evaluated both
    from the printed closed forms, expanded by `Series.ratio`, and by
    direct enumeration over split pairs, with the infinite inner sums
    closed exactly as geometric series, so agreement is exact coefficient
    by coefficient.  Each direct value is one Fraction of an integer
    numerator, over q^(2T-d) (q-1)^2 (q^2-1) for a sum enumerated up to T.
    """
    if order > 40:
        raise ResourceError("order capped at 40")
    q, n1 = curve.q, curve.n1
    # mass_unit n1^2/(q-1)^2, over the (q^2-1) a closed geometric tail needs
    den_unit = (q - 1) ** 2 * (q * q - 1)

    # degree zero: mass_unit sum_{d >= 1} (q^d - 1)/q^(2d), closed and
    # re-derived as mass_unit (1/(q-1) - 1/(q^2-1))
    closed_eq0 = Fraction(q * n1 * n1, (q * q - 1) * (q - 1) ** 2)
    direct_eq0 = Fraction(n1 * n1 * ((q * q - 1) - (q - 1)), (q - 1) * den_unit)

    q_minus_t = Poly([q, -1])
    one_minus_t = Poly([1, -1])
    one_minus_t2 = Poly([1, 0, -1])
    one_minus_q2t2 = Poly([1, 0, -q * q])

    # each closed form is a (numerator, denominator) pair
    # (i): d_1 > d_2 > 0, h^0 = d
    closed_i = (Poly([0, 0, 0, n1 * n1]) * Poly([q * q + q + 1, q * q]),
                Poly([q - 1]) * one_minus_t2 * one_minus_q2t2 * q_minus_t)
    # (ii.a): d_2 = 0, L_2 trivial, h^0 = d + 1
    closed_iia = (Poly([0, n1]) * Poly([q + 1, -1]),
                  Poly([q - 1]) * q_minus_t * one_minus_t)
    # (ii.b): d_2 = 0, L_2 nontrivial, h^0 = d
    closed_iib = (Poly([0, n1 * (n1 - 1)]),
                  Poly([q - 1]) * q_minus_t * one_minus_t)
    # (iii): d_2 < 0 < d_1, h^0 = d_1
    closed_iii = (Poly([0, n1 * n1]) * Poly([q * q + q - 1, -q]),
                  Poly([(q - 1) ** 2 * (q * q - 1)]) * one_minus_t * q_minus_t)

    def coeffs(f: tuple[Poly, Poly]) -> tuple[RatLike, ...]:
        return Series.ratio(*f, order + 1).coeffs[1:]

    def direct_i(d: int) -> Fraction:
        # sum_{d/2 < d_1 < d} mass_unit (q^d - 1)/q^(2 d_1 - d), over (q-1)^2 q^d
        total = sum(q ** (2 * (d - d1)) for d1 in range(d // 2 + 1, d))
        return Fraction(n1 * n1 * (q ** d - 1) * total, (q - 1) ** 2 * q ** d)

    def direct_iia(d: int) -> Fraction:
        return Fraction(n1 * (q ** (d + 1) - 1), (q - 1) ** 2 * q ** d)

    def direct_iib(d: int) -> Fraction:
        return Fraction(n1 * (n1 - 1) * (q ** d - 1), (q - 1) ** 2 * q ** d)

    def split_tail(lo: int, d: int) -> Fraction:
        # sum_{d_1 >= lo} mass_unit (q^d_1 - 1)/q^(2 d_1 - d), one integer
        # over den_unit q^(2T-d), T = lo + order: `order` terms, then the
        # geometric rest q^(T+1)/(q-1) - q^2/(q^2-1) closed exactly
        top = lo + order
        total = sum((q ** d1 - 1) * q ** (2 * (top - d1)) for d1 in range(lo, top))
        rest = q ** (top + 1) * (q + 1) - q * q
        return Fraction(n1 * n1 * ((q * q - 1) * total + rest),
                        den_unit * q ** (2 * top - d))

    positive = tuple(
        SeriesComparison(name, coeffs(closed),
                         tuple(direct(d) for d in range(1, order + 1)))
        for name, closed, direct in (
            ("split d1>d2>0", closed_i, direct_i),
            ("d2=0 trivial", closed_iia, direct_iia),
            ("d2=0 nontrivial", closed_iib, direct_iib),
            ("d2<0<d1", closed_iii, lambda d: split_tail(d + 1, d)),
        ))

    # negative degree: coefficient of t^d, d = -1..-order; the closed form
    # is (n1^2 q/((q-1)^2 (q^2-1)) + n1/(q-1)) / q^-d, the direct sum
    # n1 (q-1)/((q-1)^2 q^-d) plus the split pairs with d_1 >= 1
    neg_unit = n1 * n1 * q + n1 * (q - 1) * (q * q - 1)
    negative = SeriesComparison(
        "negative degree",
        tuple(Fraction(neg_unit, den_unit * q ** k) for k in range(1, order + 1)),
        tuple(Fraction(n1, (q - 1) * q ** k) + split_tail(1, -k)
              for k in range(1, order + 1)))

    return AllBundlesReport(q, n1, closed_eq0, direct_eq0,
                            positive, negative)


# ---------------------------------------------------------------------------
# global Euler products

@dataclass(frozen=True)
class GlobalCurve:
    """y^2 = x^3 + Ax + B over the rationals, with its bad-prime set."""

    A: int
    B: int

    def __post_init__(self):
        if 4 * self.A ** 3 + 27 * self.B ** 2 == 0:
            raise InputError("singular model: 4A^3 + 27B^2 = 0")

    @property
    def bad_primes(self) -> tuple[int, ...]:
        return prime_factors(abs(6 * (4 * self.A ** 3 + 27 * self.B ** 2)))


def rank2_local_numerator(p: int, ap: int | None, conv: Convention) -> tuple[int, ...]:
    """1 + (p-1)t + c_2 t^2 + (p^2-p)t^3 + p^2 t^4, the rank-2 numerator at
    a good prime p divided by gamma_2(0) = N_1/(p-1): `ell_na_zeta`'s rank-2
    numerator over it, and `global_na_zeta_partial`'s rank-2 Euler factor."""
    c2 = 2 * p - 4 if conv is Convention.PAPER_SPLIT else p - 1 - ap
    return (1, p - 1, c2, p * p - p, p * p)


@dataclass(frozen=True)
class EulerReport:
    value: complex
    log_value: complex
    s: complex
    prime_bound: int
    factors_used: int
    bad_primes_skipped: tuple[int, ...]
    tail_bound: float


def global_na_zeta_partial(curve: GlobalCurve, r: int, s: complex,
                           prime_bound: int, conv: Convention) -> EulerReport:
    """Partial Euler product over good primes p <= prime_bound.

    Enforces the printed convergence region Re(s) > 1 + g + (r^2 - r)(g - 1),
    which at genus 1 reads Re(s) > 2 for every rank and is tested as that,
    after refusing a non-finite s (NaN would pass every comparison), and an
    s whose angle t log p at the largest prime overflows.  A
    rank-2 factor has c_2 = p - 1 - a_p under GALOIS_DESCENT
    (beta_2(0)/beta_1(0) = (p^2+p-a_p)/(p^2-1)) and c_2 = 2p - 4 under
    PAPER_SPLIT, so rank 1 and rank-2 GALOIS_DESCENT cost one `ap_fast` per
    factor and rank-2 PAPER_SPLIT costs none.  The logs are summed in ascending-prime order.
    The work is pure Python and runs serially: a thread pool would only
    contend for the interpreter lock.
    """
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise InputError("s must be finite")
    if r not in (1, 2):
        raise CapabilityError("global products implemented for rank 1 and 2")
    if s.real <= 2:
        raise InputError("Re(s) must exceed 2 (printed region)")
    if prime_bound < 1:
        raise InputError("prime bound must be >= 1")
    if prime_bound > 10 ** 5:
        raise ResourceError("prime bound capped at 10^5")

    bad_primes = curve.bad_primes
    primes = [p for p in primes_up_to(prime_bound) if p > 3 and p not in bad_primes]
    # p^(-s) turns by the angle t log p, which has no cosine once it overflows
    if primes and math.isinf(s.imag * math.log(primes[-1])):
        raise InputError(f"|Im(s)| log p overflows a double at p = {primes[-1]}")

    logs: list[complex] = []
    for p in primes:
        x = complex(p) ** (-s)
        if r == 1:
            local = 1 - ap_fast(p, curve.A, curve.B) * x + p * x * x
        else:
            ap = None if conv is Convention.PAPER_SPLIT else ap_fast(p, curve.A, curve.B)
            coeffs = rank2_local_numerator(p, ap, conv)
            local = sum(float(c) * x ** i for i, c in enumerate(coeffs))
        logs.append(-cmath.log(local))
    total = complex_fsum(logs)
    tail = 8.0 * prime_bound ** (2 - s.real) / (s.real - 2)
    return EulerReport(cmath.exp(total), total, s, prime_bound, len(primes),
                       bad_primes, tail)


# ---------------------------------------------------------------------------
# the spinor-factor formal match

def andrianov_formal_match() -> bool:
    """Symbolic identity (in p and t) between the weight-2 spinor local
    factor at lambda(p) = 1 - p, lambda(p^2) = p^2 - 4p + 4 and the rank-2
    numerator 1 + (p-1)t + (2p-4)t^2 + (p^2-p)t^3 + p^2 t^4.

    The t-coefficients are exact polynomials in p.
    """
    p = Poly.x(1)   # the indeterminate p
    one = Poly.one()
    lam_p = one - p
    lam_p2 = p * p - p.scale(4) + one.scale(4)
    k = 2
    p_pow = {0: one, 1: p, 2: p * p}
    spinor = [
        one,
        -lam_p,
        lam_p * lam_p - lam_p2 - p_pow[2 * k - 4],
        -lam_p * p_pow[2 * k - 3],
        p_pow[4 * k - 6],
    ]
    rank2 = [one, p - one, p.scale(2) - one.scale(4), p * p - p, p * p]
    return spinor == rank2
