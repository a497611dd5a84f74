"""Rational functions and power-sum expansions over Q, kept as test oracles.

The library expands every zeta function straight into a power series
(`Series.ratio`), and its `Poly` has no evaluation and no division
(`poly_eval` is Horner's rule here).  `poly_divmod` and
`poly_gcd` are Euclid's algorithm over Q.  `RatFunc` reduces num/den by
that gcd and keeps the denominator monic, so tests can compare rational
functions, evaluate them and sum them independently of that expansion;
`longdiv_series` expands num/den by explicit long division.
`series_exp_from_power_sums` builds a zeta series from point counts, and
`poly_from_power_sums` inverts `exact.power_sums_from_poly`, both through
`Series.exp`.  `zseries` expands an elliptic curve's Artin zeta and
`decimate` keeps every n-th coefficient of a series, the pieces of the
log-series reciprocity oracle in tests/test_artin.py.
"""

from fractions import Fraction
from typing import Sequence

from zetalab.errors import InputError
from zetalab.exact import Poly, RatLike, Series, rat


def series_exp_from_power_sums(counts: Sequence[RatLike], order: int) -> Series:
    """exp(sum_{m=1}^{order-1} counts[m-1] * t^m / m), truncated to `order`.

    This is the generating identity turning point counts into a zeta
    series; the constant term is always 1.
    """
    if order < 1:
        raise InputError("order must be >= 1")
    if len(counts) < order - 1:
        raise InputError(
            f"need at least {order - 1} power sums, got {len(counts)}")
    lg = [Fraction(0)] * order
    for m in range(1, order):
        lg[m] = rat(counts[m - 1]) / m
    return Series(lg, order).exp()


def poly_from_power_sums(psums: Sequence[RatLike], degree: int) -> Poly:
    """Inverse of power_sums_from_poly: the unique p with p(0)=1, deg <= degree.

    Needs power sums for m = 1..degree.
    """
    if len(psums) < degree:
        raise InputError(f"need {degree} power sums, got {len(psums)}")
    return Poly(series_exp_from_power_sums([-c for c in psums[:degree]], degree + 1).coeffs)


def zseries(zc, order: int) -> Series:
    """Z(t) = P(t)/((1-t)(1-qt)) of a `ZetaCurve` to the given order."""
    return Series.ratio(zc.P, Poly([1, -1]) * Poly([1, -zc.q]), order)


def decimate(s: Series, n: int) -> Series:
    """Keep every n-th coefficient: result[k] = s[n*k]; order = ceil(order/n)."""
    if n < 1:
        raise InputError("decimation step must be >= 1")
    out = [s.coeffs[i] for i in range(0, s.order, n)]
    return Series(out, len(out))


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by b != 0: a = q b + r, deg r < deg b."""
    if not b.coeffs:
        raise InputError("polynomial division by zero")
    num = list(a.coeffs)
    d = b.degree
    lead = b.coeffs[-1]
    if len(num) <= d:
        return Poly(), a
    quot = [Fraction(0)] * (len(num) - d)
    for i in range(len(num) - d - 1, -1, -1):
        c = Fraction(num[i + d]) / lead
        quot[i] = c
        if c:
            for j, bc in enumerate(b.coeffs):
                num[i + j] -= c * bc
    return Poly(quot), Poly(num[:d])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b (the zero polynomial if both are zero)."""
    while b.coeffs:
        a, b = b, poly_divmod(a, b)[1]
    if not a.coeffs:
        return a
    return a.scale(Fraction(1) / a.coeffs[-1])


def poly_eval(p: Poly, x: RatLike) -> RatLike:
    """p(x) by Horner's rule (the library's `Poly` has no evaluation)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def poly_derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def longdiv_series(num, den, order):
    """Independent oracle: power series of num/den by explicit long division."""
    out = []
    rem = list(num) + [Fraction(0)] * order
    d0 = den[0]
    for k in range(order):
        c = Fraction(rem[k], 1) / d0
        out.append(c)
        for j, dj in enumerate(den):
            if k + j < len(rem):
                rem[k + j] -= c * dj
    return out


class RatFunc:
    """Rational function num/den, den monic and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den.coeffs:
            raise InputError("rational function with zero denominator")
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = poly_divmod(num, g)[0]
            den = poly_divmod(den, g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(Fraction(1) / lead)
            den = den.scale(Fraction(1) / lead)
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc(p, Poly.one())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other.num.coeffs:
            raise InputError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: RatLike) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den)

    def __call__(self, x: RatLike) -> Fraction:
        x = rat(x)
        d = poly_eval(self.den, x)
        if d == 0:
            raise InputError(f"pole of rational function at {x}")
        return poly_eval(self.num, x) / d

    def series(self, order: int) -> Series:
        """Power-series expansion at t=0 to the given truncation order."""
        d0 = self.den[0]
        if d0 == 0:
            raise InputError("rational function has a pole at t=0")
        # a unit constant term keeps an integral pair, such as a Weil
        # numerator over (1-t)(1-qt), on the integer recurrences
        num, den = self.num.scale(Fraction(1) / d0), self.den.scale(Fraction(1) / d0)
        return Series(num.coeffs, order) * Series(den.coeffs, order).inverse()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
