"""Rational functions and power-sum expansions over Q, kept as test oracles.

The library expands every zeta function straight into a power series
(`Series.ratio`).  `RatFunc` reduces num/den by a Euclid gcd and keeps the
denominator monic, so tests can compare rational functions, evaluate them
and sum them independently of that expansion; `longdiv_series` expands
num/den by explicit long division.  `series_exp_from_power_sums` builds a
zeta series from point counts, and `poly_from_power_sums` inverts
`exact.power_sums_from_poly`, both through `Series.exp`.
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
        if den.is_zero():
            raise InputError("rational function with zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num // g
            den = den // g
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
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
        if other.num.is_zero():
            raise InputError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def scale(self, c: RatLike) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den)

    def __call__(self, x: RatLike) -> Fraction:
        x = rat(x)
        d = self.den(x)
        if d == 0:
            raise InputError(f"pole of rational function at {x}")
        return self.num(x) / d

    def series(self, order: int) -> Series:
        """Power-series expansion at t=0 to the given truncation order."""
        d0 = self.den[0]
        if d0 == 0:
            raise InputError("rational function has a pole at t=0")
        # a unit constant term keeps an integral pair, such as a Weil
        # numerator over (1-t)(1-qt), on the integer recurrences
        num, den = self.num.scale(1 / d0), self.den.scale(1 / d0)
        return Series.from_poly(num, order) * Series.from_poly(den, order).inverse()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"
