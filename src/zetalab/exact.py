"""Exact rational substrate: dense polynomials and truncated power series.

A coefficient is an `int` when it is integral and a `fractions.Fraction`
otherwise, a form the constructors keep; nothing here ever rounds.  A
polynomial is a dense ascending coefficient tuple with the trailing zeros
stripped, and a truncated power series carries its truncation order as
explicit state (mixing orders takes the minimum).  `Poly` is a ring with
no evaluation and no division: a rational function num/den is never
reduced, only expanded into its power series by `Series.ratio`.  The
series product and inverse and the power sums, which the series log
reads, run one recurrence for both kinds of coefficient, so integral
input stays on Python ints.
`Series.ratio` and `power_sums_from_poly` bring rational input to
integers: the first clears denominators and substitutes t -> d0 t, d0 the
denominator's constant term, and divides coefficient k of the integer
expansion by d0^(k+1) at the end; the second scales the reciprocal roots
by the common denominator D and divides the m-th power sum by D^m.  Those
divisions, one per coefficient as in `Series.log` and `Series.exp`, make
this module's Fractions, with `rat`, `bernoulli_even`, `Series.inverse` of
a constant term other than +-1 and arithmetic on Fraction input.  The one
float helper, `complex_fsum`, rounds once per component.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from zetalab.errors import InputError

RatLike = Union[int, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int/Fraction (or exact decimal string) to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


def complex_fsum(values: Sequence[complex]) -> complex:
    """Sum of complex floats with each component correctly rounded
    (math.fsum over the real parts, then over the imaginary parts)."""
    return complex(math.fsum(v.real for v in values),
                   math.fsum(v.imag for v in values))


def bernoulli_even(m: int) -> tuple[Fraction, ...]:
    """B_0, B_2, ..., B_2m exactly, from sum_{i<=k} C(2k+1, 2i) B_2i = k + 1/2
    for k >= 1: sum_j C(n+1, j) B_j = 0 at n = 2k, B_1 = -1/2, odd B_j>1 = 0."""
    b = [Fraction(1)]
    for k in range(1, m + 1):
        rest = sum(math.comb(2 * k + 1, 2 * i) * b[i] for i in range(k))
        b.append((Fraction(2 * k + 1, 2) - rest) / (2 * k + 1))
    return tuple(b)


def _exact(coeffs: Iterable[RatLike]) -> list[RatLike]:
    """The coefficients with every integral Fraction made an int."""
    return [c if type(c) is int or c.denominator != 1 else c.numerator
            for c in coeffs]


class Poly:
    """Dense univariate polynomial over Q, ascending coefficients, each an
    int when integral and a Fraction otherwise."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = _exact(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[RatLike, ...] = tuple(cs)

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x(power: int = 1, coeff: RatLike = 1) -> "Poly":
        return Poly([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> RatLike:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return Poly(out)

    def scale(self, c: RatLike) -> "Poly":
        return Poly([c * ci for ci in self.coeffs])

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


class Series:
    """Truncated power series: `order` coefficients, order is exclusive;
    each coefficient an int when integral and a Fraction otherwise."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable[RatLike], order: int | None = None):
        cs = _exact(coeffs)
        if order is None:
            order = len(cs)
        if order < 1:
            raise InputError("series order must be >= 1")
        if len(cs) < order:
            cs += [0] * (order - len(cs))
        self.coeffs = tuple(cs[:order])
        self.order = order

    @staticmethod
    def ratio(num: Poly, den: Poly, order: int) -> "Series":
        """Power-series expansion of num/den at t=0 to the given order."""
        if den[0] == 0:
            raise InputError("rational function has a pole at t=0")
        # clear denominators, then substitute t -> d0 t: with N, D integral
        # and d0 = D(0), N(d0 t) and D(d0 t)/d0 are integral, the latter
        # with constant term 1, and their quotient is d0 (num/den)(d0 t).
        # So the integer recurrences give coefficient k times d0^(k+1).
        scale = math.lcm(*(c.denominator for c in num.coeffs + den.coeffs))
        n, d = ([c.numerator * (scale // c.denominator) for c in p.coeffs[:order]]
                for p in (num, den))
        d0 = d[0]
        n = [c * d0 ** k for k, c in enumerate(n)]
        d = [1] + [c * d0 ** (k - 1) for k, c in enumerate(d) if k]
        expanded = Series(n, order) * Series(d, order).inverse()
        return Series([Fraction(c, d0 ** (k + 1))
                       for k, c in enumerate(expanded.coeffs)], order)

    def __getitem__(self, i: int) -> RatLike:
        return self.coeffs[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Series):
            return self.coeffs == other.coeffs and self.order == other.order
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.order))

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * n
        for i in range(n):
            ci = a[i]
            if ci:
                for j in range(n - i):
                    out[i + j] += ci * b[j]
        return Series(out, n)

    def inverse(self) -> "Series":
        """Multiplicative inverse; requires a unit constant term.  It is
        integral when the series is and the constant term is +-1."""
        a = self.coeffs
        if a[0] == 0:
            raise InputError("series inverse needs nonzero constant term")
        n = self.order
        c = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])   # 1/a_0
        inv = [c] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                acc += a[j] * inv[k - j]
            inv[k] = -acc * c
        return Series(inv, n)

    def log(self) -> "Series":
        """log of a series with constant term 1.

        Below the order the series agrees with its truncation to a
        polynomial prod_i (1 - w_i t), whose log is -sum_k p_k t^k / k, p_k
        the power sums of the w_i: `power_sums_from_poly`'s Newton identity.
        """
        if self.coeffs[0] != 1:
            raise InputError("series log needs constant term 1")
        psums = power_sums_from_poly(Poly(self.coeffs), self.order - 1)
        return Series([0] + [-Fraction(p, k) for k, p in enumerate(psums, start=1)],
                      self.order)

    def exp(self) -> "Series":
        """exp of a series with constant term 0."""
        if self.coeffs[0] != 0:
            raise InputError("series exp needs zero constant term")
        n = self.order
        ex = [1] + [0] * (n - 1)
        for k in range(1, n):
            acc = 0
            for j in range(1, k + 1):
                acc += j * self.coeffs[j] * ex[k - j]
            ex[k] = Fraction(acc, k)
        return Series(ex, n)

    def __repr__(self) -> str:
        return f"Series({[str(c) for c in self.coeffs]}, order={self.order})"


def power_sums_from_poly(p: Poly, m_max: int) -> list[RatLike]:
    """Power sums of the reciprocal roots of p, for m = 1..m_max.

    p must be normalized with p(0) = 1, i.e. p(t) = prod_i (1 - w_i t);
    returns [sum_i w_i^m for m in 1..m_max] without any root extraction.
    With D the lcm of the coefficients' denominators, the D w_i are the
    reciprocal roots of p(t/D), whose coefficients b_j = D^j a_j are
    integers; Newton's identity P_m = -m*b_m - sum_{j=1}^{min(m-1, d)}
    b_j*P_(m-j), with b_m = 0 beyond the degree d, gives their power sums
    P_m = D^m p_m in O(m_max * d) integer operations.
    """
    if p[0] != 1:
        raise InputError("power sums require p(0) = 1")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    b = [c.numerator * (den // c.denominator) * den ** (j - 1) if j else 1
         for j, c in enumerate(p.coeffs)]
    d = p.degree
    ps = [0] * (m_max + 1)
    for m in range(1, m_max + 1):
        acc = -m * b[m] if m <= d else 0
        for j in range(1, min(m - 1, d) + 1):
            acc -= b[j] * ps[m - j]
        ps[m] = acc
    return _exact(Fraction(v, den ** m) for m, v in enumerate(ps) if m)


def fe_transform_check(p: Poly, q: int, rg: int) -> bool:
    """True iff p(t) = q^rg * t^(2rg) * p(1/(qt)) as an exact identity.

    Coefficientwise this is a(2rg-i) = a(i) * q^(rg-i) for 0 <= i <= rg,
    with coefficients beyond deg p read as zero.
    """
    if p.degree > 2 * rg:
        raise InputError("degree exceeds 2*rg")
    for i in range(rg + 1):
        if p[2 * rg - i] != p[i] * q ** (rg - i):
            return False
    return True
