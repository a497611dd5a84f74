"""Artin zeta functions of curves over finite fields.

A `ZetaCurve` packages (q, g, P) with Z(t) = P(t)/((1-t)(1-qt)).  All
identity-level operations (functional equation, base extension, the
roots-of-unity reciprocity law, point-count recovery) run through exact
power sums of the numerator's reciprocal roots; no root is ever
extracted: the Riemann-hypothesis check counts the real roots of the
real Weil polynomial with Sturm sequences over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from zetalab.errors import InputError
from zetalab.exact import (
    Poly,
    Series,
    decimate,
    fe_transform_check,
    poly_from_power_sums,
    power_sums_from_poly,
    rat,
)


@dataclass(frozen=True)
class ZetaCurve:
    """Zeta datum of a curve: base size q, genus g, numerator polynomial."""

    q: int
    g: int
    P: Poly = field(default_factory=Poly.one)

    def __post_init__(self):
        if self.q < 2:
            raise InputError("q must be a prime power >= 2")
        if self.g < 0:
            raise InputError("genus must be >= 0")
        if self.P[0] != 1:
            raise InputError("numerator must have constant term 1")
        if self.P.degree != 2 * self.g:
            raise InputError(f"numerator degree must be 2g = {2 * self.g}")
        for c in self.P.coeffs:
            if c.denominator != 1:
                raise InputError("numerator coefficients must be integers")
        if not fe_transform_check(self.P, self.q, self.g):
            raise InputError("numerator violates the functional equation")
        if self.g == 1:
            a = -int(self.P[1])
            if a * a > 4 * self.q:
                raise InputError("counts violate the Hasse bound")

    def zseries(self, order: int) -> Series:
        return Series.ratio(self.P, Poly([1, -1]) * Poly([1, -self.q]), order)

    def power_sums(self, m_max: int) -> list[Fraction]:
        return power_sums_from_poly(self.P, m_max)


def elliptic_zeta(q: int, n1: int) -> ZetaCurve:
    """Genus-1 shortcut: P = 1 - a t + q t^2 with a = q + 1 - N_1.

    The datum's own checks refuse an N_1 outside the Hasse range, with the
    message the counts route (the oracle `artin_zeta_from_counts` in
    tests/test_artin.py) gives.
    """
    return ZetaCurve(q, 1, Poly([1, n1 - q - 1, q]))


def nm(zc: ZetaCurve, m: int) -> int:
    """N_m = q^m + 1 - (sum of m-th powers of reciprocal roots)."""
    if m < 1:
        raise InputError("m must be >= 1")
    p_m = zc.power_sums(m)[m - 1]
    val = rat(zc.q) ** m + 1 - p_m
    if val.denominator != 1 or val < 0:
        raise InputError(f"invalid zeta datum: N_{m} = {val}")
    return int(val)


def base_extend(zc: ZetaCurve, n: int) -> ZetaCurve:
    """The zeta datum over F_{q^n}: reciprocal roots taken to the n-th power."""
    if n < 1:
        raise InputError("n must be >= 1")
    psums = zc.power_sums(2 * zc.g * n)
    extended = [psums[n * k - 1] for k in range(1, 2 * zc.g + 1)]
    return ZetaCurve(zc.q ** n, zc.g, poly_from_power_sums(extended, 2 * zc.g))


def reciprocity_check(zc: ZetaCurve, n: int, order: int) -> bool:
    """Roots-of-unity product law, checked through log-series decimation.

    The product of Z over the n-th root-of-unity twists has logarithm
    n * (every n-th coefficient of log Z), so the law holds iff that
    decimation matches log of the base-extended Z.  Exact, and no root of
    unity is ever materialized.
    """
    if n < 1 or order < 1:
        raise InputError("n and order must be >= 1")
    big = zc.zseries(order * n + 1).log()
    left = decimate(big, n).scale(n)          # coefficient k is n*N_{nk}/(nk)
    right = base_extend(zc, n).zseries(order + 1).log()
    common = min(left.order, right.order)
    return left.truncate(common) == right.truncate(common)


def _sign_changes(values: Sequence[Fraction]) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _real_roots_above(p: Poly, lo: Fraction | None) -> int:
    """Distinct real roots of p in (lo, +infinity), lo = None meaning
    -infinity, by Sturm's theorem; lo must not be a root of p."""
    if p.degree < 1:
        return 0
    seq = [p, p.derivative()]
    while seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    seq = [f for f in seq if not f.is_zero()]
    top = _sign_changes([f.coeffs[-1] for f in seq])
    if lo is None:
        return _sign_changes([f.coeffs[-1] * (-1) ** f.degree for f in seq]) - top
    return _sign_changes([f(lo) for f in seq]) - top


def rh_check(zc: ZetaCurve) -> bool:
    """Riemann hypothesis for the curve: all reciprocal roots have |w|^2 = q.

    Genus 1 is decided by the integer inequality (q+1-N_1)^2 <= 4q.  Higher
    genus is decided exactly on the real Weil polynomial h of degree g,
    x^g h(x + q/x) = x^2g P(1/x): the w are the roots of w^2 - y w + q for
    the roots y of h, so RH holds iff every y is real with y^2 <= 4q
    (Kedlaya, "Search techniques for root-unitary polynomials", 2008).
    Sturm counts over Q decide both: the roots y = +-2 sqrt(q) are divided
    out by a gcd with y^2 - 4q, and no remaining root may have its square
    above 4q, which is a root count of h(y) h(-y) = k(y^2) above the
    rational point 4q.
    """
    if zc.g == 1:
        a = -int(zc.P[1])
        return a * a <= 4 * zc.q
    q, y = zc.q, Poly.x()
    # x^k + (q/x)^k as a polynomial in y = x + q/x
    dickson = [Poly([2]), y]
    for _ in range(zc.g - 1):
        dickson.append(y * dickson[-1] - dickson[-2].scale(q))
    h = Poly([zc.P[zc.g]])
    for k in range(1, zc.g + 1):
        h = h + dickson[k].scale(zc.P[zc.g - k])
    squarefree = h // h.gcd(h.derivative())
    inner = squarefree // squarefree.gcd(Poly([-4 * q, 0, 1]))
    even = inner * Poly([c if i % 2 == 0 else -c for i, c in enumerate(inner.coeffs)])
    k_poly = Poly(even.coeffs[::2])
    return (_real_roots_above(inner, None) == inner.degree
            and _real_roots_above(k_poly, Fraction(4 * q)) == 0)


def fe_check_zeta(zc: ZetaCurve) -> bool:
    """Functional-equation check in the zeta normalization (N(K) = q^(2g-2))."""
    return fe_transform_check(zc.P, zc.q, zc.g)
