"""Artin zeta functions of elliptic curves over finite fields.

A `ZetaCurve` is the zeta datum of an elliptic curve over F_q: the base
size q and the trace of Frobenius a, with Z(t) = P(t)/((1-t)(1-qt)) and
P(t) = 1 - a t + q t^2.  So the numerator always has integer
coefficients, degree 2 and the functional equation; the one condition
left is Hasse's a^2 <= 4q, which is also the Riemann hypothesis, and the
constructor alone decides it: no built datum needs either identity
re-checked.  Point counts, base extension and the roots-of-unity
reciprocity law run through exact power sums of the numerator's
reciprocal roots; no root is ever extracted.
"""

from __future__ import annotations

from dataclasses import dataclass

from zetalab.errors import InputError
from zetalab.exact import Poly


@dataclass(frozen=True)
class ZetaCurve:
    """Zeta datum of an elliptic curve: base size q, trace of Frobenius a."""

    q: int
    a: int

    def __post_init__(self):
        if self.q < 2:
            raise InputError("q must be a prime power >= 2")
        if not rh_check(self):
            raise InputError("counts violate the Hasse bound")

    @property
    def P(self) -> Poly:
        return Poly([1, -self.a, self.q])

    def power_sums(self, m_max: int) -> list[int]:
        """p_1, ..., p_m_max of the two reciprocal roots: with p_0 = 2 and
        p_1 = a, Newton's identity for P is p_m = a p_(m-1) - q p_(m-2)."""
        ps = [2, self.a]
        while len(ps) <= m_max:
            ps.append(self.a * ps[-1] - self.q * ps[-2])
        return ps[1:m_max + 1]


def elliptic_zeta(q: int, n1: int) -> ZetaCurve:
    """The zeta datum of a curve with N_1 = n1 points: a = q + 1 - N_1.

    An N_1 outside the Hasse range is refused with the message the counts
    route (the oracle `artin_zeta_from_counts` in tests/test_artin.py)
    gives.
    """
    return ZetaCurve(q, q + 1 - n1)


def point_counts(zc: ZetaCurve, m_max: int) -> list[int]:
    """[N_1, ..., N_m_max], N_m = q^m + 1 - (sum of m-th powers of
    reciprocal roots), from one `power_sums` call."""
    return [zc.q ** m + 1 - p_m for m, p_m in enumerate(zc.power_sums(m_max), start=1)]


def nm(zc: ZetaCurve, m: int) -> int:
    """N_m, the last of `point_counts(zc, m)`."""
    if m < 1:
        raise InputError("m must be >= 1")
    return point_counts(zc, m)[-1]


def base_extend(zc: ZetaCurve, n: int) -> ZetaCurve:
    """The zeta datum over F_{q^n}: reciprocal roots taken to the n-th
    power, so its N_1 is the base curve's N_n."""
    return elliptic_zeta(zc.q ** n, nm(zc, n))


def reciprocity_check(zc: ZetaCurve, n: int, order: int) -> bool:
    """Roots-of-unity product law: prod_{zeta^n = 1} Z(zeta t) = Z_n(t^n),
    Z_n the zeta over F_{q^n}, through order t^(n * order).

    Taking logs, the law says N'_k = N_{nk} for k = 1..order, N'_k the
    counts over F_{q^n}; with q^(nk) on both sides that is p'_k = p_{nk}.
    So it compares two independent Newton recurrences: the power sums of
    `base_extend(zc, n)`, in (p_n, q^n), against every n-th power sum of
    zc, in (a, q).  O(n * order) big-integer products, no series.
    """
    if n < 1 or order < 1:
        raise InputError("n and order must be >= 1")
    return base_extend(zc, n).power_sums(order) == zc.power_sums(n * order)[n - 1::n]


def rh_check(zc: ZetaCurve) -> bool:
    """Riemann hypothesis for the curve: both reciprocal roots have |w|^2 = q.

    They are the roots of w^2 - a w + q, so this holds iff a^2 <= 4q,
    Hasse's bound; the constructor refuses every other datum through this
    same test.
    """
    return zc.a * zc.a <= 4 * zc.q
