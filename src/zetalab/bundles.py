"""Degree-zero semistable bundles on an elliptic curve: censuses and masses.

Everything is bookkeeping over the Atiyah classification: S-equivalence
classes of degree-0 semistable bundles are indexed by the multiset of
line-bundle pieces of the graded object, and each bundle of a class
contributes 1/#Aut (mass) or (q^h0 - 1)/#Aut (gamma mass).  #Aut is a
product over the distinct line-bundle orbits of the graded object, so a
row's sums factor orbit by orbit, and an orbit's sum over its Jordan types
has the closed form Q^(m(m-1)/2) / prod_{i<=m} (Q^i - 1) of Cohen and
Lenstra (LNM 1068, 1984).  No bundle and no Jordan type is enumerated; the
bundle-by-bundle route is the test oracle tests/bundle_oracle.py.

Two counting conventions are first-class citizens and never silently
merged.  `PAPER_SPLIT` reproduces the printed stratum counts, which
treat all needed torsion points and roots as rational and all classes as
split.  `GALOIS_DESCENT` counts classes actually defined over F_q: the
rational 2- and 3-torsion come from the F_p walk that counts the points
(`ffield.point_and_torsion_counts`, p up to the enumeration budget), and
non-rational pieces enter as Galois orbits with extension-field unit
groups as automorphisms.  The descent masses come from the
Harder-Narasimhan / Desale-Ramanan mass recursion, which reads only q
and N_1: it closes the unstable-strata sums as geometric series of
integer numerators over one denominator (on Fractions:
bundle_oracle.py).  The descent census prints the rows whose total mass
the recursion gives, and the tests check the two against each other.

No Fraction is made here: every exact value is an unreduced pair (integer
numerator, denominator), a sum is one integer over the lcm of its terms'
denominators, and the CLI makes the one Fraction that prints a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from zetalab.artin import ZetaCurve, elliptic_zeta, nm
from zetalab.errors import CapabilityError, InputError
from zetalab.ffield import WeierstrassCurve, point_and_torsion_counts


class Convention(Enum):
    PAPER_SPLIT = "paper"
    GALOIS_DESCENT = "descent"


@dataclass(frozen=True)
class CurveData:
    """Elliptic curve context for bundle counting: q, the number N_1 of
    rational points (its Hasse bound: `elliptic_zeta`), and the rational
    torsion counts e2 = #E[2](F_q) and e3 = #E[3](F_q), which only the
    descent census reads."""

    q: int
    n1: int
    e2: int
    e3: int

    @staticmethod
    def from_curve(curve: WeierstrassCurve) -> "CurveData":
        return CurveData(curve.p, *point_and_torsion_counts(curve))

    @property
    def zeta(self) -> ZetaCurve:
        return elliptic_zeta(self.q, self.n1)


# an exact value: an integer numerator over a positive integer denominator
NumDen = tuple[int, int]


def _sum(terms: list[NumDen]) -> NumDen:
    """A sum of pairs as one integer over the lcm of their denominators."""
    den = math.lcm(*(d for _, d in terms))
    return sum(n * (den // d) for n, d in terms), den


# ---------------------------------------------------------------------------
# mass sums over Jordan types

def _orbit_mass(m: int, Q: int) -> tuple[int, int]:
    """Sum over the Jordan types of m equal pieces over F_Q of 1/#Aut, as
    (numerator, denominator): Q^(m(m-1)/2) / prod_{i=1}^m (Q^i - 1).

    A Jordan type is a module of length m over a discrete valuation ring
    with residue field F_Q, and this is Cohen and Lenstra's sum of 1/#Aut
    over those modules (LNM 1068, 1984).  Read at m - 1 it is the gamma
    sum of (Q^blocks - 1)/#Aut: Q^blocks - 1 counts the nonzero socle
    elements v, and the pairs (module, v) weighted by 1/#Aut are the
    extensions of a length-(m-1) module by F_Q, whose Ext^1 and Hom have
    the same size.
    """
    den = 1
    for i in range(1, m + 1):
        den *= Q ** i - 1
    return Q ** (m * (m - 1) // 2), den


# p(m), the number of Jordan types of m equal pieces, for every m <= 3 a
# census row of rank <= 3 has
_PARTITION_COUNTS = (1, 1, 2, 3)


# ---------------------------------------------------------------------------
# strata census

class Stratum(NamedTuple):
    """One census row: a stratum, how many classes it holds, and the
    per-class mass sums (all bundles of one class together)."""

    label: str
    classes: NumDen
    bundles_per_class: int
    mass_per_class: NumDen
    gamma_per_class: NumDen


@dataclass(frozen=True)
class CensusResult:
    slice_note: str
    rows: tuple[Stratum, ...]

    @property
    def total_classes(self) -> NumDen:
        return _sum([row.classes for row in self.rows])

    @property
    def mass(self) -> NumDen:
        return _sum([(row.classes[0] * row.mass_per_class[0],
                      row.classes[1] * row.mass_per_class[1]) for row in self.rows])

    @property
    def gamma(self) -> NumDen:
        return _sum([(row.classes[0] * row.gamma_per_class[0],
                      row.classes[1] * row.gamma_per_class[1]) for row in self.rows])


def _class_row(label: str, classes: int | NumDen, q: int, trivial: int,
               pieces: tuple[tuple[int, int], ...] = ()) -> Stratum:
    """One census row from the shape of its graded object: `trivial` copies
    of O, and one pair (m, e) for every other distinct line-bundle orbit,
    m its multiplicity and e its orbit size.

    #Aut(V) is the product over the distinct orbits of the automorphism
    count of V's Jordan type on that orbit over F_{q^e}, so the class's
    sums over its bundles (one per choice of Jordan type on each orbit)
    factor orbit by orbit: the mass is the product of the orbits'
    `_orbit_mass(m, q^e)`.  Only the Jordan blocks of O carry sections, one
    each, so the gamma mass takes O's sum of (q^blocks - 1)/#Aut in place of
    its mass sum; by the same product formula that sum is
    `_orbit_mass(trivial - 1, q)`, and 0 when there is no O.
    """
    num = den = 1
    bundles = _PARTITION_COUNTS[trivial]
    for m, e in pieces:
        n, d = _orbit_mass(m, q ** e)
        num, den, bundles = num * n, den * d, bundles * _PARTITION_COUNTS[m]
    mass_num, mass_den = _orbit_mass(trivial, q)
    gamma_num, gamma_den = _orbit_mass(trivial - 1, q) if trivial else (0, 1)
    return Stratum(label, classes if type(classes) is tuple else (classes, 1),
                   bundles, (num * mass_num, den * mass_den),
                   (num * gamma_num, den * gamma_den))


def strata_census(r: int, curve: CurveData, conv: Convention) -> CensusResult:
    """Complete disjoint census of degree-0 S-classes for one determinant slice.

    Rank 1 reports the full degree-0 picture (N_1 line-bundle classes).
    For rank 2 the slice is determinant = O; for rank 3 under PAPER_SPLIT
    it is the generic determinant slice the printed counts describe, and
    under GALOIS_DESCENT the determinant = O slice.  Every total is
    #P^(r-1)(F_q) as a polynomial identity in q, N_1 and the torsion
    counts, once k2 = N_2/N_1 = q+1+a and k3 = N_3/N_1 are put in.

    Each row's mass sums factor over the line-bundle orbits of its graded
    object (`_class_row`); tests/bundle_oracle.py rebuilds every row bundle
    by bundle.
    """
    if r not in (1, 2, 3):
        raise CapabilityError("census implemented for rank <= 3")
    q, n1 = curve.q, curve.n1
    if r == 1:
        rows = (
            _class_row("(1;0)", 1, q, 1),
            _class_row("(0;1)", n1 - 1, q, 0, ((1, 1),)),
        )
        return CensusResult("all determinants, degree 0", rows)
    if conv is Convention.PAPER_SPLIT:
        return _census_paper(r, curve)
    return _census_descent(r, curve)


def _census_paper(r: int, curve: CurveData) -> CensusResult:
    # every torsion point, root and determinant counted as rational
    q = curve.q
    n1 = curve.n1
    if r == 2:
        rows = (
            _class_row("(2;0)", 1, q, 2),
            _class_row("(0;2)", 3, q, 0, ((2, 1),)),
            _class_row("(0;1,1)", q + 1 - 4, q, 0, ((1, 1), (1, 1))),
        )
        return CensusResult("determinant O, split counts as printed", rows)

    rows = (
        _class_row("(2;1)", 1, q, 2, ((1, 1),)),
        _class_row("(1;2)", 4, q, 1, ((2, 1),)),
        _class_row("(1;1,1)", q - 4, q, 1, ((1, 1), (1, 1))),
        _class_row("(0;3)", 9, q, 0, ((3, 1),)),
        _class_row("(0;2,1)", n1 - (9 + 4 + 1), q, 0, ((2, 1), (1, 1))),
        _class_row("(0;1,1,1)", q * q - (n1 - 4 - 1), q, 0,
                   ((1, 1), (1, 1), (1, 1))),
    )
    return CensusResult("generic determinant, split counts as printed", rows)


def _triple_count(n: int, eps2: int, eps3: int) -> int:
    """Unordered triples of distinct nonzero elements summing to zero in a
    group of order n with eps2 2-torsion and eps3 3-torsion points.

    Of the (n-1)(n-2) ordered pairs (a, b) of distinct nonzero elements,
    c = -a-b is zero for the n - eps2 pairs b = -a, and repeats a (or b)
    for the n - eps2 - eps3 + 1 elements outside E[2] and E[3].  What is
    left counts each triple 6 times, so the division is exact.
    """
    ordered = (n - 1) * (n - 2) - (n - eps2) - 2 * (n - eps2 - eps3 + 1)
    return ordered // 6


def _census_descent(r: int, curve: CurveData) -> CensusResult:
    q, n1, eps2, eps3 = curve.q, curve.n1, curve.e2, curve.e3
    # k_m = N_m / N_1 = |1 + alpha + ... + alpha^(m-1)|^2, an integer: the
    # order of the norm-one subgroup of Pic^0(F_{q^m})
    n2 = nm(curve.zeta, 2)
    k2 = n2 // n1

    if r == 2:
        rows = (
            _class_row("(2;0)", 1, q, 2),
            _class_row("(0;2)", eps2 - 1, q, 0, ((2, 1),)),
            _class_row("(0;1,1)", (n1 - eps2, 2), q, 0, ((1, 1), (1, 1))),
            _class_row("(0;conj-pair)", (k2 - eps2, 2), q, 0, ((1, 2),)),
        )
        return CensusResult("determinant O", rows)

    n3 = nm(curve.zeta, 3)
    k3 = n3 // n1
    rows = (
        _class_row("(3;0)", 1, q, 3),
        _class_row("(1;2)", eps2 - 1, q, 1, ((2, 1),)),
        _class_row("(1;1,1)", (n1 - eps2, 2), q, 1, ((1, 1), (1, 1))),
        _class_row("(1;conj-pair)", (k2 - eps2, 2), q, 1, ((1, 2),)),
        _class_row("(0;3)", eps3 - 1, q, 0, ((3, 1),)),
        _class_row("(0;2,1)", n1 - (eps2 + eps3 - 1), q, 0, ((2, 1), (1, 1))),
        _class_row("(0;1,1,1)", _triple_count(n1, eps2, eps3), q, 0,
                   ((1, 1), (1, 1), (1, 1))),
        _class_row("(0;1,conj-pair)", (n2 - n1 - (k2 - eps2), 2), q, 0,
                   ((1, 1), (1, 2))),
        _class_row("(0;conj-triple)", (k3 - eps3, 3), q, 0, ((1, 3),)),
    )
    return CensusResult("determinant O", rows)


# ---------------------------------------------------------------------------
# mass invariants

def _beta_degree_zero(r: int, curve: CurveData, conv: Convention) -> NumDen:
    # the split counts are the printed census; the descent census's total
    # is the recursion's value (checked in tests/test_bundles.py)
    if r > 1 and conv is Convention.PAPER_SPLIT:
        num, den = _census_paper(r, curve).mass
        return curve.n1 * num, den
    return mass_recursion_beta(r, 0, curve.zeta)


def _gamma_degree_zero(r: int, curve: CurveData, conv: Convention) -> NumDen:
    # classes with sections are O + (rank r-1 piece); the gamma mass
    # telescopes to the lower-rank beta mass
    if r == 1:
        return 1, 1
    return _beta_degree_zero(r - 1, curve, conv)


def invariant(kind: str, r: int, d: int, curve: CurveData,
              conv: Convention) -> NumDen:
    """beta or gamma mass of rank r, degree d (all determinants); alpha = beta + gamma.

    beta is periodic in d with period r (twist by a rational degree-1
    bundle); for d not divisible by r every semistable class is stable
    with automorphisms F_q^*, for positive degree h^0 = d, and for
    negative degree h^0 = 0.
    """
    if kind not in ("beta", "gamma"):
        raise InputError("kind must be beta or gamma")
    if r not in (1, 2, 3):
        raise CapabilityError("invariants implemented for rank <= 3")
    q, n1 = curve.q, curve.n1
    if kind == "gamma" and d <= 0:
        # no beta needed: h^0 = 0 below degree 0, and at degree 0 the
        # classes with sections telescope to a lower rank
        return _gamma_degree_zero(r, curve, conv) if d == 0 else (0, 1)
    beta = (n1, q - 1) if d % r else _beta_degree_zero(r, curve, conv)
    if kind == "beta":
        return beta
    return (q ** d - 1) * beta[0], beta[1]


# ---------------------------------------------------------------------------
# Harder-Narasimhan / Desale-Ramanan mass recursion

def _zeta_value(zc: ZetaCurve, i: int) -> int:
    """The numerator of Z(q^-i) over q (q^i - 1)(q^(i-1) - 1): P(x)/((1-x)
    (1-qx)) at x = q^-i, times q^2i over q^2i, is q^2i - a q^i + q over it."""
    qi = zc.q ** i
    return qi * qi - zc.a * qi + zc.q


def mass_recursion_beta(r: int, d: int, zc: ZetaCurve) -> NumDen:
    """beta_r(d) from the mass recursion: the total rank-r mass is
    (N_1/(q-1)) * prod_{i=2}^r zeta(q^-i), and the unstable strata are
    subtracted as exactly-summed geometric series.

    Each Z(q^-i) is evaluated once, and every term is an integer numerator
    over one denominator, q (q-1)^2 (q^2-1) at rank 2 and q^2 (q-1)^3
    (q^6-1)^2 at rank 3, the pair returned.
    """
    if r not in (1, 2, 3):
        raise CapabilityError("recursion implemented for rank <= 3")
    q, n1 = zc.q, nm(zc, 1)
    if r == 1:
        return n1, q - 1
    # beta_2 of even and odd degree: b1 Z(q^-2) - b1^2/(q^2-1), the square
    # times q in odd degree, with b1 = n1/(q-1)
    z2 = _zeta_value(zc, 2)
    beta2 = n1 * (z2 - q * n1), n1 * (z2 - q * q * n1)
    if r == 2:
        return beta2[d % 2], q * (q - 1) ** 2 * (q * q - 1)
    # HN types (1, 2): d1 = m (rank 1) > (d - m)/2, term b1 beta2(d-m)/q^(3m-d),
    # and (2, 1): d1 = m (rank 2) with m/2 > d - m, term beta2(m) b1/q^(3m-2d);
    # from the first m, where e0 = 3m - d (or 3m - 2d) is 1, 2 or 3, the sum
    # is q^(3-e0) (q^3 first + second)/(q^6 - 1).  Type (1, 1, 1): gaps u, v
    # >= 1 with u - v = d (mod 3), weight b1^3 q^(-2(u+v)), sum q^(12-2u0-2v0)
    # /(q^6 - 1)^2 from the first gaps u0, v0 in 1..3.
    m12, m21 = d // 3 + 1, (2 * d) // 3 + 1
    t12 = sum(q ** (3 - e0) * (q ** 3 * beta2[d2 % 2] + beta2[1 - d2 % 2])
              for e0, d2 in ((3 * m12 - d, d - m12), (3 * m21 - 2 * d, m21)))
    t111 = sum(q ** (12 - 2 * u0 - 2 * ((u0 - d - 1) % 3 + 1)) for u0 in (1, 2, 3))
    # b1 Z(q^-2) Z(q^-3) is over q^2 (q-1)^2 (q^2-1)^2 (q^3-1), b1 t12 over q
    # (q-1)^3 (q^2-1)(q^6-1), b1^3 t111 over (q-1)^3 (q^6-1)^2; q^6 - 1 = (q^2-1) c3 c6
    c3, c6 = q * q + q + 1, q * q - q + 1
    num = (n1 * z2 * _zeta_value(zc, 3) * c3 * c6 * c6
           - n1 * q * c3 * c6 * t12 - q * q * n1 ** 3 * t111)
    return num, q * q * (q - 1) ** 3 * (q ** 6 - 1) ** 2
