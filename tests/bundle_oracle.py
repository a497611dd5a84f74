"""Bundle-by-bundle census rows, for tests only.

The library computes a census row from the shape of its graded object:
#Aut(V) is a product over the distinct line-bundle orbits of V, so each
row's mass sums factor orbit by orbit, and each orbit's sum over its Jordan
types is the Cohen-Lenstra product formula (`bundles._class_row`,
`bundles._orbit_mass`).  This module keeps the route those rows are
checked against: validated descriptors of individual bundles, every
Jordan type (`partitions`) of every class built one at a time, and
#Aut(V) (`module_aut_count`) and h^0(V) of each.  `ROW_GRADED` gives, for
every census row label, the graded object the library row describes.

It also keeps the Fraction routes that the library's integer numerators
over one denominator are checked against: the Harder-Narasimhan mass
recursion summed term by term (`bundles.mass_recursion_beta`), with
Z(q^-i) evaluated from P(x)/((1-x)(1-qx)) at x = q^-i and each stratum's
geometric series closed on Fractions; a census's totals summed row by row
(`bundles.CensusResult`); and the rank-r zeta numerator assembled from
Fraction masses (`nazeta.na_numerator`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from ratfunc_oracle import poly_eval

from zetalab.artin import ZetaCurve, nm
from zetalab.bundles import CensusResult
from zetalab.errors import CapabilityError, InputError


def module_aut_count(partition: Sequence[int], q: int) -> int:
    """#Aut of (+)_i I_{r_i} (x) L for a fixed line bundle L over F_q.

    This is the automorphism count of a finite module of type `partition`
    over a discrete valuation ring with residue field F_q:
    q^s * prod_k prod_{i=1}^{m_k} (1 - q^-i), s = sum_{i,j} min(r_i, r_j),
    where m_k is the multiplicity of the part k.  As an integer it is
    q^(s - sum_k m_k(m_k+1)/2) * prod_k prod_{i=1}^{m_k} (q^i - 1); the
    exponent is >= 0 as s >= sum_k m_k^2 >= sum_k m_k(m_k+1)/2.
    """
    mults = Counter(partition).values()
    exponent = (sum(min(a, b) for a in partition for b in partition)
                - sum(m * (m + 1) // 2 for m in mults))
    total = q ** exponent
    for mult in mults:
        for i in range(1, mult + 1):
            total *= q ** i - 1
    return total


def partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition of n, parts in decreasing order: the Jordan types of
    n equal pieces."""
    def parts(rest: int, most: int):
        if rest == 0:
            yield ()
        for k in range(min(rest, most), 0, -1):
            yield from ((k, *tail) for tail in parts(rest - k, k))
    return list(parts(n, n))


@dataclass(frozen=True)
class LineOrbit:
    """A degree-0 line-bundle piece: the trivial bundle, a rational bundle,
    or a full Galois orbit of non-rational bundles (size = orbit length)."""

    kind: Literal["trivial", "rational", "conjugate"]
    size: int = 1
    index: int = 0   # distinguishes different bundles sharing a kind

    def __post_init__(self):
        if self.kind == "trivial" and (self.size != 1 or self.index != 0):
            raise InputError("the trivial bundle is unique")
        if self.kind == "rational" and self.size != 1:
            raise InputError("a rational bundle has orbit size 1")
        if self.kind == "conjugate" and self.size < 2:
            raise InputError("a conjugate orbit has size >= 2")

    @staticmethod
    def trivial() -> "LineOrbit":
        return LineOrbit("trivial")

    @staticmethod
    def rational(index: int = 0) -> "LineOrbit":
        return LineOrbit("rational", 1, index)

    @staticmethod
    def conjugate(size: int, index: int = 0) -> "LineOrbit":
        return LineOrbit("conjugate", size, index)


@dataclass(frozen=True)
class BundleDescriptor:
    """V = (+)_j I_{r_j} (x) L_j with every summand of degree 0."""

    summands: tuple[tuple[int, LineOrbit], ...]

    def __post_init__(self):
        for r_j, orbit in self.summands:
            if r_j < 1:
                raise InputError("Jordan size must be >= 1")
            if not isinstance(orbit, LineOrbit):
                raise InputError("summand needs a LineOrbit")

    @property
    def rank(self) -> int:
        return sum(r_j * orbit.size for r_j, orbit in self.summands)

    @staticmethod
    def of(*summands: tuple[int, LineOrbit]) -> "BundleDescriptor":
        return BundleDescriptor(tuple(summands))


def aut_order(b: BundleDescriptor, q: int) -> int:
    """#Aut(V) over F_q; distinct line orbits contribute independent blocks.

    Hom(I_r (x) L, I_s (x) M) is min(r,s)-dimensional when L = M and zero
    otherwise, so the automorphism group is the product over distinct
    orbits of the block group; a conjugate orbit of size e is a single
    block over the extension field F_{q^e}.
    """
    if b.rank > 4:
        raise CapabilityError("automorphism counts implemented for rank <= 4")
    blocks: dict[LineOrbit, list[int]] = {}
    for r_j, orbit in b.summands:
        blocks.setdefault(orbit, []).append(r_j)
    total = 1
    for orbit, partition in blocks.items():
        total *= module_aut_count(partition, q ** orbit.size)
    return total


def h0_of_bundle(b: BundleDescriptor) -> int:
    """h^0 of a degree-0 descriptor: one section per Jordan block of the
    trivial bundle, nothing from any other piece."""
    return sum(1 for _, orbit in b.summands if orbit.kind == "trivial")


def class_contents(gr: BundleDescriptor) -> list[BundleDescriptor]:
    """All bundles in the S-equivalence class with the given graded object.

    The input lists the graded line-bundle pieces (all Jordan sizes 1);
    the class contents are one descriptor per choice of partition of each
    piece's multiplicity into Jordan blocks.
    """
    mult: dict[LineOrbit, int] = {}
    for r_j, orbit in gr.summands:
        if r_j != 1:
            raise InputError("graded pieces must have Jordan size 1")
        mult[orbit] = mult.get(orbit, 0) + 1
    orbits = sorted(mult, key=lambda o: (o.kind, o.size, o.index))
    per_orbit = [
        [(orbit, p) for p in partitions(mult[orbit])] for orbit in orbits
    ]
    out = []
    for combo in itertools.product(*per_orbit):
        summands = []
        for orbit, partition in combo:
            summands.extend((part, orbit) for part in partition)
        out.append(BundleDescriptor(tuple(summands)))
    return out


def oracle_row(gr: BundleDescriptor, q: int) -> tuple[int, Fraction, Fraction]:
    """A census row's bundles per class and per-class mass and gamma sums,
    summed bundle by bundle over the class contents."""
    contents = class_contents(gr)
    auts = [aut_order(v, q) for v in contents]
    mass = sum(Fraction(1, a) for a in auts)
    gamma = sum(Fraction(q ** h0_of_bundle(v) - 1, a)
                for v, a in zip(contents, auts))
    return len(contents), mass, gamma


def fraction_totals(census: CensusResult) -> tuple[Fraction, Fraction, Fraction]:
    """A census's total classes, mass and gamma mass, summed row by row on
    Fractions."""
    rows = [(Fraction(*row.classes), Fraction(*row.mass_per_class),
             Fraction(*row.gamma_per_class)) for row in census.rows]
    return (sum((c for c, _, _ in rows), Fraction(0)),
            sum((c * m for c, m, _ in rows), Fraction(0)),
            sum((c * g for c, _, g in rows), Fraction(0)))


_O = LineOrbit.trivial()
_L = LineOrbit.rational(1)
_LINV = LineOrbit.rational(2)
_T = LineOrbit.rational(3)       # a torsion point; only distinctness matters
_LAM = LineOrbit.rational(4)     # a third distinct rational piece
_C2 = LineOrbit.conjugate(2)
_C3 = LineOrbit.conjugate(3)

# the graded object of every census row label, both conventions
ROW_GRADED = {
    label: BundleDescriptor(tuple((1, orbit) for orbit in pieces))
    for label, pieces in {
        "(1;0)": (_O,),
        "(0;1)": (LineOrbit.rational(),),
        "(2;0)": (_O, _O),
        "(0;2)": (_T, _T),
        "(0;1,1)": (_L, _LINV),
        "(0;conj-pair)": (_C2,),
        "(2;1)": (_O, _O, _LAM),
        "(3;0)": (_O, _O, _O),
        "(1;2)": (_O, _T, _T),
        "(1;1,1)": (_O, _L, _LINV),
        "(1;conj-pair)": (_O, _C2),
        "(0;3)": (_T, _T, _T),
        "(0;2,1)": (_L, _L, _LINV),
        "(0;1,1,1)": (_L, _LINV, _LAM),
        "(0;1,conj-pair)": (_L, _C2),
        "(0;conj-triple)": (_C3,),
    }.items()
}


# ---------------------------------------------------------------------------
# the mass recursion on Fractions

def zeta_value(zc: ZetaCurve, i: int) -> Fraction:
    # Z(x) = P(x)/((1-x)(1-qx)) at x = q^-i, evaluated directly
    x = Fraction(1, zc.q ** i)
    return poly_eval(zc.P, x) / ((1 - x) * (1 - zc.q * x))


def beta2_parity(zc: ZetaCurve, b1: Fraction, parity: int) -> Fraction:
    s = Fraction(zc.q, zc.q ** 2 - 1) if parity else Fraction(1, zc.q ** 2 - 1)
    return b1 * zeta_value(zc, 2) - b1 * b1 * s


def t12_t21_closed(zc: ZetaCurve, b1: Fraction, d: int) -> Fraction:
    # HN types (1, 2): d1 = m (rank 1) > (d - m)/2, term B1 * beta2(d-m) / q^(3m-d),
    # and (2, 1): d1 = m (rank 2) with m/2 > d - m, term beta2(m) * B1 / q^(3m-2d);
    # each summed over every m, two parities per q^-6 block
    q = zc.q
    beta2 = (beta2_parity(zc, b1, 0), beta2_parity(zc, b1, 1))
    m12 = d // 3 + 1
    m21 = (2 * d) // 3 + 1
    total = Fraction(0)
    for e0, d2 in ((3 * m12 - d, d - m12), (3 * m21 - 2 * d, m21)):
        first, second = beta2[d2 % 2], beta2[1 - d2 % 2]
        total += Fraction(1, q ** e0) * (first + second * Fraction(1, q ** 3))
    return b1 * total / (1 - Fraction(1, q ** 6))


def t111_closed(zc: ZetaCurve, b1: Fraction, d: int) -> Fraction:
    # sum over d1 > d2 > d3, sum d: gaps u = d1-d2 >= 1, v = d2-d3 >= 1 with
    # u - v = d (mod 3); weight q^(-2(u+v))
    q = zc.q
    ratio = Fraction(1, q ** 6)
    total = Fraction(0)
    for u0 in (1, 2, 3):
        v0 = ((u0 - d - 1) % 3) + 1
        total += (Fraction(1, q ** (2 * u0)) / (1 - ratio)) * \
                 (Fraction(1, q ** (2 * v0)) / (1 - ratio))
    return b1 ** 3 * total


def fraction_mass_recursion_beta(r: int, d: int, zc: ZetaCurve) -> Fraction:
    """beta_r(d) from the mass recursion, every term a Fraction."""
    if r not in (1, 2, 3):
        raise CapabilityError("recursion implemented for rank <= 3")
    q = zc.q
    b1 = Fraction(nm(zc, 1), q - 1)
    if r == 1:
        return b1
    if r == 2:
        return beta2_parity(zc, b1, d % 2)
    total = b1 * zeta_value(zc, 2) * zeta_value(zc, 3)
    return total - t12_t21_closed(zc, b1, d) - t111_closed(zc, b1, d)


# ---------------------------------------------------------------------------
# the rank-r zeta numerator on Fractions

def fraction_na_numerator(q: int, r: int, gamma0: Fraction,
                          betas: Sequence[Fraction]) -> list[Fraction]:
    """Numerator coefficients n_0..n_2r of a genus-1 rank-r zeta, every
    term a Fraction.

    Z(t) = sum_d c_d t^d, c_0 = gamma0, c_d = (q^d - 1) beta_(d mod r);
    times (1 - t^r)(1 - q^r t^r) this is n_k = c_k - (1 + q^r) c_(k-r) +
    q^r c_(k-2r), which vanishes for k > 2r as beta is period-r.
    """
    qr = q ** r
    c = [Fraction(gamma0)] + [(q ** d - 1) * Fraction(betas[d % r])
                              for d in range(1, 2 * r + 1)]
    n = c[:]
    for k in range(r, 2 * r + 1):
        n[k] -= (1 + qr) * c[k - r]
    n[2 * r] += qr * c[0]
    return n
