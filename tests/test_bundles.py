from collections import Counter
from fractions import Fraction
from fractions import Fraction as F
from math import isqrt

import pytest
from bundle_oracle import (
    ROW_GRADED,
    BundleDescriptor,
    LineOrbit,
    aut_order,
    beta2_parity,
    class_contents,
    fraction_mass_recursion_beta,
    fraction_totals,
    h0_of_bundle,
    module_aut_count,
    oracle_row,
    partitions,
    t111_closed,
    zeta_value,
)
from fq_oracle import norm_kernel_size, one_curve_per_group, torsion_count
from ratfunc_oracle import RatFunc

from zetalab.artin import ZetaCurve, elliptic_zeta, nm
from zetalab.bundles import (
    _PARTITION_COUNTS,
    Convention,
    CurveData,
    _beta_degree_zero,
    _gamma_degree_zero,
    _orbit_mass,
    _triple_count,
    _zeta_value,
    invariant,
    mass_recursion_beta,
    strata_census,
)
from zetalab.errors import CapabilityError, InputError
from zetalab.exact import Poly
from zetalab.ffield import FieldSpec, GroupStructure, WeierstrassCurve, primes_up_to

O = LineOrbit.trivial()
L = LineOrbit.rational(1)
M = LineOrbit.rational(2)

E59 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 1, 1))
E58 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 4, 0))

GALLERY = [
    E59,
    E58,
    CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 1)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 3)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(11), 1, 1)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(11), 2, 5)),
]


def inv(kind, r, d, curve, conv) -> Fraction:
    """`invariant`'s (numerator, denominator) pair as a Fraction."""
    return F(*invariant(kind, r, d, curve, conv))


def recursion(r, d, zc) -> Fraction:
    """`mass_recursion_beta`'s pair as a Fraction."""
    return F(*mass_recursion_beta(r, d, zc))


def zfunc(zc):
    """Oracle for Z(t) = P(t)/((1-t)(1-qt)): the reduced rational function."""
    return RatFunc(zc.P, Poly([1, -1]) * Poly([1, -zc.q]))


class TestAutOrder:
    def test_split_rank2(self):
        q = 5
        assert aut_order(BundleDescriptor.of((1, O), (1, O)), q) == (q * q - 1) * (q * q - q)

    def test_jordan_blocks(self):
        q = 5
        assert aut_order(BundleDescriptor.of((2, O)), q) == (q - 1) * q
        assert aut_order(BundleDescriptor.of((3, O)), q) == (q - 1) * q * q

    def test_paper_mixed_block(self):
        q = 5
        v = BundleDescriptor.of((1, O), (2, O))
        assert aut_order(v, q) == (q - 1) ** 2 * q ** 3

    def test_multiplicative_over_distinct_orbits(self):
        q = 7
        for parts in (((1, O), (1, L)), ((2, O), (1, L)), ((1, L), (2, M))):
            whole = aut_order(BundleDescriptor(parts), q)
            split = 1
            for s in parts:
                split *= aut_order(BundleDescriptor.of(s), q)
            assert whole == split

    def test_conjugate_orbit_unit_group(self):
        q = 5
        assert aut_order(BundleDescriptor.of((1, LineOrbit.conjugate(2))), q) == q * q - 1
        assert aut_order(BundleDescriptor.of((1, LineOrbit.conjugate(3))), q) == q ** 3 - 1

    def test_rank_cap(self):
        v = BundleDescriptor.of((5, O))
        with pytest.raises(CapabilityError):
            aut_order(v, 5)

    def test_closed_form_matches_fraction_product(self):
        # q^s * prod_k prod_{i<=m_k} (1 - q^-i), s = sum_{i,j} min(r_i, r_j);
        # an int result also shows the exponent of q is never negative
        for q in (2, 3, 5, 49):
            for n in range(1, 8):
                for partition in partitions(n):
                    want = F(q) ** sum(min(a, b) for a in partition for b in partition)
                    for mult in Counter(partition).values():
                        for i in range(1, mult + 1):
                            want *= 1 - F(1, q ** i)
                    got = module_aut_count(partition, q)
                    assert type(got) is int and got == want, (q, partition)


# small prime powers, the largest prime the curve commands accept and a
# large power of it
ORBIT_QS = (2, 3, 4, 5, 7, 8, 9, 25, 59, 3137, 3137 ** 3)


class TestOrbitMass:
    """`_orbit_mass` against the sums over every Jordan type of m pieces."""

    def test_mass_equals_jordan_type_sum(self):
        for q in ORBIT_QS:
            for m in range(8):
                want = sum(F(1, module_aut_count(lam, q)) for lam in partitions(m))
                assert F(*_orbit_mass(m, q)) == want, (q, m)

    def test_gamma_is_mass_one_piece_down(self):
        # the sum of (q^blocks - 1)/#Aut over the types of m pieces; _class_row
        # reads it as _orbit_mass(m - 1, q), and as 0 at m = 0
        for q in ORBIT_QS:
            for m in range(8):
                want = sum(F(q ** len(lam) - 1, module_aut_count(lam, q))
                           for lam in partitions(m))
                assert (F(*_orbit_mass(m - 1, q)) if m else 0) == want, (q, m)

    def test_partition_counts(self):
        assert _PARTITION_COUNTS == tuple(len(partitions(m)) for m in range(4))


class TestClassContents:
    def test_trivial_rank4_class(self):
        gr = BundleDescriptor.of(*([(1, O)] * 4))
        assert len(class_contents(gr)) == 5  # partitions of 4

    def test_single_line_bundle(self):
        assert len(class_contents(BundleDescriptor.of((1, O)))) == 1

    def test_mixed(self):
        gr = BundleDescriptor.of((1, O), (1, O), (1, L))
        assert len(class_contents(gr)) == 2  # partitions(2) x partitions(1)

    def test_rejects_nontrivial_jordan_input(self):
        with pytest.raises(InputError):
            class_contents(BundleDescriptor.of((2, O)))


class TestH0:
    def test_values(self):
        assert h0_of_bundle(BundleDescriptor.of((1, O), (1, O), (1, O))) == 3
        assert h0_of_bundle(BundleDescriptor.of((3, O))) == 1
        assert h0_of_bundle(BundleDescriptor.of((2, L))) == 0


def pair_loop_triple_count(gs):
    """Oracle for _triple_count: unordered triples of distinct nonzero
    elements of Z/n1 x Z/n2 summing to zero, by a loop over pairs."""
    n1, n2 = gs.n1, gs.n2
    elements = [(i, j) for i in range(n1) for j in range(n2)]
    zero = (0, 0)
    ordered = 0
    for a in elements:
        if a == zero:
            continue
        for b in elements:
            if b == zero or b == a:
                continue
            c = ((-a[0] - b[0]) % n1, (-a[1] - b[1]) % n2)
            if c != zero and c != a and c != b:
                ordered += 1
    assert ordered % 6 == 0
    return ordered // 6


class TestCensus:
    def test_rank1(self):
        res = strata_census(1, E59, Convention.PAPER_SPLIT)
        assert F(*res.total_classes) == E59.n1
        assert all(F(*r.mass_per_class) == F(1, 4) for r in res.rows)
        assert F(*res.gamma) == 1

    def test_rank2_paper_split_counts(self):
        res = strata_census(2, E59, Convention.PAPER_SPLIT)
        by_label = {r.label: r for r in res.rows}
        assert by_label["(2;0)"].classes == (1, 1)
        assert by_label["(0;2)"].classes == (3, 1)
        assert by_label["(0;1,1)"].classes == (E59.q + 1 - 4, 1)
        assert F(*res.total_classes) == E59.q + 1

    def test_rank2_descent_q5_n9(self):
        res = strata_census(2, E59, Convention.GALOIS_DESCENT)
        by_label = {r.label: r for r in res.rows}
        assert by_label["(0;2)"].classes == (0, 1)     # no rational 2-torsion
        assert F(*by_label["(0;1,1)"].classes) == 4
        assert F(*by_label["(0;conj-pair)"].classes) == 1
        assert F(*res.total_classes) == 6

    def test_descent_completeness_across_gallery(self, census_curves):
        for curve in census_curves:
            for r in (2, 3):
                res = strata_census(r, curve, Convention.GALOIS_DESCENT)
                assert F(*res.total_classes) == (curve.q ** r - 1) // (curve.q - 1)

    def test_paper_split_totals(self, census_curves):
        # the printed counts sum to #P^(r-1)(F_q) whatever N_1 is
        for curve in census_curves:
            for r in (2, 3):
                res = strata_census(r, curve, Convention.PAPER_SPLIT)
                assert F(*res.total_classes) == (curve.q ** r - 1) // (curve.q - 1)

    def test_conjugate_pair_count_against_trace_oracle(self):
        for wc in (WeierstrassCurve(FieldSpec(5), 1, 1),
                   WeierstrassCurve(FieldSpec(5), 4, 0),
                   WeierstrassCurve(FieldSpec(7), 1, 3)):
            curve = CurveData.from_curve(wc)
            k2 = norm_kernel_size(wc, 2)
            eps2 = curve.e2
            res = strata_census(2, curve, Convention.GALOIS_DESCENT)
            conj = next(r for r in res.rows if r.label == "(0;conj-pair)")
            assert conj.classes == (k2 - eps2, 2)

    def test_triple_count_against_pair_loop(self):
        # every Z/n1 x Z/n2 a curve over 5 <= p <= 43 can have: n1 | n2,
        # n1 | p - 1 and N = n1 n2 within the Hasse bound
        groups = {GroupStructure(n1, n // n1)
                  for p in primes_up_to(43)[2:]
                  for n in range(1, 2 * p + 2) if (p + 1 - n) ** 2 <= 4 * p
                  for n1 in range(1, n + 1)
                  if (p - 1) % n1 == 0 and n % (n1 * n1) == 0}
        for gs in groups:
            closed = _triple_count(gs.order, torsion_count(gs, 2), torsion_count(gs, 3))
            assert closed == pair_loop_triple_count(gs)

    def test_paper_rank2_mass_closed_form(self):
        # the printed split census sums to N_1 (q + 3)/(q^2 - 1)
        for curve in GALLERY:
            q, n1 = curve.q, curve.n1
            mass = F(*strata_census(2, curve, Convention.PAPER_SPLIT).mass)
            assert n1 * mass == F(n1 * (q + 3), q * q - 1)

    def test_rows_match_bundle_by_bundle_oracle(self, census_curves):
        # every field of every row, against the sums over the class's
        # bundles built one at a time
        rows = 0
        for curve in census_curves:
            for conv in Convention:
                for r in (1, 2, 3):
                    for row in strata_census(r, curve, conv).rows:
                        got = (row.bundles_per_class, F(*row.mass_per_class),
                               F(*row.gamma_per_class))
                        assert got == oracle_row(ROW_GRADED[row.label], curve.q), \
                            (curve, conv, r)
                        rows += 1
        # paper 2 + 3 + 6 rows, descent 2 + 4 + 9
        assert rows == 26 * len(census_curves)

    def test_totals_equal_fraction_route(self, curve_data_to_61):
        # each total is one integer over one lcm; against the rows summed
        # one by one on Fractions (tests/bundle_oracle.py)
        for curve in curve_data_to_61:
            for conv in Convention:
                for r in (1, 2, 3):
                    census = strata_census(r, curve, conv)
                    totals = (census.total_classes, census.mass, census.gamma)
                    assert all(type(x) is int for pair in totals for x in pair)
                    assert tuple(F(*pair) for pair in totals) == fraction_totals(census), \
                        (curve, conv, r)

    def test_gamma_only_from_sections(self):
        for curve in GALLERY[:3]:
            for conv in Convention:
                res = strata_census(2, curve, conv)
                for row in res.rows:
                    has_trivial = not row.label.startswith("(0;")
                    assert (row.gamma_per_class[0] > 0) == has_trivial


class TestInvariant:
    def test_beta_rank2_odd_degree(self):
        for curve in GALLERY:
            for conv in Convention:
                assert inv("beta", 2, 1, curve, conv) == F(curve.n1, curve.q - 1)

    def test_beta_rank2_paper_closed_form(self):
        for curve in GALLERY:
            expected = F(curve.n1 * (curve.q + 3), curve.q ** 2 - 1)
            assert inv("beta", 2, 0, curve, Convention.PAPER_SPLIT) == expected

    def test_gamma_rank2_degree0_both_conventions(self):
        for curve in GALLERY:
            for conv in Convention:
                assert inv("gamma", 2, 0, curve, conv) == F(curve.n1, curve.q - 1)

    def test_beta_descent_equals_recursion_rank2(self):
        assert inv("beta", 2, 0, E59, Convention.GALOIS_DESCENT) == F(99, 32)
        for curve in GALLERY:
            zc = curve.zeta
            assert inv("beta", 2, 0, curve, Convention.GALOIS_DESCENT) == \
                recursion(2, 0, zc)

    def test_beta_descent_equals_recursion_rank3(self):
        assert inv("beta", 3, 0, E59, Convention.GALOIS_DESCENT) == F(13707, 3968)
        for curve in GALLERY:
            assert inv("beta", 3, 0, curve, Convention.GALOIS_DESCENT) == \
                recursion(3, 0, curve.zeta)

    def test_descent_census_mass_equals_recursion(self, census_curves):
        # invariant reads the descent beta_r(0) from the recursion alone;
        # the census rows, built from the torsion counts, must total it
        for curve in census_curves:
            for r in (2, 3):
                census = strata_census(r, curve, Convention.GALOIS_DESCENT)
                assert curve.n1 * F(*census.mass) == recursion(r, 0, curve.zeta)

    def test_paper_split_agreement_locus(self):
        # printed closed form matches the recursion exactly iff N1 = 2(q-1)
        for curve in GALLERY:
            paper = inv("beta", 2, 0, curve, Convention.PAPER_SPLIT)
            rec = recursion(2, 0, curve.zeta)
            if curve.n1 == 2 * (curve.q - 1):
                assert paper == rec
            else:
                assert paper != rec
        assert E58.n1 == 2 * (E58.q - 1)
        assert inv("beta", 2, 0, E58, Convention.PAPER_SPLIT) == F(8, 3)

    def test_beta_periodicity(self):
        for conv in Convention:
            for d in (-3, -1, 2, 3, 5, 6):
                assert inv("beta", 3, d, E59, conv) == \
                    inv("beta", 3, d % 3, E59, conv)

    def test_gamma_telescopes_to_lower_rank_beta(self):
        for curve in GALLERY[:4]:
            for conv in Convention:
                for r in (2, 3):
                    assert inv("gamma", r, 0, curve, conv) == \
                        inv("beta", r - 1, 0, curve, conv)

    def test_alpha_beta_gamma_relation(self):
        # alpha = sum q^h0 / #Aut = beta + gamma, with h0 = d for d > 0
        # and h0 = 0 for d < 0
        for conv in Convention:
            for r in (1, 2, 3):
                for d in range(-2, 5):
                    b = inv("beta", r, d, E59, conv)
                    g = inv("gamma", r, d, E59, conv)
                    a = b + g
                    if d:
                        assert a == (F(E59.q) ** d if d > 0 else 1) * b
                    assert a >= 0 and b >= 0 and g >= 0

    def test_unknown_kind_is_refused(self):
        with pytest.raises(InputError, match="beta or gamma"):
            invariant("alpha", 2, 0, E59, Convention.PAPER_SPLIT)


def weng_zagier_rh(r, curve, conv):
    """The Riemann hypothesis for the rank-r zeta in degrees divisible by r,
    gamma_0 - c_1 T + gamma_0 q^r T^2 with c_1 = gamma_0 (1 + q^r) -
    beta_0 (q^r - 1) (Weng-Zagier, PNAS 117, 2020): c_1^2 <= 4 gamma_0^2 q^r."""
    gamma0 = F(*_gamma_degree_zero(r, curve, conv))
    beta0 = F(*_beta_degree_zero(r, curve, conv))
    qr = curve.q ** r
    c1 = gamma0 * (1 + qr) - beta0 * (qr - 1)
    return c1 * c1 <= 4 * gamma0 * gamma0 * qr


@pytest.fixture(scope="module")
def small_curves():
    """Every distinct (q, N_1, group) of a curve y^2 = x^3 + ax + b over F_p,
    5 <= p <= 23."""
    return [CurveData.from_curve(curve) for curve in one_curve_per_group(
        WeierstrassCurve(FieldSpec(p), a, b)
        for p in primes_up_to(23)[2:] for a in range(p) for b in range(p)
        if (4 * a ** 3 + 27 * b * b) % p)]


class TestWengZagierRH:
    def test_curve_count(self, small_curves):
        assert len(small_curves) == 134

    @pytest.mark.parametrize("r", [2, 3])
    def test_descent_holds(self, small_curves, r):
        assert all(weng_zagier_rh(r, c, Convention.GALOIS_DESCENT)
                   for c in small_curves)

    def test_paper_holds_at_rank2(self, small_curves):
        assert all(weng_zagier_rh(2, c, Convention.PAPER_SPLIT) for c in small_curves)

    def test_paper_fails_at_rank3(self, small_curves):
        assert not any(weng_zagier_rh(3, c, Convention.PAPER_SPLIT)
                       for c in small_curves)


def hn_correction_truncated(r: int, d: int, zc: ZetaCurve, terms: int) -> Fraction:
    """Plain truncated loops over unstable HN types (the oracle for the
    closed geometric forms).  `terms` bounds each gap/degree variable."""
    q = zc.q
    b1 = Fraction(nm(zc, 1), q - 1)
    if r == 2:
        m0 = d // 2 + 1
        return sum(b1 * b1 * Fraction(1, q ** (2 * m - d))
                   for m in range(m0, m0 + terms))
    if r != 3:
        raise CapabilityError("recursion implemented for rank <= 3")
    t12 = sum(b1 * beta2_parity(zc, b1, (d - m) % 2) * Fraction(1, q ** (3 * m - d))
              for m in range(d // 3 + 1, d // 3 + 1 + terms))
    t21 = sum(beta2_parity(zc, b1, m % 2) * b1 * Fraction(1, q ** (3 * m - 2 * d))
              for m in range((2 * d) // 3 + 1, (2 * d) // 3 + 1 + terms))
    t111 = Fraction(0)
    for u in range(1, terms + 1):
        for v in range(1, terms + 1):
            if (u - v - d) % 3 == 0:
                t111 += b1 ** 3 * Fraction(1, q ** (2 * (u + v)))
    return t12 + t21 + t111


def hn_tail_closed(r: int, d: int, zc: ZetaCurve, terms: int) -> Fraction:
    """Exact tail of the truncated HN sums beyond `terms` leading entries.

    Together with hn_correction_truncated this reconstitutes the full
    correction, so closed forms can be pinned exactly against plain loops.
    """
    q = zc.q
    b1 = Fraction(nm(zc, 1), q - 1)
    if r == 2:
        m0 = d // 2 + 1 + terms
        return b1 * b1 * Fraction(1, q ** (2 * m0 - d)) / (1 - Fraction(1, q * q))
    if r != 3:
        raise CapabilityError("recursion implemented for rank <= 3")
    # t12 and t21 tails from entry terms + 1 on: the beta_2 parity
    # alternates with m, so each is two geometric series in q^-6
    beta2 = (beta2_parity(zc, b1, 0), beta2_parity(zc, b1, 1))

    def two_parity_tail(e0: int, parity0: int) -> Fraction:
        # sum_{j >= 0} beta2[(parity0 + j) % 2] / q^(e0 + 3j)
        return sum(beta2[(parity0 + j) % 2] * Fraction(1, q ** (e0 + 3 * j))
                   for j in (0, 1)) / (1 - Fraction(1, q ** 6))

    m12 = d // 3 + 1 + terms
    m21 = (2 * d) // 3 + 1 + terms
    t12 = b1 * two_parity_tail(3 * m12 - d, (d - m12) % 2)
    t21 = b1 * two_parity_tail(3 * m21 - 2 * d, m21 % 2)
    # t111 tail: the full sum minus the truncated box, exactly
    box = {k: sum(Fraction(1, q ** (2 * u)) for u in range(k, terms + 1, 3))
           for k in (1, 2, 3)}
    t111_box = sum(box[u0] * box[(u0 - d - 1) % 3 + 1] for u0 in (1, 2, 3))
    return t12 + t21 + t111_closed(zc, b1, d) - b1 ** 3 * t111_box


class TestMassRecursion:
    def test_rank1_base(self):
        assert recursion(1, 0, E59.zeta) == F(9, 4)

    def test_rank2_values(self):
        assert recursion(2, 0, E59.zeta) == F(99, 32)
        assert recursion(2, 0, E58.zeta) == F(8, 3)

    def test_offdiagonal_degrees_reduce_to_stable_count(self):
        # every degree coprime to the rank must give N1/(q-1)
        for curve in GALLERY:
            b1 = F(curve.n1, curve.q - 1)
            zc = curve.zeta
            assert recursion(2, 1, zc) == b1
            assert recursion(3, 1, zc) == b1
            assert recursion(3, 2, zc) == b1

    def test_closed_form_equals_truncation_plus_exact_tail(self):
        for curve in (E59, E58):
            zc = curve.zeta
            for r, d in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
                closed = hn_correction_truncated(r, d, zc, 30) + hn_tail_closed(r, d, zc, 30)
                b1 = F(curve.n1, curve.q - 1)
                if r == 2:
                    full = b1 * zfunc(zc)(F(1, zc.q ** 2)) - recursion(2, d, zc)
                else:
                    full = (b1 * zfunc(zc)(F(1, zc.q ** 2)) * zfunc(zc)(F(1, zc.q ** 3))
                            - recursion(3, d, zc))
                assert closed == full

    def test_truncation_within_geometric_tail_bound(self):
        zc = E59.zeta
        for r, d in ((2, 0), (3, 0)):
            b1 = F(9, 4)
            if r == 2:
                full = b1 * zfunc(zc)(F(1, 25)) - recursion(2, d, zc)
            else:
                full = (b1 * zfunc(zc)(F(1, 25)) * zfunc(zc)(F(1, 125))
                        - recursion(3, d, zc))
            trunc = hn_correction_truncated(r, d, zc, 30)
            assert 0 <= full - trunc < F(1, 5 ** 40)

    def test_zeta_value_equals_ratfunc_evaluation(self):
        # the integer numerator and denominator of Z(q^-i), and the direct
        # P(x)/((1-x)(1-qx)), against the reduced RatFunc, exactly
        for q in primes_up_to(50):
            w = isqrt(4 * q)
            for n1 in range(q + 1 - w, q + 2 + w):
                zc = elliptic_zeta(q, n1)
                for i in (2, 3):
                    den = q * (q ** i - 1) * (q ** (i - 1) - 1)
                    assert F(_zeta_value(zc, i), den) == zfunc(zc)(F(1, q ** i))
                    assert zeta_value(zc, i) == zfunc(zc)(F(1, q ** i))

    def test_integer_kernel_equals_fraction_route(self, census_curves):
        # the integer numerators over one denominator against the recursion
        # summed term by term on Fractions (tests/bundle_oracle.py)
        for curve in census_curves:
            zc = curve.zeta
            for r in (1, 2, 3):
                for d in range(-6, 7):
                    got = mass_recursion_beta(r, d, zc)
                    assert [type(x) for x in got] == [int, int]
                    assert F(*got) == fraction_mass_recursion_beta(r, d, zc)
