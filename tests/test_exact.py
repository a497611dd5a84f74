import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ratfunc_oracle import (
    RatFunc,
    decimate,
    longdiv_series,
    poly_divmod,
    poly_eval,
    poly_from_power_sums,
    poly_gcd,
    series_exp_from_power_sums,
)

from zetalab.errors import InputError
from zetalab.exact import (
    Poly,
    Series,
    bernoulli_even,
    fe_transform_check,
    power_sums_from_poly,
)


# The Fraction recurrences that Series used for every input before it grew
# integer paths, kept as oracles for both paths.

def fraction_mul(a, b):
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def fraction_inverse(a):
    n = len(a)
    inv = [Fraction(0)] * n
    inv[0] = 1 / Fraction(a[0])
    for k in range(1, n):
        acc = sum((a[j] * inv[k - j] for j in range(1, k + 1)), Fraction(0))
        inv[k] = -acc / a[0]
    return inv


def fraction_log(a):
    # k*S_k = sum_{j=1..k} j*L_j*S_{k-j}, solved for L_k
    n = len(a)
    lg = [Fraction(0)] * n
    for k in range(1, n):
        acc = Fraction(k) * a[k]
        for j in range(1, k):
            acc -= j * lg[j] * a[k - j]
        lg[k] = acc / k
    return lg


def fraction_ratio(num, den, order):
    """Series.ratio's route before it cleared denominators: num/d0 times
    the inverse of den/d0, whose constant term is 1, on Fractions."""
    def scaled(p):
        cs = [Fraction(c) / den[0] for c in p.coeffs[:order]]
        return cs + [Fraction(0)] * (order - len(cs))
    return fraction_mul(scaled(num), fraction_inverse(scaled(den)))


def log_power_sums(p, m_max):
    """Power sums as -m * [log p]_m, in Fractions: O(m_max^2)."""
    lg = fraction_log(list(Series(p.coeffs, m_max + 1).coeffs))
    return [-m * lg[m] for m in range(1, m_max + 1)]


def rand_poly(rng, deg, bound=9):
    return Poly([Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
                 for _ in range(deg + 1)])


class TestPolyPlumbing:
    def test_normalization_strips_trailing_zeros(self):
        assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
        assert Poly([0, 0]).coeffs == ()
        assert Poly().degree == -1

    def test_divmod_roundtrip(self):
        rng = random.Random(7)
        for _ in range(40):
            a = rand_poly(rng, rng.randint(0, 6))
            b = rand_poly(rng, rng.randint(0, 4))
            if not b.coeffs:
                continue
            q, r = poly_divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_gcd(self):
        a = Poly([1, 1])          # 1 + t
        b = Poly([1, 2, 1])       # (1+t)^2
        assert poly_gcd(a, b) == Poly([1, 1])
        assert poly_gcd(Poly([1]), Poly([2, 3])) == Poly([1])

    def test_eval(self):
        p = Poly([1, 3, 5])
        assert poly_eval(p, Fraction(1, 5)) == Fraction(1) + Fraction(3, 5) + Fraction(5, 25)


class TestRatFuncPlumbing:
    def test_normalization_monic_and_coprime(self):
        # (2 + 2t) / (2 - 2t^2) = 1 / (1 - t)
        f = RatFunc(Poly([2, 2]), Poly([2, 0, -2]))
        assert f.den.coeffs[-1] == 1
        assert poly_gcd(f.num, f.den).degree <= 0
        assert f(Fraction(1, 2)) == Fraction(2)

    def test_arithmetic(self):
        one_minus_t = RatFunc(Poly([1]), Poly([1, -1]))
        t = RatFunc.from_poly(Poly([0, 1]))
        s = one_minus_t * t
        assert s(Fraction(1, 3)) == Fraction(1, 3) / Fraction(2, 3)

    def test_series_matches_longdiv(self):
        rng = random.Random(11)
        for _ in range(25):
            num = rand_poly(rng, rng.randint(0, 4))
            den = rand_poly(rng, rng.randint(0, 4))
            if den[0] == 0:
                continue
            f = RatFunc(num, den)
            s = f.series(9)
            oracle = longdiv_series(list(f.num.coeffs) or [Fraction(0)],
                                    list(f.den.coeffs), 9)
            assert list(s.coeffs) == oracle


class TestSeriesPlumbing:
    def test_order_is_min_of_operands(self):
        a = Series([1, 2, 3], 3)
        b = Series([1, 1], 2)
        assert (a * b).order == 2
        assert (b * a).order == 2

    def test_log_exp_inverse_roundtrip(self):
        rng = random.Random(3)
        for _ in range(20):
            coeffs = [Fraction(1)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                      for _ in range(7)]
            s = Series(coeffs, 8)
            assert s.log().exp() == s
            assert (s * s.inverse()) == Series([1], 8)

    def test_exp_needs_zero_constant(self):
        with pytest.raises(InputError):
            Series([1, 1], 2).exp()
        with pytest.raises(InputError):
            Series([2, 1], 2).log()


class TestSeriesRatio:
    def check(self, num, den, order=9):
        s = Series.ratio(num, den, order)
        assert s.order == order
        assert list(s.coeffs) == longdiv_series(num.coeffs or [Fraction(0)],
                                                den.coeffs, order)
        return s

    def test_integral_unit_constant(self):
        rng = random.Random(13)
        for _ in range(40):
            num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            den = Poly([rng.choice([1, -1])] + [rng.randint(-9, 9)
                                                for _ in range(rng.randint(0, 4))])
            assert all(c.denominator == 1 for c in self.check(num, den).coeffs)

    def test_fraction_coefficients(self):
        rng = random.Random(17)
        for _ in range(40):
            num = rand_poly(rng, rng.randint(0, 4))
            den = rand_poly(rng, rng.randint(0, 4))
            if den[0] == 0:
                continue
            self.check(num, den)

    def test_non_unit_constant(self):
        rng = random.Random(29)
        for _ in range(40):
            num = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
            d0 = rng.choice([2, -3, 5, 7, -12])
            den = Poly([d0] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))])
            self.check(num, den)

    def test_matches_fraction_route(self):
        # the t -> d0 t substitution and the d0^(k+1) division against the
        # scale-by-1/d0 route, for d0 = +-1, non-unit, negative and rational,
        # with num's degree below and above the order
        rng = random.Random(31)
        for order in range(1, 41):
            for d0 in (1, -1, 2, -3, 12, Fraction(3, 4), Fraction(-5, 6)):
                for bound in (1, 4):
                    num = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, bound))
                                for _ in range(rng.choice([order // 2, order + 3]) + 1)])
                    den = Poly([d0] + [Fraction(rng.randint(-9, 9), rng.randint(1, bound))
                                       for _ in range(rng.randint(0, 5))])
                    got = Series.ratio(num, den, order)
                    assert list(got.coeffs) == fraction_ratio(num, den, order)

    def test_pole_at_zero_refused(self):
        with pytest.raises(InputError, match="pole at t=0"):
            Series.ratio(Poly([1]), Poly([0, 1]), 5)
        with pytest.raises(InputError, match="pole at t=0"):
            Series.ratio(Poly([1, 2]), Poly(), 5)


class TestSeriesExpFromPowerSums:
    def test_all_zero_counts(self):
        s = series_exp_from_power_sums([0, 0, 0, 0], 5)
        assert list(s.coeffs) == [1, 0, 0, 0, 0]

    def test_projective_line_over_f2(self):
        # counts 2^m + 1 give 1/((1-t)(1-2t))
        counts = [2 ** m + 1 for m in range(1, 4)]
        s = series_exp_from_power_sums(counts, 4)
        oracle = longdiv_series([Fraction(1)], (Poly([1, -1]) * Poly([1, -2])).coeffs, 4)
        assert list(s.coeffs) == oracle
        assert list(s.coeffs) == [1, 3, 7, 15]

    def test_elliptic_counts_q5(self):
        s = series_exp_from_power_sums([9, 27, 108], 4)
        oracle = longdiv_series([Fraction(1), Fraction(3), Fraction(5)],
                                list((Poly([1, -1]) * Poly([1, -5])).coeffs), 4)
        assert list(s.coeffs) == oracle

    def test_insufficient_counts(self):
        with pytest.raises(InputError):
            series_exp_from_power_sums([1], 4)


class TestPowerSums:
    def test_constant_poly_has_no_roots(self):
        assert power_sums_from_poly(Poly([1]), 6) == [0] * 6

    def test_elliptic_numerator(self):
        p1, p2, p3 = power_sums_from_poly(Poly([1, 3, 5]), 3)
        assert (p1, p2, p3) == (-3, -1, 18)
        # numeric cross-check: reciprocal roots solve y^2 + 3y + 5 = 0
        roots = np.roots([1, 3, 5])
        for m, exact in ((1, p1), (2, p2), (3, p3)):
            assert abs(sum(r ** m for r in roots) - float(exact)) < 1e-12

    def test_split_quadratic(self):
        p = Poly([1, -2]) * Poly([1, -3])
        assert power_sums_from_poly(p, 2) == [5, 13]

    def test_requires_unit_constant(self):
        with pytest.raises(InputError):
            power_sums_from_poly(Poly([2, 1]), 2)

    def test_poly_from_power_sums_roundtrip(self):
        rng = random.Random(19)
        for _ in range(20):
            p = Poly([1] + [Fraction(rng.randint(-4, 4)) for _ in range(4)])
            ps = power_sums_from_poly(p, p.degree)
            assert poly_from_power_sums(ps, p.degree) == p


def fe_transform(p, q, rg):
    """q^rg * t^(2rg) * p(1/(qt)), as an exact polynomial (test oracle)."""
    out = [Fraction(0)] * (2 * rg + 1)
    for i, c in enumerate(p.coeffs):
        out[2 * rg - i] = c * Fraction(q) ** (rg - i)
    return Poly(out)


integers = st.integers(-30, 30)
rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)


def coefficient_lists(elements, min_size=1, max_size=14):
    return st.lists(elements, min_size=min_size, max_size=max_size)


class TestIntegerPaths:
    """The integer recurrences agree with the Fraction oracles, on integral
    input (the integer path) and on rational input (the Fraction path)."""

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(integers), coefficient_lists(integers))
    def test_mul_integral(self, a, b):
        got = Series(a) * Series(b)
        assert list(got.coeffs) == fraction_mul(a, b)
        assert all(type(c) is int for c in got.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(rationals), coefficient_lists(integers))
    def test_mul_rational(self, a, b):
        assert list((Series(a) * Series(b)).coeffs) == fraction_mul(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, -1, 2, -3]), coefficient_lists(integers, 0))
    def test_inverse_integral(self, c0, tail):
        a = [c0] + tail
        got = Series(a).inverse()
        assert list(got.coeffs) == fraction_inverse(a)
        assert list((got * Series(a)).coeffs) == [1] + [0] * len(tail)

    @settings(max_examples=150, deadline=None)
    @given(rationals.filter(bool), coefficient_lists(rationals, 0))
    def test_inverse_rational(self, c0, tail):
        a = [c0] + tail
        assert list(Series(a).inverse().coeffs) == fraction_inverse(a)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(integers, 0))
    def test_log_integral(self, tail):
        a = [1] + tail
        got = Series(a).log()
        assert list(got.coeffs) == fraction_log(a)
        assert got.exp() == Series(a)

    @settings(max_examples=150, deadline=None)
    @given(coefficient_lists(rationals, 0))
    def test_log_rational(self, tail):
        a = [1] + tail
        assert list(Series(a).log().coeffs) == fraction_log(a)

    def test_log_needs_unit_constant(self):
        # constant term -1 has no log, on either path
        with pytest.raises(InputError):
            Series([-1, 3, 4]).log()
        with pytest.raises(InputError):
            Series([-1, Fraction(1, 2)]).log()

    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(integers, 0, 8), st.integers(0, 16))
    def test_power_sums_integral(self, tail, m_max):
        # d < m and d > m both occur: deg p is 0..8, m_max is 0..16
        p = Poly([1] + tail)
        got = power_sums_from_poly(p, m_max)
        assert got == log_power_sums(p, m_max)
        assert all(type(c) is int for c in got)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(rationals, 0, 8), st.integers(0, 16))
    def test_power_sums_rational(self, tail, m_max):
        p = Poly([1] + tail)
        assert power_sums_from_poly(p, m_max) == log_power_sums(p, m_max)

    def test_curve_series_is_integral(self):
        # the monic denominator (1-t)(1-qt)/q is rescaled to a unit constant
        # term, so the Weil numerator's series stays integral
        f = RatFunc(Poly([1, -2, 5]), Poly([1, -1]) * Poly([1, -5]))
        assert f.den.coeffs[0] == Fraction(1, 5)
        s = Series.ratio(f.num, f.den, 12)
        assert list(s.coeffs) == longdiv_series(f.num.coeffs, f.den.coeffs, 12)
        assert all(c.denominator == 1 for c in s.coeffs)


def fraction_poly(coeffs):
    """A coefficient list on Fractions with its trailing zeros stripped."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


class TestIntInputsMatchFractionRoute:
    """On int coefficients every result is the all-Fraction route's value,
    with each integral coefficient kept as an int (the constructors' form);
    the series product, inverse and log are checked the same way in
    TestIntegerPaths."""

    @staticmethod
    def assert_exact_form(coeffs):
        assert all(type(c) is int if c.denominator == 1 else type(c) is Fraction
                   for c in coeffs)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(integers, 0, 8), integers.filter(bool),
           coefficient_lists(integers, 0, 6), st.integers(1, 16))
    def test_ratio(self, num, d0, den_tail, order):
        num, den = Poly(num), Poly([d0] + den_tail)
        got = Series.ratio(num, den, order)
        assert list(got.coeffs) == fraction_ratio(num, den, order)
        self.assert_exact_form(got.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(coefficient_lists(integers, 0, 8), coefficient_lists(integers, 0, 8), integers)
    def test_poly_arithmetic(self, a, b, c):
        fa, fb = fraction_poly(a), fraction_poly(b)
        n = max(len(fa), len(fb))
        fa0, fb0 = fa + [Fraction(0)] * (n - len(fa)), fb + [Fraction(0)] * (n - len(fb))
        product = [Fraction(0)] * (len(fa) + len(fb) - 1) if fa and fb else []
        for i, x in enumerate(fa):
            for j, y in enumerate(fb):
                product[i + j] += x * y
        for got, want in ((Poly(a) + Poly(b), [x + y for x, y in zip(fa0, fb0)]),
                          (Poly(a) - Poly(b), [x - y for x, y in zip(fa0, fb0)]),
                          (-Poly(a), [-x for x in fa]),
                          (Poly(a) * Poly(b), product),
                          (Poly(a).scale(c), [Fraction(c) * x for x in fa])):
            assert list(got.coeffs) == fraction_poly(want)
            assert all(type(x) is int for x in got.coeffs)

    @settings(max_examples=100, deadline=None)
    @given(coefficient_lists(rationals, 0, 8), st.integers(1, 12))
    def test_integral_fractions_become_ints(self, coeffs, order):
        poly, series = Poly(coeffs), Series(coeffs, order)
        assert list(poly.coeffs) == fraction_poly(coeffs)
        assert list(series.coeffs) == (coeffs + [0] * order)[:order]
        self.assert_exact_form(poly.coeffs)
        self.assert_exact_form(series.coeffs)


class TestFETransformCheck:
    def test_rank2_paper_numerator(self):
        q = 5
        p = Poly([1, q - 1, 2 * q - 4, q * q - q, q * q])
        assert fe_transform_check(p, q, 2)
        assert fe_transform(p, q, 2) == p

    def test_mismatch(self):
        assert not fe_transform_check(Poly([1, 1]), 5, 1)

    def test_elliptic(self):
        p = Poly([1, 3, 5])
        assert fe_transform_check(p, 5, 1)
        assert fe_transform(p, 5, 1) == p

    def test_involutive_consistency(self):
        rng = random.Random(5)
        for _ in range(20):
            rg = rng.randint(1, 3)
            q = rng.choice([2, 3, 5, 7])
            lower = [Fraction(rng.randint(-9, 9)) for _ in range(rg + 1)]
            lower[0] = Fraction(1)
            coeffs = lower + [lower[rg - 1 - j] * Fraction(q) ** (j + 1)
                              for j in range(rg)]
            p = Poly(coeffs)
            assert fe_transform_check(p, q, rg)
            assert fe_transform(p, q, rg) == p


class TestDecimate:
    def test_basic(self):
        assert list(decimate(Series([1, 2, 3, 4, 5], 5), 2).coeffs) == [1, 3, 5]

    def test_identity(self):
        s = Series([1, 2, 3], 3)
        assert decimate(s, 1) == s

    def test_even_coefficients_of_projective_line(self):
        s = Series(longdiv_series([Fraction(1)], (Poly([1, -1]) * Poly([1, -2])).coeffs, 6))
        assert list(decimate(s, 2).coeffs) == [1, 7, 31]

    def test_product_with_sparse_factor(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(2, 3)
            order = 12
            a = Series([Fraction(rng.randint(-5, 5)) for _ in range(order)], order)
            sparse = [Fraction(0)] * order
            for k in range(0, order, n):
                sparse[k] = Fraction(rng.randint(-5, 5))
            b = Series(sparse, order)
            b_compressed = decimate(b, n)
            assert decimate(a * b, n) == decimate(a, n) * b_compressed


class TestRoundTripInvariant:
    def test_counts_to_series_roundtrip(self):
        # N_m = q^m + 1 - p_m reproduces P/((1-t)(1-qt)) exactly
        rng = random.Random(31)
        for _ in range(15):
            q = rng.choice([2, 3, 5, 7, 11])
            g = rng.randint(1, 3)
            # build a degree-2g P with P(0)=1 satisfying the FE constraint
            lower = [Fraction(1)] + [Fraction(rng.randint(-6, 6)) for _ in range(g)]
            coeffs = lower + [lower[g - 1 - j] * Fraction(q) ** (j + 1)
                              for j in range(g)]
            p = Poly(coeffs)
            order = 10
            psums = power_sums_from_poly(p, order)
            counts = [Fraction(q) ** m + 1 - psums[m - 1] for m in range(1, order + 1)]
            s = series_exp_from_power_sums(counts, order)
            oracle = longdiv_series(p.coeffs, (Poly([1, -1]) * Poly([1, -q])).coeffs, order)
            assert list(s.coeffs) == oracle

    def test_referential_transparency(self):
        a = series_exp_from_power_sums([9, 27, 108], 4)
        b = series_exp_from_power_sums([9, 27, 108], 4)
        assert a == b and a.coeffs == b.coeffs


def test_bernoulli_even_matches_mpmath():
    assert bernoulli_even(40) == tuple(Fraction(*mpmath.bernfrac(2 * k)) for k in range(41))
