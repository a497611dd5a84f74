import cmath
import math
import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from typing import Mapping

import numpy as np
import pytest
from bundle_oracle import fraction_na_numerator
from fq_oracle import Fq, multiples, one_curve_per_group, pt_add, torsion_count
from ratfunc_oracle import (
    RatFunc,
    longdiv_series,
    poly_derivative,
    poly_eval,
    poly_gcd,
    zseries,
)

from zetalab import ffield, nazeta
from zetalab.artin import elliptic_zeta, nm
from zetalab.bundles import (
    Convention,
    CurveData,
    invariant,
    mass_recursion_beta,
)
from zetalab.errors import CapabilityError, InputError, NumericError, ResourceError
from zetalab.exact import Poly, Series, fe_transform_check, power_sums_from_poly, rat
from zetalab.ffield import (
    MESTRE_BOUND,
    FieldSpec,
    GroupStructure,
    WeierstrassCurve,
    _hasse_multiples,
    ap_fast,
    count_points,
    group_structure,
    primes_up_to,
)
from zetalab.nazeta import (
    GlobalCurve,
    RankZeta,
    allbundles_rank2,
    andrianov_formal_match,
    ell_na_zeta,
    global_na_zeta_partial,
    na_counts,
    na_numerator,
    rank2_local_numerator,
    reciprocal_roots,
    root_pairing_residual,
)

E59 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 1, 1))
E58 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 4, 0))
GALLERY = [E59, E58,
           CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 1)),
           CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 3)),
           CurveData.from_curve(WeierstrassCurve(FieldSpec(11), 1, 1))]


def paper_rank2_numerator(q):
    return Poly([1, q - 1, 2 * q - 4, q * q - q, q * q])


def ratfunc_assembly(q, r, gamma0, betas):
    """Oracle for na_numerator: sum the degree classes d mod r of
    Z = gamma0 + sum_{d>=1} (q^d - 1) beta_(d mod r) t^d as geometric
    series of rational functions, then clear (1 - t^r)(1 - q^r t^r)."""
    den_tr = Poly([1] + [0] * (r - 1) + [-1])                 # 1 - t^r
    den_qtr = Poly([1] + [0] * (r - 1) + [-(q ** r)])         # 1 - q^r t^r
    z = RatFunc(Poly([gamma0]), Poly.one())
    for j, beta_j in enumerate(betas):
        lead = r if j == 0 else j
        top = RatFunc(Poly.x(lead, q ** lead), den_qtr)       # q^l t^l/(1-q^r t^r)
        bottom = RatFunc(Poly.x(lead), den_tr)                # t^l/(1-t^r)
        z = z + (top - bottom).scale(beta_j)
    numerator = z * RatFunc.from_poly(den_tr * den_qtr)
    assert numerator.den == Poly.one()
    return numerator.num


@pytest.fixture(scope="module")
def curves_to_23():
    """Every nonsingular y^2 = x^3 + ax + b over F_p, 5 <= p <= 23, up to
    its (q, N_1, group) (the rank-r zeta depends on nothing else): its
    CurveData and one (a, b) for each."""
    return [(CurveData.from_curve(curve), (curve.a, curve.b))
            for curve in one_curve_per_group(
                WeierstrassCurve(FieldSpec(p), a, b)
                for p in primes_up_to(23)[2:] for a in range(p) for b in range(p)
                if (4 * a ** 3 + 27 * b ** 2) % p)]


class TestEllNaZeta:
    def test_rank1_is_artin_zeta(self):
        for curve in GALLERY:
            z = ell_na_zeta(curve, 1, Convention.PAPER_SPLIT)
            zc = curve.zeta
            assert (RatFunc(z.P, z.denominator)
                    == RatFunc(zc.P, Poly([1, -1]) * Poly([1, -zc.q])))
        z59 = ell_na_zeta(E59, 1, Convention.GALOIS_DESCENT)
        assert z59.P == Poly([1, 3, 5])

    def test_rank2_paper_split_shape_is_curve_independent(self):
        for curve in GALLERY:
            z = ell_na_zeta(curve, 2, Convention.PAPER_SPLIT)
            prefactor = F(curve.n1, curve.q - 1)
            assert z.P == paper_rank2_numerator(curve.q).scale(prefactor)

    def test_rank2_descent_q5_n9(self):
        z = ell_na_zeta(E59, 2, Convention.GALOIS_DESCENT)
        assert z.P == Poly([1, 4, 7, 20, 25]).scale(F(9, 4))

    def test_rank2_descent_middle_coefficient(self):
        # derived regularity: normalized t^2 coefficient equals N_1 - 2
        for curve in GALLERY:
            z = ell_na_zeta(curve, 2, Convention.GALOIS_DESCENT)
            assert z.normalized_numerator[2] == curve.n1 - 2

    def test_defining_series_matches_masses(self):
        for curve in GALLERY[:3]:
            for conv in Convention:
                for r in (1, 2, 3):
                    z = ell_na_zeta(curve, r, conv)
                    series = Series.ratio(z.P, z.denominator, 3 * r + 1)
                    assert series[0] == F(*invariant("gamma", r, 0, curve, conv))
                    for d in range(1, 3 * r + 1):
                        expected = ((F(curve.q) ** d - 1)
                                    * F(*invariant("beta", r, d, curve, conv)))
                        assert series[d] == expected

    def test_denominator_shape(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert z.denominator == Poly([1, 0, -1]) * Poly([1, 0, -25])


class TestZseries:
    def test_rank_zeta_matches_long_division(self, curves_to_23):
        for curve, _ in curves_to_23:
            for r in (1, 2, 3):
                for conv in Convention:
                    z = ell_na_zeta(curve, r, conv)
                    series = Series.ratio(z.P, z.denominator, 12)
                    assert list(series.coeffs) == longdiv_series(
                        z.P.coeffs, z.denominator.coeffs, 12)

    def test_artin_zeta_matches_long_division(self, curves_to_23):
        for curve, _ in curves_to_23:
            zc = curve.zeta
            den = Poly([1, -1]) * Poly([1, -zc.q])
            assert list(zseries(zc, 12).coeffs) == longdiv_series(
                zc.P.coeffs, den.coeffs, 12)


class TestNaNumerator:
    def test_matches_ratfunc_assembly_for_every_curve(self, curves_to_23):
        for curve, _ in curves_to_23:
            for r in (1, 2, 3):
                for conv in Convention:
                    gamma0 = invariant("gamma", r, 0, curve, conv)
                    betas = [invariant("beta", r, j, curve, conv) for j in range(r)]
                    num, den = na_numerator(curve.q, r, gamma0, betas)
                    assert all(type(c) is int for c in num.coeffs)
                    assert (Poly(F(c, den) for c in num.coeffs)
                            == ratfunc_assembly(curve.q, r, F(*gamma0),
                                                [F(*beta) for beta in betas]))

    def test_ell_na_zeta_equals_fraction_route(self, curve_data_to_61):
        # the integer numerator over one denominator, and at rank 2 the
        # Euler factor times gamma_2(0), against the masses assembled on
        # Fractions (tests/bundle_oracle.py)
        for curve in curve_data_to_61:
            for conv in Convention:
                for r in (1, 2, 3):
                    gamma0 = F(*invariant("gamma", r, 0, curve, conv))
                    betas = [F(*invariant("beta", r, j, curve, conv)) for j in range(r)]
                    want = Poly(fraction_na_numerator(curve.q, r, gamma0, betas))
                    assert ell_na_zeta(curve, r, conv).P == want, (curve, conv, r)

    def test_rank2_normalized_numerator_is_euler_factor(self, curve_data_to_61):
        for curve in curve_data_to_61:
            for conv in Convention:
                factor = rank2_local_numerator(curve.q, curve.q + 1 - curve.n1, conv)
                z = ell_na_zeta(curve, 2, conv)
                assert z.normalized_numerator == Poly(factor), (curve, conv)

    def test_rank2_euler_factor_is_normalized_numerator(self, curves_to_23):
        # the local factor at p is read off as the difference of the
        # partial products up to p and up to p - 1
        s = 3 + 1j
        for curve, (a, b) in curves_to_23:
            p = curve.q
            ec = GlobalCurve(a, b)
            x = complex(p) ** (-s)
            for conv in Convention:
                upto = global_na_zeta_partial(ec, 2, s, p, conv).log_value
                below = global_na_zeta_partial(ec, 2, s, p - 1, conv).log_value
                ptilde = ell_na_zeta(curve, 2, conv).normalized_numerator
                local = sum(float(c) * x ** i for i, c in enumerate(ptilde.coeffs))
                assert abs(upto - below + cmath.log(local)) < 1e-14


def reflection_holds(z: RankZeta) -> bool:
    """The exact root pairing w * w' = q on P~ = P/P(0):
    P~(t) = q^r t^(2r) P~(1/(qt)), coefficient by coefficient."""
    rg, ptilde = z.r, z.normalized_numerator
    reflected = Poly([ptilde[2 * rg - i] * rat(z.q) ** (i - rg)
                      for i in range(2 * rg + 1)])
    return reflected == ptilde


class TestProperties:
    def test_all_generated_zetas_pass(self):
        for curve in GALLERY:
            for conv in Convention:
                for r in (1, 2, 3):
                    z = ell_na_zeta(curve, r, conv)
                    assert z.P.degree == 2 * r
                    assert fe_transform_check(z.P, z.q, r)
                    assert reflection_holds(z)
                    assert root_pairing_residual(z.q, reciprocal_roots(z)) <= 1e-9

    def test_zero_constant_term_is_refused(self):
        with pytest.raises(InputError, match="constant term"):
            RankZeta(1, 5, Poly([0, 3, 5]), 1)

    def test_wrong_degree_is_refused(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        with pytest.raises(InputError, match="degree 3 != 2r = 4"):
            RankZeta(2, z.q, Poly(z.num.coeffs[:4]), z.den)
        with pytest.raises(InputError, match="degree 4 != 2r = 6"):
            RankZeta(3, z.q, z.num, z.den)

    def test_corrupted_coefficient_fails_fe(self):
        # rank 1, so the t^2 coefficient pairs with t^0 and a corruption is
        # visible to the functional equation, which the constructor decides
        z = ell_na_zeta(E59, 1, Convention.PAPER_SPLIT)
        coeffs = list(z.num.coeffs)
        coeffs[2] += 1
        with pytest.raises(InputError, match="functional equation"):
            RankZeta(z.r, z.q, Poly(coeffs), z.den)
        assert not fe_transform_check(Poly(coeffs), z.q, z.r)

    def test_middle_coefficient_is_self_paired_at_rank2(self):
        # for rank 2, genus 1 the t^2 coefficient is self-paired, so the
        # functional equation cannot see a corruption there: the
        # constructor accepts it, and the defining series (mass
        # comparison) is what pins it instead
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        coeffs = list(z.num.coeffs)
        coeffs[2] += 1
        bad = RankZeta(z.r, z.q, Poly(coeffs), z.den)
        assert reflection_holds(bad)
        series = Series.ratio(bad.P, bad.denominator, 3)
        assert series[2] != (F(25) - 1) * F(*invariant("beta", 2, 2, E59,
                                                       Convention.PAPER_SPLIT))


def np_roots_residual(z):
    """The pairing residual from numpy's companion-matrix roots of the
    normalized numerator."""
    ptilde = z.normalized_numerator
    roots = list(np.roots([float(c) for c in reversed(ptilde.coeffs)]))
    omegas = [1 / r_ for r_ in roots]
    residual, targets = 0.0, omegas.copy()
    for w in omegas:
        want = z.q / w
        best = min(targets, key=lambda t: abs(t - want))
        residual = max(residual, abs(best - want))
        targets.remove(best)
    return residual, roots


def admissible_curve_data(q_max):
    """Every (q, N, n1) a curve over F_q, 5 <= q <= q_max prime, could have:
    N = q + 1 - a with a^2 <= 4q, n1^2 | N and n1 | q - 1.  A superset of
    the CurveData of the actual curves, one for each Z/n1 x Z/(N/n1), with
    its torsion counts read off that group."""
    found = []
    for q in primes_up_to(q_max)[2:]:
        w = math.isqrt(4 * q)
        for a in range(-w, w + 1):
            n = q + 1 - a
            groups = [GroupStructure(n1, n // n1) for n1 in range(1, math.isqrt(n) + 1)
                      if n % (n1 * n1) == 0 and (q - 1) % n1 == 0]
            found += [CurveData(q, n, torsion_count(gs, 2), torsion_count(gs, 3))
                      for gs in groups]
    return found


@pytest.fixture(scope="module")
def numerators_to_100():
    """(data, r, conv, z) for every admissible curve datum with q <= 100."""
    return [(data, r, conv, ell_na_zeta(data, r, conv))
            for data in admissible_curve_data(100)
            for r in (1, 2, 3) for conv in Convention]


def prod_durand_kerner(coeffs):
    """Oracle for nazeta._durand_kerner: the same iteration with each
    root's spread prod_{j != i} (z_i - z_j) taken by math.prod, which
    multiplies from the int 1 in the same order as the library's loop."""
    n = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in reversed(coeffs)]
    radius = abs(monic[-1]) ** (1 / n)
    z = [radius * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]

    def sweep():
        small = True
        for i, zi in enumerate(z):
            value = 0j
            for c in monic:
                value = value * zi + c
            spread = math.prod(zi - zj for j, zj in enumerate(z) if j != i)
            step = value / spread
            z[i] = zi - step
            small = small and abs(step) <= nazeta.DK_TOL * abs(z[i])
        return small

    for _ in range(nazeta.DK_MAX_SWEEPS):
        if sweep():
            for _ in range(nazeta.DK_POLISH):
                sweep()
            return z
    raise NumericError("no convergence")


class TestDurandKerner:
    def test_roots_bitwise_equal_math_prod_oracle(self, numerators_to_100):
        for data, r, conv, z in numerators_to_100:
            coeffs = [float(c) for c in z.normalized_numerator.coeffs]
            got = [(x.real.hex(), x.imag.hex()) for x in nazeta._durand_kerner(coeffs)]
            want = [(x.real.hex(), x.imag.hex()) for x in prod_durand_kerner(coeffs)]
            assert got == want, (data, r, conv)

    def test_normalized_numerators_are_squarefree(self, numerators_to_100):
        # what lets Durand-Kerner run on P/P(0) itself: no numerator any
        # command builds at q <= 100 has a repeated root (the library's
        # docstring records the same check up to the curve commands' bound)
        assert len(numerators_to_100) > 4000
        for data, r, conv, z in numerators_to_100:
            ptilde = z.normalized_numerator
            assert poly_gcd(ptilde, poly_derivative(ptilde)) == Poly.one(), (data, r, conv)

    def test_against_numpy_roots(self, numerators_to_100):
        for data, r, conv, z in numerators_to_100:
            want, np_roots = np_roots_residual(z)
            got = root_pairing_residual(z.q, reciprocal_roots(z))
            assert got <= 1e-12 and abs(got - want) <= 1e-12, (data, r, conv)
            ptilde = z.normalized_numerator
            roots = nazeta._durand_kerner([float(c) for c in ptilde.coeffs])
            assert len(roots) == len(np_roots) == 2 * r
            for x in roots:
                nearest = min(abs(x - y) for y in np_roots)
                assert nearest <= 1e-12 * abs(x), (data, r, conv)

    def test_simple_roots(self):
        # (t - 1)(t - 2)(t + 3)(t^2 + 1), ascending coefficients
        poly = Poly([-1, 1]) * Poly([-2, 1]) * Poly([3, 1]) * Poly([1, 0, 1])
        roots = nazeta._durand_kerner([float(c) for c in poly.coeffs])
        for want in (1, 2, -3, 1j, -1j):
            assert min(abs(x - want) for x in roots) < 1e-14

    def test_sweep_budget(self, monkeypatch):
        monkeypatch.setattr(nazeta, "DK_MAX_SWEEPS", 2)
        with pytest.raises(NumericError):
            nazeta._durand_kerner([6.0, -5.0, 1.0, 3.0, -2.0])


class TestCounts:
    def test_paper_rank2_values(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert na_counts(z, 2) == [4, 48]

    def test_rank1_reduces_to_point_counts(self):
        z = ell_na_zeta(E59, 1, Convention.PAPER_SPLIT)
        assert na_counts(z, 6) == [nm(E59.zeta, m) for m in range(1, 7)]

    def test_counts_match_log_derivative_for_all(self):
        # N(m) = m [log(Z / P(0))]_m, read off one log series of Z
        for curve in GALLERY:
            for conv in Convention:
                for r in (1, 2, 3):
                    z = ell_na_zeta(curve, r, conv)
                    logz = Series.ratio(z.normalized_numerator, z.denominator, 13).log()
                    assert na_counts(z, 12) == [m * logz[m] for m in range(1, 13)]

    def test_empty_and_negative(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert na_counts(z, 0) == []
        with pytest.raises(InputError):
            na_counts(z, -1)


def roots_of_unity_product_check(z: RankZeta, a: int, order: int = 0) -> bool:
    """prod_{i<=a} Z(zeta_a^i t) = P(0)^a exp(sum_m N(ma) T^m / m), T = t^a.

    Both sides are computed as exact series in T without materializing any
    root of unity: the left via norm products (power-sum decimation of the
    numerator, cyclotomic regrouping of the denominator), the right from
    the counts.  Checking beyond the degrees of both sides makes the
    series comparison an exact rational-function identity.
    """
    if a < 1:
        raise InputError("a must be >= 1")
    if order <= 0:
        order = 4 * z.r + 5
    ptilde = z.normalized_numerator
    deg = ptilde.degree
    n_psums = a * (order + deg)
    psums = power_sums_from_poly(ptilde, n_psums)
    # prod_i ptilde(zeta^i t) = exp(-sum_k p_{ak} T^k / k)
    log_num = Series([0] + [Fraction(-psums[a * k - 1], k) for k in range(1, order)], order)
    num_series = log_num.exp()
    # prod_i (1 - c (zeta^i t)^r) = (1 - c^(a/g) T^(r/g))^g, g = gcd(a, r)
    g = math.gcd(a, z.r)
    step = z.r // g

    def cyc(c: Fraction) -> Poly:
        factor, out = Poly([1] + [0] * (step - 1) + [-(c ** (a // g))]), Poly.one()
        for _ in range(g):
            out = out * factor
        return out

    den = cyc(Fraction(1)) * cyc(rat(z.q) ** z.r)
    lhs = num_series * Series.ratio(Poly.one(), den, order)
    counts = na_counts(z, a * (order - 1))
    rhs = Series([0] + [counts[a * m - 1] / m for m in range(1, order)], order).exp()
    return lhs == rhs


class TestCountsDigitBound:
    def test_bound_holds(self, curves_to_23):
        # every N(m)'s numerator and denominator stays below the bound the
        # CLI refuses --mmax by
        for curve, _ in curves_to_23:
            for r in (1, 2, 3):
                for conv in Convention:
                    z = ell_na_zeta(curve, r, conv)
                    omegas = reciprocal_roots(z)
                    for m, count in enumerate(na_counts(z, 40), start=1):
                        bound = nazeta.na_counts_log10_bound(z, m, omegas)
                        assert math.log10(abs(count.numerator) or 1) < bound
                        assert math.log10(count.denominator) < bound

    def test_bound_is_tight_on_integral_numerators(self, curves_to_23):
        # with P/P(0) integral the bound is m log10 q + log10 4r, within
        # log10 4 of N(m) ~ r q^m: no 2 max|a_j|^(1/j) root estimate
        for curve, _ in curves_to_23:
            for conv in Convention:
                z = ell_na_zeta(curve, 2, conv)
                if any(c.denominator != 1 for c in z.normalized_numerator.coeffs):
                    continue
                omegas = reciprocal_roots(z)
                count = na_counts(z, 40)[-1]
                bound = nazeta.na_counts_log10_bound(z, 40, omegas)
                assert bound - math.log10(abs(count)) < 0.7


class TestRootsOfUnityProduct:
    def test_trivial(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert roots_of_unity_product_check(z, 1)

    def test_a2_a3(self):
        z = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert roots_of_unity_product_check(z, 2, order=8)
        assert roots_of_unity_product_check(z, 3, order=8)

    def test_other_ranks_and_conventions(self):
        for r in (1, 3):
            z = ell_na_zeta(E58, r, Convention.GALOIS_DESCENT)
            for a in (2, 3):
                assert roots_of_unity_product_check(z, a)


def mass_tables_from_zeta(q, g, p_poly):
    """alpha/beta tables for rank 1 derived from a known zeta numerator."""
    h = poly_eval(p_poly, 1)
    beta = {0: F(h, q - 1)}
    zser = longdiv_series(p_poly.coeffs, (Poly([1, -1]) * Poly([1, -q])).coeffs, g)
    alpha = {d: zser[d] + beta[0] for d in range(g)}
    return alpha, beta


def _extend_masses(alpha: Mapping[int, Fraction], beta: Mapping[int, Fraction],
                   q: int, r: int, g: int):
    """Index extensions making the piecewise formula well-defined.

    beta is period-r (degree twist); alpha below degree 0 equals beta (no
    sections); alpha above r(g-1) reflects through duality:
    alpha(d) = q^(d - r(g-1)) * alpha(r(2g-2) - d).
    """
    top = r * (g - 1)

    def beta_at(d: int) -> Fraction:
        return rat(beta[d % r])

    def alpha_at(d: int) -> Fraction:
        if d < 0:
            return beta_at(d)
        if d <= top:
            return rat(alpha[d])
        return rat(q) ** (d - top) * alpha_at(r * (2 * g - 2) - d)

    return alpha_at, beta_at


def ugly_formula_coeffs(alpha: Mapping[int, Fraction], beta: Mapping[int, Fraction],
                        q: int, r: int, g: int) -> list[Fraction]:
    """Numerator coefficients a(0..2rg) from mass tables, genus >= 2 only.

    alpha must cover 0..r(g-1) and beta 0..r-1.  The six printed cases fill
    a(0..rg); the rest follow from a(2rg - i) = a(i) q^(rg - i).
    """
    if g < 2:
        raise CapabilityError(
            "the piecewise formula degenerates at genus 1; use ell_na_zeta")
    for d in range(r * (g - 1) + 1):
        if d not in alpha:
            raise InputError(f"alpha missing degree {d}")
    for d in range(r):
        if d not in beta:
            raise InputError(f"beta missing degree {d}")
    alpha_at, beta_at = _extend_masses(alpha, beta, q, r, g)
    qr = rat(q) ** r
    rg = r * g
    a = [Fraction(0)] * (2 * rg + 1)
    for i in range(rg + 1):
        d = i
        if i <= r - 1:
            a[i] = alpha_at(d) - beta_at(d)
        elif i <= 2 * r - 1:
            a[i] = alpha_at(d) - (qr + 1) * alpha_at(d - r) + qr * beta_at(d - r)
        elif i < r * (g - 1):
            a[i] = alpha_at(d) - (qr + 1) * alpha_at(d - r) + qr * alpha_at(d - 2 * r)
        elif i == r * (g - 1):
            a[i] = (-(qr + 1) * alpha_at(r * (g - 2)) + qr * alpha_at(r * (g - 3))
                    + alpha_at(r * (g - 1)))
        elif i <= rg - 1:
            a[i] = alpha_at(d) - (qr + 1) * alpha_at(d - r) + alpha_at(d - 2 * r) * qr
        else:  # i == rg
            a[i] = 2 * qr * alpha_at(r * (g - 2)) - (qr + 1) * alpha_at(r * (g - 1))
    for i in range(rg):
        a[2 * rg - i] = a[i] * rat(q) ** (rg - i)
    return a


class TestUglyFormula:
    def test_rank1_genus2_matches_known_numerator(self):
        p_poly = Poly([1, 3, 5]) * Poly([1, 3, 5])
        alpha, beta = mass_tables_from_zeta(5, 2, p_poly)
        coeffs = ugly_formula_coeffs(alpha, beta, 5, 1, 2)
        assert Poly(coeffs) == p_poly

    def test_rank1_genus3_matches_known_numerator(self):
        p_poly = Poly([1, 3, 5]) * Poly([1, 3, 5]) * Poly([1, 3, 5])
        alpha, beta = mass_tables_from_zeta(5, 3, p_poly)
        coeffs = ugly_formula_coeffs(alpha, beta, 5, 1, 3)
        assert Poly(coeffs) == p_poly

    def test_zero_tables_give_zero(self):
        alpha = {d: F(0) for d in range(5)}
        beta = {0: F(0), 1: F(0)}
        assert all(c == 0 for c in ugly_formula_coeffs(alpha, beta, 4, 2, 3))

    def test_synthetic_rank2_genus2_against_series_oracle(self):
        rng = random.Random(13)
        q, r, g = 4, 2, 2
        for _ in range(10):
            alpha = {d: F(rng.randint(1, 30), rng.randint(1, 5))
                     for d in range(r * (g - 1) + 1)}
            beta = {d: F(rng.randint(1, 20), rng.randint(1, 7)) for d in range(r)}
            coeffs = ugly_formula_coeffs(alpha, beta, q, r, g)

            # independent oracle: truncated summation of the defining series
            top = r * (g - 1)

            def beta_at(d):
                return beta[d % r]

            def alpha_at(d):
                if d < 0:
                    return beta_at(d)
                if d <= top:
                    return alpha[d]
                return F(q) ** (d - top) * alpha_at(r * (2 * g - 2) - d)

            order = 2 * r * g + 6
            gamma_series = Series([alpha_at(d) - beta_at(d) for d in range(order)],
                                  order)
            den = (Poly([1] + [0] * (r - 1) + [-1])
                   * Poly([1] + [0] * (r - 1) + [-(q ** r)]))
            prod = gamma_series * Series(den.coeffs, order)
            assert list(prod.coeffs[:2 * r * g + 1]) == coeffs
            assert all(c == 0 for c in prod.coeffs[2 * r * g + 1:])

    def test_genus1_refused(self):
        with pytest.raises(CapabilityError):
            ugly_formula_coeffs({0: F(1)}, {0: F(1)}, 5, 1, 1)


def fraction_allbundles_direct(curve, order):
    """The direct sums of `allbundles_rank2` and its negative-degree closed
    form summed term by term on Fractions, the oracle for the library's
    integer numerators: (degree zero, the four positive pieces, the
    negative degrees, the negative closed form)."""
    q, n1 = curve.q, curve.n1
    mass_unit = Fraction(n1 * n1, (q - 1) ** 2)
    direct_eq0 = mass_unit * (Fraction(1, q - 1) - Fraction(1, q * q - 1))

    def direct_i(d):
        total = Fraction(0)
        for d1 in range(d // 2 + 1, d):
            total += mass_unit * (q ** d - 1) * Fraction(1, q ** (2 * d1 - d))
        return total

    def direct_iia(d):
        return Fraction(n1) * Fraction(q ** (d + 1) - 1, (q - 1) ** 2 * q ** d)

    def direct_iib(d):
        return Fraction(n1 * (n1 - 1)) * Fraction(q ** d - 1, (q - 1) ** 2 * q ** d)

    def split_tail(lo, d):
        # sum_{d_1 >= lo} mass_unit (q^d_1 - 1) / q^(2 d_1 - d): `order`
        # terms, then the geometric rest closed exactly
        total = Fraction(0)
        for d1 in range(lo, lo + order):
            total += (q ** d1 - 1) * Fraction(1, q ** (2 * d1 - d))
        tail_from = lo + order
        geo = (Fraction(1, q ** (tail_from - d)) / (1 - Fraction(1, q))
               - Fraction(1, q ** (2 * tail_from - d)) / (1 - Fraction(1, q * q)))
        return mass_unit * (total + geo)

    def direct_iii(d):
        return split_tail(d + 1, d)

    def direct_neg(d):
        return (Fraction(n1) * Fraction(q - 1, (q - 1) ** 2 * q ** (-d))
                + split_tail(1, d))

    neg_unit = (Fraction(n1 * n1 * q, (q - 1) ** 2 * (q * q - 1))
                + Fraction(n1, q - 1))
    degrees = range(1, order + 1)
    positive = tuple(tuple(direct(d) for d in degrees)
                     for direct in (direct_i, direct_iia, direct_iib, direct_iii))
    return (direct_eq0, positive, tuple(direct_neg(-k) for k in degrees),
            tuple(neg_unit * Fraction(1, q ** k) for k in degrees))


class TestAllBundles:
    def test_integer_kernel_equals_fraction_route(self, census_curves):
        # the report depends on (q, N_1) alone; at order 40 the Fraction
        # route takes about 45 ms a curve, so that order runs on every
        # fourth pair, from the smallest q to the largest
        pairs = {(c.q, c.n1): c for c in census_curves}
        for i, (_, curve) in enumerate(sorted(pairs.items())):
            for order in (0, 1, 10, 40) if i % 4 == 0 else (0, 1, 10):
                report = allbundles_rank2(curve, order)
                eq0, positive, negative, negative_closed = \
                    fraction_allbundles_direct(curve, order)
                assert report.degree_zero_direct == eq0
                assert tuple(piece.direct for piece in report.positive) == positive
                assert report.negative.direct == negative
                assert report.negative.closed == negative_closed
                assert report.all_agree
                directs = [report.degree_zero_direct, *report.negative.direct,
                           *(v for piece in report.positive for v in piece.direct)]
                assert all(type(v) is F for v in directs)

    def test_degree_zero_instantiation(self):
        report = allbundles_rank2(E59, 10)
        assert report.degree_zero_closed == F(135, 128)
        assert report.degree_zero_direct == F(135, 128)

    def test_order_zero_edge(self):
        report = allbundles_rank2(E59, 0)
        assert report.all_agree
        assert report.degree_zero_closed == F(135, 128)

    def test_two_curves_coefficientwise(self):
        for curve in (E59, E58):
            report = allbundles_rank2(curve, 10)
            assert report.all_agree
            for piece in report.positive:
                assert len(piece.closed) == 10


class TestGlobalEuler:
    def test_empty_product(self):
        ec = GlobalCurve(-1, 0)  # y^2 = x^3 - x
        report = global_na_zeta_partial(ec, 1, 3 + 0j, 1, Convention.PAPER_SPLIT)
        assert report.value == 1

    def test_region_enforced(self):
        ec = GlobalCurve(-1, 0)
        with pytest.raises(InputError):
            global_na_zeta_partial(ec, 1, 1.5 + 0j, 100, Convention.PAPER_SPLIT)
        with pytest.raises(InputError):
            global_na_zeta_partial(ec, 2, 2.0 + 0j, 100, Convention.PAPER_SPLIT)
        # the printed region 1 + g + (r^2 - r)(g - 1) is 2 at genus 1
        with pytest.raises(InputError, match="exceed 2"):
            global_na_zeta_partial(ec, 1, 2.0 + 0j, 100, Convention.PAPER_SPLIT)
        report = global_na_zeta_partial(ec, 1, complex(2 + 2 ** -40), 100,
                                        Convention.PAPER_SPLIT)
        assert math.isfinite(report.tail_bound)

    @pytest.mark.parametrize("conv", list(Convention))
    def test_angle_overflow_refused_at_its_edge(self, conv):
        # p^(-s) has the angle t log p; the last t whose angle at p = 997 is
        # finite still runs, the next float ended in a ZeroDivisionError
        ec = GlobalCurve(1, 1)
        edge = sys.float_info.max / math.log(997)
        while math.isinf(edge * math.log(997)):
            edge = math.nextafter(edge, 0)
        while not math.isinf(math.nextafter(edge, math.inf) * math.log(997)):
            edge = math.nextafter(edge, math.inf)
        report = global_na_zeta_partial(ec, 2, complex(3, edge), 1000, conv)
        assert report.factors_used == 165
        for t in (math.nextafter(edge, math.inf), 1e308, -1e308):
            with pytest.raises(InputError, match="overflows"):
                global_na_zeta_partial(ec, 2, complex(3, t), 1000, conv)
        with pytest.raises(InputError, match="overflows"):
            global_na_zeta_partial(ec, 1, complex(1e308, 1e308), 1000, conv)

    def test_bad_primes(self):
        ec = GlobalCurve(-1, 0)   # disc = -4*6 ... bad primes divide 6*4
        assert set(ec.bad_primes) == {2, 3}

    def test_ap_fast_matches_square_table_route(self):
        for p in (5, 7, 11, 101, 499):
            for A, B in ((-1, 0), (1, 1), (2, 3)):
                if (4 * A ** 3 + 27 * B ** 2) % p == 0:
                    continue
                n1 = count_points(WeierstrassCurve(FieldSpec(p), A, B))
                assert ap_fast(p, A % p, B % p) == p + 1 - n1

    def test_rank1_partial_product_against_independent_route(self):
        # y^2 = x^3 - x at s = 3, primes to 10^4: Shanks-Mestre a_p and the
        # pure-Python square-table census must give the same product
        import cmath
        import math
        ec = GlobalCurve(-1, 0)
        s = 3 + 0j
        bound = 10 ** 4
        report = global_na_zeta_partial(ec, 1, s, bound, Convention.PAPER_SPLIT)
        logs = []
        sieve = [True] * (bound + 1)
        for p in range(2, bound + 1):
            if not sieve[p]:
                continue
            for k in range(2 * p, bound + 1, p):
                sieve[k] = False
            if p <= 3 or p in ec.bad_primes:
                continue
            ap = p + 1 - count_points(WeierstrassCurve(FieldSpec(p), -1, 0))
            x = complex(p) ** (-s)
            logs.append(-cmath.log(1 - ap * x + p * x * x))
        other = cmath.exp(complex(math.fsum(z.real for z in logs),
                                  math.fsum(z.imag for z in logs)))
        assert abs(report.value - other) < 1e-10

    def test_monotone_stability(self):
        ec = GlobalCurve(1, 1)
        s = 3.5 + 0j
        small = global_na_zeta_partial(ec, 2, s, 1500, Convention.PAPER_SPLIT)
        large = global_na_zeta_partial(ec, 2, s, 3000, Convention.PAPER_SPLIT)
        assert abs(large.value - small.value) < abs(small.value) * small.tail_bound

    def test_rank2_local_factor_shape(self):
        # product over the single good prime 5 must equal the printed factor
        ec = GlobalCurve(1, 1)
        s = 4 + 0j
        report = global_na_zeta_partial(ec, 2, s, 5, Convention.PAPER_SPLIT)
        p = 5
        x = p ** (-4.0)
        local = 1 + (p - 1) * x + (2 * p - 4) * x ** 2 + (p * p - p) * x ** 3 + p * p * x ** 4
        assert abs(report.value - 1 / local) < 1e-14

    def test_prime_bound_cap(self):
        ec = GlobalCurve(1, 1)
        with pytest.raises(ResourceError):
            global_na_zeta_partial(ec, 2, 3 + 0j, 100_001, Convention.PAPER_SPLIT)
        # the cap itself is allowed; rank-2 PAPER_SPLIT needs no a_p there
        report = global_na_zeta_partial(ec, 2, 3 + 0j, 100_000, Convention.PAPER_SPLIT)
        assert report.prime_bound == 100_000


def rank2_factor_oracle(p, n1, conv):
    """Oracle for rank2_local_numerator: the exact beta_2(0) of the
    convention (mass recursion, or the printed split census's
    N_1 (p + 3)/(p^2 - 1)), divided by gamma_2(0) = beta_1(0) = N_1/(p-1)
    and fed through the numerator assembly on Fractions."""
    if conv is Convention.PAPER_SPLIT:
        beta0 = F(n1 * (p + 3), p * p - 1)
    else:
        beta0 = F(*mass_recursion_beta(2, 0, elliptic_zeta(p, n1)))
    return fraction_na_numerator(p, 2, 1, (beta0 / F(n1, p - 1), 1))


class TestRank2LocalNumerator:
    @pytest.mark.parametrize("conv", list(Convention))
    def test_closed_form_matches_oracle(self, conv):
        for p in primes_up_to(300)[2:] + [9973, 99991]:
            w = math.isqrt(4 * p)
            for n1 in range(p + 1 - w, p + 2 + w):
                closed = rank2_local_numerator(p, p + 1 - n1, conv)
                assert all(type(c) is int for c in closed)
                assert list(closed) == rank2_factor_oracle(p, n1, conv), (p, n1)

    @pytest.mark.parametrize("r, conv, per_factor", [
        (1, Convention.PAPER_SPLIT, 1),
        (1, Convention.GALOIS_DESCENT, 1),
        (2, Convention.GALOIS_DESCENT, 1),
        (2, Convention.PAPER_SPLIT, 0),
    ])
    def test_ap_fast_calls(self, monkeypatch, r, conv, per_factor):
        calls = []

        def counted(p, A, B):
            calls.append(p)
            return ap_fast(p, A, B)
        monkeypatch.setattr(nazeta, "ap_fast", counted)
        report = global_na_zeta_partial(GlobalCurve(1, 1), r, 3 + 1j, 2000, conv)
        assert report.factors_used > 250
        assert len(calls) == per_factor * report.factors_used

    def test_paper_split_product_depends_only_on_bad_primes(self):
        # y^2 = x^3 - x and y^2 = x^3 + 1 are both bad at {2, 3} alone,
        # and their a_p differ, yet the rank-2 PAPER_SPLIT products agree
        e1, e2 = GlobalCurve(-1, 0), GlobalCurve(0, 1)
        assert e1.bad_primes == e2.bad_primes == (2, 3)
        assert ap_fast(7, -1, 0) != ap_fast(7, 0, 1)
        s = 2.5 + 3j
        for conv, same in ((Convention.PAPER_SPLIT, True),
                           (Convention.GALOIS_DESCENT, False)):
            a = global_na_zeta_partial(e1, 2, s, 3000, conv).log_value
            b = global_na_zeta_partial(e2, 2, s, 3000, conv).log_value
            assert (a == b) is same

    @pytest.mark.parametrize("conv", list(Convention))
    def test_rank2_factor_equals_the_power_sum_bitwise(self, conv):
        # oracle: each factor summed as sum(c_i x**i).  The library's
        # products x^2, x x^2, x^2 x^2 are the ones complex ** int forms,
        # so the product must agree to the bit
        ec, s = GlobalCurve(1, 1), 2.5 + 3j
        logs = []
        for p in primes_up_to(3000):
            if p <= 3 or p in ec.bad_primes:
                continue
            x = complex(p) ** (-s)
            ap = None if conv is Convention.PAPER_SPLIT else ap_census(p, 1, 1)
            coeffs = rank2_local_numerator(p, ap, conv)
            logs.append(-cmath.log(sum(float(c) * x ** i for i, c in enumerate(coeffs))))
        total = complex(math.fsum(z.real for z in logs), math.fsum(z.imag for z in logs))
        report = global_na_zeta_partial(ec, 2, s, 3000, conv)
        assert report.factors_used == len(logs)
        assert (report.log_value.real.hex(), report.log_value.imag.hex()) == \
            (total.real.hex(), total.imag.hex())
        assert report.value == cmath.exp(total)


def ap_census(p, A, B):
    """Oracle for ap_fast: a_p by a numpy quadratic-residue census, O(p)."""
    x = np.arange(p, dtype=np.int64)
    fx = (x * x % p * x + A % p * x + B % p) % p
    sq = np.zeros(p, dtype=bool)
    sq[(x * x) % p] = True
    n_affine = (int(np.count_nonzero(fx == 0))
                + 2 * int(np.count_nonzero(sq[fx] & (fx != 0))))
    return p + 1 - (n_affine + 1)


# y^2 = x^3 - x (full 2-torsion), j = 0 (A = 0), j = 1728 (B = 0), the
# p = 593 regression curve, and a spread of generic models
AP_CURVES = [(-1, 0), (0, 1), (0, -2), (3, 0), (1, 1), (5, -2), (2, 3),
             (-7, 6), (-2, 1), (11, -13)]


def _good(p, A, B):
    return (4 * A ** 3 + 27 * B ** 2) % p != 0


class TestApShanksMestre:
    def test_every_good_prime_to_5000(self):
        for A, B in AP_CURVES:
            for p in primes_up_to(5000)[2:]:
                if _good(p, A, B):
                    assert ap_fast(p, A, B) == ap_census(p, A, B), (A, B, p)

    def test_every_good_prime_to_the_benchmark_bound(self):
        # the euler benchmark's pmax reaches 2 * 10^4
        for A, B in ((-1, 0), (5, -2)):
            for p in primes_up_to(20000)[2:]:
                if _good(p, A, B):
                    assert ap_fast(p, A, B) == ap_census(p, A, B), (A, B, p)

    @pytest.mark.parametrize("p", [99991, 100003, 100019, 999983, 1000003])
    def test_large_primes(self, p):
        for A, B in ((-1, 0), (0, 1), (5, -2), (11, -13)):
            assert ap_fast(p, A, B) == ap_census(p, A, B), (A, B, p)

    def test_small_primes_use_the_table(self):
        rng = random.Random(5)
        for p in primes_up_to(MESTRE_BOUND)[2:]:
            for A, B in AP_CURVES + [(rng.randrange(p), rng.randrange(p))]:
                if _good(p, A, B):
                    assert ap_fast(p, A, B) == ap_census(p, A, B)

    def test_regression_first_point_of_order_2m(self):
        # p = 593: m = 7, and the first point (x = 0, d = B) has order 14,
        # so a giant-step window of 2m + 1 = 15 can hold two multiples
        p, A, B = 593, 5, -2
        d = B % p
        w = math.isqrt(4 * p)
        assert math.isqrt(w) + 1 == 7
        assert _hasse_multiples(p, A * d * d % p, (0, d * d % p), p + 1 - w, p + 1 + w) == \
            [M for M in range(p + 1 - w, p + 2 + w) if M % 14 == 0]
        assert ap_fast(p, A, B) == 34 == ap_census(p, A, B)

    def test_first_window_reaching_below_the_interval(self):
        # p = 239, y^2 = x^3 + 1, x = 3: P has order 16 >= 2m + 2 = 14, and
        # the giant walk starts at c0 = 16 * 13 = 208, so c0 P = O although
        # 208 lies below lo = 210; it must not be reported
        p, A, B, x = 239, 0, 1, 3
        d = (x ** 3 + A * x + B) % p
        a, P = A * d * d % p, (d * x % p, d * d % p)
        w = math.isqrt(4 * p)
        m = math.isqrt(w) + 1
        lo, hi = p + 1 - w, p + 1 + w
        c0 = (lo + m) // (2 * m + 1) * (2 * m + 1)
        assert (m, lo, c0) == (6, 210, 208)
        assert len(multiples(Fq(p), a, P)) - 1 == 16
        assert _hasse_multiples(p, a, P, lo, hi) == [224, 240, 256] == \
            [M for M in range(lo, hi + 1) if M % 16 == 0]

    def test_hasse_multiples_of_small_order_points(self):
        # every point (dx, d^2), x < 25, whose order n is at most 2m + 3
        # (found by repeated addition with the oracle's group law) must give
        # exactly the multiples of n in the Hasse interval
        orders = set()
        for p in (q for q in primes_up_to(1000) if q > MESTRE_BOUND):
            fld = Fq(p)
            w = math.isqrt(4 * p)
            m = math.isqrt(w) + 1
            for A, B in ((5, -2), (0, 1), (1, 0), (-7, 6)):
                if not _good(p, A, B):
                    continue
                for x in range(25):
                    d = (x ** 3 + A * x + B) % p
                    if d == 0:
                        continue
                    a, P = A * d * d % p, (d * x % p, d * d % p)
                    R, n = P, 1
                    while R is not None and n <= 2 * m + 3:
                        R, n = pt_add(fld, a, R, P), n + 1
                    if R is None:
                        orders.add(n - 2 * m)
                        assert _hasse_multiples(p, a, P, p + 1 - w, p + 1 + w) == \
                            [M for M in range(p + 1 - w, p + 2 + w) if M % n == 0]
        assert {0, 1, 2, 3} <= orders   # n = 2m .. 2m + 3 all occur

    @pytest.mark.parametrize("p, A, B", [(257, 1, 0), (241, 0, 2), (271, 0, 1)])
    def test_twist_points_decide(self, p, A, B):
        # E(F_p) is Z/16 x Z/16, Z/15 x Z/15 or Z/10 x Z/30: the exponent
        # has several multiples in the Hasse interval, so points of E alone
        # never single out a_p, and a point of the twist must
        w = math.isqrt(4 * p)
        e = group_structure(WeierstrassCurve(FieldSpec(p), A, B)).n2
        assert (p + 1 + w) // e - (p - w) // e > 1
        assert ap_fast(p, A, B) == ap_census(p, A, B)

    @staticmethod
    def _recorded_searches(monkeypatch):
        """Record the (point, lo, hi) of every `_hasse_multiples` call."""
        calls = []

        def recorded(p, a, P, lo, hi):
            calls.append((P, lo, hi))
            return _hasse_multiples(p, a, P, lo, hi)
        monkeypatch.setattr(ffield, "_hasse_multiples", recorded)
        return calls

    def test_parity_route_searches_even_multiples(self, monkeypatch):
        # p = 239, y^2 = x^3 + 3x, x = 1 (d = 4): P has order 30, and j (2P)
        # = O for j in [105, 135] gives j = 105, 120, 135, M = 210, 240, 270
        p, A, B, x = 239, 3, 0, 1
        d = (x ** 3 + A * x + B) % p
        a, P = A * d * d % p, (d * x % p, d * d % p)
        P2 = ffield.ec_mul(p, a, P, 2)
        assert _hasse_multiples(p, a, P, 210, 270) == [210, 240, 270]
        assert _hasse_multiples(p, a, P2, 105, 135) == [105, 120, 135]
        # 239 = 3 (mod 4) is a closed-form prime, so the recorded searches
        # run at p = 281 = 1 (mod 4): Delta = -108 is a non-square (281 = 2
        # mod 3), f has one root and every twist has an even count.  At
        # x = 1 (d = 4) P has odd order 25, and j (2P) = O is searched for
        # j in [125, 157]: j = 125, 150, M = 250, 300 (275 is odd).  The
        # first multiple is the interval's least j, so 2 M_1 - lo < hi and
        # the walk goes on
        p = 281
        assert pow(-(4 * A ** 3 + 27 * B ** 2) % p, (p - 1) // 2, p) == p - 1
        a, P = A * d * d % p, (d * x % p, d * d % p)
        P2 = ffield.ec_mul(p, a, P, 2)
        assert _hasse_multiples(p, a, P, 249, 315) == [250, 275, 300]
        assert _hasse_multiples(p, a, P2, 125, 157) == [125, 150]
        calls = self._recorded_searches(monkeypatch)
        assert ap_fast(p, A, B) == ap_census(p, A, B)
        assert calls[0] == (P2, 125, 157)          # x = 0 is a root of f
        assert len(calls) > 1
        assert all(hi - lo == 32 for _, lo, hi in calls)   # every point: half the width

    def test_root_at_zero_gives_the_parity_route(self, monkeypatch):
        # p = 233, y^2 = x^3 - x: Delta = 4 is a square (f has three roots),
        # yet (0, 0) has order 2 on every twist, so each count is even and
        # every search is half the Hasse interval [204, 264]
        p, A, B = 233, -1, 0
        assert pow(-(4 * A ** 3 + 27 * B ** 2) % p, (p - 1) // 2, p) == 1
        calls = self._recorded_searches(monkeypatch)
        assert ap_fast(p, A, B) == ap_census(p, A, B) == 26
        assert len(calls) == 6
        assert all((lo, hi) == (102, 132) for _, lo, hi in calls)

    def test_cm_families_every_good_prime_to_the_benchmark_bound(self):
        # y^2 = x^3 + B (j = 0) and y^2 = x^3 + Ax (j = 1728): closed form,
        # parity from (0, 0), and the walk that skips the flex
        for A, B in ((0, 8), (0, -7), (-1, 0), (3, 0)):
            for p in primes_up_to(20000)[2:]:
                if _good(p, A, B):
                    assert ap_fast(p, A, B) == ap_census(p, A, B), (A, B, p)

    def test_supersingular_cm_primes_make_no_search(self, monkeypatch):
        # a_p = 0 from the reduction alone: x -> x^3 is a bijection of F_p
        # at p = 2 (mod 3), and f(-x) = -f(x) with chi(-1) = -1 at p = 3
        # (mod 4).  p = 239 is 2 mod 3 and 3 mod 4
        calls = self._recorded_searches(monkeypatch)
        for p, A, B in ((239, 0, 8), (239, 0, -7), (239, 3, 0), (239, -1, 0),
                        (19991, 0, 8), (19991, 3, 0), (11, 0, 1), (7, 2, 0)):
            assert ap_fast(p, A, B) == 0 == ap_census(p, A, B), (p, A, B)
        assert calls == []

    def test_coefficient_vanishing_mod_p(self, monkeypatch):
        # A = 233 reduces to the j = 0 family at p = 233 = 2 (mod 3), and
        # B = 239 to the j = 1728 family at p = 239 = 3 (mod 4)
        calls = self._recorded_searches(monkeypatch)
        for B in (1, 8, -7, 232):
            assert ap_fast(233, 233, B) == 0 == ap_census(233, 233, B), B
            assert ap_fast(233, -233, B) == 0, B
        for A in (1, 3, -1, 238):
            assert ap_fast(239, A, 239) == 0 == ap_census(239, A, 239), A
            assert ap_fast(239, A, -239) == 0, A
        assert calls == []
        # at p = 1 (mod 3) and 1 (mod 4) the reduced curves are searched
        assert ap_fast(241, 241, 8) == ap_census(241, 0, 8)
        assert ap_fast(241, 3, 241) == ap_census(241, 3, 0)
        assert calls

    def test_j0_walk_skips_the_flex(self, monkeypatch):
        # on y^2 = x^3 + B, x = 0 gives (0, B^2), a point of order 3 whose
        # multiples fill the Hasse interval; the walk starts at x = 1
        p, B = 241, 8
        assert ffield.ec_mul(p, 0, (0, B * B % p), 3) is None
        calls = self._recorded_searches(monkeypatch)
        assert ap_fast(p, 0, B) == ap_census(p, 0, B)
        d = 1 + B
        assert calls[0][0] == (d % p, d * d % p)

    def test_j0_search_count_to_the_benchmark_bound(self, monkeypatch):
        # y^2 = x^3 + 8 over the 2,212 primes 229 < p <= 2 * 10^4: half are
        # closed-form primes, and no search starts at the flex (the walk
        # that searched every prime from x = 0 made 4,752 searches)
        primes = [p for p in primes_up_to(20000) if p > MESTRE_BOUND]
        assert len(primes) == 2212
        calls = self._recorded_searches(monkeypatch)
        for p in primes:
            ap_fast(p, 0, 8)
        assert len(calls) == 1499

    def test_point_of_order_four_searches_the_whole_interval(self, monkeypatch):
        # p = 233, y^2 = x^3 - 2x + 1: Delta is a non-square, but at x = 0
        # P = (0, 1) has order 4 and 2P = (1, 0) has no tangent, so P
        # itself is searched over [204, 264]
        p, A, B = 233, -2, 1
        assert pow(-(4 * A ** 3 + 27 * B ** 2) % p, (p - 1) // 2, p) == p - 1
        assert ffield.ec_mul(p, A, (0, 1), 2) == (1, 0)
        calls = self._recorded_searches(monkeypatch)
        assert ap_fast(p, A, B) == ap_census(p, A, B)
        assert calls[0] == ((0, 1), 204, 264)

    def test_early_exit_stops_at_the_only_multiple(self, monkeypatch):
        # p = 233, y^2 = x^3 + x + 1, x = 0: Delta = -31 is a square, so
        # P = (0, 1) is searched over all of [204, 264].  It has order 79 and
        # 237 is its one multiple there; 2 * 237 - 204 >= 264 proves it at the
        # third giant window, two short of the walk's end.  Inversions: m = 6
        # baby steps, one for G, one for ec_mul(G, 16), one per giant step
        p, a, P, lo, hi = 233, 1, (0, 1), 204, 264
        assert pow(-31 % p, (p - 1) // 2, p) == 1
        assert [M for M in range(lo, hi + 1) if ffield.ec_mul(p, a, P, M) is None] == [237]
        calls = self._recorded_searches(monkeypatch)
        assert ap_fast(p, 1, 1) == ap_census(p, 1, 1)
        assert calls[0] == (P, lo, hi)
        monkeypatch.undo()
        inversions = []

        def counted(base, e, mod=None):
            if e == -1:
                inversions.append(base)
            return pow(base, e, mod)
        monkeypatch.setattr(ffield, "pow", counted, raising=False)
        assert _hasse_multiples(p, a, P, lo, hi) == [237]
        assert len(inversions) == 6 + 1 + 1 + 2

    def test_never_guesses(self, monkeypatch):
        # a point that always leaves two traces open must end in
        # NumericError once x runs out, not in a pick
        def both_ends(p, a, P, lo, hi):
            w = math.isqrt(4 * p)
            return [p + 1 - w, p + 1 + w]
        monkeypatch.setattr(ffield, "_hasse_multiples", both_ends)
        with pytest.raises(NumericError):
            ap_fast(233, 1, 1)

    def test_singular_reduction_refused(self):
        with pytest.raises(InputError):
            ap_fast(241, 0, 0)
        with pytest.raises(InputError):
            ap_fast(5, 0, 5)


class TestAndrianov:
    def test_formal_match(self):
        assert andrianov_formal_match()

    def test_numeric_spot_check(self):
        rng = random.Random(17)
        p = 7
        lam_p = 1 - p
        lam_p2 = p * p - 4 * p + 4
        for _ in range(5):
            t = F(rng.randint(-20, 20), rng.randint(1, 9))
            spinor = (1 - lam_p * t + (lam_p ** 2 - lam_p2 - 1) * t ** 2
                      - lam_p * p * t ** 3 + p * p * t ** 4)
            rank2 = poly_eval(paper_rank2_numerator(p), t)
            assert spinor == rank2
