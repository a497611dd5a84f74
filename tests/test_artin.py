import math
import random
from typing import Sequence

import pytest
from fq_oracle import enumerated_count
from ratfunc_oracle import decimate, poly_from_power_sums, series_exp_from_power_sums, zseries

from zetalab import artin
from zetalab.artin import (
    ZetaCurve,
    base_extend,
    elliptic_zeta,
    nm,
    reciprocity_check,
    rh_check,
)
from zetalab.errors import InputError
from zetalab.exact import Poly, Series, fe_transform_check, power_sums_from_poly, rat
from zetalab.ffield import FieldSpec, WeierstrassCurve, primes_up_to

ZC59 = elliptic_zeta(5, 9)    # y^2 = x^3 + x + 1 over F_5
ZC58 = elliptic_zeta(5, 8)    # y^2 = x^3 + 4x over F_5

# a small gallery shared by identity sweeps
GALLERY = [ZC59, ZC58, elliptic_zeta(7, 5), elliptic_zeta(7, 9),
           elliptic_zeta(11, 16), elliptic_zeta(13, 19)]


def artin_zeta_from_counts(q: int, counts: Sequence[int]) -> ZetaCurve:
    """Build the zeta datum from N_1 (extra counts are cross-checked).

    The numerator's t coefficient -a is forced by the counts through
    exp(sum N_m t^m/m) * (1-t)(1-qt); its t^2 coefficient q by the
    functional equation.  The oracle for `elliptic_zeta`.
    """
    if not counts:
        raise InputError("need at least N_1")
    zser = series_exp_from_power_sums([rat(counts[0])], 2)
    pser = zser * Series((Poly([1, -1]) * Poly([1, -q])).coeffs, 2)
    zc = ZetaCurve(q, -int(pser[1]))
    for m, n_claimed in enumerate(counts, start=1):
        if nm(zc, m) != n_claimed:
            raise InputError(
                f"over-determined counts are inconsistent: N_{m} should be "
                f"{nm(zc, m)}, got {n_claimed}")
    return zc


def base_extend_by_power_sums(zc: ZetaCurve, n: int) -> tuple[int, Poly]:
    """(q^n, numerator) over F_{q^n}: the power sums of the n-th powers of
    the reciprocal roots, turned back into a polynomial.  The oracle for
    `base_extend`, which reads N_n off the base curve instead."""
    psums = zc.power_sums(2 * n)
    return zc.q ** n, poly_from_power_sums([psums[n - 1], psums[2 * n - 1]], 2)


def log_series_reciprocity(zc: ZetaCurve, n: int, order: int) -> bool:
    """The roots-of-unity product law through log-series decimation.

    The product of Z over the n-th root-of-unity twists has logarithm
    n * (every n-th coefficient of log Z), so the law holds through t^order
    of the base-extended Z iff that decimation matches its log.  The
    oracle for `reciprocity_check`, which compares power sums instead; it
    reads `artin.base_extend` at call time, as the library does.
    """
    big = zseries(zc, order * n + 1).log()
    left = [n * c for c in decimate(big, n).coeffs]   # coefficient k is n*N_{nk}/(nk)
    right = zseries(artin.base_extend(zc, n), order + 1).log().coeffs
    return left == list(right)


class TestConstruction:
    def test_elliptic_q5_n9(self):
        assert ZC59.P == Poly([1, 3, 5])

    def test_elliptic_q5_n8(self):
        assert ZC58.P == Poly([1, 2, 5])
        # cross-check N_2 by enumeration over F_25
        curve = WeierstrassCurve(FieldSpec(5), 4, 0)
        assert nm(ZC58, 2) == enumerated_count(curve, 2) == 32

    def test_supersingular_shape(self):
        zc = elliptic_zeta(7, 8)
        assert zc.P == Poly([1, 0, 7])

    def test_hasse_violation_rejected(self):
        with pytest.raises(InputError):
            elliptic_zeta(5, 11)  # a = -5, 25 > 20

    def test_overdetermined_counts_crosscheck(self):
        assert artin_zeta_from_counts(5, [9, 27, 108]).P == Poly([1, 3, 5])
        with pytest.raises(InputError):
            artin_zeta_from_counts(5, [9, 26])

    def test_t_coefficient_convention(self):
        # coefficient of t equals N_1 - (q+1)
        for zc in GALLERY:
            n1 = nm(zc, 1)
            assert zc.P[1] == n1 - (zc.q + 1)


class TestNm:
    def test_known_values(self):
        assert nm(ZC59, 1) == 9
        assert nm(ZC59, 2) == 27
        assert nm(ZC59, 3) == 108

    def test_matches_enumeration(self):
        curve = WeierstrassCurve(FieldSpec(5), 1, 1)
        for m in (1, 2, 3):
            assert nm(ZC59, m) == enumerated_count(curve, m)

    def test_power_sums_match_newton(self):
        # the two-term recurrence against Newton's identity on P
        for q in primes_up_to(50):
            bound = math.isqrt(4 * q)
            for a in range(-bound, bound + 1):
                zc = ZetaCurve(q, a)
                for m_max in (0, 1, 2, 13):
                    assert zc.power_sums(m_max) == power_sums_from_poly(zc.P, m_max)


class TestBaseExtend:
    def test_identity(self):
        assert base_extend(ZC59, 1) == ZC59

    def test_q5_to_q25(self):
        ext = base_extend(ZC59, 2)
        assert ext.q == 25
        assert ext.P == Poly([1, 1, 25])
        assert nm(ext, 1) == nm(ZC59, 2) == 27

    def test_tower_property(self):
        for zc in GALLERY[:3]:
            for k in (2, 3):
                ext = base_extend(zc, k)
                for m in range(1, 7):
                    assert nm(ext, m) == nm(zc, k * m)

    def test_equals_power_sum_route(self):
        for q in range(2, 50):
            for n1 in _hasse_range(q):
                zc = elliptic_zeta(q, n1)
                for n in range(1, 7):
                    ext = base_extend(zc, n)
                    assert (ext.q, ext.P) == base_extend_by_power_sums(zc, n), (q, n1, n)


class TestReciprocity:
    def test_trivial(self):
        assert reciprocity_check(ZC59, 1, 8)

    def test_n2_n3_n4(self):
        for n in (2, 3, 4):
            assert reciprocity_check(ZC59, n, 8)

    def test_gallery(self):
        for zc in GALLERY:
            for n in (2, 3, 4):
                assert reciprocity_check(zc, n, 6)

    def test_power_sums_equal_log_series_oracle(self, census_curves):
        zetas = {curve.zeta for curve in census_curves}
        # at the largest prime the curve commands accept: both Hasse ends
        zetas |= {ZetaCurve(3137, a) for a in (-112, -1, 0, 1, 112)}
        for zc in zetas:
            for n in range(1, 5):
                for order in (1, 8, 12):
                    assert reciprocity_check(zc, n, order), (zc, n, order)
                    assert log_series_reciprocity(zc, n, order), (zc, n, order)

    def test_both_routes_refuse_a_wrong_extension(self, monkeypatch):
        # base_extend off in the trace, or in the field size (which p'_1
        # does not see, so order >= 2): both routes find the law broken
        true_extend = base_extend
        for wrong in (lambda e: ZetaCurve(e.q, e.a - 1 if e.a > 0 else e.a + 1),
                      lambda e: ZetaCurve(e.q + 1, e.a)):
            monkeypatch.setattr(artin, "base_extend",
                                lambda zc, n, wrong=wrong: wrong(true_extend(zc, n)))
            for zc in GALLERY:
                for n in range(1, 5):
                    for order in (2, 8):
                        assert not reciprocity_check(zc, n, order), (zc, n, order)
                        assert not log_series_reciprocity(zc, n, order), (zc, n, order)


def check_fabricated(q, a, holds):
    """rh_check on a datum built past the constructor, and the constructor's
    Hasse guard on the same (q, a): both must give `holds`."""
    zc = ZetaCurve.__new__(ZetaCurve)
    object.__setattr__(zc, "q", q)
    object.__setattr__(zc, "a", a)
    assert rh_check(zc) is holds
    if holds:
        assert ZetaCurve(q, a) == zc
    else:
        with pytest.raises(InputError, match="Hasse"):
            ZetaCurve(q, a)


class TestRH:
    def test_exact_genus1(self):
        assert rh_check(ZC59)
        assert rh_check(ZC58)

    @pytest.mark.parametrize("q,a", [
        (q, a) for q in (4, 5, 9, 49)
        for a in range(-math.isqrt(4 * q) - 2, math.isqrt(4 * q) + 3)])
    def test_fabricated_violation(self, q, a):
        # the reciprocal roots of 1 - a t + q t^2 have |w|^2 = q iff |a| <= 2 sqrt(q)
        check_fabricated(q, a, abs(a) <= math.isqrt(4 * q))

    @pytest.mark.parametrize("a,holds", [(2000, True), (2001, False)])
    def test_root_beside_an_irrational_end(self, a, holds):
        # 2 sqrt(q) = 2000.003 for q = 1000003
        check_fabricated(1000003, a, holds)

    def test_rh_implies_nonnegative_counts(self):
        for zc in GALLERY:
            if rh_check(zc):
                for m in range(1, 21):
                    assert nm(zc, m) >= 0


def _hasse_range(q):
    w = math.isqrt(4 * q)
    return range(q + 1 - w, q + 2 + w)


class TestEllipticZetaDirect:
    """elliptic_zeta builds P = 1 - at + qt^2 directly; the counts route
    through artin_zeta_from_counts is its oracle."""

    def test_equals_counts_route_on_hasse_range(self):
        for q in primes_up_to(50):
            for n1 in _hasse_range(q):
                assert elliptic_zeta(q, n1) == artin_zeta_from_counts(q, [n1])

    def test_outside_hasse_range_same_error(self):
        for q in primes_up_to(50):
            inside = _hasse_range(q)
            for n1 in (inside.start - 1, inside.stop, -1):
                with pytest.raises(InputError) as direct:
                    elliptic_zeta(q, n1)
                with pytest.raises(InputError) as counts:
                    artin_zeta_from_counts(q, [n1])
                assert str(direct.value) == str(counts.value)


class TestFunctionalEquation:
    def test_gallery(self):
        for zc in GALLERY:
            assert fe_transform_check(zc.P, zc.q, 1)

    def test_every_datum(self):
        # what lets `artin` print functional_equation_ok as a constant:
        # 1 - at + qt^2 has it for every (q, a), the Hasse range or not
        for q in range(2, 60):
            for a in range(-2 * q, 2 * q + 1):
                assert fe_transform_check(Poly([1, -a, q]), q, 1)


class TestRandomizedCountsRoundtrip:
    def test_counts_survive_roundtrip(self):
        rng = random.Random(41)
        for _ in range(30):
            q = rng.choice([5, 7, 11, 13, 17])
            a = rng.randint(-int(2 * q ** 0.5), int(2 * q ** 0.5))
            zc = elliptic_zeta(q, q + 1 - a)
            assert nm(zc, 1) == q + 1 - a
            ext = base_extend(zc, 2)
            assert nm(ext, 3) == nm(zc, 6)
