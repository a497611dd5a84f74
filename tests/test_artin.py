import math
import random
from typing import Sequence

import pytest
from fq_oracle import enumerated_count

from zetalab.artin import (
    ZetaCurve,
    base_extend,
    elliptic_zeta,
    fe_check_zeta,
    nm,
    reciprocity_check,
    rh_check,
)
from zetalab.errors import InputError
from zetalab.exact import Poly, Series, rat, series_exp_from_power_sums
from zetalab.ffield import FieldSpec, WeierstrassCurve, primes_up_to

ZC59 = elliptic_zeta(5, 9)    # y^2 = x^3 + x + 1 over F_5
ZC58 = elliptic_zeta(5, 8)    # y^2 = x^3 + 4x over F_5

# a small gallery shared by identity sweeps
GALLERY = [ZC59, ZC58, elliptic_zeta(7, 5), elliptic_zeta(7, 9),
           elliptic_zeta(11, 16), elliptic_zeta(13, 19)]


def artin_zeta_from_counts(q: int, g: int, counts: Sequence[int]) -> ZetaCurve:
    """Build the zeta datum from N_1..N_g (extra counts are cross-checked).

    The lower numerator coefficients are forced by the counts through
    exp(sum N_m t^m/m) * (1-t)(1-qt); the upper half is forced by
    a(2g-i) = a(i) * q^(g-i).  The oracle for `elliptic_zeta`.
    """
    if g < 1:
        raise InputError("use genus >= 1 (genus 0 has an empty numerator)")
    if len(counts) < g:
        raise InputError(f"need at least N_1..N_{g}")
    order = g + 1
    zser = series_exp_from_power_sums([rat(c) for c in counts[:g]], order)
    pser = zser * Series.from_poly(Poly([1, -1]) * Poly([1, -q]), order)
    lower = list(pser.coeffs)
    coeffs = lower + [lower[g - 1 - j] * rat(q) ** (j + 1) for j in range(g)]
    for c in coeffs:
        if c.denominator != 1:
            raise InputError("counts do not come from a curve (non-integral P)")
    zc = ZetaCurve(q, g, Poly(coeffs))
    for m, n_claimed in enumerate(counts, start=1):
        if nm(zc, m) != n_claimed:
            raise InputError(
                f"over-determined counts are inconsistent: N_{m} should be "
                f"{nm(zc, m)}, got {n_claimed}")
    return zc


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
        assert artin_zeta_from_counts(5, 1, [9, 27, 108]).P == Poly([1, 3, 5])
        with pytest.raises(InputError):
            artin_zeta_from_counts(5, 1, [9, 26])

    def test_genus2_from_counts(self):
        # P = (1+3t+5t^2)^2 corresponds to counts N_m doubled shifts; build
        # the counts from the square and round-trip them.
        p = Poly([1, 3, 5]) * Poly([1, 3, 5])
        zc = ZetaCurve(5, 2, p)
        counts = [nm(zc, m) for m in (1, 2)]
        assert artin_zeta_from_counts(5, 2, counts).P == p

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

    def test_genus0(self):
        zc = ZetaCurve(7, 0, Poly.one())
        assert [nm(zc, m) for m in (1, 2, 3)] == [8, 50, 344]

    def test_matches_enumeration(self):
        curve = WeierstrassCurve(FieldSpec(5), 1, 1)
        for m in (1, 2, 3):
            assert nm(ZC59, m) == enumerated_count(curve, m)


class TestBaseExtend:
    def test_identity(self):
        assert base_extend(ZC59, 1) == ZC59

    def test_q5_to_q25(self):
        ext = base_extend(ZC59, 2)
        assert ext.q == 25
        assert ext.P == Poly([1, 1, 25])
        assert nm(ext, 1) == nm(ZC59, 2) == 27

    def test_genus0(self):
        zc = ZetaCurve(3, 0, Poly.one())
        assert base_extend(zc, 3) == ZetaCurve(27, 0, Poly.one())

    def test_tower_property(self):
        for zc in GALLERY[:3]:
            for k in (2, 3):
                ext = base_extend(zc, k)
                for m in range(1, 7):
                    assert nm(ext, m) == nm(zc, k * m)


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


class TestRH:
    def test_exact_genus1(self):
        assert rh_check(ZC59)
        assert rh_check(ZC58)

    def test_fabricated_violation(self):
        # bypass the constructor's Hasse guard to probe the check itself
        zc = ZetaCurve.__new__(ZetaCurve)
        object.__setattr__(zc, "q", 5)
        object.__setattr__(zc, "g", 1)
        object.__setattr__(zc, "P", Poly([1, 5, 5]))
        assert not rh_check(zc)

    def test_numeric_genus2(self):
        p = Poly([1, 3, 5]) * Poly([1, 3, 5])
        assert rh_check(ZetaCurve(5, 2, p))

    def test_genus2_large_q(self):
        # np.roots with an absolute 1e-9 tolerance on |w|^2 returned False
        q = 1000003
        p = Poly([1, -1000, q]) * Poly([1, 500, q])
        assert rh_check(ZetaCurve(q, 2, p))

    def test_products_of_elliptic_factors(self):
        # RH holds for a product of 1 - a t + q t^2 iff every a^2 <= 4q;
        # a is drawn from a range a little wider than the Hasse range
        rng = random.Random(12)
        for q in (4, 5, 9, 49, 1000003):
            w = math.isqrt(4 * q)
            for _ in range(20):
                traces = [rng.randint(-w - 2, w + 2) for _ in range(rng.choice((2, 3)))]
                p = Poly.one()
                for a in traces:
                    p = p * Poly([1, -a, q])
                zc = ZetaCurve(q, len(traces), p)
                assert rh_check(zc) == all(a * a <= 4 * q for a in traces), (q, traces)

    @pytest.mark.parametrize("q,coeffs,holds", [
        (4, [1, 0, -8, 0, 16], True),            # h = y^2 - 16: roots at +-2 sqrt(q)
        (1000003, [1, 0, -2000006, 0, 1000003 ** 2], True),   # h = y^2 - 4q
        (5, [1, 0, 11, 0, 25], False),           # h = y^2 + 1: y not real
    ])
    def test_genus2_edges(self, q, coeffs, holds):
        assert rh_check(ZetaCurve(q, 2, Poly(coeffs))) is holds

    @pytest.mark.parametrize("a,holds", [(2000, True), (2001, False)])
    def test_root_beside_an_irrational_end(self, a, holds):
        # h = (y^2 - 4q)(y - a), and 2 sqrt(q) = 2000.003 for q = 1000003
        q = 1000003
        p = Poly([1, 0, -2 * q, 0, q * q]) * Poly([1, -a, q])
        assert rh_check(ZetaCurve(q, 3, p)) is holds

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
                assert elliptic_zeta(q, n1) == artin_zeta_from_counts(q, 1, [n1])

    def test_outside_hasse_range_same_error(self):
        for q in primes_up_to(50):
            inside = _hasse_range(q)
            for n1 in (inside.start - 1, inside.stop, -1):
                with pytest.raises(InputError) as direct:
                    elliptic_zeta(q, n1)
                with pytest.raises(InputError) as counts:
                    artin_zeta_from_counts(q, 1, [n1])
                assert str(direct.value) == str(counts.value)


class TestFunctionalEquation:
    def test_gallery(self):
        for zc in GALLERY:
            assert fe_check_zeta(zc)

    def test_genus2(self):
        assert fe_check_zeta(ZetaCurve(5, 2, Poly([1, 3, 5]) * Poly([1, 3, 5])))


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
