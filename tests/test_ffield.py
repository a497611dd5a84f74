from math import lcm

import pytest
from fq_oracle import (
    Fq,
    enumerated_count,
    multiples,
    norm_kernel_size,
    pt_add,
    smallest_irreducible,
    torsion_count,
)

from zetalab import ffield
from zetalab.artin import elliptic_zeta, nm
from zetalab.errors import InputError, ResourceError
from zetalab.ffield import (
    ENUMERATION_BUDGET,
    MILLER_RABIN_BOUND,
    TRIAL_DIVISION_BOUND,
    FieldSpec,
    GroupStructure,
    WeierstrassCurve,
    ap_fast,
    count_points,
    ec_mul,
    group_structure,
    is_prime,
    point_and_torsion_counts,
    prime_factors,
    primes_up_to,
)

F5 = FieldSpec(5)
E_A1B1 = WeierstrassCurve(F5, 1, 1)   # y^2 = x^3 + x + 1
E_A4B0 = WeierstrassCurve(F5, 4, 0)   # y^2 = x^3 + 4x


class TestFieldSpec:
    def test_rejects_composite_characteristic(self):
        with pytest.raises(InputError):
            FieldSpec(6)

    # the extension-field tests exercise the enumeration oracle's Fq

    def test_extension_modulus_is_deterministic(self):
        f = Fq(5, 2)
        assert f.modulus == smallest_irreducible(5, 2)
        assert f.modulus == Fq(5, 2).modulus

    def test_modulus_is_irreducible(self):
        # x^2 - 1 splits; the constructor must refuse it
        with pytest.raises(InputError):
            Fq(5, 2, (4, 0, 1))

    def test_extension_field_arithmetic(self):
        f = Fq(5, 2)
        elems = list(f.elements())
        assert len(elems) == 25
        for a in elems:
            if a == ():
                continue
            assert f.mul(a, f.inv(a)) == f.one()

    def test_inverse_exhaustive_f27_style(self):
        f = Fq(7, 3)
        probe = [f.from_int(3), (1, 2), (0, 0, 4), (6, 6, 6)]
        for a in probe:
            assert f.mul(a, f.inv(a)) == f.one()


class TestCountPoints:
    def test_f5_curve_a1b1(self):
        assert count_points(E_A1B1, 1) == 9

    def test_f5_curve_a4b0(self):
        assert count_points(E_A4B0, 1) == 8

    def test_f25_extension(self):
        assert count_points(E_A1B1, 2) == enumerated_count(E_A1B1, 2) == 27

    def test_extension_counts_match_enumeration(self):
        # count_points reads N_e off the zeta function; the oracle
        # enumerates F_{p^e}
        cases = [(p, e) for p in (5, 7, 11, 13) for e in (2, 3)] + [(5, 4)]
        for p, e in cases:
            for curve in nonsingular_curves(p):
                assert count_points(curve, e) == enumerated_count(curve, e), (p, e, curve)

    def test_f7_6_count(self):
        # both routes gave 117180; the enumeration of F_{7^6} takes seconds
        assert count_points(WeierstrassCurve(FieldSpec(7), 1, 3), 6) == 117180

    def test_budget(self):
        # the budget is on p, which sets the cost of the F_p census; the
        # extension degree only lengthens the zeta recurrence
        assert ENUMERATION_BUDGET < 10000019
        big = WeierstrassCurve(FieldSpec(10000019), 1, 1)
        for ext in (1, 2):
            with pytest.raises(ResourceError):
                count_points(big, ext)

    def test_large_extension_from_zeta(self):
        # 9973^2 is past the enumeration budget; only the census of F_9973 runs
        curve = WeierstrassCurve(FieldSpec(9973), 1, 1)
        n1 = count_points(curve, 1)
        assert count_points(curve, 2) == nm(elliptic_zeta(9973, n1), 2)
        assert count_points(curve, 5) == nm(elliptic_zeta(9973, n1), 5)

    def test_hasse_bound_over_gallery(self):
        for p in (5, 7, 11, 13):
            fld = FieldSpec(p)
            for a in range(p):
                for b in range(p):
                    if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                        continue
                    n1 = count_points(WeierstrassCurve(fld, a, b), 1)
                    assert (p + 1 - n1) ** 2 <= 4 * p

    def test_trace_of_frobenius_matches_count(self):
        # below MESTRE_BOUND ap_fast reads a_p off the same census
        assert ap_fast(5, 1, 1) == 5 + 1 - count_points(E_A1B1) == -3
        assert ap_fast(5, 4, 0) == 5 + 1 - count_points(E_A4B0) == -2

    def test_small_characteristic_rejected(self):
        with pytest.raises(InputError):
            WeierstrassCurve(FieldSpec(3), 1, 1)


class TestGroupStructure:
    def test_full_two_torsion_curve(self):
        assert group_structure(E_A4B0) == GroupStructure(2, 4)

    def test_cyclic_curve(self):
        assert group_structure(E_A1B1) == GroupStructure(1, 9)

    def test_prime_order_is_cyclic(self):
        # y^2 = x^3 + 2 over F_7 has 9 points; find one with prime order instead
        for p, a, b in ((5, 2, 1), (7, 1, 3), (11, 1, 1)):
            curve = WeierstrassCurve(FieldSpec(p), a, b)
            n = count_points(curve, 1)
            gs = group_structure(curve)
            assert gs.order == n
            if _is_prime(n):
                assert gs == GroupStructure(1, n)

    def test_weil_constraint(self):
        # every curve over 5 <= p <= 50: n2 is the exponent, so N / n2 is
        # the n1 of Z/n1 x Z/n2, which the Weil pairing puts in F_p^*
        for p in primes_up_to(50)[2:]:
            for a in range(p):
                for b in range(p):
                    if (4 * a ** 3 + 27 * b * b) % p:
                        gs = group_structure(WeierstrassCurve(FieldSpec(p), a, b))
                        assert (p - 1) % gs.n1 == 0
                        assert gs.n2 % gs.n1 == 0

    @pytest.mark.parametrize("curve", [E_A1B1, WeierstrassCurve(FieldSpec(101), 1, 1)],
                             ids=["p5", "p101"])
    def test_lagrange_is_not_rechecked(self, monkeypatch, curve):
        # N counts the points, so N * P = O needs no pass over them: on a
        # cyclic group each strip test stops at its first surviving point
        calls = []

        def counting_ec_mul(*args):
            calls.append(args)
            return ec_mul(*args)

        monkeypatch.setattr(ffield, "ec_mul", counting_ec_mul)
        gs = group_structure(curve)
        assert gs.n1 == 1
        assert len(calls) < gs.order


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def census_group_structure(curve):
    """Oracle for group_structure: points by an x-by-y search, each point's
    order by adding it to itself with the oracle's group law, n2 the lcm of
    the orders."""
    p, a, b = curve.p, curve.a, curve.b
    fld = Fq(p)
    points = [(x, y) for x in range(p) for y in range(p)
              if (y * y - x ** 3 - a * x - b) % p == 0]
    n = len(points) + 1
    exponent = 1
    for P in points:
        k, acc = 1, P
        while acc is not None:
            assert k < n
            acc = pt_add(fld, a, acc, P)
            k += 1
        exponent = lcm(exponent, k)
    return GroupStructure(n // exponent, exponent)


def nonsingular_curves(p):
    fld = FieldSpec(p)
    return [WeierstrassCurve(fld, a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b ** 2) % p]


# the first curve (by p, a, b) for each n1 in 2..12 that occurs at
# 101 <= p <= 157; n1 = 11 needs 11 | p - 1, which no prime there has, and
# n1 = 9 needs 81 | N, which no Hasse interval at p = 109 or 127 allows
NONCYCLIC = [
    # (n1, p, a, b)
    (2, 101, 1, 10), (3, 103, 0, 2), (4, 101, 2, 12), (5, 101, 2, 26),
    (6, 103, 3, 54), (7, 113, 5, 0), (8, 113, 1, 0), (10, 101, 1, 0),
    (12, 157, 0, 1),
]


class TestGroupStructureOracle:
    def test_every_curve_up_to_23(self):
        for p in (5, 7, 11, 13, 17, 19, 23):
            for curve in nonsingular_curves(p):
                assert group_structure(curve) == census_group_structure(curve)

    @pytest.mark.parametrize("n1,p,a,b", NONCYCLIC)
    def test_noncyclic_curves(self, n1, p, a, b):
        curve = WeierstrassCurve(FieldSpec(p), a, b)
        gs = census_group_structure(curve)
        assert gs.n1 == n1
        assert group_structure(curve) == gs


def counts_from_group(curve):
    gs = group_structure(curve)
    return gs.order, torsion_count(gs, 2), torsion_count(gs, 3)


class TestPointAndTorsionCounts:
    def test_every_curve_below_60(self):
        # N_1, #E[2] and #E[3] from the walk, against the group census
        for p in primes_up_to(59)[2:]:
            for curve in nonsingular_curves(p):
                assert point_and_torsion_counts(curve) == counts_from_group(curve), curve

    @pytest.mark.parametrize("a,b", [(1, 11), (1, 1), (1, 0), (1, 15), (0, 1), (1, 2)],
                             ids=["e2=1,e3=1", "e2=2,e3=1", "e2=4,e3=1", "e2=1,e3=3",
                                  "e2=2,e3=3", "e2=4,e3=3"])
    def test_largest_prime_accepted(self, a, b):
        # p = 3137, one curve for each pair of torsion counts it has
        curve = WeierstrassCurve(FieldSpec(3137), a, b)
        assert point_and_torsion_counts(curve) == counts_from_group(curve)

    def test_budget(self):
        # the walk holds p, as count_points' census does, to ENUMERATION_BUDGET
        assert ENUMERATION_BUDGET < 10000019
        with pytest.raises(ResourceError, match="p = 10000019 exceeds the enumeration"):
            point_and_torsion_counts(WeierstrassCurve(FieldSpec(10000019), 1, 1))


class TestEcMul:
    # y^2 = x^3 - x has full 2-torsion, y^2 = x^3 + 1 points of orders 2
    # and 3, y^2 = x^3 + x + 1 and y^2 = x^3 + 2x + 3 are generic
    CURVES = ((-1, 0), (0, 1), (1, 1), (2, 3))

    def test_against_repeated_addition(self):
        seen_orders = set()
        for p in (q for q in primes_up_to(300) if q >= 5):
            fld = Fq(p)
            roots = [[y for y in range(p) if y * y % p == r] for r in range(p)]
            for a, b in self.CURVES:
                if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                    continue
                a %= p
                # the points with x < 4 and every point with y = 0
                points = [(x, y) for x in range(p) for y in roots[(x ** 3 + a * x + b) % p]
                          if x < 4 or y == 0]
                for P in points:
                    mult = multiples(fld, a, P)
                    n = len(mult) - 1
                    seen_orders.add(n)
                    ks = {0, 1, 2, n - 1, n, n + 1, 5 * n + 3}
                    if n <= 12:                   # every ladder shape up to 3n + 1
                        ks.update(range(3 * n + 2))
                    for k in ks:
                        assert ec_mul(p, a, P, k) == mult[k % n], (p, a, b, P, k)
        assert 2 in seen_orders and 3 in seen_orders

    def test_sum_of_p_and_p_inside_an_addition(self):
        # P of order 3 and k = 5 = 0b101: the ladder doubles 2P to 4P = P
        # and then adds P to it, so the mixed addition meets P + P = 2P
        p, a, P = 7, 0, (0, 1)                    # y^2 = x^3 + 1
        mult = multiples(Fq(p), a, P)
        assert len(mult) - 1 == 3
        assert ec_mul(p, a, P, 5) == mult[2] == (0, 6)

    def test_infinity(self):
        assert ec_mul(7, 0, None, 5) is None
        assert ec_mul(7, 0, (0, 1), 0) is None


class TestPrimeFactors:
    def test_against_brute_force(self):
        # every prime q <= 10^4 is listed at each of its multiples
        top = 10 ** 4
        brute = [[] for _ in range(top + 1)]
        for q in range(2, top + 1):
            if _is_prime(q):
                for m in range(q, top + 1, q):
                    brute[m].append(q)
        for n in range(1, top + 1):
            assert prime_factors(n) == tuple(brute[n])

    def test_prime_cofactor_past_trial_division(self):
        big = 1000003 * 1000033          # both primes, above the bound
        assert 1000003 > TRIAL_DIVISION_BOUND
        assert prime_factors(6 * 1000003) == (2, 3, 1000003)
        assert prime_factors(12 * 999983 ** 2 * 1000000007) == (2, 3, 999983, 1000000007)
        # a composite cofactor without a factor up to the bound is refused
        with pytest.raises(ResourceError):
            prime_factors(big)
        with pytest.raises(ResourceError):
            prime_factors(5 * big)

    def test_is_prime(self):
        for n in range(-2, 10 ** 4 + 1):
            assert is_prime(n) == _is_prime(n)
        assert [n for n in range(10 ** 4 + 1) if is_prime(n)] == primes_up_to(10 ** 4)


class TestMillerRabin:
    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 62745,
                  825265, 321197185, 5394826801, 232250619601):
            assert not is_prime(n)

    def test_strong_pseudoprimes(self):
        # 3215031751 passes bases 2, 3, 5, 7; 3825123056546413051 passes
        # every prime base up to 23
        for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
                  3474749660383, 341550071728321, 3825123056546413051):
            assert not is_prime(n)

    def test_large_primes(self):
        for n in (2 ** 61 - 1, 10 ** 18 + 3, 10 ** 18 + 9, 2 ** 31 - 1,
                  1000003, 1000033):
            assert is_prime(n)
        assert not is_prime((2 ** 61 - 1) * 1000003)
        assert not is_prime(1000003 * 1000033)

    def test_refused_beyond_bound(self):
        # 3317044064679887385961981 is the least strong pseudoprime to the
        # first 13 prime bases, so it and everything above are refused
        for n in (MILLER_RABIN_BOUND, MILLER_RABIN_BOUND + 2, 2 ** 89 - 1):
            with pytest.raises(ResourceError):
                is_prime(n)
        with pytest.raises(ResourceError):
            FieldSpec(2 ** 89 - 1)

    def test_composite_with_large_cofactor_is_refused_as_input(self):
        # trial division would factor the cofactor 1000003 * 1000033 fully
        with pytest.raises(InputError):
            FieldSpec(2 * 1000003 * 1000033)


class TestTorsionCount:
    def test_examples(self):
        assert torsion_count(GroupStructure(2, 4), 2) == 4
        assert torsion_count(GroupStructure(1, 9), 2) == 1
        assert torsion_count(GroupStructure(1, 9), 3) == 3

    def test_divisibility_invariants(self):
        for gs in (GroupStructure(2, 4), GroupStructure(1, 9), GroupStructure(3, 3)):
            for m in range(1, 8):
                t = torsion_count(gs, m)
                assert m * m % t == 0
                assert gs.order % t == 0


class TestNormKernel:
    def test_kernel_size_equals_point_count_ratio(self):
        # #ker(trace: E(F_{q^2}) -> E(F_q)) = N_2 / N_1
        for curve in (E_A1B1, E_A4B0):
            n1 = enumerated_count(curve, 1)
            n2 = enumerated_count(curve, 2)
            assert norm_kernel_size(curve, 2) == n2 // n1
