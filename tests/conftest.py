"""Fixtures shared by the test modules."""

import pytest

from fq_oracle import one_curve_per_group

from zetalab.bundles import CurveData
from zetalab.ffield import FieldSpec, WeierstrassCurve, primes_up_to


@pytest.fixture(scope="session")
def census_curves():
    """Every distinct (q, N_1, group) of the curves y^2 = x^3 + ax + b,
    0 <= a, b <= 3, over the primes 5 <= p < 200, and of the test gallery's
    curves over F_5, F_7 and F_11."""
    grid = [WeierstrassCurve(FieldSpec(p), a, b)
            for p in primes_up_to(199)[2:] for a in range(4) for b in range(4)
            if (4 * a ** 3 + 27 * b * b) % p]
    gallery = [WeierstrassCurve(FieldSpec(p), a, b)
               for p, a, b in ((5, 1, 1), (5, 4, 0), (7, 1, 1), (7, 1, 3),
                               (11, 1, 1), (11, 2, 5))]
    return [CurveData.from_curve(curve) for curve in one_curve_per_group(grid + gallery)]


@pytest.fixture(scope="session")
def curve_data_to_61():
    """Every distinct CurveData of the curves y^2 = x^3 + ax + b over the
    primes 5 <= p <= 61, in a fixed order."""
    found = {CurveData.from_curve(WeierstrassCurve(FieldSpec(p), a, b))
             for p in primes_up_to(61)[2:] for a in range(p) for b in range(p)
             if (4 * a ** 3 + 27 * b * b) % p}
    return sorted(found, key=lambda c: (c.q, c.n1, c.e2, c.e3))
