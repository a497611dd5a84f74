"""Prime fields and point counting on Weierstrass curves.

This is the counting layer that grounds the zeta machinery: prime fields
F_p, projective point counts of y^2 = x^3 + ax + b, the rational 2- and
3-torsion, scalar multiplication on such a curve, and the group structure
of the rational points.  N_1 = #E(F_p) is a census over a table of
squares; counts over F_{p^n} follow from N_1 through the curve's zeta
function, and the enumeration of F_{p^n} that checks them lives in the
tests.  #E[2](F_p) and #E[3](F_p) are read in the same walk over x, from
the roots of f and of the 3-division polynomial.  The group structure,
which no command reads, is derived from N = #E(F_p): the points are read
from a square-root table and the exponent is N with its primes stripped
by scalar multiplication (Cohen, GTM 138, section 7.4); the tests check
the torsion counts against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from zetalab.artin import elliptic_zeta, nm
from zetalab.errors import ENUMERATION_BUDGET, InputError, ResourceError

# prime_factors trial-divides up to this bound (about 50 ms at most), so it
# factors every n below 10^12 and any n whose cofactor above it is prime
TRIAL_DIVISION_BOUND = 10 ** 6


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending.

    Trial division by d <= TRIAL_DIVISION_BOUND; what is left must then be
    1, below the square of the next divisor, or prime by `is_prime`.  A
    cofactor with every prime factor above the bound is refused
    (ResourceError).
    """
    out = []
    d, limit = 2, min(isqrt(n), TRIAL_DIVISION_BOUND)
    while d <= limit:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
            limit = min(isqrt(n), TRIAL_DIVISION_BOUND)
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not is_prime(n):
            raise ResourceError(
                f"{n} has no prime factor up to {TRIAL_DIVISION_BOUND} and is "
                "not prime; factoring it is beyond the trial-division budget")
        out.append(n)
    return tuple(out)


# the first 13 primes as Miller-Rabin bases decide every n below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24; larger n are
    refused (ResourceError) rather than decided."""
    if n >= MILLER_RABIN_BOUND:
        raise ResourceError("primality decided below 3.3e24 only")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes p <= n, by the sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p, the only field a curve is built over: counts
    over F_{p^n} come from the curve's zeta function (see count_points)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a*x + b over a prime field of characteristic > 3."""

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        p = self.field.p
        if p <= 3:
            raise InputError("characteristic must exceed 3")
        disc = (4 * self.a ** 3 + 27 * self.b ** 2) % p
        if disc == 0:
            raise InputError("singular curve: 4a^3 + 27b^2 = 0")
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)

    @property
    def p(self) -> int:
        return self.field.p


@dataclass(frozen=True)
class GroupStructure:
    """E(F_q) = Z/n1 x Z/n2 with n1 | n2 and n1 | q - 1."""

    n1: int
    n2: int

    @property
    def order(self) -> int:
        return self.n1 * self.n2


def count_points(curve: WeierstrassCurve, ext: int = 1) -> int:
    """#C(F_{p^ext}) for the projective model, point at infinity included.

    N_1 comes from one walk over x with a precomputed residue table.  For
    ext >= 2 the count is read off the zeta function that N_1 fixes,
    N_ext = p^ext + 1 - (alpha^ext + conj(alpha)^ext) (artin.nm); no
    extension field is built.  The tests check it against an enumeration
    of F_{p^ext}.  The census walks F_p, so p is held to the enumeration
    budget (ResourceError); the extension degree only lengthens the
    recurrence in nm.
    """
    if ext < 1:
        raise InputError("extension degree must be >= 1")
    p = curve.p
    if p > ENUMERATION_BUDGET:
        raise ResourceError(
            f"p = {p} exceeds the enumeration budget of the F_p census")
    n1 = _count_prime_field(p, curve.a, curve.b)
    if ext == 1:
        return n1
    return nm(elliptic_zeta(p, n1), ext)


def _count_prime_field(p: int, a: int, b: int) -> int:
    sq = bytearray(p)
    for y in range(p):
        sq[y * y % p] = 1
    count = 1
    for x in range(p):
        fx = (x * x % p * x + a * x + b) % p
        if fx == 0:
            count += 1
        elif sq[fx]:
            count += 2
    return count


def point_and_torsion_counts(curve: WeierstrassCurve) -> tuple[int, int, int]:
    """(N_1, #E[2](F_p), #E[3](F_p)), from one walk over x with a table of
    squares.

    The points of order 2 are the (x, 0) with f(x) = x^3 + ax + b = 0, so
    #E[2] = 1 + the number of roots of f.  The points of order 3 are the
    flexes: x is a root of psi_3 = 3x^4 + 6ax^2 + 12bx - a^2, and (x, +-y)
    is rational when f(x) is a nonzero square (f(x) = 0 would make the
    point of order 2), so #E[3] = 1 + 2 #{x : psi_3(x) = 0, f(x) a nonzero
    square}.

    The walk is O(p), but p^2 is held to the enumeration budget
    (ResourceError), the bound of the group census: the curve commands'
    float root finding (`nazeta._durand_kerner`) has its simple-roots
    precondition checked only for the primes below it.  `_count_prime_field`
    stays a walk of its own: `count_points` and `ap_fast` need no psi_3
    test and no such bound.
    """
    p, a, b = curve.p, curve.a, curve.b
    if p * p > ENUMERATION_BUDGET:
        raise ResourceError("F_p census exceeds the enumeration budget")
    sq = bytearray(p)
    for y in range(p):
        sq[y * y % p] = 1
    n1 = e2 = e3 = 1
    for x in range(p):
        xx = x * x % p
        fx = (xx * x + a * x + b) % p
        if fx == 0:
            n1 += 1
            e2 += 1
        elif sq[fx]:
            n1 += 2
            if (3 * xx * xx + 6 * a * xx + 12 * b * x - a * a) % p == 0:
                e3 += 2
    return n1, e2, e3


def trace_of_frobenius(p: int, a: int, b: int) -> int:
    """a_p = p + 1 - #E(F_p), by the same square-table census."""
    return p + 1 - _count_prime_field(p, a % p, b % p)


# -- group law on y^2 = x^3 + ax + b over F_p.  Affine points are (x, y)
# with 0 <= x, y < p and None is the point at infinity.  ec_mul is the one
# scalar multiplication; the Shanks-Mestre walks in nazeta add affine points
# inline, and tests/fq_oracle.py's pt_add is the group-law oracle.

def ec_mul(p: int, a: int, P, k: int):
    """k * P for k >= 0, returned affine (None for O).

    Left-to-right double-and-add in Jacobian coordinates (X : Y : Z) =
    (X/Z^2, Y/Z^3), with Z = 0 for O: doublings for a general a, additions
    mixed with the affine P, and one inversion at the end (Cohen, Miyaji
    and Ono, ASIACRYPT 1998).  A point with Y = 0 doubles to Z = 0, and O
    plus P is P.  If the running point equals P before an addition, the
    sum is 2P, taken from this routine at k = 2; P then has odd order, so
    2P is affine.
    """
    if P is None or k == 0:
        return None
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        if Z:
            YY = Y * Y % p
            S = 4 * X * YY % p
            ZZ = Z * Z % p
            M = (3 * X * X + a * ZZ * ZZ) % p
            Z = 2 * Y * Z % p
            X = (M * M - 2 * S) % p
            Y = (M * (S - X) - 8 * YY * YY) % p
        if bit == "0":
            continue
        if not Z:
            X, Y, Z = x, y, 1
            continue
        ZZ = Z * Z % p
        H = (x * ZZ - X) % p
        r = (y * ZZ * Z - Y) % p
        if not H:
            if r:
                Z = 0
            else:
                (X, Y), Z = ec_mul(p, a, P, 2), 1
            continue
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (r * r - HHH - 2 * V) % p
        Y = (r * (V - X) - Y * HHH) % p
        Z = Z * H % p
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 * zi % p


def _enumerate_points(p: int, a: int, b: int):
    """Infinity (None) and the affine points, read from one table of
    square roots: O(p) field operations."""
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    points = [None]
    for x in range(p):
        points.extend((x, y) for y in roots.get((x * x * x + a * x + b) % p, ()))
    return points


def group_structure(curve: WeierstrassCurve) -> GroupStructure:
    """(n1, n2) with E(F_p) = Z/n1 x Z/n2, derived from N = #E(F_p).

    N counts the enumerated points, so Lagrange gives N * P = O.  The
    exponent n2 starts at N; for each prime l | N it is divided by l while
    (n2 / l) * P = O for every point.  So n2 is the group exponent, and
    N / n2 is the n1 of the structure theorem: n1 | n2, and n1 | p - 1 by
    the Weil pairing.  No command calls it: the tests check
    `point_and_torsion_counts` against it, and perfbench/tracing.py names it.
    """
    p, a = curve.p, curve.a
    if p * p > ENUMERATION_BUDGET:
        raise ResourceError("group census exceeds the enumeration budget")
    points = _enumerate_points(p, a, curve.b)
    n = len(points)
    n2 = n
    for ell in prime_factors(n):
        while n2 % ell == 0 and all(ec_mul(p, a, P, n2 // ell) is None for P in points):
            n2 //= ell
    return GroupStructure(n // n2, n2)
