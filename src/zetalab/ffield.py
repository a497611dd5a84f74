"""Prime fields and point counting on Weierstrass curves.

This is the counting layer that grounds the zeta machinery: prime fields
F_p, projective point counts of y^2 = x^3 + ax + b, the rational 2- and
3-torsion, the trace of Frobenius a_p, scalar multiplication on such a
curve, and the group structure of the rational points.  N_1 = #E(F_p) is a
census over a table of squares, and counts over F_{p^n} follow from it
through the curve's zeta function (the tests enumerate F_{p^n}).  A second
walk over x reads #E[2](F_p) and #E[3](F_p) from the roots of f and of the
3-division polynomial; each walk holds p to the enumeration budget.  a_p
comes from a Shanks-Mestre search above MESTRE_BOUND.  The group
structure, which no command reads, is derived from N: the exponent is N
with its primes stripped by scalar multiplication on the points of a
square-root table (Cohen, GTM 138, section 7.4); the tests check the
torsion counts against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from zetalab.artin import elliptic_zeta, nm
from zetalab.errors import ENUMERATION_BUDGET, InputError, NumericError, ResourceError

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
    n1 = _count_prime_field(curve.p, curve.a, curve.b)
    return n1 if ext == 1 else nm(elliptic_zeta(curve.p, n1), ext)


def _squares(p: int) -> bytearray:
    """sq[v] = 1 for the squares v of F_p; p is held to the enumeration budget."""
    if p > ENUMERATION_BUDGET:
        raise ResourceError(
            f"p = {p} exceeds the enumeration budget of the F_p census")
    sq = bytearray(p)
    for y in range(p):
        sq[y * y % p] = 1
    return sq


def _count_prime_field(p: int, a: int, b: int) -> int:
    sq = _squares(p)
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

    `_count_prime_field` stays a walk of its own: `count_points` and
    `ap_fast` need no psi_3 test.
    """
    p, a, b = curve.p, curve.a, curve.b
    sq = _squares(p)
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


# -- group law on y^2 = x^3 + ax + b over F_p.  Affine points are (x, y)
# with 0 <= x, y < p and None is the point at infinity.  ec_mul is the one
# scalar multiplication; the Shanks-Mestre walks of `_hasse_multiples` add
# affine points inline, and tests/fq_oracle.py's pt_add is the group-law oracle.

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


# Mestre: for p > 229, E or its quadratic twist has a point whose order has
# exactly one multiple in the Hasse interval, so intersecting the candidate
# traces of points on both curves always ends at one value (Cohen, "A Course
# in Computational Algebraic Number Theory", GTM 138, section 7.4.3)
MESTRE_BOUND = 229


def _hasse_multiples(p: int, a: int, P) -> list[int]:
    """Every M in [lo, hi] = [p+1-w, p+1+w], w = floor(2 sqrt p), with
    M * P = O, for a point P with y(P) != 0 (`ap_fast` passes (dx, d^2)).

    Baby steps jP, j = 1..m+1, either find the order n <= 2m+1 of P (a
    repeated x-coordinate, jP = -j'P) or show n >= 2m+2.  In the
    second case a giant-step window [c-m, c+m] holds at most one multiple
    of n, and cP = tP, |t| <= m, is told from -tP by its y-coordinate.  The
    giant step is G = (2m+1)P = (m+1)P + mP, and the windows are centred on
    the multiples c of 2m+1 from k(2m+1), k = floor((lo+m)/(2m+1)), whose
    window is the first to reach lo, so the walk starts at kG = ec_mul(G, k).
    That first window can reach below lo; only M in [lo, hi] are kept.
    Both walks add affine points inline: one inversion per step.
    """
    w = isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    m = isqrt(w) + 1
    px, py = P
    baby: dict[int, tuple[int, int]] = {}     # x(jP) -> (j, y(jP)), j <= m
    x, y, n = px, py, 0                       # jP
    for j in range(1, m + 2):
        if x in baby:
            n = j + baby[x][0]
            break
        if j > m:
            break
        baby[x] = (j, y)
        mx, my = x, y
        if j > 1:                             # x(jP) != x(P): a chord
            lam = (y - py) * pow(x - px, -1, p) % p
        else:                                 # 2P by the tangent
            lam = (3 * px * px + a) * pow(2 * py, -1, p) % p
        x3 = (lam * lam - x - px) % p
        x, y = x3, (lam * (x - x3) - y) % p
    if n:
        return list(range(-(-lo // n) * n, hi + 1, n))
    # (m+1)P and mP have different x, or (2m+1)P = O would have been found
    lam = (y - my) * pow(x - mx, -1, p) % p
    gx = (lam * lam - x - mx) % p
    gy = (lam * (x - gx) - y) % p
    step = 2 * m + 1
    k = (lo + m) // step
    c = k * step
    Q = ec_mul(p, a, (gx, gy), k)
    found = []
    while True:
        if Q is None:
            M = c
        else:
            qx, qy = Q
            hit = baby.get(qx)                # cP = jP or -jP
            M = None if hit is None else (c - hit[0] if qy == hit[1] else c + hit[0])
        if M is not None and lo <= M <= hi:
            found.append(M)
        c += step
        if c - m > hi:
            return found
        if Q is None:                         # Q += G
            Q = gx, gy
            continue
        if qx != gx:
            lam = (gy - qy) * pow(gx - qx, -1, p) % p
        elif qy == gy and qy:
            lam = (3 * qx * qx + a) * pow(2 * qy, -1, p) % p
        else:                                 # Q = -G
            Q = None
            continue
        x3 = (lam * lam - qx - gx) % p
        Q = x3, (lam * (qx - x3) - qy) % p


def ap_fast(p: int, A: int, B: int) -> int:
    """a_p of y^2 = x^3 + Ax + B over F_p in O(p^(1/4)) group operations.

    Shanks-Mestre: for x = 0, 1, 2, ... with d = f(x) != 0, the point
    (dx, d^2) lies on y^2 = X^3 + A d^2 X + B d^3, which is E when d is a
    square and its quadratic twist (trace -a_p) otherwise.  Each point's
    orders in the Hasse interval give candidate traces, signed by the
    Legendre symbol of d; the candidates are intersected until one is left.
    Primes up to MESTRE_BOUND use the square-table census instead.
    """
    A, B = A % p, B % p
    if p < 5 or (4 * A ** 3 + 27 * B * B) % p == 0:
        raise InputError(f"y^2 = x^3 + {A}x + {B} is not an elliptic curve over F_{p}")
    if p <= MESTRE_BOUND:
        return p + 1 - _count_prime_field(p, A, B)
    candidates: set[int] | None = None
    for x in range(p):
        d = (x * x * x + A * x + B) % p
        if d == 0:
            continue
        chi = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
        Ms = _hasse_multiples(p, A * d * d % p, (d * x % p, d * d % p))
        traces = {chi * (p + 1 - M) for M in Ms}
        candidates = traces if candidates is None else candidates & traces
        if len(candidates) == 1:
            return candidates.pop()
        if not candidates:
            raise NumericError(f"no trace at p = {p} fits every point")
    raise NumericError(f"a_p at p = {p} still ambiguous after every x")


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
    It lists all ~p points, so p^2 is held to the enumeration budget.
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
