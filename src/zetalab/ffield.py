"""Small finite fields and point counting on Weierstrass curves.

This is the enumeration layer that grounds the zeta machinery: prime
fields F_p, extensions F_{p^n} as polynomial quotients with a
deterministically chosen modulus, projective point counts of
y^2 = x^3 + ax + b, and the group structure of the rational points.
Point counts are censuses over a table of squares.  The group structure
is derived from N = #E(F_q): the points are read from a square-root
table and the exponent is N with its primes stripped by scalar
multiplication (Cohen, GTM 138, section 7.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt
from typing import Iterable

from zetalab.errors import CapabilityError, InputError, ResourceError

ENUMERATION_BUDGET = 10 ** 7


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
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


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (little-endian int tuples)

def _poly_trim(c: list[int]) -> tuple[int, ...]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n])


def _poly_mulmod_nored(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mulmod(a, b, modulus, p):
    return _poly_reduce(_poly_mulmod_nored(a, b, p), modulus, p)


def _poly_reduce(c, modulus, p):
    c = list(c)
    n = len(modulus) - 1  # modulus is monic of degree n
    for i in range(len(c) - 1, n - 1, -1):
        f = c[i]
        if f:
            c[i] = 0
            for j in range(n):
                c[i - n + j] = (c[i - n + j] - f * modulus[j]) % p
    return _poly_trim(c)


def _poly_divmod(a, b, p):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, -1, p)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        f = (a[i + db] * inv_lb) % p
        q[i] = f
        if f:
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - f * bj) % p
    return _poly_trim(q), _poly_trim(a[:db])


def _irreducible(candidate, p) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(candidate) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            _, rem = _poly_divmod(candidate, divisor, p)
            if not rem:
                return False
    return True


def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """The lexicographically smallest monic irreducible of degree n over F_p.

    Candidates are ordered by their coefficient vector read as a base-p
    integer (leading coefficient most significant), so the choice is
    reproducible across runs and platforms.
    """
    for k in range(p ** n):
        tail = tuple((k // p ** i) % p for i in range(n))
        candidate = tail + (1,)
        if _irreducible(candidate, p):
            return candidate
    raise InputError(f"no irreducible of degree {n} over F_{p}")  # unreachable


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^n}; modulus is empty for n = 1."""

    p: int
    n: int = 1
    modulus: tuple[int, ...] = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if self.n < 1:
            raise InputError("extension degree must be >= 1")
        if self.n == 1:
            if self.modulus:
                raise InputError("prime field takes no modulus")
        else:
            if not self.modulus:
                object.__setattr__(self, "modulus", smallest_irreducible(self.p, self.n))
            if len(self.modulus) != self.n + 1 or self.modulus[-1] != 1:
                raise InputError("modulus must be monic of degree n")
            if not _irreducible(self.modulus, self.p):
                raise InputError("modulus is reducible")

    @property
    def size(self) -> int:
        return self.p ** self.n

    # -- element arithmetic (ints for n=1, little-endian tuples otherwise)

    def zero(self):
        return 0 if self.n == 1 else ()

    def one(self):
        return 1 if self.n == 1 else (1,)

    def from_int(self, k: int):
        if self.n == 1:
            return k % self.p
        return _poly_trim([k % self.p])

    def elements(self) -> Iterable:
        if self.n == 1:
            return range(self.p)
        return (_poly_trim(list(digits))
                for digits in itertools.product(range(self.p), repeat=self.n))

    def add(self, a, b):
        if self.n == 1:
            return (a + b) % self.p
        out = list(a) + [0] * (len(b) - len(a)) if len(a) < len(b) else list(a)
        for i, bi in enumerate(b):
            out[i] = (out[i] + bi) % self.p
        return _poly_trim(out)

    def neg(self, a):
        if self.n == 1:
            return (-a) % self.p
        return tuple((-ai) % self.p for ai in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.n == 1:
            return (a * b) % self.p
        if not a or not b:
            return ()
        return _poly_mulmod(a, b, self.modulus, self.p)

    def inv(self, a):
        if self.n == 1:
            if a % self.p == 0:
                raise InputError("inverse of zero")
            return pow(a, -1, self.p)
        if not a:
            raise InputError("inverse of zero")
        # extended Euclid in F_p[x] against the modulus
        r0, r1 = tuple(self.modulus), tuple(a)
        s0, s1 = (), (1,)
        while r1:
            q, r = _poly_divmod(r0, r1, self.p)
            r0, r1 = r1, r
            qs1 = _poly_mulmod_nored(q, s1, self.p)
            s0, s1 = s1, _poly_trim([(x - y) % self.p for x, y in
                                     itertools.zip_longest(s0, qs1, fillvalue=0)])
        # r0 is a nonzero constant
        c_inv = pow(r0[0], -1, self.p)
        return _poly_reduce([(c_inv * si) % self.p for si in s0], self.modulus, self.p)

    def equal(self, a, b) -> bool:
        return a == b


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a*x + b over a prime field of characteristic > 3."""

    field: FieldSpec
    a: int
    b: int

    def __post_init__(self):
        if self.field.n != 1:
            raise CapabilityError(
                "curves are constructed over prime fields; extensions enter "
                "only as counting fields")
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

    ext = 1 walks x once with a precomputed residue table; larger
    extensions enumerate the quotient-ring field directly.  The census is
    refused (ResourceError) beyond the enumeration budget; recover exact
    counts for larger fields through the zeta function instead (nm).
    """
    if ext < 1:
        raise InputError("extension degree must be >= 1")
    p = curve.p
    if p ** ext > ENUMERATION_BUDGET:
        raise ResourceError(
            f"p^m = {p}^{ext} exceeds the enumeration budget; derive the "
            "count from the curve's zeta function (abelian-zeta nm) instead")
    if ext == 1:
        return _count_prime_field(p, curve.a, curve.b)
    fld = FieldSpec(p, ext)
    a = fld.from_int(curve.a)
    b = fld.from_int(curve.b)
    squares = set()
    for y in fld.elements():
        squares.add(fld.mul(y, y))
    count = 1  # infinity
    for x in fld.elements():
        fx = fld.add(fld.mul(fld.mul(x, x), x), fld.add(fld.mul(a, x), b))
        if not fx:
            count += 1
        elif fx in squares:
            count += 2
    return count


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


def trace_of_frobenius(p: int, a: int, b: int) -> int:
    """a_p = p + 1 - #E(F_p), by the same square-table census."""
    return p + 1 - _count_prime_field(p, a % p, b % p)


# -- group law over an arbitrary FieldSpec (points are None for infinity)

def _pt_add(fld: FieldSpec, a_coeff, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if fld.equal(x1, x2):
        if fld.equal(y1, fld.neg(y2)):
            return None
        # doubling
        num = fld.add(fld.mul(fld.from_int(3), fld.mul(x1, x1)), a_coeff)
        den = fld.mul(fld.from_int(2), y1)
    else:
        num = fld.sub(y2, y1)
        den = fld.sub(x2, x1)
    lam = fld.mul(num, fld.inv(den))
    x3 = fld.sub(fld.sub(fld.mul(lam, lam), x1), x2)
    y3 = fld.sub(fld.mul(lam, fld.sub(x1, x3)), y1)
    return (x3, y3)


def _pt_mul(fld: FieldSpec, a_coeff, P, k: int):
    """k * P for k >= 0, by double-and-add."""
    acc = None
    while k:
        if k & 1:
            acc = _pt_add(fld, a_coeff, acc, P)
        P = _pt_add(fld, a_coeff, P, P)
        k >>= 1
    return acc


def _enumerate_points(fld: FieldSpec, a_coeff, b_coeff):
    """Infinity (None) and the affine points, read from one table of
    square roots: O(q) field operations."""
    roots: dict = {}
    for y in fld.elements():
        roots.setdefault(fld.mul(y, y), []).append(y)
    points = [None]
    for x in fld.elements():
        fx = fld.add(fld.mul(fld.mul(x, x), x),
                     fld.add(fld.mul(a_coeff, x), b_coeff))
        points.extend((x, y) for y in roots.get(fx, ()))
    return points


def group_structure(curve: WeierstrassCurve) -> GroupStructure:
    """(n1, n2) with E(F_p) = Z/n1 x Z/n2, derived from N = #E(F_p).

    Every point must satisfy N * P = O.  The exponent n2 starts at N; for
    each prime l | N it is divided by l while (n2 / l) * P = O for every
    point, and then n1 = N / n2.
    """
    p = curve.p
    if p * p > ENUMERATION_BUDGET:
        raise ResourceError("group census exceeds the enumeration budget")
    fld = curve.field
    a = fld.from_int(curve.a)
    b = fld.from_int(curve.b)
    points = _enumerate_points(fld, a, b)
    n = len(points)

    def kills_all(k: int) -> bool:
        return all(_pt_mul(fld, a, P, k) is None for P in points)

    if not kills_all(n):
        raise InputError("point order exceeds group order; inconsistent curve")
    n2 = n
    for ell in prime_factors(n):
        while n2 % ell == 0 and kills_all(n2 // ell):
            n2 //= ell
    n1, rem = divmod(n, n2)
    if rem or n2 % n1:
        raise InputError("point census inconsistent with Z/n1 x Z/n2")
    if (p - 1) % n1:
        raise InputError("Weil pairing constraint n1 | q-1 violated")
    return GroupStructure(n1, n2)


def torsion_count(gs: GroupStructure, m: int) -> int:
    """#E[m](F_q) = gcd(m, n1) * gcd(m, n2)."""
    if m < 1:
        raise InputError("torsion level must be >= 1")
    return gcd(m, gs.n1) * gcd(m, gs.n2)


def norm_kernel_size(curve: WeierstrassCurve, ext: int) -> int:
    """#ker of the trace map E(F_{p^ext}) -> E(F_p), by direct enumeration.

    Counts points with P + P^frob + ... + P^{frob^(ext-1)} = O.  This is an
    oracle for the Galois-descent census (where the kernel size enters as
    N_ext / N_1) and is budgeted like any other enumeration.
    """
    p = curve.p
    if p ** (2 * ext) > ENUMERATION_BUDGET:
        raise ResourceError("trace-map census exceeds the enumeration budget")
    fld = FieldSpec(p, ext)
    a = fld.from_int(curve.a)
    b = fld.from_int(curve.b)

    def frob(P):
        if P is None:
            return None
        x, y = P
        return (_poly_powmod(x, p, fld), _poly_powmod(y, p, fld))

    kernel = 0
    for P in _enumerate_points(fld, a, b):
        acc = P
        Q = P
        for _ in range(ext - 1):
            Q = frob(Q)
            acc = _pt_add(fld, a, acc, Q)
        if acc is None:
            kernel += 1
    return kernel


def _poly_powmod(x, e, fld: FieldSpec):
    result = fld.one()
    base = x
    while e:
        if e & 1:
            result = fld.mul(result, base)
        base = fld.mul(base, base)
        e >>= 1
    return result
