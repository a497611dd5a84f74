"""Enumeration oracle over F_{p^n}, for tests only.

The library counts points over extension fields through the zeta function
(`ffield.count_points`) and runs its group law on plain ints mod p.  This
module keeps the brute-force routes those answers are checked against:
F_{p^n} as polynomial quotients with a deterministically chosen modulus,
a group law over any such field, point counts by enumerating the field,
the kernel of the trace map E(F_{p^n}) -> E(F_p) by summing Frobenius
conjugates, and the m-torsion counts read off the group structure, which
check the library's torsion walk (`ffield.point_and_torsion_counts`).
The test fixtures also tell curves apart by that group structure.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from zetalab.errors import InputError, ResourceError
from zetalab.ffield import (
    ENUMERATION_BUDGET,
    GroupStructure,
    WeierstrassCurve,
    group_structure,
    is_prime,
)


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
class Fq:
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

    # -- element arithmetic (ints for n=1, little-endian tuples otherwise)

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

    def pow(self, x, e: int):
        result = self.one()
        while e:
            if e & 1:
                result = self.mul(result, x)
            x = self.mul(x, x)
            e >>= 1
        return result


# -- group law over an arbitrary Fq (points are None for infinity)

def pt_add(fld: Fq, a_coeff, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if y1 == fld.neg(y2):
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


def multiples(fld: Fq, a_coeff, P) -> list:
    """[O, P, 2P, ..., nP = O] for P of order n, by repeated pt_add."""
    out = [None, P]
    while out[-1] is not None:
        out.append(pt_add(fld, a_coeff, out[-1], P))
    return out


def _enumerate_points(fld: Fq, a_coeff, b_coeff):
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


@functools.lru_cache(maxsize=None)
def _field_tables(p: int, ext: int):
    """F_{p^ext}, its elements with their cubes, and its set of squares;
    shared by every curve counted over the same field."""
    fld = Fq(p, ext)
    cubes = [(x, fld.mul(fld.mul(x, x), x)) for x in fld.elements()]
    squares = frozenset(fld.mul(y, y) for y in fld.elements())
    return fld, cubes, squares


def enumerated_count(curve: WeierstrassCurve, ext: int) -> int:
    """#C(F_{p^ext}) for the projective model, by enumerating F_{p^ext}."""
    p = curve.p
    if p ** ext > ENUMERATION_BUDGET:
        raise ResourceError("point census exceeds the enumeration budget")
    fld, cubes, squares = _field_tables(p, ext)
    a = fld.from_int(curve.a)
    b = fld.from_int(curve.b)
    count = 1  # infinity
    for x, x3 in cubes:
        fx = fld.add(x3, fld.add(fld.mul(a, x), b))
        if not fx:
            count += 1
        elif fx in squares:
            count += 2
    return count


def norm_kernel_size(curve: WeierstrassCurve, ext: int) -> int:
    """#ker of the trace map E(F_{p^ext}) -> E(F_p), by direct enumeration.

    Counts points with P + P^frob + ... + P^{frob^(ext-1)} = O.  This is an
    oracle for the Galois-descent census, where the kernel size enters as
    N_ext / N_1.
    """
    p = curve.p
    if p ** (2 * ext) > ENUMERATION_BUDGET:
        raise ResourceError("trace-map census exceeds the enumeration budget")
    fld = Fq(p, ext)
    a = fld.from_int(curve.a)
    b = fld.from_int(curve.b)

    def frob(P):
        if P is None:
            return None
        x, y = P
        return (fld.pow(x, p), fld.pow(y, p))

    kernel = 0
    for P in _enumerate_points(fld, a, b):
        acc = P
        Q = P
        for _ in range(ext - 1):
            Q = frob(Q)
            acc = pt_add(fld, a, acc, Q)
        if acc is None:
            kernel += 1
    return kernel


def torsion_count(gs: GroupStructure, m: int) -> int:
    """#E[m](F_q) = gcd(m, n1) * gcd(m, n2)."""
    if m < 1:
        raise InputError("torsion level must be >= 1")
    return gcd(m, gs.n1) * gcd(m, gs.n2)


def one_curve_per_group(curves: Iterable[WeierstrassCurve]) -> list[WeierstrassCurve]:
    """The first of `curves` with each distinct (q, N_1, group): the group,
    from `ffield.group_structure`, tells apart curves whose N_1 and 2- and
    3-torsion agree."""
    found = {}
    for curve in curves:
        found.setdefault((curve.p, group_structure(curve)), curve)
    return list(found.values())
