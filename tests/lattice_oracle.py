"""Lattice constructors and inverses that only the tests use.

`standard` and `diagonal` build lattices no command needs; `inverse` is
G^-1 on Fractions from the library's integer adjugate, and
`gauss_jordan_inverse` the independent route it is checked against.
"""

from fractions import Fraction as F

from zetalab.exact import rat
from zetalab.lattice import Lattice, _adjugate


def standard(n):
    return diagonal([1] * n)


def diagonal(entries):
    """The lattice spanned by entries[i] * e_i."""
    entries = [rat(e) for e in entries]
    n = len(entries)
    return Lattice.from_gram([[entries[i] ** 2 if i == j else 0 for j in range(n)]
                              for i in range(n)])


def inverse(lat):
    """G^-1 = den adj(g) / d_n, g = den * G, as Fractions."""
    return tuple(tuple(F(lat.den * x, lat.d[-1]) for x in row) for row in _adjugate(lat.g))


def gauss_jordan_inverse(a):
    """Oracle inverse: Gauss-Jordan elimination on Fractions."""
    n = len(a)
    m = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)
