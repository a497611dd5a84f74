import math
import random
import sys
from fractions import Fraction as F
from itertools import product as iproduct

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import diagonal, gauss_jordan_inverse, inverse, standard

from zetalab import lattice
from zetalab.errors import (
    CapabilityError,
    ConfigError,
    InputError,
    NumericError,
    ResourceError,
)
from zetalab.lattice import (
    XI_DPS,
    XI_EXTRA_TERMS,
    XI_MAX_ORDER,
    XI_MAX_SIGMA,
    XI_MIN_SIGMA,
    XI_TERM_BUDGET,
    Lattice,
    _column_reduce_to_e1,
    _sub_quotient_grams,
    _em_coefficients,
    _lll,
    _run_norms,
    _short_vector_runs,
    _zeta_em,
    deg,
    dual,
    hn_filtration,
    is_semistable,
    reduce_rank2,
    rr_check,
    shortest_vector,
    theta_h0,
    xi_q,
)

# a rational lattice 4e-14 below the hexagonal fundamental-domain corner,
# with covolume exactly 1
A0 = F(2149139863647, 2 * 10 ** 12)
HEX_LIKE = Lattice.from_basis_columns([[A0, 0], [A0 / 2, 1 / A0]])
# e1 plus HEX_LIKE lifted by e1/2: lambda_1^6 equals covol^2 while every
# rank-2 sublattice lies strictly above the slope (and the reverse in the
# dual), so it is semistable but not stable
_H = HEX_LIKE.gram
HEX_LIFTED = Lattice.from_gram([[1, F(1, 2), F(1, 2)],
                                [F(1, 2), F(1, 4) + _H[0][0], F(1, 4) + _H[0][1]],
                                [F(1, 2), F(1, 4) + _H[1][0], F(1, 4) + _H[1][1]]])
BASES = [standard(2), standard(3), diagonal([F(1, 2), 2]),
         diagonal([1, 1, 9]), diagonal([F(1, 4), 1, 4]), HEX_LIKE]


def minima_semistable(lat, strict=False):
    """Oracle for is_semistable, straight from the minima: no rank-1
    sublattice with lambda_1^(2n) < covol^2 and, at rank 3, no rank-2
    sublattice with (covol^2 * lambda_1(L*)^2)^3 < covol^4.  With strict,
    equality destabilizes too: the oracle for stability."""
    n = lat.rank
    if n == 1:
        return True
    below = (lambda u, v: u <= v) if strict else (lambda u, v: u < v)
    c2 = lat.covolume2
    lam2, _ = shortest_vector(lat)
    if below(lam2 ** n, c2):
        return False
    if n == 3:
        dlam2, _ = shortest_vector(dual(lat))
        if below((c2 * dlam2) ** 3, c2 ** 2):
            return False
    return True


D4 = Lattice.from_gram([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])


def box_shortest_vector(lat):
    """Oracle for shortest_vector: box enumeration in the input basis.  The
    box |x_i| <= sqrt(m (G^-1)_ii) + 1, m the smallest Gram diagonal entry,
    holds every minimal vector; of those, the lexicographically least with
    positive first nonzero entry is kept.  Its cost grows with the skew of
    the basis."""
    g = lat.gram
    n = lat.rank
    ginv = gauss_jordan_inverse(g)
    best = min(g[i][i] for i in range(n))
    best_x = tuple(1 if j == min(range(n), key=lambda i: g[i][i]) else 0
                   for j in range(n))
    box = [math.isqrt(math.floor(best * ginv[i][i])) + 1 for i in range(n)]
    for x in iproduct(*(range(-b, b + 1) for b in box)):
        if all(c == 0 for c in x) or x < tuple(-c for c in x):
            continue
        norm = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm < best or (norm == best and x < best_x):
            best, best_x = norm, x
    return best, best_x


def fraction_det(a):
    """Oracle determinant: Fraction elimination with row pivoting."""
    m = [[F(x) for x in row] for row in a]
    n = len(m)
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def leading_minors(a):
    return [fraction_det([row[:k] for row in a[:k]]) for k in range(1, len(a) + 1)]


def change_basis(lat, u):
    """The lattice with Gram U^T G U: the same lattice in the basis given by
    the columns of the integer matrix U."""
    n = lat.rank
    g = lat.gram
    return Lattice.from_gram([[sum(u[a][r] * g[a][b] * u[b][c]
                                   for a in range(n) for b in range(n))
                               for c in range(n)] for r in range(n)])


def transvection(u, i, j, k):
    """Column j of u gains k times column i, in place."""
    for row in u:
        row[j] += k * row[i]


def shear3(k):
    """The basis [1,0,0], [k,1,0], [k^2+1,k,1] of Z^3, as columns."""
    return Lattice.from_basis_columns([[1, 0, 0], [k, 1, 0], [k * k + 1, k, 1]])


def fraction_gram_schmidt(gram):
    """Gram-Schmidt data (mu, B) of a Gram matrix on Fractions: G = M D M^T,
    M unit lower triangular with entries mu, D = diag(B)."""
    n = len(gram)
    mu = [[F(0)] * n for _ in range(n)]
    b = [F(0)] * n
    for k in range(n):
        for j in range(k):
            mu[k][j] = (gram[k][j] - sum(mu[j][i] * mu[k][i] * b[i]
                                         for i in range(j))) / b[j]
        b[k] = F(gram[k][k]) - sum(mu[k][i] ** 2 * b[i] for i in range(k))
    return mu, b


def fraction_lll(gram):
    """Oracle for _lll: LLL (delta = 3/4) on the rational Gram-Schmidt data
    of den * G, updated on each size reduction and swap (Cohen, GTM 138,
    Algorithm 2.6.3).  Returns (U^T G U, U), U's columns the reduced basis."""
    n = len(gram)
    den = math.lcm(*(F(x).denominator for row in gram for x in row))
    g = [[int(x * den) for x in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    mu, b = fraction_gram_schmidt(g)

    def size_reduce(k, l):
        if abs(mu[k][l]) > F(1, 2):
            q = math.floor(mu[k][l] + F(1, 2))
            u[k] = [a - q * c for a, c in zip(u[k], u[l])]
            mu[k][l] -= q
            for i in range(l):
                mu[k][i] -= q * mu[l][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        m = mu[k][k - 1]
        if b[k] < (F(3, 4) - m * m) * b[k - 1]:
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            bb = b[k] + m * m * b[k - 1]
            mu[k][k - 1] = m * b[k - 1] / bb
            b[k] = b[k - 1] * b[k] / bb
            b[k - 1] = bb
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    reduced = tuple(tuple(F(sum(u[i][a] * g[a][c] * u[j][c]
                                for a in range(n) for c in range(n)), den)
                          for j in range(n)) for i in range(n))
    return reduced, tuple(zip(*u))


def is_lll_reduced(gram):
    """Size-reduced (|mu_ij| <= 1/2) and Lovasz with delta = 3/4, from the
    Gram-Schmidt recursion on the Gram matrix."""
    n = len(gram)
    mu, b = fraction_gram_schmidt(gram)
    sized = all(abs(mu[k][j]) <= F(1, 2) for k in range(n) for j in range(k))
    lovasz = all(b[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * b[k - 1]
                 for k in range(1, n))
    return sized and lovasz


@st.composite
def unimodular(draw, n):
    """A signed permutation times a product of up to 4 transvections
    e_j += k e_i with |k| <= 20.  Shortest vectors are searched on an
    LLL-reduced basis, so the skew this gives costs little."""
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    u = [[signs[r] * int(perm[r] == c) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        transvection(u, i, j, draw(st.integers(-20, 20)))
    return u


class TestLatticeConstruction:
    def test_standard(self):
        z3 = standard(3)
        assert z3.covolume2 == 1
        assert z3.rank == 3

    def test_gram_must_be_positive_definite(self):
        with pytest.raises(InputError):
            Lattice.from_gram([[1, 2], [2, 1]])

    def test_gram_must_be_symmetric(self):
        with pytest.raises(InputError):
            Lattice.from_gram([[1, 1], [0, 1]])

    def test_rank_cap(self):
        with pytest.raises(CapabilityError):
            Lattice.from_gram([[1 if i == j else 0 for j in range(5)]
                               for i in range(5)])

    def test_covolume2_exact(self):
        lat = diagonal([F(1, 2), 2])
        assert lat.covolume2 == 1

    def test_singular_basis_refused(self):
        with pytest.raises(InputError, match="positive definite"):
            Lattice.from_basis_columns([[1, 2, 3], [2, 4, 6], [0, 1, 5]])

    def test_gram_schmidt_against_leading_minors(self):
        """Accepted exactly when every leading minor is positive
        (Sylvester), with covolume2 the determinant, on random symmetric
        Grams M^T diag(d) M: d of mixed sign gives indefinite ones, a zero
        in d or a singular M semidefinite ones."""
        rng = random.Random(14)
        kinds = {"definite": 0, "semidefinite": 0, "indefinite": 0}
        for _ in range(400):
            n = rng.randint(1, 4)
            m = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(n)]
            d = [F(rng.choice((-1, 0, 1, 1, 1, 2)), rng.randint(1, 4))
                 for _ in range(n)]
            gram = [[sum(m[k][i] * d[k] * m[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]
            minors = leading_minors(gram)
            definite = all(x > 0 for x in minors)
            if definite:
                kinds["definite"] += 1
            elif any(x < 0 for x in d) and any(x > 0 for x in d) and minors[-1]:
                kinds["indefinite"] += 1
            elif min(d) >= 0:
                kinds["semidefinite"] += 1
            try:
                lat = Lattice.from_gram(gram)
            except InputError as exc:
                assert not definite, gram
                assert str(exc) == "Gram matrix must be positive definite"
                continue
            assert definite, gram
            assert lat.covolume2 == minors[-1]
            den, g, d = lat.den, lat.g, lat.d
            assert d == [1] + leading_minors(g)
            assert d[1:] == [x * den ** k for k, x in enumerate(minors, 1)]
        assert min(kinds.values()) >= 20, kinds


    def test_gram_is_divided_by_its_gcd(self):
        # B^T B = 25 I over den^2 = 25: Z^2, so den 1 and g = I
        lat = Lattice.from_basis_columns([[F(3, 5), F(4, 5)], [F(-4, 5), F(3, 5)]])
        assert (lat.den, lat.g) == (1, ((1, 0), (0, 1)))
        assert lat == standard(2) and lat.gram == standard(2).gram
        # the dual's (d_n, den adj g) = (4, 2 I) is Z^2 scaled by 1/2
        quarter = dual(diagonal([2, 2]))
        assert (quarter.den, quarter.g) == (4, ((1, 0), (0, 1)))
        for lat in BASES + [HEX_LIFTED, D4]:
            assert math.gcd(lat.den, *(x for row in lat.g for x in row)) == 1
            assert lat.den == math.lcm(*(x.denominator for row in lat.gram for x in row))


class TestDeg:
    def test_standard_lattice(self):
        for n in (1, 2, 3):
            assert deg(standard(n)) == 0.0

    def test_scaled_line(self):
        assert abs(deg(diagonal([2])) + math.log(2)) < 1e-15

    def test_determinant_one_shear(self):
        assert deg(diagonal([3, F(1, 3)])) == 0.0


class TestDual:
    def test_selfdual_standard(self):
        z2 = standard(2)
        assert dual(z2).gram == z2.gram

    def test_involution_exact(self):
        rng = random.Random(5)
        for _ in range(20):
            cols = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
                    for _ in range(3)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            back = dual(dual(lat))
            assert back.gram == lat.gram

    def test_scaled_line_inverts(self):
        lat = diagonal([4])
        assert dual(lat).gram == ((F(1, 16),),)

    def test_deg_antisymmetry(self):
        lat = Lattice.from_gram([[2, 1], [1, 3]])
        assert abs(deg(dual(lat)) + deg(lat)) < 1e-12

    def test_inverse_against_gauss_jordan(self):
        for lat in BASES + [HEX_LIFTED, D4]:
            assert dual(lat).gram == gauss_jordan_inverse(lat.gram)
            assert inverse(dual(lat)) == gauss_jordan_inverse(dual(lat).gram)

    def test_gram_diag_swap(self):
        lat = diagonal([F(2) ** F(1), F(1, 2)])
        d = dual(lat)
        assert d.gram == ((F(1, 4), F(0)), (F(0), F(4)))


class TestSemistability:
    def test_standard_semistable_not_stable(self):
        for n in (1, 2, 3):
            assert is_semistable(standard(n))

    def test_unbalanced_diagonal_unstable(self):
        assert not is_semistable(diagonal([F(1, 2), 2]))

    def test_hexagonal_like_stable(self):
        lam2, _ = shortest_vector(HEX_LIKE)
        assert lam2 ** 2 > HEX_LIKE.covolume2
        assert is_semistable(HEX_LIKE)
        assert hn_filtration(HEX_LIKE).stable

    def test_rank3_dual_route(self):
        # very flat lattice: a dense rank-2 sublattice destabilizes
        lat = diagonal([1, 1, 9])
        assert not is_semistable(lat)

    def test_semistable_iff_single_hn_step(self):
        # is_semistable is the one-step test; the minima criterion is the
        # independent route
        rng = random.Random(11)
        samples = [standard(2), standard(3),
                   diagonal([F(1, 2), 2]), diagonal([1, 1, 9]),
                   HEX_LIKE, HEX_LIFTED, dual(HEX_LIFTED)]
        for _ in range(15):
            cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
                    for _ in range(3)]
            try:
                samples.append(Lattice.from_basis_columns(cols))
            except InputError:
                pass
        for lat in samples:
            assert is_semistable(lat) == hn_filtration(lat).is_single
            assert is_semistable(lat) == minima_semistable(lat)
            assert hn_filtration(lat).stable == minima_semistable(lat, strict=True)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_change_of_basis_invariance(self, data):
        lat = data.draw(st.sampled_from(BASES))
        moved = change_basis(lat, data.draw(unimodular(lat.rank)))
        assert moved.covolume2 == lat.covolume2
        assert shortest_vector(moved)[0] == shortest_vector(lat)[0]
        steps = [(s.rank, s.covol2) for s in hn_filtration(moved).steps]
        assert steps == [(s.rank, s.covol2) for s in hn_filtration(lat).steps]
        assert is_semistable(moved) == minima_semistable(moved)
        assert hn_filtration(moved).stable == minima_semistable(moved, strict=True)


def _sheared_lattices():
    # base lattices in benchmark-style skewed bases: a shear
    # [[1,0,0],[k,1,0],[k^2+1,k,1]] (its top-left block at rank 2, padded
    # at rank 4) times a few small transvections
    rng = random.Random(17)
    out = [shear3(k) for k in (2, 10, 40, 200)]
    out.append(Lattice.from_basis_columns([[1, -3, 3], [3, 2, 1], [3, -2, 4]]))
    for lat in BASES + [HEX_LIFTED, D4]:
        n = lat.rank
        for _ in range(3):
            k = rng.randint(5, 200) if n == 2 else rng.randint(2, 40)
            shear = [[1, 0, 0, 0], [k, 1, 0, 0], [k * k + 1, k, 1, 0], [0, 0, 0, 1]]
            u = [row[:n] for row in shear[:n]]
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                transvection(u, i, j, rng.randint(-1, 1))
            out.append(change_basis(lat, u))
    return out


class TestLLL:
    def _check(self, lat):
        u, d, lam = _lll(lat)
        reduced = change_basis(lat, u).gram
        assert all(isinstance(c, int) for row in u for c in row)
        # the integral LLL makes the rational algorithm's swaps exactly
        assert (reduced, u) == fraction_lll(lat.gram)
        # the Gram of U's columns has determinant det(U)^2
        assert Lattice.from_basis_columns(list(zip(*u))).covolume2 == 1
        assert is_lll_reduced(reduced)
        # d and lam are the fraction-free Gram-Schmidt data of den * U^T G U
        den = lat.den
        assert d == [1] + leading_minors([[x * den for x in row] for row in reduced])
        mu, _ = fraction_gram_schmidt(reduced)
        n = lat.rank
        assert all(lam[k][j] == mu[k][j] * d[j + 1] for k in range(n) for j in range(k))
        # the adjugate inverse against Gauss-Jordan, on the input Gram and on
        # the reduced one
        assert inverse(lat) == gauss_jordan_inverse(lat.gram)
        assert inverse(Lattice.from_gram(reduced)) == gauss_jordan_inverse(reduced)

    def test_random_rational_grams(self):
        rng = random.Random(41)
        done = 0
        while done < 60:
            n = rng.choice((2, 3, 4))
            cols = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            self._check(lat)
            done += 1

    def test_sheared_bases(self):
        for lat in _sheared_lattices():
            self._check(lat)

    def test_k40_shear_reduces_to_identity(self):
        lat = shear3(40)
        reduced = change_basis(lat, _lll(lat)[0]).gram
        assert reduced == tuple(tuple(F(int(i == j)) for j in range(3))
                                for i in range(3))

    def test_reduced_input_is_fixed(self):
        for lat in (standard(3), Lattice.from_gram([[2, 1], [1, 2]])):
            u = _lll(lat)[0]
            reduced = change_basis(lat, u).gram
            assert u == tuple(tuple(int(i == j) for j in range(lat.rank))
                              for i in range(lat.rank))
            assert reduced == lat.gram


def box_short_vectors(g, bound):
    """Oracle for the expanded runs: (N, y) for every y != 0 in the box
    |y_i| <= sqrt(bound (g^-1)_ii) with N = y^T g y <= bound, the one of each
    pair +-y whose last nonzero entry is positive, sorted."""
    n = len(g)
    ginv = gauss_jordan_inverse(g)
    box = [math.isqrt(math.floor(bound * ginv[i][i])) for i in range(n)]
    found = []
    for y in iproduct(*(range(-b, b + 1) for b in box)):
        nonzero = [c for c in y if c]
        if nonzero and nonzero[-1] > 0:
            norm = sum(g[i][j] * y[i] * y[j] for i in range(n) for j in range(n))
            if norm <= bound:
                found.append((norm, y))
    return sorted(found)


def expand_runs(runs, d1):
    """(N, y) for every vector of the runs, y = (y_0, y_1..)."""
    out = []
    for ys, above, c, lo, hi in runs:
        for y0 in range(lo, hi + 1):
            t = d1 * y0 + c
            out.append(((t * t + above) // d1, (y0, *ys)))
    return out


class TestShortVectorRuns:
    """The Fincke-Pohst runs, expanded with coordinates, against a box
    search in the input basis; theta's norm-only expansion against that."""

    def test_against_box_enumeration(self):
        # seeded random integral bases of ranks 1-4, half of them skewed by
        # a shear; the bound is a norm the lattice attains
        rng = random.Random(38)
        done, sheared, at_bound = 0, 0, 0
        while done < 60:
            n = rng.randint(1, 4)
            cols = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            skew = n > 1 and rng.random() < 0.5
            if skew:
                k = rng.randint(2, 3)
                shear = [[1, 0, 0, 0], [k, 1, 0, 0], [k * k + 1, k, 1, 0], [0, 0, 0, 1]]
                lat = change_basis(lat, [row[:n] for row in shear[:n]])
            g = lat.g
            y = [rng.randint(-1, 1) for _ in range(n)]
            bound = sum(g[i][j] * y[i] * y[j] for i in range(n) for j in range(n)) or g[0][0]
            ginv = gauss_jordan_inverse(g)
            if math.prod(2 * math.sqrt(bound * ginv[i][i]) + 1 for i in range(n)) > 30000:
                continue
            runs = _short_vector_runs(lat.d, lat.lam, bound)
            vectors = expand_runs(runs, lat.d[1])
            want = box_short_vectors(g, bound)
            assert sorted(vectors) == want, (g, bound)
            assert sorted(_run_norms(runs, lat.d[1])) == [norm for norm, _ in want]
            done += 1
            sheared += skew
            at_bound += any(norm == bound for norm, _ in want)
        assert sheared >= 15 and at_bound >= 50, (sheared, at_bound)

    def test_skewed_basis_costs_what_the_identity_costs(self):
        # Z^3 in the basis whose HN filtration took minutes before LLL:
        # reduced, it has the identity's Gram-Schmidt data and search tree
        skewed = Lattice.from_basis_columns([[1, -3, 3], [3, 2, 1], [3, -2, 4]])
        for lat in (skewed, standard(3)):
            _, d, lam = _lll(lat)
            assert (d, lam) == ([1, 1, 1, 1], [[0, 0, 0]] * 3)
            assert len(_short_vector_runs(d, lam, 40)) == 65


class TestShortestVectorOracle:
    """shortest_vector (LLL, then Fincke-Pohst on the reduced basis, mapped
    back) against the box search in the input basis, byte for byte."""

    def test_against_input_basis_box(self):
        # Z^2, Z^3, the hexagonal lattice and D4 have many minimal vectors,
        # so they pin the tie-break in input coordinates
        rng = random.Random(3)
        base = (BASES + [dual(lat) for lat in BASES]
                + [HEX_LIFTED, dual(HEX_LIFTED), D4, Lattice.from_gram([[2, 1], [1, 2]])])
        samples = base + [shear3(2), dual(shear3(2)), shear3(5), dual(shear3(5))]
        for lat in base:
            n = lat.rank
            for _ in range(2):
                u = [[int(r == c) for c in range(n)] for r in range(n)]
                rng.shuffle(u)
                for _ in range(2):
                    i, j = rng.sample(range(n), 2)
                    transvection(u, i, j, rng.choice((-2, -1, 1, 2)))
                samples.append(change_basis(lat, u))
        for lat in samples:
            assert repr(shortest_vector(lat)) == repr(box_shortest_vector(lat))


def rank2_destabilizer_oracle(lat):
    """Oracle for the rank-2 first HN step of a rank-3 lattice: the Gram of
    {y in L : <y, w> = 0}, w a shortest dual coefficient vector, spanned by
    rows 1 and 2 of V = U^-1 for the completion U of w (V w = e1)."""
    _, w = shortest_vector(dual(lat))
    ucols = _column_reduce_to_e1(w)
    v = gauss_jordan_inverse([[col[i] for col in ucols] for i in range(3)])
    g = lat.gram
    return Lattice.from_gram([[sum(r[i] * g[i][j] * c[j] for i in range(3) for j in range(3))
                               for c in v[1:]] for r in v[1:]])


class TestHNFiltration:
    @pytest.mark.parametrize("gram", [
        [[1, 0, 0], [0, 1, 0], [0, 0, k]] for k in (2, 3, F(7, 2), 9, 100)
    ] + [[[2, 1, 0], [1, 2, 0], [0, 0, 5]]],
        ids=["diag-2", "diag-3", "diag-7/2", "diag-9", "diag-100", "hex-5"])
    def test_rank2_destabilizer_against_sub_gram(self, gram):
        # the first step's covol^2 is c2 |w|^2; the sublattice spanned from
        # the completion of w has that covolume and is semistable
        rng = random.Random(41)
        for _ in range(4):
            u = [[int(r == c) for c in range(3)] for r in range(3)]
            rng.shuffle(u)
            for _ in range(4):
                i, j = rng.sample(range(3), 2)
                transvection(u, i, j, rng.randint(-6, 6))
            lat = change_basis(Lattice.from_gram(gram), u)
            first = hn_filtration(lat).steps[0]
            sub = rank2_destabilizer_oracle(lat)
            assert first.rank == 2
            assert first.covol2 == sub.covolume2 == fraction_det(sub.gram)
            assert minima_semistable(sub)

    def test_split_ignores_the_sign_of_the_completion(self, monkeypatch):
        # U e1 = +-x, the sign left as it falls; negating U's first column
        # negates the Gram's first row and column off the corner, and the
        # Schur complement takes their products, so the split is the same
        lat = Lattice.from_gram([[3, 1, F(1, 2)], [1, 5, 2], [F(1, 2), 2, 7]])
        vectors = [(1, 0, 0), (0, 0, 1), (2, -3, 5), (0, 4, -7), (6, 10, 15)]
        vectors += [tuple(-c for c in x) for x in vectors]
        splits = [_sub_quotient_grams(lat, x) for x in vectors]
        for x in vectors:
            assert tuple(_column_reduce_to_e1(x)[0]) in (x, tuple(-c for c in x))

        def flipped(x):
            ucols = _column_reduce_to_e1(x)
            return [[-c for c in ucols[0]]] + ucols[1:]

        monkeypatch.setattr(lattice, "_column_reduce_to_e1", flipped)
        assert [_sub_quotient_grams(lat, x) for x in vectors] == splits

    def test_two_step_example(self):
        f = hn_filtration(diagonal([F(1, 2), 2]))
        assert len(f.steps) == 2
        assert f.steps[0].covol2 == F(1, 4)
        assert f.steps[1].covol2 == F(4)
        assert abs(f.steps[0].slope - math.log(2)) < 1e-12
        assert abs(f.steps[1].slope + math.log(2)) < 1e-12

    def test_covolume_reconstruction(self):
        # 200 random bases reach every HN type of rank 2 and 3
        rng = random.Random(23)
        types = set()
        for _ in range(200):
            n = rng.choice([2, 3])
            cols = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            f = hn_filtration(lat)
            total = F(1)
            for step in f.steps:
                total *= step.covol2
            assert total == lat.covolume2
            # mu_1 > mu_2  iff  c1^r2 < c2^r1, exactly on squared covolumes
            for s1, s2 in zip(f.steps, f.steps[1:]):
                assert s1.covol2 ** s2.rank < s2.covol2 ** s1.rank
            types.add(tuple(s.rank for s in f.steps))
        assert types == {(2,), (1, 1), (3,), (1, 2), (2, 1), (1, 1, 1)}

    def test_rank3_maximal_destabilizer_is_rank2(self):
        lat = diagonal([1, 1, 9])
        f = hn_filtration(lat)
        assert f.steps[0].rank == 2
        assert f.steps[0].covol2 == 1

    def test_rank3_rank1_first(self):
        lat = diagonal([F(1, 4), 1, 4])
        f = hn_filtration(lat)
        assert f.steps[0].rank == 1
        assert f.steps[0].covol2 == F(1, 16)


def semistable_and_stable(lat):
    filtration = hn_filtration(lat)
    return filtration.is_single, filtration.stable


class TestUnimodular:
    def test_standard_lattices(self):
        assert semistable_and_stable(standard(1)) == (True, True)
        assert semistable_and_stable(standard(2)) == (True, False)
        assert semistable_and_stable(standard(3)) == (True, False)

    def test_integral_gram_library(self):
        library = [
            [[1]],
            [[1, 0], [0, 1]],
            [[2, 1], [1, 1]],                      # unimodular, has norm-1 vector
            [[1, 0, 0], [0, 2, 1], [0, 1, 1]],
            [[2, 1, 0], [1, 2, 1], [0, 1, 1]],
        ]
        for gram in library:
            lat = Lattice.from_gram(gram)
            if lat.covolume2 != 1:
                continue
            semi, _ = semistable_and_stable(lat)
            assert semi


class TestReduceRank2:
    def test_standard(self):
        a, b, ok = reduce_rank2(standard(2))
        assert (a, b, ok) == (1.0, 0.0, True)

    def test_hexagonal_corner(self):
        a, b, ok = reduce_rank2(HEX_LIKE)
        assert abs(a - 1.07456993182354) < 1e-9
        assert ok
        assert abs(b - a / 2) < 1e-9

    def test_unstable_lattice_not_in_domain(self):
        a, b, ok = reduce_rank2(diagonal([2, F(1, 2)]))
        assert abs(a - 0.5) < 1e-12
        assert not ok

    def test_shear_reduces_to_standard(self):
        lat = Lattice.from_basis_columns([[1, 0], [7, 1]])
        a, b, ok = reduce_rank2(lat)
        assert abs(a - 1) < 1e-12 and abs(b) < 1e-12 and ok

    def test_requires_unit_covolume(self):
        with pytest.raises(InputError):
            reduce_rank2(diagonal([2, 2]))

    def test_just_below_unit_minimum_is_outside(self):
        # a = 1 - 5e-14 sits within any float tolerance of the edge a = 1
        x = F(9999999999999, 10 ** 13)
        lat = Lattice.from_gram([[x, 0], [0, 1 / x]])
        a, b, ok = reduce_rank2(lat)
        assert a < 1 and b == 0.0
        assert not ok
        assert not hn_filtration(lat).is_single

    def test_domain_is_the_semistable_locus(self):
        # covolume-1 Grams [[g11, g12], [g12, (1 + g12^2) / g11]] on and
        # within 1e-12 of the domain's edges -- a = 1, the arc |b2| = |b1|
        # (g22 = g11, rational points at t in [1, sqrt 3]), the line
        # b = a/2 and the corner -- each in a random basis.  On a rank-2,
        # covolume-1 lattice the domain is exactly a >= 1, i.e. semistable,
        # and the reduced (a, b) of an in-domain lattice meets the other
        # printed inequalities, which the reduction alone guarantees.
        rng = random.Random(20)
        shifts = [F(k, 10 ** 13) for k in (-10, -1, 0, 1, 10)]

        def near_edges():
            yield F(1), F(0)
            yield HEX_LIKE.gram[0][0], HEX_LIKE.gram[0][1]
            for _ in range(25):
                d, e = rng.choice(shifts), rng.choice(shifts)
                yield 1 + d, F(rng.randint(-500, 500), 1000) + e
                t = 1 + F(rng.randint(0, 732), 1000)
                yield (t * t + 1) / (2 * t) + d, (t * t - 1) / (2 * t) + e
                g11 = 1 + F(rng.randint(0, 150), 1000) + d
                yield g11, g11 / 2 + e
                yield A0 * A0 + d, A0 * A0 / 2 + e

        for g11, g12 in near_edges():
            g = [[g11, g12], [g12, (1 + g12 * g12) / g11]]
            u = [[1, 0], [0, 1]]
            for _ in range(rng.randint(0, 4)):
                # u <- u [[0, 1], [1, k]]
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                u = [[row[1], row[0] + k * row[1]] for row in u]
            lat = Lattice.from_gram([[sum(u[r][i] * g[r][c] * u[c][j]
                                          for r in range(2) for c in range(2))
                                      for j in range(2)] for i in range(2)])
            assert lat.covolume2 == 1
            a, b, ok = reduce_rank2(lat)
            assert ok == hn_filtration(lat).is_single, lat.gram
            if ok:
                arc = math.sqrt(a * a - a ** -2)
                assert a <= (4 / 3) ** 0.25 + 1e-9, lat.gram
                assert arc - 1e-9 <= b <= a - arc + 1e-9, lat.gram


# frozen oracles (direct mpmath theta summation at 30 digits)
H0_L4 = 6.97466038941767e-6
H0_L4_DUAL = 0.693154155220335


class TestTheta:
    def test_worked_example(self):
        lat = diagonal([2])
        t = theta_h0(lat, 1e-12)
        assert abs(t.value - H0_L4) < 1e-12
        assert t.tail_bound <= 1e-12

    def test_worked_example_dual(self):
        t = theta_h0(dual(diagonal([2])), 1e-12)
        assert abs(t.value - H0_L4_DUAL) < 1e-12
        assert round(t.value, 7) == 0.6931542

    def test_unit_line(self):
        t = theta_h0(standard(1), 1e-13)
        direct = math.log(1 + 2 * math.exp(-math.pi) + 2 * math.exp(-4 * math.pi)
                          + 2 * math.exp(-9 * math.pi))
        assert abs(t.value - direct) < 1e-12
        assert abs(t.value - 0.08290) < 5e-6

    def test_scaling_monotonicity(self):
        rng = random.Random(7)
        for _ in range(5):
            c = F(rng.randint(2, 5))
            lat = diagonal([1, F(3, 2)])
            big = diagonal([c, F(3, 2) * c])
            assert theta_h0(big, 1e-10).value < theta_h0(lat, 1e-10).value

    def test_large_shortest_vector_kills_theta(self):
        # only the zero vector survives as the minimum grows
        t = theta_h0(diagonal([6]), 1e-14)
        assert 0 <= t.value < 1e-30

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_change_of_basis_invariance(self, data):
        lat = data.draw(st.sampled_from(BASES + [HEX_LIFTED, D4]))
        moved = change_basis(lat, data.draw(unimodular(lat.rank)))
        t0, t1 = theta_h0(lat), theta_h0(moved)
        assert abs(t0.value - t1.value) <= t0.tail_bound + t1.tail_bound

    def test_skewed_basis_pinned(self):
        # float norms summed in this basis cancelled, and h0 came out 1.4e-2
        # off with certified tails of 2.4e-17
        moved = change_basis(HEX_LIKE, [[1817, -139], [27438, -2099]])
        t0, t1 = theta_h0(HEX_LIKE), theta_h0(moved)
        assert abs(t0.value - t1.value) <= t0.tail_bound + t1.tail_bound

    def test_box_budget(self):
        # rank 4 with lambda_1 = 1/20: about 10^9 candidate points
        with pytest.raises(ResourceError):
            theta_h0(diagonal([F(1, 20)] * 4))

    @pytest.mark.parametrize("eps", [0.0, -1e-12, math.inf, math.nan])
    def test_eps_must_be_positive_and_finite(self, eps):
        # inf hit a math domain error; NaN grew the radius to its blow-up
        with pytest.raises(InputError):
            theta_h0(standard(2), eps)


class TestRiemannRoch:
    def test_worked_t4(self):
        report = rr_check(diagonal([2]), 1e-10)
        assert abs(report.residual) < 1e-10
        assert abs(report.degree + math.log(2)) < 1e-14

    def test_standard_self_dual(self):
        for n in (1, 2, 3):
            report = rr_check(standard(n), 1e-12)
            assert report.residual == 0.0

    def test_random_rank2_rank3(self):
        rng = random.Random(31)
        done = 0
        while done < 12:
            n = rng.choice([2, 3])
            cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(n)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            if not F(1, 16) <= lat.covolume2 <= 16:
                continue
            report = rr_check(lat, 1e-9)
            assert abs(report.residual) < 1e-9
            done += 1

    def test_config_error_on_impossible_tolerance(self):
        with pytest.raises(ConfigError):
            rr_check(standard(2), 1e-15)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tolerance_is_input_error(self, tol):
        # NaN passes the floor check, and inf made theta_h0 take log(0)
        with pytest.raises(InputError):
            rr_check(standard(2), tol)


XI_HALF = -3.97696622550651   # pi^(-1/4) Gamma(1/4) zeta(1/2), mpmath 30 dps


def xi_incomplete_theta(s, eps=1e-14):
    """Oracle: xi(s) from the incomplete-theta representation split at x = 1,

        xi(s) = 1/(s(s-1)) + sum_{n>=1} [G(s/2, pi n^2) + G((1-s)/2, pi n^2)],

    with G(a, y) = y^(-a) Gamma(a, y), the theta tail truncated below eps,
    at 30 digits.  The sum cancels down to |xi| ~ e^(-pi |t|/4), so it is
    accurate only for moderate t (relative error 2e-10 at t = 70).
    """
    n_terms = max(3, math.ceil(math.sqrt((math.log(1 / eps) + 5) / math.pi)))
    with mpmath.workdps(30):
        ms = mpmath.mpc(s)
        total = 1 / (ms * (ms - 1))
        for n in range(1, n_terms + 1):
            y = mpmath.pi * n * n
            for a in (ms / 2, (1 - ms) / 2):
                total += mpmath.power(y, -a) * mpmath.gammainc(a, y)
        return complex(total)


def xi_reference(s, dps=60):
    """pi^(-s/2) Gamma(s/2) zeta(s) by mpmath at dps digits."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(s)
        return complex(mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z))


def rel_err(got, want):
    return abs(got - want) / abs(want)


def zeta_em_oracle(s: mpmath.mpc, n: int, eps: float) -> mpmath.mpc:
    """Oracle for _zeta_em: the same Euler-Maclaurin sum and stopping rule
    in mpmath arithmetic, one mpmath.power per Dirichlet term."""
    sigma = float(s.real)
    total = mpmath.fsum(mpmath.power(k, -s) for k in range(1, n))
    n_s = mpmath.power(n, -s)
    total += n * n_s / (s - 1) + n_s / 2
    rising = s                              # (s)_(2j-1)
    n_pow = n_s / n                         # N^(-s-2j+1)
    inv_n2 = mpmath.mpf(1) / (n * n)
    for j, c in enumerate(_em_coefficients()[1:], start=1):
        term = mpmath.mpf(c.numerator) / c.denominator * rising * n_pow
        edge = sigma + 2 * j - 1            # the bound needs sigma > -(2j-1)
        if edge > 0 and abs(s + 2 * j - 1) / edge * abs(term) <= eps * abs(total):
            return total
        total += term
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        n_pow *= inv_n2
    raise NumericError(f"Euler-Maclaurin remainder above eps after "
                       f"{XI_MAX_ORDER} Bernoulli terms")


def zeta_em_both(s: complex, eps: float):
    """(integer route, oracle) at xi_q's N and working precision, each a
    value or the NumericError it raised."""
    n = math.ceil(abs(s.imag) / math.pi) + XI_EXTRA_TERMS
    out = []
    with mpmath.workdps(XI_DPS + max(0, math.ceil(-s.real * math.log10(n)))):
        for route in (lambda: _zeta_em(s, n, eps),
                      lambda: zeta_em_oracle(mpmath.mpc(s), n, eps)):
            try:
                out.append(route())
            except NumericError as exc:
                out.append(exc)
    return out


ZETA_GRID = [complex(sigma, t) for sigma in (-19.5, -7.5, -0.5, 0.1, 0.5, 0.9, 1.5, 4.5, 10)
             for t in (0, 0.25, 14.134725, 30, 59, 150, 880)]


class TestZetaEM:
    def test_integer_route_matches_mpmath_route(self):
        for s in ZETA_GRID:
            new, old = zeta_em_both(s, 1e-14)
            assert abs(new - old) <= 1e-20 * abs(old), s

    @staticmethod
    def assert_routes_agree(s, eps):
        # both values within 1e-20, or both routes out of Bernoulli terms
        new, old = zeta_em_both(s, eps)
        if isinstance(old, NumericError):
            assert isinstance(new, NumericError), (s, eps)
        else:
            assert abs(new - old) <= 1e-20 * abs(old), (s, eps)

    @pytest.mark.parametrize("eps", [1e-30, 1e-60])
    def test_routes_agree_at_tight_eps(self, eps):
        for s in ZETA_GRID:
            if s.imag <= 30:
                self.assert_routes_agree(s, eps)

    @pytest.mark.parametrize("s", [-1.99999, -2.000002, -3.999998])
    def test_small_terms_near_a_trivial_zero(self, s):
        # zeta(s) ~ 1e-7, and from T_2 or T_3 on every term carries the
        # small factor s + 2 or s + 4: on one fixed 2^-P grid the T_j floored
        # to 0 above eps |zeta| and ended the loop where the oracle raises
        for eps in (1e-14, 1e-34):
            self.assert_routes_agree(complex(s), eps)

    @pytest.mark.parametrize("s", [50, 30 + 30j])
    def test_tiny_eps_far_right(self, s):
        # |N^(-s)| = N^-sigma ~ 1e-54 falls below 2^-mp.prec, so P carries
        # -log2 eps bits: with mp.prec alone N^(-s) and every T_j floored
        # to 0 and the loop ended where the oracle raises
        self.assert_routes_agree(complex(s), 1e-80)


class TestXiQ:
    def test_functional_equation(self):
        for s in (0.3 + 2j, 0.7 - 1.3j, 2.5 + 0.1j, -1.2 + 0.4j, 0.5 + 14j):
            assert abs(xi_q(s) - xi_q(1 - s)) < 1e-10

    def test_half_value_against_independent_route(self):
        assert abs(xi_q(0.5) - XI_HALF) < 1e-8
        with mpmath.workdps(25):
            indep = complex(mpmath.pi ** mpmath.mpf("-0.25")
                            * mpmath.gamma(mpmath.mpf(1) / 4)
                            * mpmath.zeta(mpmath.mpf(1) / 2))
        assert abs(xi_q(0.5) - indep) < 1e-10

    def test_residue_at_one(self):
        # k = 6 would graze the pole guard in floating point; 3..5 suffice
        vals = []
        for k in (3, 4, 5):
            s = 1 + 10.0 ** (-k)
            vals.append(((s - 1) * xi_q(s)).real)
        # Richardson extrapolation with step ratio 10
        extrap = (10 * vals[-1] - vals[-2]) / 9
        assert abs(extrap - 1) < 1e-4

    def test_pole_guard(self):
        with pytest.raises(InputError):
            xi_q(complex("nan"))
        with pytest.raises(InputError):
            xi_q(1e-9)
        with pytest.raises(InputError):
            xi_q(1 + 1e-8)

    def test_known_zero_location(self):
        # xi(1/2 + it) is real; it changes sign across the first zero
        lo = xi_q(0.5 + 14.0j)
        hi = xi_q(0.5 + 14.3j)
        assert abs(lo.imag) < 1e-12 and abs(hi.imag) < 1e-12
        assert lo.real * hi.real < 0

    def test_against_incomplete_theta_oracle(self):
        rng = random.Random(10)
        points = [0.5 + 14.134725j, 2.5 + 0.1j, -1.2 + 0.4j, 0.9 - 60j]
        points += [complex(rng.uniform(-1, 2), rng.uniform(0, 60)) for _ in range(8)]
        for s in points:
            assert rel_err(xi_q(s), xi_incomplete_theta(s)) < 1e-11

    @pytest.mark.parametrize("t", [100.0, 150.0])
    def test_high_on_the_line(self, t):
        # the incomplete-theta sum was off by 1.3e-2 at t = 100 and had the
        # wrong sign at t = 150, where xi = -4.0e-53
        s = complex(0.5, t)
        assert rel_err(xi_q(s), xi_reference(s)) < 1e-12

    def test_functional_equation_relative(self):
        # xi(s) and xi(1-s) sum different Dirichlet series
        rng = random.Random(11)
        for _ in range(25):
            s = complex(rng.uniform(-1, 2), rng.uniform(-150, 150))
            assert rel_err(xi_q(s), xi_q(1 - s)) < 1e-12

    @pytest.mark.parametrize("s", [-2, -4 + 1e-8j, -19.9 + 0.5j, -19.5 + 40j,
                                   -30 + 1j, 30 + 2j])
    def test_far_from_the_strip(self, s):
        # trivial zeros meet poles of Gamma(s/2); far left the terms cancel
        assert rel_err(xi_q(s), xi_reference(1 - s)) < 1e-12

    @pytest.mark.parametrize("s", [80, -79, -100 + 1j, -45 + 300j,
                                   XI_MIN_SIGMA + 0.01 + 950j])
    def test_far_left_reflects(self, s):
        # the Bernoulli table cannot certify the series far left of the
        # strip; xi(1-s) is summed there instead
        assert rel_err(xi_q(s), xi_reference(s)) < 1e-12

    @pytest.mark.parametrize("s", [3 + 1e-200j, 2 + 1e-9j, 0.3 + 1e-12j, 1.5 + 1e-100j])
    def test_small_imaginary_part_keeps_its_digits(self, s):
        # Im xi(sigma + it) = t xi'(sigma) + O(t^3); floors on a grid of
        # 2^-P with no bits for 1/t left only about 1e-35 of it
        with mpmath.workdps(30):
            slope = mpmath.diff(lambda x: mpmath.pi ** (-x / 2) * mpmath.gamma(x / 2)
                                * mpmath.zeta(x), s.real)
        assert rel_err(xi_q(s).imag, s.imag * float(slope)) < 1e-10

    def test_term_budget(self):
        with pytest.raises(ResourceError):
            xi_q(0.5 + 1e9j)
        with pytest.raises(ResourceError):
            xi_q(0.5 + 1j * math.pi * XI_TERM_BUDGET)

    def test_value_outside_double_range(self):
        # |xi(1/2 + 900i)| ~ 1e-308 is subnormal
        with pytest.raises(NumericError):
            xi_q(0.5 + 900j)

    @pytest.mark.parametrize("s", [8e307, 1.7e308, -8e307, 1e308 - 0.5j])
    def test_far_right_is_outside_double_range(self, s):
        # |s| log N and sigma log10 N overflowed to inf here; -8e307 takes
        # the xi(1 - s) branch
        with pytest.raises(NumericError, match="outside the normal double range"):
            xi_q(s)

    @pytest.mark.parametrize("s", [1e308 + 1e308j, -1.7e308 - 1.7e308j])
    def test_modulus_past_double_range_meets_term_budget(self, s):
        # |s| itself overflows: the pole guard must not take it
        with pytest.raises(ResourceError):
            xi_q(s)

    def test_max_sigma_only_refuses_values_past_double_range(self):
        # the lower bound pi^(-sigma/2) |Gamma(sigma/2 + it/2)| / zeta(2) on
        # |xi| at sigma = XI_MAX_SIGMA and the budget's largest |t|
        t = math.pi * XI_TERM_BUDGET
        with mpmath.workdps(20):
            log10_bound = (-XI_MAX_SIGMA / 2 * mpmath.log10(mpmath.pi)
                           + mpmath.loggamma(mpmath.mpc(XI_MAX_SIGMA, t) / 2).real
                           / mpmath.log(10) - mpmath.log10(mpmath.zeta(2)))
        assert log10_bound > math.log10(sys.float_info.max)
        # just left of the bound the sum itself finds the value too large
        with pytest.raises(NumericError, match="outside the normal double range"):
            xi_q(XI_MAX_SIGMA - 1)

    def test_remainder_out_of_reach(self):
        # far below what 30 digits and the Bernoulli table can certify
        with pytest.raises(NumericError):
            xi_q(0.5, 1e-60)
