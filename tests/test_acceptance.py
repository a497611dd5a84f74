"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion with its timing.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
from fq_oracle import enumerated_count
from lattice_oracle import diagonal, standard
from test_explicit import hodge_defect_oracle
from test_nazeta import reflection_holds

from zetalab.artin import elliptic_zeta, nm, reciprocity_check, rh_check
from zetalab.bundles import Convention, CurveData, invariant, mass_recursion_beta
from zetalab.cli import main as cli_main
from zetalab.errors import InputError
from zetalab.exact import Poly, Series, fe_transform_check
from zetalab.explicit import (
    FFTestFn,
    NFTestFn,
    ff_explicit_formula_check,
    ff_positivity,
    load_zeros,
    riemann_weil_residual,
)
from zetalab.ffield import FieldSpec, WeierstrassCurve, count_points
from zetalab.lattice import (
    Lattice,
    dual,
    hn_filtration,
    is_semistable,
    reduce_rank2,
    rr_check,
    theta_h0,
    xi_q,
)
from zetalab.nazeta import (
    allbundles_rank2,
    andrianov_formal_match,
    ell_na_zeta,
    na_counts,
    reciprocal_roots,
    root_pairing_residual,
)

ZEROS_PATH = Path(__file__).parent / "data" / "zeros100.txt"

E59 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 1, 1))
E58 = CurveData.from_curve(WeierstrassCurve(FieldSpec(5), 4, 0))
GALLERY = [
    E59,
    E58,
    CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 1)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(7), 1, 3)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(11), 1, 1)),
    CurveData.from_curve(WeierstrassCurve(FieldSpec(11), 2, 5)),
]


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(n, timer, note):
    print(f"ACCEPTANCE {n:2d}: PASS ({timer.elapsed:6.2f} s <= {timer.budget} s) {note}")
    assert timer.elapsed <= timer.budget


def test_criterion_01_artin_suite():
    with _Timer(1.0) as t:
        curve = WeierstrassCurve(FieldSpec(5), 1, 1)
        zc = elliptic_zeta(5, count_points(curve, 1))
        assert zc.P == Poly([1, 3, 5])
        assert [nm(zc, m) for m in (1, 2, 3)] == [9, 27, 108]
        assert enumerated_count(curve, 2) == 27      # F_25 enumeration
        assert fe_transform_check(zc.P, zc.q, 1) and rh_check(zc)
        for n in (2, 3, 4):
            assert reciprocity_check(zc, n, 8)
    _report(1, t, "Artin suite on y^2=x^3+x+1 over F_5")


def test_criterion_02_rank2_formula():
    with _Timer(1.0) as t:
        for data in GALLERY:      # the shape is curve-independent: symbolic in q, N1
            q, n1 = data.q, data.n1
            z = ell_na_zeta(data, 2, Convention.PAPER_SPLIT)
            shape = Poly([1, q - 1, 2 * q - 4, q * q - q, q * q])
            assert z.P == shape.scale(F(n1, q - 1))
        z59 = ell_na_zeta(E59, 2, Convention.PAPER_SPLIT)
        assert z59.P == Poly([1, 4, 6, 20, 25]).scale(F(9, 4))
        z58 = ell_na_zeta(E58, 2, Convention.PAPER_SPLIT)
        assert z58.P == Poly([1, 4, 6, 20, 25]).scale(F(8, 4))
    _report(2, t, "rank-2 split-count formula, symbolic and at (5,9), (5,8)")


def test_criterion_03_properties():
    with _Timer(5.0) as t:
        for data in GALLERY:
            for conv in Convention:
                for r in (1, 2, 3):
                    z = ell_na_zeta(data, r, conv)
                    assert z.P.degree == 2 * r               # degree 2rg
                    assert fe_transform_check(z.P, z.q, r)
                    assert reflection_holds(z)
                    assert root_pairing_residual(z.q, reciprocal_roots(z)) <= 1e-9
                    # N(m) = m [log(Z / P(0))]_m
                    logz = Series.ratio(z.normalized_numerator, z.denominator, 7).log()
                    assert na_counts(z, 6) == [m * logz[m] for m in range(1, 7)]
    _report(3, t, "degree/FE/root-pairing and counts for every generated zeta")


def test_criterion_04_mass_consistency():
    with _Timer(5.0) as t:
        assert len({(d.q, d.n1) for d in GALLERY}) >= 5
        divergences = []
        for data in GALLERY:
            descent = F(*invariant("beta", 2, 0, data, Convention.GALOIS_DESCENT))
            recursion = F(*mass_recursion_beta(2, 0, data.zeta))
            assert descent == recursion
            paper = F(*invariant("beta", 2, 0, data, Convention.PAPER_SPLIT))
            if data.n1 == 2 * (data.q - 1):
                assert paper == recursion
            else:
                divergences.append((data.q, data.n1, paper - recursion))
        # y^2 = x^3 + 4x over F_5: N1 = 2(q-1) = 8, printed value 8/3
        assert F(*invariant("beta", 2, 0, E58, Convention.PAPER_SPLIT)) == F(8, 3)
        assert F(*mass_recursion_beta(2, 0, E58.zeta)) == F(8, 3)
        assert divergences, "expected documented divergences off the locus"
    _report(4, t, f"descent=recursion on {len(GALLERY)} curves; "
                  f"{len(divergences)} documented split-count divergences")


def test_criterion_05_allbundles():
    with _Timer(5.0) as t:
        for data in (E59, E58):
            report = allbundles_rank2(data, 10)
            assert report.all_agree
        assert allbundles_rank2(E59, 10).degree_zero_closed == F(135, 128)
    _report(5, t, "unstable rank-2 decomposition, closed = direct to t^10")


def test_criterion_06_andrianov():
    with _Timer(1.0) as t:
        assert andrianov_formal_match()
    _report(6, t, "spinor-factor substitution matches the rank-2 numerator")


def test_criterion_07_riemann_roch():
    with _Timer(5.0) as t:
        for tval in (F(1, 10), F(1, 4), F(1), F(4), F(10)):
            # Lambda_t = Z sqrt(t): use basis sqrt(t) -> Gram [[t]]
            lat = Lattice.from_gram([[tval]])
            assert abs(rr_check(lat, 1e-9).residual) < 1e-9
        rng = random.Random(77)
        produced = 0
        while produced < 20:
            n = 2 if produced % 2 == 0 else 3
            cols = [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                    for _ in range(n)]
            try:
                lat = Lattice.from_basis_columns(cols)
            except InputError:
                continue
            if not F(1, 16) <= lat.covolume2 <= 16:
                continue
            assert abs(rr_check(lat, 1e-9).residual) < 1e-9
            produced += 1
        # the worked t = 4 numbers, against independent direct summation
        lam4 = Lattice.from_gram([[4]])
        h0 = theta_h0(lam4, 1e-12).value
        h0d = theta_h0(dual(lam4), 1e-12).value
        assert abs(h0 - 6.97466038941767e-6) < 1e-9
        assert abs(h0d - 0.693154155220335) < 1e-9
        assert abs(h0 - 6.9745e-6) < 1e-8 and round(h0d, 7) == 0.6931542
    _report(7, t, "geo-ari Riemann-Roch over Q on 25 lattices + worked t=4")


def test_criterion_08_lattice_stability():
    with _Timer(5.0) as t:
        for n in (1, 2, 3):
            assert is_semistable(standard(n))
        filt = hn_filtration(diagonal([F(1, 2), 2]))
        assert [s.rank for s in filt.steps] == [1, 1]
        assert abs(filt.steps[0].slope - math.log(2)) < 1e-12
        assert abs(filt.steps[1].slope + math.log(2)) < 1e-12
        library = [
            [[1]],
            [[1, 0], [0, 1]],
            [[2, 1], [1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[2, 1, 0], [1, 2, 1], [0, 1, 1]],
            [[1, 0, 0], [0, 2, 1], [0, 1, 1]],
        ]
        for gram in library:
            # unimodular lattices are semistable; below rank 8 they are
            # Z^n, stable only at n = 1
            filt = hn_filtration(Lattice.from_gram(gram))
            assert filt.is_single
            assert filt.stable == (len(gram) == 1)
        a0 = F(2149139863647, 2 * 10 ** 12)
        hexagonal = Lattice.from_basis_columns([[a0, 0], [a0 / 2, 1 / a0]])
        a, b, in_domain = reduce_rank2(hexagonal)
        assert abs(a - 1.07457) < 1e-5           # the printed corner digits
        assert abs(a - 1.07456993182354) < 1e-9  # full-precision corner
        assert in_domain
    _report(8, t, "Z^n, two-step filtration, unimodular library, hexagonal corner")


def test_criterion_09_function_field_explicit():
    with _Timer(10.0) as t:
        rng = random.Random(99)
        for data in (E59, GALLERY[3]):
            zc = data.zeta
            for _ in range(100):
                support = {n: F(rng.randint(-9, 9), rng.randint(1, 4))
                           for n in range(-3, 4)}
                f = FFTestFn.of(data.q, support)
                assert ff_explicit_formula_check(zc, f)
                value = ff_positivity(zc, f)
                assert value >= 0
                assert hodge_defect_oracle(zc, f) == value
    _report(9, t, "explicit formula, positivity, Hodge defect: 2 x 100 random")


def test_criterion_10_xi_q():
    with _Timer(10.0) as t:
        rng = random.Random(5)
        points = [0.3 + 2j, 2.5 - 1j, -0.7 + 0.2j, 0.5 + 14j]
        points += [complex(rng.uniform(-2, 3), rng.uniform(-5, 5)) for _ in range(6)]
        for s in points:
            assert abs(xi_q(s) - xi_q(1 - s)) < 1e-10
        with mpmath.workdps(25):
            indep = complex(mpmath.pi ** mpmath.mpf("-0.25")
                            * mpmath.gamma(mpmath.mpf(1) / 4)
                            * mpmath.zeta(mpmath.mpf(1) / 2))
        assert abs(xi_q(0.5) - indep) < 1e-8
        vals = [((1 + 10.0 ** -k - 1) * xi_q(1 + 10.0 ** -k)).real
                for k in (3, 4, 5)]
        extrap = (10 * vals[-1] - vals[-2]) / 9
        assert abs(extrap - 1) < 1e-4
    _report(10, t, "completed-zeta FE at 10 points, xi(1/2), residue limit")


def test_criterion_11_riemann_weil():
    with _Timer(30.0) as t:
        zeros = load_zeros(ZEROS_PATH)
        assert len(zeros) == 100
        f = NFTestFn(0.1, 0.05)
        residuals = {K: riemann_weil_residual(f, zeros, K, 10 ** 4).residual
                     for K in (25, 50, 100)}
        assert abs(residuals[100]) < 1e-3
        assert abs(residuals[50]) <= abs(residuals[25]) + 1e-6
        assert abs(residuals[100]) <= abs(residuals[50]) + 1e-6
    _report(11, t, f"Riemann-Weil residuals {[f'{residuals[K]:.1e}' for K in (25, 50, 100)]}")


def test_criterion_12_determinism(capsys, tmp_path):
    with _Timer(30.0) as t:
        jobs = [
            ["artin", "--curve", "y2=x3+x+1", "--p", "5"],
            ["nazeta", "--rank", "2", "--convention", "descent", "--p", "5",
             "--curve", "y2=x3+x+1"],
            ["census", "--rank", "3", "--p", "5", "--curve", "y2=x3+4x",
             "--convention", "descent"],
            ["mass", "--p", "7", "--curve", "y2=x3+x+1"],
            ["lattice", "--lattice", "0.5 0 / 0 2"],
            ["theta", "--lattice", "2 0 / 0 0.5"],
            ["xi", "--s", "0.3+2j"],
            ["andrianov"],
        ]
        for job in jobs:
            assert cli_main(job) == 0
            first = capsys.readouterr().out
            assert cli_main(job) == 0
            second = capsys.readouterr().out
            assert first == second, f"nondeterministic output for {job}"
        euler = ["euler", "--A", "1", "--B", "1", "--rank", "2", "--s", "3+1j",
                 "--pmax", "400", "--convention", "descent"]
        assert cli_main(euler + ["--threads", "1"]) == 0
        one = capsys.readouterr().out
        assert cli_main(euler + ["--threads", "4"]) == 0
        four = capsys.readouterr().out
        assert one == four
        json.loads(one)   # still valid JSON
    with capsys.disabled():
        _report(12, t, "byte-identical outputs across runs and thread counts")
