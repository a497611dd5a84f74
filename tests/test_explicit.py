import cmath
import functools
import math
import random
import tracemalloc
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path

import mpmath
import numpy as np
import pytest

from zetalab.artin import ZetaCurve, elliptic_zeta
from zetalab.cli import main
from zetalab.errors import InputError, NumericError, ResourceError
from zetalab.exact import power_sums_from_poly
from zetalab.explicit import (
    FIRST_ZERO,
    HALFWIDTH_SIGMAS,
    LOG_DOUBLE_MAX,
    QUAD_ORDER,
    FFPairing,
    FFTestFn,
    MicroModel,
    NFTestFn,
    QuadratureSpec,
    ZeroTable,
    check,
    ff_explicit_formula_check,
    ff_hodge_defect,
    ff_pairing,
    ff_positivity,
    global_pairing,
    load_zeros,
    micro_pairing,
    riemann_weil_residual,
)
from zetalab.explicit import (
    PSI_SHIFT,
    _arch_reach,
    _arch_term,
    _check_double_range,
    _composite_quad,
    _cross_pairing,
    _gauss_legendre,
    _panel_points,
    _re_digamma,
    _scaled_sides,
    _von_mangoldt_sum,
    _weight_arr,
)
from zetalab.ffield import primes_up_to
from zetalab.lattice import xi_q

ZEROS_PATH = Path(__file__).parent / "data" / "zeros100.txt"
ZEROS = load_zeros(ZEROS_PATH)

ZC59 = elliptic_zeta(5, 9)
ZC711 = elliptic_zeta(7, 11)


# The Fraction routes of the function-field side, kept as exact oracles for
# the library's integer numerators: each value term by term, with every
# power of q a Fraction.

def _qpow(q: int, k: int) -> Fraction:
    return Fraction(q) ** k


def mellin_hat(f: FFTestFn, k: int) -> Fraction:
    """fhat(k) = sum f(q^n) q^(nk) for integer k (0 and 1 are the degrees)."""
    return sum((v * _qpow(f.q, n * k) for n, v in f.support), Fraction(0))


def divisor_coefficients(f: FFTestFn) -> dict[int, Fraction]:
    """Coefficients c_n of the graph divisor: c_n = f(q^n) q^min(n, 0)."""
    return {n: v * _qpow(f.q, min(n, 0)) for n, v in f.support}


def _nm_extended(zc: ZetaCurve, n: int) -> Fraction:
    """Point counts N_|n| = q^|n| + 1 - p_|n|, extended to n = 0 by the
    self-intersection of the diagonal, N_0 = 2 - 2g = 0 on an elliptic curve."""
    if n == 0:
        return Fraction(0)
    return zc.q ** abs(n) + 1 - _psum(zc, abs(n))


@functools.cache
def _psum(zc: ZetaCurve, n: int) -> Fraction:
    """sum of w_i^n over the two reciprocal roots, any integer n (p_0 = 2,
    negative powers through the pairing w -> q/w), by Newton's identity
    on the numerator."""
    if n == 0:
        return Fraction(2)
    p_k = power_sums_from_poly(zc.P, abs(n))[-1]
    return p_k if n > 0 else p_k / _qpow(zc.q, -n)


def _diag_pairing(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    return sum((c * _nm_extended(zc, abs(n))
                for n, c in divisor_coefficients(f).items()), Fraction(0))


def zero_sum_oracle(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    """sum over zeta zeros of fhat(rho) = sum_i sum_n f(q^n) w_i^n."""
    return sum((v * _psum(zc, n) for n, v in f.support), Fraction(0))


def positivity_oracle(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    """sum over (n, m) of f(q^n) f(q^m) q^m p_(n-m), every pair summed."""
    return sum((fv * gv * _qpow(zc.q, m) * _psum(zc, n - m)
                for n, fv in f.support for m, gv in f.support), Fraction(0))


def every_small_curve():
    """Every zeta datum ZetaCurve(p, a), 5 <= p <= 50 prime and a^2 <= 4p."""
    for p in primes_up_to(50):
        if p >= 5:
            bound = math.isqrt(4 * p)
            yield from (ZetaCurve(p, a) for a in range(-bound, bound + 1))


def random_fftest(rng, q, span=3, scale=9):
    support = {n: F(rng.randint(-scale, scale), rng.randint(1, 4))
               for n in range(-span, span + 1)}
    return FFTestFn.of(q, support)


def pair_graphs(zc: ZetaCurve, n: int, m: int) -> Fraction:
    """<A_n, A_m>: reduce by symmetry and translation to <A_k, A_0> = N_k."""
    if n < m:
        n, m = m, n
    # now n >= m
    if m >= 0:
        return _qpow(zc.q, m) * _nm_extended(zc, n - m)
    if n <= 0:
        return _qpow(zc.q, -n) * _nm_extended(zc, n - m)
    return _nm_extended(zc, n - m)


def ff_cross_direct(zc: ZetaCurve, f: FFTestFn, g: FFTestFn) -> Fraction:
    """<D_f, D_g> by direct bilinear expansion over graph pairings (the
    independent route against the convolution reduction)."""
    cf = divisor_coefficients(f)
    cg = divisor_coefficients(g)
    return sum((cf[n] * cg[m] * pair_graphs(zc, n, m)
                for n in cf for m in cg), Fraction(0))


def convolve_with_dual(f: FFTestFn, g: FFTestFn) -> FFTestFn:
    """Oracle for the convolution f * g^*, g^*(q^n) = g(q^-n) q^-n, whose
    Mellin transform is fhat(s) ghat(1-s)."""
    out: dict[int, Fraction] = {}
    for n, fv in f.support:
        for m, gv in g.support:
            # g^* is supported at -m with value g(q^m) q^m, so the
            # convolution picks up f(q^n) g(q^m) q^m at exponent n - m
            out[n - m] = out.get(n - m, Fraction(0)) + fv * gv * _qpow(f.q, m)
    return FFTestFn.of(f.q, out)


def hodge_defect_oracle(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    """2 fhat(0) fhat(1) - <D_f, D_f>, the self-pairing taken as the
    diagonal pairing of f * f^*."""
    return (2 * mellin_hat(f, 0) * mellin_hat(f, 1)
            - _diag_pairing(zc, convolve_with_dual(f, f)))


class TestFFPairing:
    def test_delta_at_one(self):
        f = FFTestFn.delta(5, 1)
        p = ff_pairing(ZC59, f)
        assert p.deg1 == 5
        assert p.deg2 == 1
        assert p.diag == 9

    def test_zero_function(self):
        f = FFTestFn.of(5, {})
        p = ff_pairing(ZC59, f)
        assert (p.deg1, p.deg2, p.diag) == (0, 0, 0)

    def test_degrees_equal_mellin_values(self):
        rng = random.Random(3)
        for _ in range(20):
            f = random_fftest(rng, 5)
            p = ff_pairing(ZC59, f)
            # the fiber degrees summed over the graph divisor's coefficients
            coeffs = divisor_coefficients(f)
            assert p.deg1 == sum(c * F(5) ** max(n, 0) for n, c in coeffs.items())
            assert p.deg2 == sum(c * F(5) ** max(-n, 0) for n, c in coeffs.items())

    # <D_f, D_g> is the diagonal pairing of f * g^*, as in hodge_defect_oracle
    def test_cross_two_routes_agree_exactly(self):
        rng = random.Random(7)
        for zc in (ZC59, ZC711):
            for _ in range(15):
                f = random_fftest(rng, zc.q)
                g = random_fftest(rng, zc.q)
                cross = _diag_pairing(zc, convolve_with_dual(f, g))
                assert cross == ff_cross_direct(zc, f, g)

    def test_cross_bilinearity(self):
        rng = random.Random(11)
        for _ in range(10):
            f1 = random_fftest(rng, 5)
            f2 = random_fftest(rng, 5)
            g = random_fftest(rng, 5)
            a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
            v1, v2 = dict(f1.support), dict(f2.support)
            combo = FFTestFn.of(5, {n: a * v1.get(n, 0) + b * v2.get(n, 0)
                                    for n in range(-3, 4)})
            lhs = _diag_pairing(ZC59, convolve_with_dual(combo, g))
            rhs = (a * _diag_pairing(ZC59, convolve_with_dual(f1, g))
                   + b * _diag_pairing(ZC59, convolve_with_dual(f2, g)))
            assert lhs == rhs

    def test_mismatched_q_rejected(self):
        with pytest.raises(InputError):
            ff_pairing(ZC59, FFTestFn.delta(7, 1))


class TestFFExplicitFormula:
    def test_delta_reduces_to_point_count(self):
        f = FFTestFn.delta(5, 1)
        assert ff_explicit_formula_check(ZC59, f)
        # the identity contracted: N_1 = q + 1 - sum of reciprocal roots
        assert mellin_hat(f, 0) + mellin_hat(f, 1) - zero_sum_oracle(ZC59, f) == 9

    def test_zero_function(self):
        assert ff_explicit_formula_check(ZC59, FFTestFn.of(5, {}))

    def test_random_sweep_two_curves(self):
        rng = random.Random(13)
        for zc in (ZC59, ZC711):
            for _ in range(100):
                assert ff_explicit_formula_check(zc, random_fftest(rng, zc.q))


class TestFFPositivity:
    def test_constant_test_function(self):
        assert ff_positivity(ZC59, FFTestFn.delta(5, 0)) == 2  # 2g

    def test_delta_one(self):
        assert ff_positivity(ZC59, FFTestFn.delta(5, 1)) == 2 * 1 * 5  # 2gq

    def test_random_nonnegative(self):
        rng = random.Random(19)
        for zc in (ZC59, ZC711):
            for _ in range(40):
                assert ff_positivity(zc, random_fftest(rng, zc.q)) >= 0

    def test_nonnegative_on_every_small_curve(self):
        # the Hasse bound puts every zero on Re s = 1/2, so the value is a
        # sum of squares |fhat(rho)|^2 on every datum ZetaCurve accepts
        rng = random.Random(41)
        for zc in every_small_curve():
            for span in range(7):
                for _ in range(3):
                    assert ff_positivity(zc, random_fftest(rng, zc.q, span)) >= 0


class TestIntegerKernels:
    """The integer numerators against the Fraction routes, exactly."""

    def test_every_small_curve(self):
        rng = random.Random(37)
        for zc in every_small_curve():
            tests = [FFTestFn.of(zc.q, {})]
            for span in range(7):
                # the support [lo, lo + span] lies left of 0, across it or
                # right of it, so K runs from 0 past the span
                lo = rng.randint(-span - 3, 3)
                tests.append(FFTestFn.of(zc.q, {n: F(rng.randint(-9, 9), rng.randint(1, 4))
                                                for n in range(lo, lo + span + 1)}))
            for f in tests:
                assert ff_positivity(zc, f) == positivity_oracle(zc, f)
                scale, _, _, zeros, _ = _scaled_sides(zc, f)
                assert Fraction(zeros, scale) == zero_sum_oracle(zc, f)
                pairing = ff_pairing(zc, f)
                assert pairing == FFPairing(mellin_hat(f, 1), mellin_hat(f, 0),
                                            _diag_pairing(zc, f))
                assert ff_explicit_formula_check(zc, f)
                assert (mellin_hat(f, 0) + mellin_hat(f, 1) - zero_sum_oracle(zc, f)
                        == _diag_pairing(zc, f))


class TestHodgeDefect:
    def test_zero(self):
        assert ff_hodge_defect(ZC59, FFTestFn.of(5, {})) == 0

    def test_delta_one(self):
        assert ff_hodge_defect(ZC59, FFTestFn.delta(5, 1)) == 10

    def test_equals_positivity_exactly(self):
        # ff_hodge_defect is ff_positivity's value; the convolution route
        # of the self-pairing must reach it on every input
        rng = random.Random(23)
        for zc in (ZC59, ZC711, elliptic_zeta(11, 8), elliptic_zeta(13, 20)):
            for span in (1, 3, 5):
                for _ in range(25):
                    f = random_fftest(rng, zc.q, span)
                    assert hodge_defect_oracle(zc, f) == ff_hodge_defect(zc, f)


def first_zero_bisect(lo: float = 14.0, hi: float = 14.3,
                      tol: float = 1e-6) -> float:
    """Locate the first critical-line zero by bisecting the sign change of
    the (real-valued) completed zeta on the line; the independent oracle
    for the zero-table sanity gate."""
    flo = xi_q(0.5 + 1j * lo).real
    fhi = xi_q(0.5 + 1j * hi).real
    if flo * fhi >= 0:
        raise NumericError("no sign change in the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = xi_q(0.5 + 1j * mid).real
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def critical_strip_zero_count(t_lo: float = 12.0, t_hi: float = 15.0,
                              samples: int = 360) -> int:
    """Winding number of the completed zeta around a rectangle in the
    critical strip (argument principle, desk scale).

    The rectangle is [-0.5, 1.5] x [t_lo, t_hi]; the boundary is sampled
    densely and refined wherever the phase step exceeds pi/2.
    """
    corners = [complex(-0.5, t_lo), complex(1.5, t_lo),
               complex(1.5, t_hi), complex(-0.5, t_hi), complex(-0.5, t_lo)]
    points: list[complex] = []
    for a, b in zip(corners, corners[1:]):
        n = max(2, int(samples * abs(b - a) / 8))
        points.extend(a + (b - a) * k / n for k in range(n))
    points.append(corners[0])
    values = [xi_q(z) for z in points]
    total = 0.0
    i = 0
    while i < len(values) - 1:
        dphi = cmath.phase(values[i + 1] / values[i])
        if abs(dphi) > math.pi / 2:
            mid = points[i] + 0.5 * (points[i + 1] - points[i])
            points.insert(i + 1, mid)
            values.insert(i + 1, xi_q(mid))
            continue
        total += dphi
        i += 1
    return round(total / (2 * math.pi))


class TestZeroTable:
    def test_load_well_formed(self):
        assert len(ZEROS) == 100
        assert abs(ZEROS.ordinates[0] - 14.134725) < 1e-6

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing\n")
        with pytest.raises(InputError):
            load_zeros(p)

    def test_descending_rejected(self, tmp_path):
        p = tmp_path / "desc.txt"
        p.write_text("14.134725\n13.0\n")
        with pytest.raises(InputError):
            load_zeros(p)

    def test_nonpositive_rejected(self):
        with pytest.raises(InputError):
            ZeroTable((-1.0, 14.134725))

    def test_parse_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("14.134725\nnot-a-number\n")
        with pytest.raises(InputError, match="2"):
            load_zeros(p)

    def test_sanity_gate(self, tmp_path):
        p = tmp_path / "wrong.txt"
        p.write_text("13.9\n21.0\n")
        with pytest.raises(InputError, match="sanity"):
            load_zeros(p)

    def test_first_zero_against_independent_bisection(self):
        located = first_zero_bisect()
        assert abs(located - ZEROS.ordinates[0]) < 1e-5

    def test_argument_principle_count(self):
        # exactly one zero with 12 < t < 15 in the critical strip
        assert critical_strip_zero_count(12.0, 15.0) == 1


def micro_pairing_mesh(model: MicroModel, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Vectorized <D_x, D_y> over a positive-finite mesh (outer grid).

    The two fixed-point rules reduce each pair to the base pairing against
    D_1 at the ratio min/max in [0, 1]; the mirror map covers both above 1.
    This is the oracle of `micro_pairing` on single cells, of the D_1
    integrand of `global_pairing` (one column) and of `_cross_pairing`.
    """
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lo = np.minimum(gx, gy)
    hi = np.maximum(gx, gy)
    base = model.base_arr((lo / hi).ravel()).reshape(lo.shape)
    return np.where(hi <= 1, hi * base, np.where(lo >= 1, base / lo, base))


class TestMicroModel:
    def setup_method(self):
        self.model = MicroModel(40, ZEROS)

    def test_normalization(self):
        assert micro_pairing(self.model, 0, 0) == 0
        assert micro_pairing(self.model, 0, 1) == 1
        assert micro_pairing(self.model, math.inf, math.inf) == 0
        assert micro_pairing(self.model, 0, math.inf) == 1

    @pytest.mark.parametrize("x,y", [(0, 0), (0, 1), (0, math.inf),
                                     (math.inf, math.inf)])
    def test_boundary_cases_are_floats(self, x, y):
        # the CLI prints a float and an int differently
        assert type(micro_pairing(self.model, x, y)) is float
        assert type(micro_pairing(self.model, y, x)) is float

    def test_fiber_relations(self):
        for x in (0.1, 0.5, 0.9, 1.0):
            assert micro_pairing(self.model, 0, x) == pytest.approx(x)
            assert micro_pairing(self.model, math.inf, x) == 1.0
        for x in (1.5, 3.0, 10.0):
            assert micro_pairing(self.model, 0, x) == 1.0
            assert micro_pairing(self.model, math.inf, x) == 1 / x

    def test_symmetry_and_mirror(self):
        rng = random.Random(29)
        for _ in range(50):
            x = math.exp(rng.uniform(-3, 3))
            y = math.exp(rng.uniform(-3, 3))
            pxy = micro_pairing(self.model, x, y)
            assert micro_pairing(self.model, y, x) == pytest.approx(pxy, abs=1e-12)
            assert micro_pairing(self.model, 1 / x, 1 / y) == pytest.approx(pxy, abs=1e-12)

    def test_base_case_values(self):
        # <D_u, D_1> = 1 + u - S_K(u) on [0, 1]
        for u in (0.2, 0.5, 0.8):
            s = sum(2 * math.sqrt(u) * math.cos(g * math.log(u))
                    for g in self.model.gammas)
            assert micro_pairing(self.model, u, 1) == pytest.approx(1 + u - s, abs=1e-12)

    def test_truncation_respects_functional_equation(self):
        # formal value 1 + x - S_K(x) agrees with x * (value at 1/x), since
        # the symmetric pair truncation is invariant under rho -> 1 - rho
        for x in (0.3, 0.7, 1.9, 5.2):
            direct = float(self.model.base_arr(np.array([x]))[0])
            routed = x * float(self.model.base_arr(np.array([1 / x]))[0])
            assert direct == pytest.approx(routed, rel=1e-12, abs=1e-12)

    def test_mesh_cell_matches_scalar_branches_bitwise(self):
        grid = [*np.geomspace(1e-3, 1e3, 41), 0.5, 2.0, 0.999999, 1.000001]
        for K in (1, 10, 40, 100):
            model = MicroModel(K, ZEROS)
            for x in grid:
                for y in grid:
                    want = float(micro_pairing_mesh(model, [x], [y])[0, 0])
                    assert micro_pairing(model, x, y).hex() == want.hex()

    def test_truncated_diagonal_self_intersection(self):
        # the K-truncated <D_1, D_1> is 2 - 2K; reported, not interpreted
        assert micro_pairing(self.model, 1, 1) == pytest.approx(2 - 2 * self.model.K)

    def test_k_must_fit_table(self):
        with pytest.raises(InputError):
            MicroModel(101, ZEROS)


def quad_axis(h, panels):
    """Log-axis nodes and weights of h's divisor, laid out as the
    self-pairing in `global_pairing` lays them out."""
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    u, half = _panel_points(h.mu - HALFWIDTH_SIGMAS * h.sigma,
                            h.mu + HALFWIDTH_SIGMAS * h.sigma, panels, nodes)
    return u, _weight_arr(h, u) * np.tile(weights, panels) * half


BELOW = NFTestFn(-0.8, 0.05)       # support [-1.3, -0.3]
ABOVE = NFTestFn(0.7, 0.04)        # support [0.3, 1.1]
STRADDLE = NFTestFn(0.1, 0.05)     # support [-0.4, 0.6]
SKEWED = NFTestFn(-0.2, 0.08)      # support [-1.0, 0.6]


def pinned_axis(h, panels):
    """h's axis with one more node placed exactly at u = 0 (x = 1), the
    boundary between the sign blocks, weighted like its neighbours."""
    u, w = quad_axis(h, panels)
    return np.append(u, 0.0), np.append(w, w[len(w) // 2])


class TestSeparableCrossPairing:
    AXES = {
        "below": lambda: quad_axis(BELOW, 4),
        "above": lambda: quad_axis(ABOVE, 4),
        "straddle": lambda: quad_axis(STRADDLE, 4),
        "skewed": lambda: quad_axis(SKEWED, 3),
        "pinned": lambda: pinned_axis(STRADDLE, 4),
    }
    # a pair of distinct axes stands for their joint axis, the divisor of
    # the sum of the two test functions: its self-pairing holds their
    # cross pairings, on two separated clusters of nodes
    PAIRS = [
        ("below", "below"), ("above", "above"), ("straddle", "straddle"),
        ("skewed", "skewed"), ("pinned", "pinned"), ("below", "above"),
        ("above", "below"), ("straddle", "skewed"), ("skewed", "above"),
        ("pinned", "below"), ("above", "pinned"),
    ]

    @pytest.mark.parametrize("K", [1, 25, 100])
    @pytest.mark.parametrize("f_axis,g_axis", PAIRS)
    def test_matches_mesh_oracle(self, K, f_axis, g_axis):
        model = MicroModel(K, ZEROS)
        u, w = self.AXES[f_axis]()
        if g_axis != f_axis:
            ug, wg = self.AXES[g_axis]()
            u, w = np.append(u, ug), np.append(w, wg)
        want = float(w @ micro_pairing_mesh(model, np.exp(u), np.exp(u)) @ w)
        assert _cross_pairing(model, u, w) == pytest.approx(want, rel=1e-12)

    def test_pinned_node_sits_on_the_boundary(self):
        u, _ = pinned_axis(STRADDLE, 4)
        assert np.count_nonzero(u == 0.0) == 1
        assert np.any(u < 0) and np.any(u > 0)

    def test_unstable_refinement_stays_small(self):
        # rel_tol = 1e-300 lets the self-pairing refine up to 2,048
        # panels, 32,768 nodes, where the M x M x K mesh would have
        # been 32768 x 32768 x 100.  Near |cross| = 0.013 only two equal
        # floats agree that closely, and whether two successive doublings
        # agree to the last bit is down to rounding, so both outcomes are
        # allowed; the last grid is also paired directly so it is always
        # reached.
        model = MicroModel(100, ZEROS)
        f = NFTestFn(0.1, 0.05)
        tracemalloc.start()
        try:
            try:
                report = global_pairing(model, f, QuadratureSpec(rel_tol=1e-300))
            except NumericError as exc:
                assert str(exc) == "cross quadrature failed to stabilize"
            else:
                assert report.fixed_point_residual < 1e-12
            u, w = quad_axis(f, 2048)
            assert len(u) == 32768
            finest = _cross_pairing(model, u, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6
        coarse = _cross_pairing(model, *quad_axis(f, 16))
        assert finest == pytest.approx(coarse, rel=1e-12)

    def test_phase_grid_refused_before_allocation(self):
        table = ZeroTable(tuple(FIRST_ZERO + 0.5 * k for k in range(10 ** 5)))
        model = MicroModel(10 ** 5, table)
        u = np.linspace(-0.5, 0.5, 101)     # 10^5 x 101 phases, over 10^7
        w = np.ones_like(u)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                model.base_arr(np.exp(-np.abs(u)))
            with pytest.raises(ResourceError):
                _cross_pairing(model, u, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one refused grid alone would be 81 MB
        assert peak < 8e6
        assert _cross_pairing(MicroModel(100, table), u, w) != 0


class TestGaussLegendreRule:
    def test_built_once_per_process(self, monkeypatch, capsys):
        # explicit-nf runs five quadratures, each on the same rule
        leggauss = np.polynomial.legendre.leggauss
        calls = []

        def counted(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        _gauss_legendre.cache_clear()
        for _ in range(2):
            assert main(["explicit-nf", "--zeros", str(ZEROS_PATH), "--K", "25",
                         "--pmax", "100"]) == 0
        assert calls == [QUAD_ORDER]
        nodes, weights = _gauss_legendre()
        want_nodes, want_weights = leggauss(QUAD_ORDER)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert not (nodes.flags.writeable or weights.flags.writeable)


class TestQuadratureSpec:
    @pytest.mark.parametrize("rel_tol", [0.0, -1e-9, math.nan])
    def test_unreachable_tolerance_refused(self, rel_tol):
        # only bit-identical estimates could meet it, so convergence would
        # be decided by rounding
        with pytest.raises(InputError, match="rel_tol must be positive"):
            QuadratureSpec(rel_tol=rel_tol)


class TestGlobalPairing:
    def test_relative_degrees_bypass_zeros(self):
        f = NFTestFn(0.0, 0.1)
        small = global_pairing(MicroModel(5, ZEROS), f)
        large = global_pairing(MicroModel(50, ZEROS), f)
        assert small.deg1_residual < 1e-6
        assert small.deg2_residual < 1e-6
        assert abs(small.deg1 - large.deg1) < 1e-12
        assert abs(small.deg2 - large.deg2) < 1e-12
        assert small.deg1 == pytest.approx(f.mellin(1).real, rel=1e-10)
        assert small.deg2 == pytest.approx(f.mellin(0).real, rel=1e-10)

    def test_explicit_formula_2(self):
        f = NFTestFn(0.05, 0.12)
        report = global_pairing(MicroModel(30, ZEROS), f)
        assert report.explicit_formula_residual < 1e-8

    def test_fixed_point_identity_refines(self):
        f = NFTestFn(0.0, 0.1)
        medium = global_pairing(MicroModel(20, ZEROS), f,
                                QuadratureSpec(rel_tol=1e-5, base_panels=8,
                                               max_refine=5))
        fine = global_pairing(MicroModel(20, ZEROS), f,
                              QuadratureSpec(rel_tol=1e-10, base_panels=8,
                                             max_refine=7))
        assert fine.fixed_point_residual <= medium.fixed_point_residual + 1e-12
        assert fine.fixed_point_residual < 1e-7

    def test_nonconvergent_budget_is_an_error(self):
        f = NFTestFn(0.0, 0.1)
        with pytest.raises(NumericError):
            global_pairing(MicroModel(20, ZEROS), f,
                           QuadratureSpec(rel_tol=1e-12, base_panels=2,
                                          max_refine=0))

    @pytest.mark.parametrize("K", [1, 25, 100])
    @pytest.mark.parametrize("mu,sigma", [(0.1, 0.05), (0.0, 0.1)])
    def test_d1_pairing_matches_mesh_column_bitwise(self, K, mu, sigma):
        model = MicroModel(K, ZEROS)
        f = NFTestFn(mu, sigma)

        def column(u):
            return _weight_arr(f, u) * micro_pairing_mesh(model, np.exp(u), [1.0])[:, 0]

        want = _composite_quad(column, mu - HALFWIDTH_SIGMAS * sigma,
                               mu + HALFWIDTH_SIGMAS * sigma, QuadratureSpec())
        assert global_pairing(model, f).d1_pairing.hex() == want.hex()

    def test_zero_function(self):
        f = NFTestFn(0.0, 0.1, amplitude=0.0)
        report = global_pairing(MicroModel(10, ZEROS), f)
        assert report.deg1 == report.deg2 == report.d1_pairing == report.cross == 0.0

    def test_convolution_closed_form(self):
        # hhat(s) = fhat(s) ghat(1-s) for the Gaussian convolution
        f = NFTestFn(0.1, 0.2)
        g = NFTestFn(-0.05, 0.15)
        h = f.convolve_with_dual(g)
        for s in (0.3 + 1j, 1.2 - 0.4j, 0.5 + 3j):
            assert h.mellin(s) == pytest.approx(
                f.mellin(s) * g.mellin(1 - s), rel=1e-12)


def mp_re_digamma(z: complex) -> float:
    with mpmath.workdps(30):
        return float(mpmath.digamma(mpmath.mpc(z.real, z.imag)).real)


class TestReDigamma:
    # the critical-line argument of the arch term, then small |z| and
    # large Re z
    LINE = 0.25 + 0.5j * np.linspace(0.0, 1000.0, 1001)
    OFF_LINE = np.array([1e-3, 0.01 + 0.02j, 0.1 + 5j, 0.5, 1, 2 + 3j, 7.5 - 2j,
                         20, 50 + 100j, 1e3 + 1j, 1e5, 1e6 + 1e6j])

    @pytest.mark.parametrize("zs", [LINE, OFF_LINE], ids=["line", "off_line"])
    def test_matches_mpmath(self, zs):
        got = _re_digamma(zs)
        for z, value in zip(zs, got):
            want = mp_re_digamma(z)
            # psi(z) = psi(z + n) - sum 1/(z + k) cancels where Re psi(z)
            # changes sign (t near 2.03), so the ulp is taken of the larger
            # of the two psi values; measured, the error is at most 2 ulp
            scale = max(abs(want), abs(mp_re_digamma(z + PSI_SHIFT)))
            assert abs(value - want) <= 4 * np.spacing(scale), z

    def test_arch_term_matches_mpmath_quadrature(self):
        f = NFTestFn(0.1, 0.05)             # the CLI default
        t_max = math.sqrt(2 * 38.0) / f.sigma + abs(f.mu) + 10.0

        def integrand(t):
            s = mpmath.mpc(0.5, t)
            fhat = (f.amplitude * f.sigma * mpmath.sqrt(2 * mpmath.pi)
                    * mpmath.exp(f.mu * s + f.sigma ** 2 * s * s / 2))
            psi = mpmath.digamma(mpmath.mpc(0.25, t / 2))
            return fhat.real * (psi.real - mpmath.log(mpmath.pi))

        with mpmath.workdps(20):
            want = float(mpmath.quad(integrand, mpmath.linspace(0, t_max, 9)) / mpmath.pi)
        assert _arch_term(f) == pytest.approx(want, rel=1e-12)


class TestRiemannWeil:
    def test_zero_function(self):
        rep = riemann_weil_residual(NFTestFn(0.1, 0.05, 0.0), ZEROS, 50, 1000)
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    def test_criterion_truncation_study(self):
        f = NFTestFn(0.1, 0.05)
        r25 = riemann_weil_residual(f, ZEROS, 25, 10 ** 4)
        r50 = riemann_weil_residual(f, ZEROS, 50, 10 ** 4)
        r100 = riemann_weil_residual(f, ZEROS, 100, 10 ** 4)
        assert abs(r100.residual) < 1e-3
        assert abs(r50.residual) <= abs(r25.residual) + 1e-6
        assert abs(r100.residual) <= abs(r50.residual) + 1e-6

    def test_between_prime_powers(self):
        # centered at log 2.5: no prime power contributes at sigma = 0.02
        f = NFTestFn(math.log(2.5), 0.02)
        rep = riemann_weil_residual(f, ZEROS, 100, 10 ** 3)
        assert rep.prime_sum < 1e-12
        assert abs(rep.zero_sum - (rep.fhat0 + rep.fhat1 + rep.arch_term)) < 1e-2

    def test_k_validation(self):
        with pytest.raises(InputError):
            riemann_weil_residual(NFTestFn(0.1, 0.05), ZEROS, 101, 100)


class TestDoubleRange:
    @staticmethod
    def _edge(value, over):
        """The largest float with over() false, searched from value; over
        is false below some float and true from it on."""
        while over(value):
            value = math.nextafter(value, -math.inf)
        while not over(math.nextafter(value, math.inf)):
            value = math.nextafter(value, math.inf)
        return value

    def test_prime_powers_refused_at_their_overflow(self):
        # the prime-power sum takes 2.0 ** m while m log 2 <= |mu| + 40 sigma
        # and raised OverflowError at m = 1024: the check refuses from there
        sigma = self._edge((LOG_DOUBLE_MAX - 0.1) / 40,
                           lambda x: NFTestFn(0.1, x).log_reach >= LOG_DOUBLE_MAX)
        inside, outside = NFTestFn(0.1, sigma), NFTestFn(0.1, math.nextafter(sigma, math.inf))
        _check_double_range(inside, 2)
        _von_mangoldt_sum(inside, 2)
        with pytest.raises(OverflowError):
            _von_mangoldt_sum(outside, 2)
        with pytest.raises(InputError, match="prime powers"):
            _check_double_range(outside, 2)
        _check_double_range(outside, 1)          # no prime, no power
        with pytest.raises(InputError, match="prime powers"):
            riemann_weil_residual(outside, ZEROS, 10, 2)

    @pytest.mark.parametrize("mu, sigma", [(0.1, 1e20), (0.1, 1e154), (0.1, 1e155),
                                           (1e200, 1e200), (0.1, 40.0), (710.0, 0.05)])
    def test_mellin_overflow_refused_before_quadrature(self, mu, sigma):
        # fhat(1) = ... e^(mu + sigma^2/2) overflows; the quadratures ran
        # first, with numpy overflow warnings or an OverflowError
        f = NFTestFn(mu, sigma)
        with pytest.raises(OverflowError):
            f.mellin(1)
        with pytest.raises(InputError, match="fhat"):
            _check_double_range(f, 0)
        with pytest.raises(InputError, match="fhat"):
            global_pairing(MicroModel(10, ZEROS), f)
        with pytest.raises(InputError, match="fhat"):
            riemann_weil_residual(f, ZEROS, 10, 0)

    def test_mellin_edge(self):
        # the check's edge is where e^(mu + sigma^2/2) starts to raise
        mu = self._edge(LOG_DOUBLE_MAX - 0.5, lambda x: x + 0.5 > LOG_DOUBLE_MAX)
        inside, outside = NFTestFn(mu, 1.0), NFTestFn(math.nextafter(mu, math.inf), 1.0)
        _check_double_range(inside, 0)
        inside.mellin(1)
        with pytest.raises(OverflowError):
            outside.mellin(1)
        with pytest.raises(InputError, match="fhat"):
            _check_double_range(outside, 0)

    @pytest.mark.parametrize("mu, sigma", [(-800.0, 1.0), (700.0, 1.0)])
    def test_quadrature_window_refused_without_a_prime(self, mu, sigma):
        # mu +- 10 sigma passes 1024 log 2, where the pairing's e^u or e^-u
        # overflows; from pmax = 2 the prime-power check covers the window,
        # below it `check` alone refuses it
        f = NFTestFn(mu, sigma)
        _check_double_range(f, 0)
        for pmax in (0, 1):
            with pytest.raises(InputError, match="quadrature window"):
                check(f, pmax)
        with pytest.raises(InputError, match="prime powers"):
            check(f, 2)
        with pytest.raises(InputError, match="quadrature window"):
            global_pairing(MicroModel(10, ZEROS), f)

    def test_quadrature_window_edge(self):
        # just inside the edge e^u, e^-u and 1/e^u stay finite on every node
        mu = self._edge(LOG_DOUBLE_MAX - HALFWIDTH_SIGMAS,
                        lambda x: x + HALFWIDTH_SIGMAS >= LOG_DOUBLE_MAX)
        for sign in (1, -1):
            inside = NFTestFn(sign * mu, 1.0)
            check(inside, 0)
            with pytest.raises(InputError, match="quadrature window"):
                check(NFTestFn(sign * math.nextafter(mu, math.inf), 1.0), 0)
            u, _ = _panel_points(inside.mu - HALFWIDTH_SIGMAS, inside.mu + HALFWIDTH_SIGMAS,
                                 64, _gauss_legendre()[0])
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                assert np.isfinite(1 / np.exp(u)).all() and np.isfinite(np.exp(-u)).all()
                assert np.isfinite(_weight_arr(inside, u)).all()

    def test_tiny_sigma_refused(self):
        # sigma = 1e-300 squares to 0 in the Gaussian, and the archimedean
        # integral, which runs to t = sqrt(76)/sigma, overflows t^2; numpy
        # warned before the quadrature failed to stabilize
        with pytest.raises(InputError, match="archimedean"):
            riemann_weil_residual(NFTestFn(0.0, 1e-300), ZEROS, 10, 0)
        sigma = self._edge(math.sqrt(76) / 2.0 ** 512,
                           lambda x: _arch_reach(NFTestFn(0.0, x)) < 2.0 ** 512)
        inside = NFTestFn(0.0, math.nextafter(sigma, math.inf))
        _check_double_range(inside, 0)
        with pytest.raises(InputError, match="archimedean"):
            check(NFTestFn(0.0, sigma), 0)
        with np.errstate(over="raise", divide="raise", invalid="raise"), \
                pytest.raises(NumericError, match="stabilize"):
            _arch_term(inside)
