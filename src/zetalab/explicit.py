"""Explicit formulas: exact function-field pairings and the micro model.

The function-field side is an exact intersection calculus on graph
divisors over a curve's square: finitely supported test functions on the
powers of q, their Laurent-polynomial Mellin transforms, and pairings
whose values are rational numbers.  The explicit formula is checked in
exact arithmetic; positivity and the Hodge-index defect are one exact
value, since the defect equals the zero sum term by term.  Each value is
an integer numerator over a known denominator: with L the lcm of the
test function's denominators and q^-K its most negative power of q, the
linear values (Mellin transforms, zero sum, diagonal pairing) are over
L q^K and the quadratic positivity over L^2 q^K.  The power sums of the
reciprocal roots are `ZetaCurve.power_sums`, and one Fraction is built
per value.

The number-field side is the axiomatic micro-intersection model: symbols
D_x for x in [0, infinity] whose pairings reduce to the base value
<D_u, D_1> = 1 + u - S_K(u), with S_K the symmetric truncation of the sum
of x^rho over the first K conjugate pairs of Riemann zeros.  Global
divisors pair through log-substituted quadrature, and the Riemann-Weil
residual harness measures how well the truncated zero sum balances the
prime and archimedean sides.  The archimedean term integrates
Re psi(1/4 + it/2) up the critical line, with psi summed here from its
recurrence and Stirling series under a stated truncation bound.  Only the
number-field functions import numpy, so the exact half loads without it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from zetalab.artin import ZetaCurve
from zetalab.errors import ENUMERATION_BUDGET, InputError, NumericError, ResourceError
from zetalab.exact import bernoulli_even, rat
from zetalab.ffield import primes_up_to

if TYPE_CHECKING:
    import numpy as np

FIRST_ZERO = 14.134725


# ---------------------------------------------------------------------------
# function-field side (everything exact)

@dataclass(frozen=True)
class FFTestFn:
    """Finitely supported test function on q^Z: support maps n to f(q^n)."""

    q: int
    support: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def of(q: int, values: dict[int, Fraction | int]) -> "FFTestFn":
        items = tuple(sorted((n, rat(v)) for n, v in values.items() if v != 0))
        return FFTestFn(q, items)

    @staticmethod
    def delta(q: int, n: int) -> "FFTestFn":
        return FFTestFn.of(q, {n: 1})


def _integral(f: FFTestFn) -> tuple[int, int, list[tuple[int, int]]]:
    """(L, K, [(n, L f(q^n))]): L is the lcm of the values' denominators
    and K = max(0, -min n), so L f(q^n) q^(n+K) is an integer for every n."""
    den = math.lcm(*(v.denominator for _, v in f.support))
    k = max(0, -min((n for n, _ in f.support), default=0))
    return den, k, sorted((n, v.numerator * (den // v.denominator)) for n, v in f.support)


def _scaled_sides(zc: ZetaCurve, f: FFTestFn) -> tuple[int, int, int, int, int]:
    """S = L q^K (see `_integral`) and the integers S fhat(0), S fhat(1),
    S sum_rho fhat(rho) and S <D_f, Diag>.

    With c_n = f(q^n) q^min(n, 0) the divisor coefficients, the zero sum
    sum_i sum_n f(q^n) w_i^n over the reciprocal roots w_i is
    sum c_n p_|n| (a negative power of a reciprocal root is w^-k =
    (q/w)^k / q^k), and the diagonal pairing is sum c_n N_|n|, where
    N_0 = 2 - 2g = 0 is the diagonal's self-intersection.
    """
    if f.q != zc.q:
        raise InputError("test functions must share the curve's q")
    den, k, values = _integral(f)
    q = zc.q
    ps = [2] + zc.power_sums(max((abs(n) for n, _ in values), default=0))
    fhat0 = fhat1 = zeros = diag = 0
    for n, v in values:
        c = v * q ** (k + min(n, 0))
        fhat0 += v * q ** k
        fhat1 += v * q ** (k + n)
        zeros += c * ps[abs(n)]
        if n:
            diag += c * (q ** abs(n) + 1 - ps[abs(n)])
    return den * q ** k, fhat0, fhat1, zeros, diag


@dataclass(frozen=True)
class FFPairing:
    deg1: Fraction
    deg2: Fraction
    diag: Fraction


def ff_pairing(zc: ZetaCurve, f: FFTestFn) -> FFPairing:
    """The basic self-pairings of the graph divisor of f.

    deg1/deg2 are the fiber degrees sum c_n q^max(n,0) and sum c_n
    q^max(-n,0) over the divisor coefficients c_n, that is fhat(1) and
    fhat(0); diag pairs f against the diagonal.  All values are exact.  The
    pairing <D_f, D_g> of two divisors is the diagonal pairing of the
    convolution f * g^*, g^*(q^n) = g(q^-n) q^-n (tests/test_explicit.py).
    """
    scale, fhat0, fhat1, _, diag = _scaled_sides(zc, f)
    return FFPairing(Fraction(fhat1, scale), Fraction(fhat0, scale), Fraction(diag, scale))


def ff_explicit_formula_check(zc: ZetaCurve, f: FFTestFn) -> bool:
    """fhat(0) + fhat(1) - sum_rho fhat(rho) == <D_f, Diag>, exactly.

    Both sides are compared as integer numerators over the common
    denominator L q^K of `_scaled_sides`.
    """
    _, fhat0, fhat1, zeros, diag = _scaled_sides(zc, f)
    return fhat0 + fhat1 - zeros == diag


def ff_positivity(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    """sum_rho fhat(rho) fhat(1-rho), an exact nonnegative rational.

    It is sum_i sum_(n,m) f(q^n) f(q^m) q^m w_i^(n-m) over the reciprocal
    roots w_i.  `ZetaCurve` enforces the Hasse bound, which puts every
    zero on Re s = 1/2: |w_i|^2 = q, so q^m w_i^-m is conj(w_i)^m and the
    value is sum_i |sum_n f(q^n) w_i^n|^2, never negative.

    The term of (n, m) is f(q^n) f(q^m) q^min(n,m) p_|n-m|, so with L and
    K from `_integral` the sum is an integer numerator over L^2 q^K; the
    pairs n < m are summed once and doubled.
    """
    den, k, values = _integral(f)
    q = zc.q
    span = values[-1][0] - values[0][0] if values else 0
    ps = [2] + zc.power_sums(span)
    total = 0
    for i, (n, v) in enumerate(values):
        cross = 0
        for m, u in values[i + 1:]:
            cross += u * ps[m - n]
        total += v * q ** (k + n) * (v + cross)
    return Fraction(2 * total, den * den * q ** k)


def ff_hodge_defect(zc: ZetaCurve, f: FFTestFn) -> Fraction:
    """2 fhat(0) fhat(1) - <D_f, D_f>; the Hodge-index defect.

    <D_f, D_f> is the diagonal pairing of f * f^*, whose Mellin transform
    fhat(s) fhat(1-s) the explicit formula splits into 2 fhat(0) fhat(1)
    minus the zero sum, so the defect is `ff_positivity`'s value.
    """
    return ff_positivity(zc, f)


# ---------------------------------------------------------------------------
# zero tables

@dataclass(frozen=True)
class ZeroTable:
    """Validated ascending ordinates of zeros on the critical line."""

    ordinates: tuple[float, ...]

    def __post_init__(self):
        if not self.ordinates:
            raise InputError("zero table is empty")
        if any(g <= 0 for g in self.ordinates):
            raise InputError("zero ordinates must be positive")
        if any(b <= a for a, b in zip(self.ordinates, self.ordinates[1:])):
            raise InputError("zero ordinates must be strictly increasing")
        if abs(self.ordinates[0] - FIRST_ZERO) > 1e-3:
            raise InputError(
                f"first ordinate {self.ordinates[0]} fails the sanity gate "
                f"(expected about {FIRST_ZERO})")

    def __len__(self) -> int:
        return len(self.ordinates)


def load_zeros(path: str | Path) -> ZeroTable:
    """Read a plain-text table: one decimal ordinate per line, ascending,
    '#'-comments allowed.  Parse errors carry line numbers."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text") from exc
    ordinates = []
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            ordinates.append(float(body))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not a decimal: {body!r}") from exc
    return ZeroTable(tuple(ordinates))


# ---------------------------------------------------------------------------
# Gaussian-in-log test functions

@dataclass(frozen=True)
class NFTestFn:
    """f(x) = amplitude * exp(-(log x - mu)^2 / (2 sigma^2)) on (0, inf).

    Schwartz in log x, so the Mellin transform has the closed form
    amplitude * sigma * sqrt(2 pi) * exp(mu s + sigma^2 s^2 / 2).
    """

    mu: float
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.sigma < math.inf):
            raise InputError("mu must be finite and sigma positive and finite")

    def __call__(self, x: float) -> float:
        if x <= 0:
            return 0.0
        u = math.log(x) - self.mu
        return self.amplitude * math.exp(-u * u / (2 * self.sigma ** 2))

    def at_log(self, u):
        import numpy as np
        return self.amplitude * np.exp(-(u - self.mu) ** 2 / (2 * self.sigma ** 2))

    def mellin(self, s: complex) -> complex:
        return (self.amplitude * self.sigma * math.sqrt(2 * math.pi)
                * cmath.exp(self.mu * s + self.sigma ** 2 * s * s / 2))

    @property
    def log_reach(self) -> float:
        """|log x| past which f(x) vanishes at double precision."""
        return abs(self.mu) + 40 * self.sigma

    def convolve_with_dual(self, g: "NFTestFn") -> "NFTestFn":
        """h = f * g^* (multiplicative convolution with g^*(x) = g(1/x)/x);
        hhat(s) = fhat(s) ghat(1-s), again Gaussian in log."""
        sigma_h = math.hypot(self.sigma, g.sigma)
        mu_h = self.mu - g.mu - g.sigma ** 2
        amp_h = (self.amplitude * g.amplitude * self.sigma * g.sigma
                 * math.sqrt(2 * math.pi) / sigma_h
                 * math.exp(g.mu + g.sigma ** 2 / 2))
        return NFTestFn(mu_h, sigma_h, amp_h)


# e^x overflows a double past this x, and 2.0 ** m from m log 2 = x on
LOG_DOUBLE_MAX = 1024 * math.log(2)


def _check_double_range(f: NFTestFn, prime_bound: int) -> None:
    """Refuse (InputError), before any quadrature, a test function whose
    values overflow a double: fhat(1), which has the factor
    e^(mu + sigma^2/2), and, once prime_bound >= 2, the powers 2^m with
    m log 2 <= f.log_reach that the prime-power sum takes, and t^2 up to
    the end t of `_arch_term`'s integral.  Without the check each such
    input ends in an OverflowError, or in a NumericError after numpy's
    overflow warnings."""
    if f.mu + f.sigma * f.sigma / 2 > LOG_DOUBLE_MAX:
        raise InputError("mu + sigma^2/2 must be at most 1024 log 2: "
                         "fhat(1) overflows a double")
    if prime_bound >= 2 and LOG_DOUBLE_MAX <= f.log_reach:
        raise InputError("|mu| + 40 sigma must stay below 1024 log 2: "
                         "the prime powers overflow a double")
    if _arch_reach(f) >= 2.0 ** 512:
        raise InputError("sqrt(76)/sigma + |mu| + 10 must stay below 2^512: "
                         "the archimedean integral squares t up to it")


def check(f: NFTestFn, prime_bound: int) -> None:
    """Refuse (InputError), before any quadrature, a test function that
    `riemann_weil_residual` at prime_bound or `global_pairing` cannot
    evaluate in doubles: `_check_double_range`, and the window
    mu +- HALFWIDTH_SIGMAS sigma of `global_pairing`'s quadratures, which
    take e^u and e^-u on it.  Past 1024 log 2 those overflow, numpy warns,
    and the pairing prints garbage or fails to stabilize; without a prime
    the prime-power check does not cover the window."""
    _check_double_range(f, prime_bound)
    if abs(f.mu) + HALFWIDTH_SIGMAS * f.sigma >= LOG_DOUBLE_MAX:
        raise InputError("|mu| + 10 sigma must stay below 1024 log 2: "
                         "e^u overflows a double on the quadrature window")


# ---------------------------------------------------------------------------
# the micro intersection model

@dataclass(frozen=True)
class MicroModel:
    """Micro divisors D_x with the zero sum truncated to K conjugate pairs."""

    K: int
    zeros: ZeroTable

    def __post_init__(self):
        if not 1 <= self.K <= len(self.zeros):
            raise InputError("K must lie within the zero table")

    @property
    def gammas(self) -> np.ndarray:
        import numpy as np
        return np.asarray(self.zeros.ordinates[:self.K])

    def base_arr(self, u: np.ndarray) -> np.ndarray:
        """<D_u, D_1> = 1 + u - S_K(u) for u in [0, 1]."""
        import numpy as np
        u = np.asarray(u, dtype=float)
        out = 1.0 + u
        pos = u > 0
        logu = np.log(u[pos])
        out[pos] -= 2 * np.sqrt(u[pos]) * np.cos(_phase_grid(self.gammas, logu)).sum(axis=0)
        return out


def _phase_grid(gammas: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The K x len(u) phases gamma_k u_j, refused over budget before any
    allocation (the cos and sin grids built from it have the same size)."""
    import numpy as np
    if len(gammas) * len(u) > ENUMERATION_BUDGET:
        raise ResourceError(
            f"phase grid of {len(gammas)} zeros x {len(u)} points exceeds "
            f"the budget of {ENUMERATION_BUDGET}")
    return np.outer(gammas, u)


def micro_pairing(model: MicroModel, x: float, y: float) -> float:
    """<D_x, D_y> for x, y in [0, infinity], by the axiom reduction.

    Symmetry orders the pair x <= y.  Unless x = 0, the two fixed-point
    rules reduce it to the base pairing at the ratio x / y in [0, 1]:
    with base = <D_(x/y), D_1> it is y base if y <= 1, base / x if x >= 1,
    and base otherwise.  This covers y = infinity: the ratio is 0 and
    base = 1, the mirror image of <D_0, D_(1/x)>.
    """
    for v in (x, y):
        if v < 0:
            raise InputError("micro divisors live on [0, infinity]")
    if x > y:
        x, y = y, x
    if x == math.inf:                      # both infinite
        return 0.0
    if x == 0:
        return min(float(y), 1.0)
    base = float(model.base_arr([x / y])[0])
    if y <= 1:
        return y * base
    if x >= 1:
        return base / x
    return base


# ---------------------------------------------------------------------------
# global divisors and quadrature

# Gauss-Legendre nodes per panel (one rule a process: `_gauss_legendre`), and
# the half-width of a Gaussian-in-log test function's range in units of sigma
QUAD_ORDER = 16
HALFWIDTH_SIGMAS = 10.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """numpy's leggauss(QUAD_ORDER) nodes and weights, read-only."""
    import numpy as np
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_ORDER)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureSpec:
    """Deterministic panel schedule: refine until successive composite
    Gauss-Legendre evaluations agree to rel_tol (or max_refine is hit)."""

    rel_tol: float = 1e-9
    base_panels: int = 8
    max_refine: int = 7

    def __post_init__(self):
        # at rel_tol <= 0 only two bit-identical estimates would stop the
        # refinement, so whether it converges would be down to rounding
        if not self.rel_tol > 0:
            raise InputError("rel_tol must be positive")


def _panel_points(lo: float, hi: float, panels: int, nodes: np.ndarray):
    """Gauss nodes of `panels` equal panels on [lo, hi], and the half-width."""
    import numpy as np
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * nodes[None, :]).ravel(), half


def _refine_until_stable(estimate, panels: int, spec: QuadratureSpec,
                         what: str) -> float:
    """estimate(panels) with panels doubling until two successive values
    agree to spec.rel_tol."""
    prev = None
    for _ in range(spec.max_refine + 1):
        total = estimate(panels)
        if prev is not None and abs(total - prev) <= spec.rel_tol * max(1.0, abs(total)):
            return total
        prev = total
        panels *= 2
    raise NumericError(f"{what} failed to stabilize")


def _composite_quad(fn, lo: float, hi: float, spec: QuadratureSpec) -> float:
    nodes, weights = _gauss_legendre()

    def estimate(panels: int) -> float:
        pts, half = _panel_points(lo, hi, panels, nodes)
        vals = fn(pts).reshape(panels, -1)
        return float(half * (vals * weights[None, :]).sum())

    return _refine_until_stable(estimate, spec.base_panels, spec, "quadrature")


@dataclass(frozen=True)
class GlobalPairingReport:
    deg1: float                 # <D_f, D_0>, should be fhat(1)
    deg2: float                 # <D_f, D_infinity>, should be fhat(0)
    d1_pairing: float           # <D_f, D_1>
    cross: float                # <D_f, D_f>
    deg1_residual: float
    deg2_residual: float
    explicit_formula_residual: float
    fixed_point_residual: float


def _weight_arr(f: NFTestFn, u: np.ndarray) -> np.ndarray:
    import numpy as np
    # the divisor weight: f(x) dx/x for x <= 1, f(x) x dx/x for x >= 1
    return f.at_log(u) * np.exp(np.maximum(u, 0.0))


def _cross_pairing(model: MicroModel, u: np.ndarray, w: np.ndarray) -> float:
    """sum_ij w_i <D_x_i, D_x_j> w_j with x = exp(u).

    Write a = log x_i, b = log x_j and S = sum_k cos gamma_k (a - b).  On
    each sign block the pairing is separable:

        a, b <= 0:    e^a + e^b - 2 e^((a+b)/2) S
        a, b > 0:     e^-a + e^-b - 2 e^(-(a+b)/2) S
        a <= 0 < b:   1 + e^(a-b) - 2 e^((a-b)/2) S, and the mirror.

    In terms of e^-|u| the S term is the same product on every block, and
    S splits by cos(x - y) = cos x cos y + sin x sin y, so the double sum
    costs O(K M) and no M x M array is built.
    """
    import numpy as np
    decay = np.exp(-np.abs(u))
    # per sign block (u <= 0, u > 0): sum of w and of w e^-|u|
    (a0, b0), (a1, b1) = [(w[b].sum(), (w * decay)[b].sum()) for b in (u <= 0, u > 0)]
    half = w * np.sqrt(decay)
    phase = _phase_grid(model.gammas, u)
    c, s = np.cos(phase) @ half, np.sin(phase) @ half
    return float(2 * (a0 * b0 + a1 * b1) + 2 * (a0 * a1 + b0 * b1) - 2 * (c @ c + s @ s))


def _zero_sum_truncated(model: MicroModel, f: NFTestFn) -> float:
    return float(sum(2 * f.mellin(0.5 + 1j * g).real for g in model.gammas))


def global_pairing(model: MicroModel, f: NFTestFn,
                   spec: QuadratureSpec = QuadratureSpec()) -> GlobalPairingReport:
    """Pair the global divisor of f with D_0, D_infinity, D_1 and itself
    through micro quadratures.

    The relative-degree entries bypass the zeros entirely; the D_1
    pairing carries the truncated zero sum and is compared against the
    closed-form right side at the same K; the self-pairing is a double
    quadrature on one log-axis compared against the convolution route
    (fixed-point identity).
    """
    import numpy as np
    check(f, 0)
    lo_f = f.mu - HALFWIDTH_SIGMAS * f.sigma
    hi_f = f.mu + HALFWIDTH_SIGMAS * f.sigma

    def integrand_deg1(u):
        return _weight_arr(f, u) * np.where(
            np.exp(u) <= 1, np.exp(u), 1.0)

    def integrand_deg2(u):
        return _weight_arr(f, u) * np.where(
            np.exp(u) <= 1, 1.0, np.exp(-u))

    def integrand_d1(u):
        # <D_x, D_1> is the base pairing at min(x, 1/x) on both sides of 1
        x = np.exp(u)
        return _weight_arr(f, u) * model.base_arr(np.minimum(x, 1 / x))

    deg1 = _composite_quad(integrand_deg1, lo_f, hi_f, spec)
    deg2 = _composite_quad(integrand_deg2, lo_f, hi_f, spec)
    d1 = _composite_quad(integrand_d1, lo_f, hi_f, spec)

    fhat0 = f.mellin(0).real
    fhat1 = f.mellin(1).real
    ef2_rhs = fhat0 + fhat1 - _zero_sum_truncated(model, f)

    # self-pairing: double quadrature over f's log-axis
    nodes, weights = _gauss_legendre()

    def cross_estimate(panels: int) -> float:
        u, half = _panel_points(lo_f, hi_f, panels, nodes)
        return _cross_pairing(model, u, _weight_arr(f, u) * np.tile(weights, panels) * half)

    cross = _refine_until_stable(cross_estimate, spec.base_panels * 2, spec,
                                 "cross quadrature")

    # fixed-point right side: <D_h, D_1> with h = f * f^*
    h = f.convolve_with_dual(f)
    hhat0 = h.mellin(0).real
    hhat1 = h.mellin(1).real
    fp_rhs = hhat0 + hhat1 - _zero_sum_truncated(model, h)

    return GlobalPairingReport(
        deg1=deg1, deg2=deg2, d1_pairing=d1, cross=cross,
        deg1_residual=abs(deg1 - fhat1),
        deg2_residual=abs(deg2 - fhat0),
        explicit_formula_residual=abs(d1 - ef2_rhs),
        fixed_point_residual=abs(cross - fp_rhs),
    )


# ---------------------------------------------------------------------------
# the Riemann-Weil residual harness

@dataclass(frozen=True)
class RWReport:
    residual: float
    zero_sum: float
    fhat0: float
    fhat1: float
    prime_sum: float
    arch_term: float


def _von_mangoldt_sum(f: NFTestFn, prime_bound: int) -> float:
    """sum over prime powers of log p * (f(p^m) + p^-m f(p^-m)).

    The m-range is cut where the Gaussian in log makes terms vanish at
    double precision (|m log p| beyond f.log_reach).
    """
    if prime_bound > 10 ** 6:
        raise ResourceError("prime bound capped at 10^6")
    cutoff = f.log_reach
    terms = []
    for p in primes_up_to(prime_bound):
        logp = math.log(p)
        m = 1
        while m * logp <= cutoff:
            x = float(p) ** m
            terms.append(logp * (f(x) + f(1.0 / x) / x))
            m += 1
    return math.fsum(terms)


PSI_SHIFT = 10
PSI_TERMS = 8


@functools.cache
def _stirling_coefficients() -> tuple[float, ...]:
    """B_2k/(2k) for k = 1..PSI_TERMS."""
    return tuple(float(b / (2 * k)) for k, b in enumerate(bernoulli_even(PSI_TERMS)) if k)


def _re_digamma(z: np.ndarray) -> np.ndarray:
    """Re psi(z), elementwise, for Re z > 0.

    The recurrence psi(z) = psi(w) - sum_{k<n} 1/(z+k) moves z to
    w = z + n with n = PSI_SHIFT, and the Stirling series (DLMF 5.11.2)

        psi(w) = log w - 1/(2w) - sum_{k=1}^{m} B_2k / (2k w^2k) + R

    is summed to m = PSI_TERMS terms.  By Binet's integral (DLMF 5.9.13)
    and the enveloping of the Bernoulli expansion of 1/(e^t-1) - 1/t + 1/2
    for t > 0 (DLMF 5.11(ii)), |R| <= |B_2(m+1)| / (2(m+1) (Re w)^(2m+2)),
    which is below 3.1e-18 at Re w > 10.  Re psi(w) >= psi(10) > 2.2 there,
    so the truncation is below 1.4e-18 relative; the rest is rounding.
    """
    import numpy as np
    z = np.asarray(z, dtype=complex)
    w = z + PSI_SHIFT
    inv_w2 = 1 / (w * w)
    series = 0.0
    for c in reversed(_stirling_coefficients()):
        series = (series + c) * inv_w2
    back = sum(1 / (z + k) for k in range(PSI_SHIFT))
    return (np.log(w) - 0.5 / w - series - back).real


ARCH_QUAD = QuadratureSpec(rel_tol=1e-11, base_panels=48, max_refine=6)


def _arch_term(f: NFTestFn) -> float:
    """(1/pi) * int_0^T Re fhat(1/2 + it) Re[psi(1/4 + it/2) - log pi] dt.

    This is the archimedean place's contribution moved to the critical
    line; the integrand is smooth and Gaussian-damped, so composite
    Gauss-Legendre with panel doubling certifies it cheaply.  psi is
    `_re_digamma`, whose truncation error is far below the rounding of
    the quadrature.
    """
    import numpy as np

    def integrand(t):
        s_half = 0.5 + 1j * t
        fh = (f.amplitude * f.sigma * math.sqrt(2 * math.pi)
              * np.exp(f.mu * s_half + f.sigma ** 2 * s_half ** 2 / 2))
        kernel = _re_digamma(0.25 + 0.5j * t) - math.log(math.pi)
        return np.real(fh) * kernel

    return _composite_quad(integrand, 0.0, _arch_reach(f), ARCH_QUAD) / math.pi


def _arch_reach(f: NFTestFn) -> float:
    """The end of `_arch_term`'s integral: Re fhat(1/2+it) decays like
    exp(-sigma^2 t^2 / 2), below e^-38 past sqrt(76)/sigma."""
    return math.sqrt(2 * 38.0) / f.sigma + abs(f.mu) + 10.0


def riemann_weil_residual(f: NFTestFn, zeros: ZeroTable, K: int,
                          prime_bound: int) -> RWReport:
    """Residual of the Riemann-Weil explicit formula at truncation (K, P):

        sum_{i<=K} 2 Re fhat(1/2 + i gamma_i)
          - [ fhat(0) + fhat(1) - (prime-power sum) + (archimedean term) ].

    The K-truncated zero sum converges to the bracket as K and the prime
    bound grow; the residual is the quantitative gap.
    """
    _check_double_range(f, prime_bound)
    model = MicroModel(K, zeros)
    zero_sum = _zero_sum_truncated(model, f)
    fhat0 = f.mellin(0).real
    fhat1 = f.mellin(1).real
    prime_sum = _von_mangoldt_sum(f, prime_bound)
    arch_term = _arch_term(f)
    residual = zero_sum - (fhat0 + fhat1 - prime_sum + arch_term)
    return RWReport(residual, zero_sum, fhat0, fhat1, prime_sum, arch_term)
