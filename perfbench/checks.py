"""Output checks for benchmark jobs.

Independent oracles are used where they are cheap:
  * N_1 by Euler's criterion, and N_m from it through the zeta recurrence;
  * census totals against #P^(r-1)(F_q);
  * Euler-product prime counts and bad primes by the benchmark's own sieve;
  * a skewed basis against its unskewed base lattice: HN steps, covolume,
    stability and reduction exactly equal, theta h0/h1 within the certified
    tails;
  * xi against mpmath's pi^(-s/2) Gamma(s/2) zeta(s) at 50 digits.
Elsewhere a result is compared with the golden recorded for its input:
exact fields must be equal, float fields agree within a relative
tolerance, and error-bound fields are only required to be finite and >= 0.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import jobs as jobmod

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

# leaf keys rendered by the CLI's fmt_real; everything else is exact
FLOAT_KEYS = frozenset({
    "re", "im", "degree", "slope", "a", "b", "h0", "h1", "mu", "sigma",
    "root_pairing_numeric_residual", "rr_residual", "functional_equation_residual",
    "d0_d0", "d0_d1", "d0_dhalf", "deg1_residual", "deg2_residual",
    "explicit_formula_residual", "fixed_point_residual", "residual", "zero_sum",
    "fhat0", "fhat1", "prime_sum", "arch_term",
})
ERROR_KEYS = frozenset({"tail_bound", "certified_tails"})
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
RESIDUAL_ATOL = 1e-9    # residuals are noise-level; a better algorithm moves them
XI_RTOL = 1e-9
XI_DPS = 50
THETA_TOL = 1e-9        # the theta jobs' --tol (the CLI default)

# Failures expected at the commit that defined this benchmark.  They count
# in `failed`; `correct` stays true while every failure is one of these.
KNOWN_DEFECTS = (
    ("xi", lambda job: job.info["t"] >= 70.0,
     "xi_q loses accuracy high on the critical line (fixed 30-digit working "
     "precision); ROADMAP open item 3"),
)


def known_defect(job) -> str | None:
    for command, applies, why in KNOWN_DEFECTS:
        if job.command == command and applies(job):
            return why
    return None


# ---------------------------------------------------------------------------
# result flattening and goldens

def _leaves(value, path="", key=""):
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _leaves(value[k], f"{path}.{k}" if path else k, k)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]", key)
    else:
        yield path, key, value


def summarize(result: dict) -> dict:
    """Golden form of a CLI result: a digest of the exact leaves and the
    float leaves by path.  Error-bound leaves are left out."""
    exact, floats = [], {}
    for path, key, leaf in _leaves(result):
        if key in ERROR_KEYS:
            continue
        if key in FLOAT_KEYS:
            floats[path] = leaf
        else:
            exact.append([path, leaf])
    digest = hashlib.sha256(json.dumps(exact, separators=(",", ":")).encode()).hexdigest()
    return {"exact": digest[:24], "floats": floats}


def _float_close(key: str, got: float, want: float) -> bool:
    atol = RESIDUAL_ATOL if "residual" in key else FLOAT_ATOL
    return abs(got - want) <= FLOAT_RTOL * abs(want) + atol


def _finite_nonnegative(result: dict) -> list[str]:
    bad = []
    for path, key, leaf in _leaves(result):
        if key in ERROR_KEYS:
            x = float(leaf)
            if not (math.isfinite(x) and x >= 0):
                bad.append(f"{path}={leaf} is not a finite bound >= 0")
    return bad


def compare_golden(result: dict, golden: dict, skip_floats=()) -> list[str]:
    got = summarize(result)
    bad = []
    if got["exact"] != golden["exact"]:
        bad.append("exact fields differ from the golden")
    for path, want in golden["floats"].items():
        if path in skip_floats:
            continue
        if path not in got["floats"]:
            bad.append(f"{path} missing")
            continue
        key = path.rsplit(".", 1)[-1].split("[")[0]
        if not _float_close(key, float(got["floats"][path]), float(want)):
            bad.append(f"{path}={got['floats'][path]} vs golden {want}")
    if set(got["floats"]) - set(golden["floats"]):
        bad.append("float fields not in the golden")
    return bad + _finite_nonnegative(result)


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


# ---------------------------------------------------------------------------
# independent oracles

def point_count_f_p(p: int, a: int, b: int) -> int:
    """#E(F_p), projective, by Euler's criterion on each x."""
    n = 1
    half = (p - 1) // 2
    for x in range(p):
        fx = (x * x * x + a * x + b) % p
        n += 1 if fx == 0 else (2 if pow(fx, half, p) == 1 else 0)
    return n


def point_counts(p: int, n1: int, m_max: int) -> list[int]:
    """N_m for m = 1..m_max from N_1: s_m = a s_(m-1) - p s_(m-2) with
    a = p + 1 - N_1 gives the Frobenius power sums, N_m = p^m + 1 - s_m."""
    a = p + 1 - n1
    s = [2, a]
    while len(s) <= m_max:
        s.append(a * s[-1] - p * s[-2])
    return [p ** m + 1 - s[m] for m in range(1, m_max + 1)]


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_factor_count(a: int, b: int, pmax: int) -> tuple[int, list[int]]:
    """(good primes 3 < p <= pmax, bad primes of y^2 = x^3 + a x + b)."""
    bad = _prime_factors(abs(6 * (4 * a ** 3 + 27 * b ** 2)))
    sieve = bytearray([1]) * (pmax + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(pmax) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, pmax + 1, i)))
    good = sum(1 for p in range(5, pmax + 1) if sieve[p] and p not in bad)
    return good, bad


def xi_reference(s: complex) -> complex:
    import mpmath
    with mpmath.workdps(XI_DPS):
        z = mpmath.mpc(s)
        return complex(mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2) * mpmath.zeta(z))


def _parse_matrix(spec: str):
    return [[Fraction(e) for e in row.split()] for row in spec.split(" / ")]


def input_covolume2(job) -> Fraction:
    if "--gram" in job.argv:
        return jobmod.det(_parse_matrix(job.arg("--gram")))
    return jobmod.det(_parse_matrix(job.arg("--lattice"))) ** 2


# ---------------------------------------------------------------------------
# per-job checks

class Checker:
    """Checks one job's exit code and output; `check` returns the list of
    reasons the job failed (empty when it passed)."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self._n1 = {}

    def n1(self, p: int, a: int, b: int) -> int:
        key = (p, a, b)
        if key not in self._n1:
            self._n1[key] = point_count_f_p(p, a, b)
        return self._n1[key]

    def check(self, job, rc: int, out: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if job.library:
            info = job.info
            want = point_counts(info["p"], self.n1(info["p"], info["a"], info["b"]),
                                info["ext"])[-1]
            return [] if out == str(want) else [f"count {out} != oracle {want}"]
        try:
            payload = json.loads(out)
            result = payload["result"]
        except (ValueError, KeyError) as exc:
            return [f"unparseable output: {exc}"]
        if payload.get("command") != job.command:
            return ["output names another command"]
        return getattr(self, "_" + job.command.replace("-", "_"))(job, result)

    def _with_golden(self, job, result, bad) -> list[str]:
        golden = self.goldens.get(jobmod.golden_key(job))
        if golden is None:
            return bad + ["no golden recorded for this input"]
        return bad + compare_golden(result, golden)

    def _curve_oracles(self, job, result) -> list[str]:
        info = job.info
        n1 = self.n1(info["p"], info["a"], info["b"])
        return [] if result.get("n1") == n1 else [f"n1 {result.get('n1')} != oracle {n1}"]

    def _artin(self, job, result):
        info = job.info
        n1 = self.n1(info["p"], info["a"], info["b"])
        want = [str(n) for n in point_counts(info["p"], n1, len(result["counts"]))]
        bad = [] if result["counts"] == want else ["counts differ from the N_1 recurrence"]
        return self._with_golden(job, result, bad)

    def _nazeta(self, job, result):
        return self._with_golden(job, result, self._curve_oracles(job, result))

    _mass = _allbundles = _explicit_ff = _nazeta

    def _census(self, job, result):
        bad = self._curve_oracles(job, result)
        q, r = job.info["p"], int(job.arg("--rank"))
        if result["total_classes"] != str((q ** r - 1) // (q - 1)):
            bad.append(f"census total {result['total_classes']} != #P^{r - 1}(F_q)")
        return self._with_golden(job, result, bad)

    def _euler(self, job, result):
        info = job.info
        good, bad_primes = euler_factor_count(info["A"], info["B"], info["pmax"])
        bad = []
        if result["factors_used"] != good:
            bad.append(f"factors_used {result['factors_used']} != oracle {good}")
        if result["bad_primes"] != bad_primes:
            bad.append(f"bad_primes {result['bad_primes']} != oracle {bad_primes}")
        if result["prime_bound"] != info["pmax"]:
            bad.append("prime_bound differs from --pmax")
        return self._with_golden(job, result, bad)

    def _base(self, job, result) -> tuple[list[str], dict | None]:
        """Covolume check, and the golden of the job's unskewed base lattice."""
        bad = []
        if result["covolume2"] != jobmod.fmt_rat(input_covolume2(job)):
            bad.append("covolume2 differs from the input's exact determinant")
        base = self.goldens.get(jobmod.base_job(job.command, job.info["rank"],
                                                job.info["base"]).key)
        if base is None:
            bad.append("no golden recorded for the base lattice")
        return bad, base

    def _lattice(self, job, result):
        bad, base = self._base(job, result)
        # every field of `zetalab lattice` is an invariant of the lattice
        return bad + compare_golden(result, base) if base else bad

    def _theta(self, job, result):
        bad, base = self._base(job, result)
        if base is None:
            return bad
        bad += compare_golden(result, base, skip_floats=("h0", "h1", "rr_residual"))
        tails = float(result["certified_tails"]) + float(base["tails"])
        for key in ("h0", "h1"):
            got, want = float(result[key]), float(base["floats"][key])
            if abs(got - want) > tails + 1e-11 * max(1.0, abs(want)):
                bad.append(f"{key} {got!r} vs base {want!r} beyond the certified tails")
        if not abs(float(result["rr_residual"])) <= THETA_TOL:
            bad.append(f"rr_residual {result['rr_residual']} exceeds {THETA_TOL}")
        return bad

    def _xi(self, job, result):
        s = complex(job.arg("--s").replace("i", "j"))
        got = complex(float(result["value"]["re"]), float(result["value"]["im"]))
        want = xi_reference(s)
        bad = []
        residual = float(result["functional_equation_residual"])
        if not (math.isfinite(residual) and residual >= 0):
            bad.append("functional_equation_residual is not finite and >= 0")
        rel = abs(got - want) / abs(want)
        if not rel <= XI_RTOL:
            bad.append(f"xi relative error {rel:.3g} vs mpmath at {XI_DPS} digits")
        return bad

    def _explicit_nf(self, job, result):
        return self._with_golden(job, result, [])
