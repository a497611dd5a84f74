"""Command-line front end: parse a job, run one computation, print a table.

Every run is fully determined by its flags: no config files, no hidden
state, no environment defaults beyond file paths.  Output is JSON by
default (sorted keys, fixed separators, trailing newline) so identical
jobs produce byte-identical bytes; csv and text renderings are provided
for the table-shaped results.  The commands return raw values, and
`encode` alone formats them: rationals print as "num/den", reals with 12
significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import Any

from zetalab import artin, bundles, explicit, lattice as lat, nazeta
from zetalab.errors import ENUMERATION_BUDGET, InputError, ResourceError, ZetalabError
from zetalab.exact import Poly
from zetalab.ffield import FieldSpec, WeierstrassCurve, count_points

USAGE_EXIT = 64
# reciprocity_check runs power-sum recurrences of length n * order with
# digits growing in order, so its work grows about as order^2.3: for
# n = 2, 3, 4 together, at order 3000 it takes 0.09 s at p = 59 and 0.36 s
# at p = 9999991, the largest prime the point count accepts; at 4000,
# 0.16 s and 0.69 s (one core of a shared 2-CPU container)
ARTIN_ORDER_CAP = 3000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# formatting

def fmt_real(x: float) -> str:
    x = float(x)
    if x == 0:
        x = 0.0   # normalize -0.0
    return f"{x:.12g}"


# the JSON form of each type a result holds, looked up by its exact class;
# str prints a Fraction as "num/den", or "num" when integral, and an int as "num"
_ENCODERS = {
    Fraction: str, float: fmt_real, Poly: lambda v: [str(c) for c in v.coeffs],
    complex: lambda v: {"re": fmt_real(v.real), "im": fmt_real(v.imag)},
    dict: lambda v: {k: encode(x) for k, x in v.items()},
    **dict.fromkeys((list, tuple), lambda v: [encode(x) for x in v]),
    **dict.fromkeys((bool, int, str), lambda v: v),
}


def encode(value: Any) -> Any:
    """The JSON form of a command result, through dicts, lists and tuples.

    Fractions and Poly coefficients print as "num/den", floats with
    fmt_real, complex numbers as {"re", "im"}; bool, int and str pass
    through unchanged.
    """
    fn = _ENCODERS.get(type(value))
    if fn is None:
        raise TypeError(f"cannot encode a {type(value).__name__}")
    return fn(value)


# ---------------------------------------------------------------------------
# input parsing

_CURVE_RE = re.compile(r"^y2=x3(?P<rest>([+-][0-9]*\*?x|[+-][0-9]+)*)$")


def parse_curve(spec: str, p: int) -> WeierstrassCurve:
    """Parse `y2=x3+A*x+B` (integer A, B; `4x` and `x` accepted for `4*x`)."""
    compact = spec.replace(" ", "")
    m = _CURVE_RE.match(compact)
    if m is None:
        raise _UsageError(f"cannot parse curve {spec!r}; expected y2=x3+A*x+B")
    a = b = 0
    for term in re.findall(r"[+-][^+-]+", m.group("rest") or ""):
        sign = -1 if term[0] == "-" else 1
        body = term[1:]
        if body.endswith("x"):
            coeff = body[:-1].rstrip("*")
            a += sign * (int(coeff) if coeff else 1)
        else:
            b += sign * int(body)
    return WeierstrassCurve(FieldSpec(p), a, b)


def parse_matrix(spec: str) -> list[list[Fraction]]:
    """Row-major matrix with ` / ` between rows; entries are exact decimals
    or fractions (0.5 and 1/2 both mean one half).  The row separator must
    be surrounded by whitespace so fraction entries stay unambiguous."""
    rows = []
    for row in re.split(r"\s+/\s+", spec.strip()):
        entries = row.split()
        if not entries:
            raise _UsageError("empty matrix row")
        try:
            rows.append([Fraction(e) for e in entries])
        except (ValueError, ZeroDivisionError) as exc:
            raise _UsageError(f"cannot parse matrix row {row!r}") from exc
    if any(len(r) != len(rows) for r in rows):
        raise _UsageError("matrix must be square")
    return rows


def parse_lattice(args) -> lat.Lattice:
    if args.gram is not None and args.lattice is not None:
        raise _UsageError("give --lattice or --gram, not both")
    if args.gram:
        return lat.Lattice.from_gram(parse_matrix(args.gram))
    if args.lattice:
        rows = parse_matrix(args.lattice)
        columns = [list(col) for col in zip(*rows)]
        return lat.Lattice.from_basis_columns(columns)
    raise _UsageError("provide --lattice (basis) or --gram")


def parse_complex(spec: str) -> complex:
    try:
        return complex(spec.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise _UsageError(f"cannot parse complex number {spec!r}") from exc


def _check_printable(log10_bound: float, flag: str) -> None:
    """Refuse, before its work, a job whose printed numbers may reach the
    interpreter's str-digit limit for ints (0: none): str() would raise."""
    limit = sys.get_int_max_str_digits()
    if limit and log10_bound >= limit:
        raise ResourceError(f"{flag} too large: printed numbers could pass "
                            f"{limit} digits")


# ---------------------------------------------------------------------------
# commands

def cmd_artin(args) -> dict:
    if args.mmax < 0:
        raise InputError("--mmax must be >= 0")
    if args.order > ARTIN_ORDER_CAP:
        raise ResourceError(f"--order capped at {ARTIN_ORDER_CAP}")
    curve = parse_curve(args.curve, args.p)
    _check_printable(args.mmax * math.log10(args.p) + math.log10(4), "--mmax")  # N_m <= 4 q^m
    n1 = count_points(curve, 1)
    zc = artin.elliptic_zeta(args.p, n1)
    recip = {str(n): artin.reciprocity_check(zc, n, args.order)
             for n in (2, 3, 4)}
    return {
        "q": args.p,
        "numerator": zc.P,
        "counts": [str(n) for n in artin.point_counts(zc, args.mmax)],
        # 1 - at + qt^2 always has the functional equation, and ZetaCurve
        # refuses every datum that fails rh_check
        "functional_equation_ok": True,
        "rh_ok": True,
        "reciprocity_ok": recip,
    }


def cmd_nazeta(args) -> dict:
    curve = parse_curve(args.curve, args.p)
    nazeta.check_rank(args.rank)                    # before the walk
    nazeta.check_simple_roots(curve.p, args.rank)
    nazeta.check_m_max(args.mmax)
    data = bundles.CurveData.from_curve(curve)
    z = nazeta.ell_na_zeta(data, args.rank, bundles.Convention(args.convention))
    omegas = nazeta.reciprocal_roots(z)
    _check_printable(nazeta.na_counts_log10_bound(z, args.mmax, omegas), "--mmax")
    return {
        "q": data.q,
        "n1": data.n1,
        "rank": args.rank,
        "convention": args.convention,
        "numerator": z.P,
        "normalized_numerator": z.normalized_numerator,
        "denominator": z.denominator,
        # RankZeta refuses any other degree and any numerator off the
        # functional equation, which on P/P(0) is the exact root pairing
        "degree_ok": True,
        "functional_equation_ok": True,
        "root_pairing_exact_ok": True,
        "root_pairing_numeric_residual": nazeta.root_pairing_residual(z.q, omegas),
        "counts": nazeta.na_counts(z, args.mmax),
    }


def cmd_census(args) -> dict:
    curve = parse_curve(args.curve, args.p)
    bundles.check_census_rank(args.rank)            # before the walk
    data = bundles.CurveData.from_curve(curve)
    conv = bundles.Convention(args.convention)
    res = bundles.strata_census(args.rank, data, conv)
    rows = [{
        "stratum": row.label,
        "classes": Fraction(*row.classes),
        "bundles_per_class": str(row.bundles_per_class),
        "mass_per_class": Fraction(*row.mass_per_class),
        "gamma_per_class": Fraction(*row.gamma_per_class),
    } for row in res.rows]
    return {
        "q": data.q,
        "n1": data.n1,
        "rank": args.rank,
        "convention": args.convention,
        "slice": res.slice_note,
        "rows": rows,
        "total_classes": Fraction(*res.total_classes),
        "mass": Fraction(*res.mass),
        "gamma": Fraction(*res.gamma),
    }


def cmd_mass(args) -> dict:
    if args.rmax < 0:
        raise InputError("--rmax must be >= 0")
    data = bundles.CurveData.from_curve(parse_curve(args.curve, args.p))
    zc = data.zeta
    rows = []
    for r in range(1, args.rmax + 1):
        for d in range(r):
            paper, descent = (Fraction(*bundles.invariant("beta", r, d, data, conv))
                              for conv in bundles.Convention)
            recursion = Fraction(*bundles.mass_recursion_beta(r, d, zc))
            rows.append({
                "rank": str(r),
                "degree": str(d),
                "beta_paper": paper,
                "beta_descent": descent,
                "beta_recursion": recursion,
                "descent_matches_recursion": descent == recursion,
                "paper_matches_recursion": paper == recursion,
            })
    return {
        "q": data.q,
        "n1": data.n1,
        "agreement_locus_note":
            "the split counts match the recursion exactly when N1 = 2(q-1)",
        "n1_equals_2q_minus_2": data.n1 == 2 * (data.q - 1),
        "rows": rows,
    }


def cmd_allbundles(args) -> dict:
    if args.order < 0:
        raise InputError("--order must be >= 0")
    curve = parse_curve(args.curve, args.p)
    nazeta.check_allbundles_order(args.order)       # before the walk
    report = nazeta.allbundles_rank2(bundles.CurveData.from_curve(curve), args.order)
    pieces = [{
        "piece": piece.name,
        # a closed coefficient is an int where integral; it prints as a rational
        "closed": [Fraction(c) for c in piece.closed],
        "direct": piece.direct,
        "agree": piece.agree,
    } for piece in report.positive + (report.negative,)]
    return {
        "q": report.q,
        "n1": report.n1,
        "order": args.order,
        "degree_zero_closed": report.degree_zero_closed,
        "degree_zero_direct": report.degree_zero_direct,
        "pieces": pieces,
        "all_agree": report.all_agree,
    }


def cmd_euler(args) -> dict:
    curve = nazeta.GlobalCurve(args.A, args.B)
    report = nazeta.global_na_zeta_partial(
        curve, args.rank, parse_complex(args.s), args.pmax,
        bundles.Convention(args.convention))
    return {
        "A": args.A,
        "B": args.B,
        "rank": args.rank,
        "s": report.s,
        "prime_bound": report.prime_bound,
        "factors_used": report.factors_used,
        "bad_primes": report.bad_primes_skipped,
        "value": report.value,
        "log_value": report.log_value,
        "tail_bound": report.tail_bound,
    }


def cmd_lattice(args) -> dict:
    lattice = parse_lattice(args)
    filtration = lat.hn_filtration(lattice)
    result: dict[str, Any] = {
        "rank": lattice.rank,
        "covolume2": lattice.covolume2,
        "degree": lat.deg(lattice),
        "semistable": filtration.is_single,
        "hn_steps": [{"rank": step.rank, "covol2": step.covol2,
                      "slope": step.slope} for step in filtration.steps],
    }
    if lattice.rank == 2 and lattice.covolume2 == 1:
        a, b, ok = lat.reduce_rank2(lattice)
        result["reduction"] = {"a": a, "b": b, "in_domain": ok}
    if lattice.den == 1 and lattice.covolume2 == 1:
        result["unimodular"] = {"semistable": filtration.is_single,
                                "stable": filtration.stable}
    return result


def cmd_theta(args) -> dict:
    lattice = parse_lattice(args)
    report = lat.rr_check(lattice, args.tol)
    return {
        "rank": lattice.rank,
        "covolume2": lattice.covolume2,
        "h0": report.h0,
        "h1": report.h1,
        "degree": report.degree,
        "rr_residual": report.residual,
        "certified_tails": report.tail_total,
    }


def cmd_xi(args) -> dict:
    s = parse_complex(args.s)
    value = lat.xi_q(s, args.eps)
    mirrored = lat.xi_q(1 - s, args.eps)
    return {
        "s": s,
        "value": value,
        "functional_equation_residual": abs(value - mirrored),
    }


def cmd_explicit_ff(args) -> dict:
    import random
    if args.count < 0 or args.span < 0:
        raise InputError("--count and --span must be >= 0")
    # each trial's positivity value takes about (2 span + 1)^2 / 2 products
    if args.count * (2 * args.span + 1) ** 2 > ENUMERATION_BUDGET:
        raise ResourceError("--count * (2 --span + 1)^2 capped at "
                            f"{ENUMERATION_BUDGET}")
    curve = parse_curve(args.curve, args.p)
    # a positivity value is 2 S / (L^2 q^K) with L <= 12, K <= span and
    # |S| <= 2 (9 L)^2 (2 span + 1)^2 q^(2 span), as |p_j| <= 2 q^(j/2)
    _check_printable(2 * args.span * math.log10(args.p)
                     + math.log10(4 * 108 ** 2 * (2 * args.span + 1) ** 2), "--span")
    n1 = count_points(curve, 1)
    zc = artin.elliptic_zeta(args.p, n1)
    rng = random.Random(args.seed)
    all_ok = True
    positive = True
    samples = []
    for i in range(args.count):
        support = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for n in range(-args.span, args.span + 1)}
        f = explicit.FFTestFn.of(args.p, support)
        all_ok &= explicit.ff_explicit_formula_check(zc, f)
        value = explicit.ff_hodge_defect(zc, f)
        positive &= value >= 0
        if i < 3:
            samples.append({"positivity": value})
    f1 = explicit.FFTestFn.delta(args.p, 1)
    pairing = explicit.ff_pairing(zc, f1)
    return {
        "q": args.p,
        "n1": n1,
        "trials": args.count,
        "explicit_formula_all_ok": bool(all_ok),
        "positivity_all_nonnegative": bool(positive),
        "hodge_equals_positivity_count": args.count,
        "delta1_pairing": {
            "deg1": pairing.deg1,
            "deg2": pairing.deg2,
            "diag": pairing.diag,
        },
        "samples": samples,
    }


def cmd_explicit_nf(args) -> dict:
    if args.pmax < 0:
        raise InputError("--pmax must be >= 0")
    zeros = explicit.load_zeros(args.zeros)
    f = explicit.NFTestFn(args.mu, args.sigma)
    model = explicit.MicroModel(args.K, zeros)
    explicit.check(f, args.pmax)
    rw = explicit.riemann_weil_residual(f, zeros, args.K, args.pmax)
    pairing = explicit.global_pairing(model, f)
    return {
        "zeros_loaded": len(zeros),
        "K": args.K,
        "mu": args.mu,
        "sigma": args.sigma,
        "prime_bound": args.pmax,
        "micro_examples": {
            "d0_d0": explicit.micro_pairing(model, 0, 0),
            "d0_d1": explicit.micro_pairing(model, 0, 1),
            "d0_dhalf": explicit.micro_pairing(model, 0, 0.5),
        },
        "global_pairing": {
            "deg1_residual": pairing.deg1_residual,
            "deg2_residual": pairing.deg2_residual,
            "explicit_formula_residual": pairing.explicit_formula_residual,
            "fixed_point_residual": pairing.fixed_point_residual,
        },
        "riemann_weil": {
            "residual": rw.residual,
            "zero_sum": rw.zero_sum,
            "fhat0": rw.fhat0,
            "fhat1": rw.fhat1,
            "prime_sum": rw.prime_sum,
            "arch_term": rw.arch_term,
        },
    }


def cmd_andrianov(args) -> dict:
    return {
        "substitution": {"k": "2", "lambda_p": "1 - p",
                         "lambda_p2": "p^2 - 4p + 4"},
        "formal_match": nazeta.andrianov_formal_match(),
    }


# ---------------------------------------------------------------------------
# rendering

def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(prefix: str, value: Any, out: list[tuple[str, str]]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, out)
    else:
        out.append((prefix, str(value)))


def render_csv(payload: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    lines = ["key,value"] + [f"{k},{v}" for k, v in rows]
    return "\n".join(lines) + "\n"


def render_text(payload: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", payload, rows)
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


# ---------------------------------------------------------------------------
# argument wiring

def _flag(name: str, **options) -> tuple[str, dict]:
    return name, options


def _convention_flag(default: str) -> tuple[str, dict]:
    return _flag("--convention", choices=("paper", "descent"), default=default)


CURVE = (_flag("--curve", required=True), _flag("--p", type=int, required=True))
LATTICE = (_flag("--lattice", help="basis rows, '/'-separated"),
           _flag("--gram", help="Gram rows, '/'-separated"))
RANK = _flag("--rank", type=int, required=True)
OUTPUT = (_flag("--format", choices=tuple(RENDERERS), default="json"),
          _flag("--out", help="write output to a file"))

# name -> (handler, help, flags before --format/--out)
COMMANDS = {
    "artin": (cmd_artin, "zeta datum of an elliptic curve", (
        *CURVE, _flag("--mmax", type=int, default=8),
        _flag("--order", type=int, default=8))),
    "nazeta": (cmd_nazeta, "rank-r zeta function of an elliptic curve", (
        *CURVE, RANK, _convention_flag("paper"),
        _flag("--mmax", type=int, default=6))),
    "census": (cmd_census, "degree-0 semistable class census", (
        *CURVE, RANK, _convention_flag("descent"))),
    "mass": (cmd_mass, "beta masses: conventions vs the recursion", (
        *CURVE, _flag("--rmax", type=int, default=3))),
    "allbundles": (cmd_allbundles, "unstable rank-2 contributions", (
        *CURVE, _flag("--order", type=int, default=10))),
    "euler": (cmd_euler, "partial global Euler product", (
        _flag("--A", type=int, required=True), _flag("--B", type=int, required=True),
        _flag("--rank", type=int, default=1), _flag("--s", required=True),
        _flag("--pmax", type=int, default=1000), _convention_flag("paper"),
        _flag("--threads", type=int, default=1))),
    "lattice": (cmd_lattice, "semistability, filtration, reduction", LATTICE),
    "theta": (cmd_theta, "theta cohomology and Riemann-Roch", (
        *LATTICE, _flag("--tol", type=float, default=1e-9))),
    "xi": (cmd_xi, "completed zeta of the rationals", (
        _flag("--s", required=True), _flag("--eps", type=float, default=1e-14))),
    "explicit-ff": (cmd_explicit_ff, "exact function-field explicit formulas", (
        *CURVE, _flag("--count", type=int, default=100),
        _flag("--seed", type=int, default=0), _flag("--span", type=int, default=3))),
    "explicit-nf": (cmd_explicit_nf, "micro model and Riemann-Weil residual", (
        _flag("--zeros", required=True), _flag("--mu", type=float, default=0.1),
        _flag("--sigma", type=float, default=0.05),
        _flag("--K", type=int, default=100),
        _flag("--pmax", type=int, default=10 ** 4))),
    "andrianov": (cmd_andrianov, "spinor-factor formal match", ()),
}


@functools.cache
def build_parser() -> _Parser:
    """The top-level parser; `commands` maps each command name to the
    sub-parser it registers."""
    parser = _Parser(prog="zetalab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}
    for name, (fn, help_, flags) in COMMANDS.items():
        p = parser.commands[name] = sub.add_parser(name, help=help_)
        for flag, options in flags + OUTPUT:
            p.add_argument(flag, **options)
        p.set_defaults(fn=fn)
    return parser


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """The job an argv names.  An argv that starts with a command is parsed
    once, by that command's own sub-parser: the top-level parser would only
    hand it the same tokens.  The top-level parser serves the rest: no
    argv, help and unknown commands, each ending in help or a usage error."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def _public_params(args) -> dict:
    # threads is still accepted but selects nothing (every job runs
    # serially), so it is not part of the job and the output cannot depend
    # on it
    skip = {"fn", "command", "format", "out", "threads"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_argv(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        build_parser().print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        result = args.fn(args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except ZetalabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    payload = {
        "command": args.command,
        "params": encode(_public_params(args)),
        "result": encode(result),
    }
    rendered = RENDERERS[args.format](payload)
    if args.out:
        # opened only now, so that a job that fails leaves the file as it was
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write {args.out}: {exc.strerror}\n")
            return 1
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
