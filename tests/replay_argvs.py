"""Record or compare the output of every CLI golden argv and benchmark job.

A refactor that must keep every output byte can be checked across two
commits: record at the first, compare at the second.

    PYTHONPATH=src python tests/replay_argvs.py --record before.json
    PYTHONPATH=src python tests/replay_argvs.py --compare before.json

`--unreached` runs the same argvs under a line tracer instead and prints
every statement in a `src/zetalab` function body that none of them
executes, docstrings left out.  `raise` statements come in a second list
with their own count, since most guard input no argv is meant to reach:

    PYTHONPATH=src python tests/replay_argvs.py --unreached

`--time` runs the seed-1 job lists of the timed workloads TIME_PASSES
times in process, in the same way, and prints each command's median time
per pass, with its job count, and the median pass, in the reference
seconds of `perfbench/speed.py`'s probe, so that runs minutes apart on a
drifting host compare:

    PYTHONPATH=src python tests/replay_argvs.py --time

The argvs are the golden cases of `test_cli_golden.py`, every distinct
job that `perfbench/jobs.py` builds for seeds 1-3 of the three timed
workloads and seed 1 of `xi_high`, the `count_points` library jobs
included, and EDGE_ARGVS: the exact kernels' edge orders and spans,
`artin` at its `--order` cap and past it, the rank-3 `census` at p = 5,
and `nazeta`, `mass`, the rank-3 `census`, `allbundles --order 40` and
`artin` at its `--order` cap at the largest prime where rank-2 and rank-3
`nazeta` run, and the curve commands at the next prime, where `nazeta`
refuses ranks 2 and 3, which neither of the other lists reaches; the
refusals of `census` and `nazeta` ranks, `nazeta --mmax` and
`allbundles --order` at p = 9999991, the largest prime the F_p walk
takes, which read the arguments alone; `lattice` and `theta` on Z^3 in
the skewed basis `1 3 3 / -3 2 -2 / 3 1 4` and on Z^2 in the rational
basis `3/5 -4/5 / 4/5 3/5`; argvs
that end in a usage error or sit at the parser's edges (abbreviated,
repeated and stray flags, and `lattice` and `theta` given both
`--lattice` and `--gram`); `andrianov` with `.` as `--out`;
`xi`, `explicit-nf` and `euler` at floats near the double range's end;
`explicit-nf` with no prime and a quadrature past that range; and
`euler` on y^2 = x^3 + 8 and y^2 = x^3 - x at the prime cap 10^5.
Each is run in
process from the repository root, with argparse's usage lines wrapped at
80 columns, and its exit code, stdout and stderr are kept; an uncaught
exception is kept as its type name in place of the exit code, and the
run goes on.  `perfbench/` is only read: no bytecode is written for it.
Pytest does not collect this file (no `test_` prefix).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zetalab"
SEEDS = {"ff_curves": (1, 2, 3), "euler": (1, 2, 3), "q_lattice": (1, 2, 3),
         "xi_high": (1,)}
TIMED = ("ff_curves", "euler", "q_lattice")
TIME_PASSES = 9
_SMALL_CURVE = ("--curve", "y2=x3+x+1", "--p", "5")
_EDGE_CURVE = ("--curve", "y2=x3+x+1", "--p", "59")
_BIG_CURVE = ("--curve", "y2=x3+x+1", "--p", "3137")
_PAST_BIG_CURVE = ("--curve", "y2=x3+x+1", "--p", "3163")
_WALK_CAP_CURVE = ("--curve", "y2=x3+x+1", "--p", "9999991")
EDGE_ARGVS = (
    *(("allbundles", *_EDGE_CURVE, "--order", order) for order in ("0", "1", "40")),
    ("explicit-ff", *_EDGE_CURVE, "--count", "0"),
    *(("explicit-ff", *_EDGE_CURVE, "--span", span) for span in ("0", "6")),
    *(("artin", *_EDGE_CURVE, "--order", order) for order in ("1", "100", "3000", "3001")),
    ("artin", *_BIG_CURVE, "--order", "3000"),
    *(("census", *_SMALL_CURVE, "--rank", "3", "--convention", conv)
      for conv in ("paper", "descent")),
    # 3137 is the largest prime where `nazeta` runs ranks 2 and 3, 3163 the
    # next, where it refuses them and the other curve commands still run
    *(("nazeta", *_BIG_CURVE, "--rank", rank, "--convention", conv)
      for rank in ("2", "3") for conv in ("paper", "descent")),
    ("mass", *_BIG_CURVE),
    *(("census", *_BIG_CURVE, "--rank", "3", "--convention", conv)
      for conv in ("paper", "descent")),
    ("allbundles", *_BIG_CURVE, "--order", "40"),
    *(("nazeta", *_PAST_BIG_CURVE, "--rank", rank) for rank in ("1", "2", "3")),
    ("census", *_PAST_BIG_CURVE, "--rank", "2"),
    ("census", *_PAST_BIG_CURVE, "--rank", "3", "--convention", "descent"),
    ("mass", *_PAST_BIG_CURVE),
    ("allbundles", *_PAST_BIG_CURVE),
    # refusals that read the arguments alone, at the largest prime the F_p
    # walk takes, where a refusal after the walk would take seconds
    *(("census", *_WALK_CAP_CURVE, "--rank", rank) for rank in ("4", "0")),
    ("nazeta", *_WALK_CAP_CURVE, "--rank", "4"),
    ("nazeta", *_WALK_CAP_CURVE, "--rank", "1", "--mmax", "-1"),
    ("allbundles", *_WALK_CAP_CURVE, "--order", "41"),
    # Z^3 in a skewed basis, and Z^2 in a rational basis whose Gram B^T B
    # = 25 I / 25 is integral only once den and g lose their gcd
    *((command, "--lattice", basis) for command in ("lattice", "theta")
      for basis in ("1 3 3 / -3 2 -2 / 3 1 4", "3/5 -4/5 / 4/5 3/5")),
    # the parser's edges: usage errors, and flags it accepts oddly spelt
    (),
    ("frobnicate",),
    ("artin", "--curve", "y2=x3+x+1"),
    ("artin", "--curve", "y2=x3+x+1", "--p", "x"),
    ("artin", "--cur", "y2=x3+x+1", "--p", "5"),
    ("artin", "--curve", "y2=x3+x+1", "--p=5", "--p", "7"),
    ("artin", *_SMALL_CURVE, "extra"),
    ("artin", *_SMALL_CURVE, "--bogus", "1"),
    ("artin", *_SMALL_CURVE, "--threads", "2"),
    ("nazeta", *_SMALL_CURVE, "--rank", "2", "--convention", "other"),
    ("nazeta", *_SMALL_CURVE, "--rank", "2", "--format", "yaml"),
    *((command, "--lattice", "2 0 / 0 2", "--gram", "1 0 / 0 1")
      for command in ("lattice", "theta")),
    ("andrianov", "--out", "."),                # a directory from any cwd: no write
    ("xi", "--s", "-1+2j"),
    ("xi", "--s=-1+2j"),
    ("--", "x"),
    ("--format", "json", "artin"),
    # floats near the end of the double range
    *(("xi", f"--s={s}") for s in ("0.5+900j", "7e307", "8e307", "1.7e308", "-8e307")),
    *(("explicit-nf", "--zeros", "tests/data/zeros100.txt", *flags)
      for flags in (("--sigma", "18"), ("--sigma", "1e20"), ("--sigma", "1e154"),
                    ("--sigma", "1e155"), ("--mu", "1e200", "--sigma", "1e200"),
                    ("--mu", "700", "--sigma", "0.05", "--pmax", "0"))),
    # no prime in range: the quadrature window passes the double range, or
    # sigma is too small for the archimedean integral
    *(("explicit-nf", "--zeros", "tests/data/zeros100.txt", *flags, "--pmax", "0")
      for flags in (("--mu", "-800", "--sigma", "1"), ("--mu", "700", "--sigma", "1"),
                    ("--sigma", "1e-300"))),
    *(("euler", "--A", "1", "--B", "1", f"--s={s}")
      for s in ("3+1e300j", "3+1e308j", "1e308+1e308j")),
    # the two CM families at the prime cap: a_p = 0 at half the primes
    *(("euler", "--A", A, "--B", B, "--s", "3", "--pmax", "100000", *rank)
      for A, B in (("0", "8"), ("-1", "0"))
      for rank in (("--rank", "1"), ("--rank", "2", "--convention", "descent"))),
)


def _import_paths() -> None:
    """Let `tests/` and `perfbench/` modules import, writing no bytecode."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]


def argvs() -> dict[str, tuple[bool, tuple[str, ...]]]:
    """Distinct argvs keyed by their JSON form: (library call?, argv)."""
    _import_paths()
    from test_cli_golden import CASES
    import jobs

    found = {}
    for argv in [argv for _, argv in CASES] + list(EDGE_ARGVS):
        found[json.dumps(list(argv))] = (False, tuple(argv))
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            for job in jobs.build(workload, seed):
                found[json.dumps([job.library, *job.argv])] = (job.library, job.argv)
    return found


def run(library: bool, argv: tuple[str, ...]) -> dict:
    """Exit code, stdout and stderr of one argv, or the type name of the
    exception it raised in place of the exit code; a library job prints
    its count."""
    from zetalab import ffield
    from zetalab.cli import main

    if library:
        p, a, b, ext = (int(x) for x in argv[1:])
        curve = ffield.WeierstrassCurve(ffield.FieldSpec(p), a, b)
        return {"exit": 0, "stdout": str(ffield.count_points(curve, ext)), "stderr": ""}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as exc:
            code = type(exc).__name__
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def traced_lines() -> tuple[dict[str, set[int]], int]:
    """Build and run every argv under sys.settrace: the lines of
    src/zetalab that fired a line event, by file name, and the argv count.

    The trace starts before the argvs are built, so code that runs when
    the package is imported counts as reached.  A frame stops being traced
    once every line of its code object has been seen, so hot loops cost
    little after their first pass.
    """
    prefix = str(PACKAGE) + os.sep
    seen: dict[str, set[int]] = {}
    remaining: dict = {}                      # code object -> lines not yet seen

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            seen[code.co_filename].add(frame.f_lineno)
            left = remaining[code]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code not in remaining:
            remaining[code] = {line for *_, line in code.co_lines()
                               if line is not None} - {code.co_firstlineno}
            seen.setdefault(code.co_filename, set())
        return local if remaining[code] else None

    sys.settrace(on_call)
    try:
        specs = argvs()
        for spec in specs.values():
            run(*spec)
    finally:
        sys.settrace(None)
    return seen, len(specs)


def _code_lines(code) -> set[int]:
    """Every line that has bytecode in `code` or a code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _body_statements(func: ast.AST):
    """The statements of a function body, nested blocks included and nested
    function or class bodies left to their own walk, with the lines that
    belong to each statement itself (a compound statement: its header)."""
    body = func.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]                        # the docstring
    stack = list(body)
    while stack:
        stmt = stack.pop()
        blocks = []
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            blocks = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(stmt, "handlers", [])]
            blocks += [c.body for c in getattr(stmt, "cases", [])]
        children = [s for block in blocks for s in block]
        stack.extend(children)
        end = min((c.lineno for c in children), default=stmt.end_lineno + 1) - 1
        yield stmt, set(range(stmt.lineno, max(end, stmt.lineno) + 1))


def unreached(seen: dict[str, set[int]]) -> tuple[list[str], list[str]]:
    """`file:line: [function] source` of every function-body statement
    with no line in `seen`: all but the `raise` statements, then those."""
    found = {True: [], False: []}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        executable = _code_lines(compile(source, str(path), "exec"))
        hit = seen.get(str(path), set())
        tree = ast.parse(source)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt, own in _body_statements(func):
                if not own & executable or own & hit:
                    continue
                found[isinstance(stmt, ast.Raise)].append(
                    (path.name, stmt.lineno, func.name, lines[stmt.lineno - 1].strip()))
    rows = {kind: [f"src/zetalab/{name}:{line}: [{func}] {text}"
                   for name, line, func, text in sorted(found[kind])] for kind in found}
    return rows[False], rows[True]


def time_commands() -> None:
    """Print, per timed workload, each command's median time per pass over
    TIME_PASSES passes of its seed-1 job list, and the median pass.  Times
    are reference seconds, as `perfbench/run.py` reports them: the speed
    probe of `perfbench/speed.py` runs between jobs, and each job's time is
    scaled by the probes around it, with the workload's sensitivity."""
    _import_paths()
    import jobs
    import speed

    for workload in TIMED:
        job_list = jobs.build(workload, 1)
        counts = Counter(job.command for job in job_list)
        sensitivity = jobs.SPEED_SENSITIVITY.get(workload, 1.0)
        passes = []
        for _ in range(TIME_PASSES):
            spans, probes = [], [speed.probe()]
            for job in job_list:
                start = time.perf_counter()
                run(job.library, job.argv)
                spans.append((start, time.perf_counter()))
                probes.append(speed.probe())
            totals: dict[str, float] = defaultdict(float)
            seconds = speed.reference_times(spans, probes, sensitivity)
            for job, t in zip(job_list, seconds):
                totals[job.command] += t
            passes.append(totals)
        for command in sorted(counts, key=lambda c: -statistics.median(
                totals[c] for totals in passes)):
            ms = statistics.median(totals[command] for totals in passes) * 1e3
            print(f"{workload:<10} {command:<12} {counts[command]:>4} jobs {ms:>10.2f} ms")
        ms = statistics.median(sum(totals.values()) for totals in passes) * 1e3
        print(f"{workload:<10} {'pass':<12} {len(job_list):>4} jobs {ms:>10.2f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", type=Path)
    mode.add_argument("--compare", metavar="FILE", type=Path)
    mode.add_argument("--unreached", action="store_true",
                      help="list function-body statements no argv executes")
    mode.add_argument("--time", action="store_true",
                      help="print per-command medians over the timed workloads")
    args = parser.parse_args()
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"               # argparse wraps usage lines to it
    if args.time:
        time_commands()
        return 0
    if args.unreached:
        seen, count = traced_lines()
        statements, raises = unreached(seen)
        print("\n".join(statements))
        print(f"{len(statements)} statements unreached by {count} argvs")
        print("\n".join(raises))
        print(f"{len(raises)} raise statements unreached by {count} argvs")
        return 0
    target = (args.record or args.compare).resolve()
    results = {key: run(*spec) for key, spec in argvs().items()}
    if args.record:
        target.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"recorded {len(results)} argvs to {target}")
        return 0
    recorded = json.loads(target.read_text(encoding="utf-8"))
    differ = sorted(k for k in results.keys() & recorded.keys()
                    if results[k] != recorded[k])
    only_now = sorted(results.keys() - recorded.keys())
    only_then = sorted(recorded.keys() - results.keys())
    for label, keys in (("differs", differ), ("not recorded", only_now),
                        ("no longer built", only_then)):
        for key in keys:
            print(f"{label}: {key}")
    print(f"{len(results)} argvs run, {len(recorded)} recorded: "
          f"{len(differ)} differ, {len(only_now)} not recorded, "
          f"{len(only_then)} no longer built")
    return 1 if differ or only_now or only_then else 0


if __name__ == "__main__":
    sys.exit(main())
