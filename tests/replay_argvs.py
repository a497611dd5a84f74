"""Record or compare the output of every CLI golden argv and benchmark job.

A refactor that must keep every output byte can be checked across two
commits: record at the first, compare at the second.

    PYTHONPATH=src python tests/replay_argvs.py --record before.json
    PYTHONPATH=src python tests/replay_argvs.py --compare before.json

The argvs are the golden cases of `test_cli_golden.py` and every distinct
job that `perfbench/jobs.py` builds for seeds 1-3 of the three timed
workloads and seed 1 of `xi_high`, the `count_points` library jobs
included.  Each is run in process from the repository root, and its exit
code and stdout are kept.  `perfbench/` is only read: no bytecode is
written for it.  Pytest does not collect this file (no `test_` prefix).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"ff_curves": (1, 2, 3), "euler": (1, 2, 3), "q_lattice": (1, 2, 3),
         "xi_high": (1,)}


def argvs() -> dict[str, tuple[bool, tuple[str, ...]]]:
    """Distinct argvs keyed by their JSON form: (library call?, argv)."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    from test_cli_golden import CASES
    import jobs

    found = {}
    for _, argv in CASES:
        found[json.dumps(argv)] = (False, tuple(argv))
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            for job in jobs.build(workload, seed):
                found[json.dumps([job.library, *job.argv])] = (job.library, job.argv)
    return found


def run(library: bool, argv: tuple[str, ...]) -> dict:
    """Exit code and stdout of one argv; a library job prints its count."""
    from zetalab import ffield
    from zetalab.cli import main

    if library:
        p, a, b, ext = (int(x) for x in argv[1:])
        curve = ffield.WeierstrassCurve(ffield.FieldSpec(p), a, b)
        return {"exit": 0, "stdout": str(ffield.count_points(curve, ext))}
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", type=Path)
    mode.add_argument("--compare", metavar="FILE", type=Path)
    args = parser.parse_args()
    target = (args.record or args.compare).resolve()
    os.chdir(ROOT)
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
