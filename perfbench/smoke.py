"""Smoke test of the benchmark itself, on a small seed and scaled-down job
lists.  Run from the repository root:  python3 perfbench/smoke.py

It checks, for every workload, that an untraced and a traced run print the
result line BENCHMARK.json describes, that every job passes its checks,
that the xi_high list fails only as the recorded known defect, that each
per-layer metric the benchmark promises is non-zero on its workload (and
zero where the workload bypasses the layer), and that the benchmark refuses
to run in a directory that holds only BENCHMARK.json and the benchmark's
own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "1", "--scale", "0.1"]

NONZERO = {
    "ff_curves": ["ffield.group_structure.calls", "ffield.count_points.ext.self_s",
                  "bundles.strata_census.self_s", "bundles.mass_recursion_beta.calls",
                  "exact.Series.exp.calls", "exact.Series.log.calls",
                  "exact.Series.inverse.calls", "artin.reciprocity_check.self_s",
                  "nazeta.ell_na_zeta.self_s", "nazeta.na_counts.self_s",
                  "nazeta.allbundles_rank2.self_s",
                  "explicit.ff_explicit_formula_check.self_s",
                  "explicit.ff_positivity.self_s", "explicit.ff_hodge_defect.self_s",
                  "cli.main.self_s"],
    "euler": ["nazeta.ap_fast.calls", "nazeta.global_na_zeta_partial.self_s",
              "bundles.mass_recursion_beta.calls", "cli.main.self_s"],
    "q_lattice": ["lattice.shortest_vector.calls", "lattice.is_semistable.calls",
                  "lattice.hn_filtration.calls", "lattice.dual.calls",
                  "lattice.theta_h0.calls", "lattice.xi_q.calls",
                  "lattice.hn_filtration.low_skew.self_s",
                  "lattice.hn_filtration.skewed.self_s",
                  "explicit.global_pairing.self_s",
                  "explicit.riemann_weil_residual.self_s", "cli.main.self_s"],
}
ZERO = {
    "ff_curves": ["nazeta.ap_fast.calls"],
    "euler": ["ffield.group_structure.calls"],
}


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result_line(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        untraced = result_line(run(RUN + ["--workload", workload, "--trace", "0"]))
        assert untraced["failed"] == 0, f"{workload}: {untraced['failed']} failed"
        metrics = untraced["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == e2e, metrics.keys()
        assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in metrics.values())
        traced = result_line(run(RUN + ["--workload", workload, "--trace", "1"]))
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
        missing = [k for k in NONZERO[workload] if not values[k] > 0]
        assert not missing, f"{workload}: zero {missing}"
        assert all(values[k] == 0 for k in ZERO.get(workload, ())), workload
        assert traced["failed"] == 0, f"{workload} traced: {traced['failed']} failed"
        print(f"{workload}: ok ({untraced['attempted']} + {traced['attempted']} executions)")
    high = result_line(run(RUN + ["--workload", "xi_high", "--trace", "0"]))
    print(f"xi_high: ok ({high['failed']} of {high['attempted']} executions fail as "
          f"the known defect)")

    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bench["command"][1:] + ["--workload", bench["workloads"][0]["name"],
                                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
        print("bare directory: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
