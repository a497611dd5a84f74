"""zetalab benchmark: seeded job lists run in one process, closed loop, one client.

Run one workload from the repository root; the last line of stdout is the
JSON result:

    python3 perfbench/run.py --workload ff_curves --seed 1 --seconds 30 --trace 0

--trace 0 runs the workload's job list with tracing off, repeating the
whole list while another pass fits in --seconds, and reports the
end-to-end metrics from each job's median time over the passes.  Times are
in reference seconds (see speed.py): each is scaled by the speed of a fixed
probe timed between jobs, which takes out the drift of a shared host's CPU
speed.  --trace 1 runs the list untraced and traced in turn, at least twice
each and while another pair fits in --seconds, and reports the per-layer
metrics per pass and the tracing overhead.  Every job's output is checked
either way.

Steadiness: run each workload --repeat times on consecutive seeds, each in a
fresh process, and print every end-to-end metric's median and quartiles:

    python3 perfbench/run.py --workload all --seed 1 --repeat 10
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import jobs as jobmod
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
SETUP_CODE = "import zetalab.cli as cli; cli.build_parser()"
TAIL_BEYOND = 10   # job_tail_ms: the highest per-job time with this many jobs beyond it
TRACE_ROUNDS = 2   # a traced run makes at least this many (untraced, traced) pairs of passes
RUN_TIMEOUT_S = 900


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median time, in reference seconds, from a fresh interpreter to
    zetalab.cli imported and its parser built (numpy, scipy and mpmath
    imports included)."""
    env = _src_env()
    spans, probes = [], [speed.probe()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        spans.append((t0, time.perf_counter()))
        probes.append(speed.probe())
    return statistics.median(speed.reference_times(spans, probes))


def run_job(job) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one job.  Functions are looked up on
    their modules at call time, so a traced run goes through the wrappers."""
    import zetalab.cli
    import zetalab.ffield as ffield
    try:
        if job.library:
            p, a, b, ext = (int(x) for x in job.argv[1:])
            curve = ffield.WeierstrassCurve(ffield.FieldSpec(p), a, b)
            return 0, str(ffield.count_points(curve, ext)), ""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = zetalab.cli.main(list(job.argv))
        return rc, out.getvalue(), err.getvalue()
    except Exception:   # a crashing job is a failed job; the run goes on
        return -1, "", traceback.format_exc()


def run_pass(job_list, tracer=None, sensitivity: float = 1.0) -> dict:
    """One pass over the list.  `times` are the jobs' reference seconds, the
    probe being timed between consecutive jobs; `wall` is the pass's
    elapsed time, probes included."""
    spans, probes, results = [], [speed.probe()], []
    start = time.perf_counter()
    for job in job_list:
        root = tracer.open_job(job.band) if tracer else None
        t0 = time.perf_counter()
        results.append(run_job(job))
        spans.append((t0, time.perf_counter()))
        if tracer:
            tracer.close(root)
        probes.append(speed.probe())
    return {"wall": time.perf_counter() - start,
            "times": speed.reference_times(spans, probes, sensitivity),
            "results": results, "probe_s": statistics.median(s for _, s in probes)}


def _quantile_tail(times: list[float]) -> float:
    ordered = sorted(times)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def check_passes(job_list, passes) -> tuple[int, int, list[tuple]]:
    """(attempted, failed, failures) over every execution.  The first pass
    is checked; a later execution must reproduce its bytes."""
    checker = checks.Checker(checks.load_goldens())
    attempted = failed = 0
    failures = []
    for i, job in enumerate(job_list):
        rc, out, err = passes[0]["results"][i]
        reasons = checker.check(job, rc, out)
        if rc != 0 and err:
            reasons.append(err.strip().splitlines()[-1])
        known = checks.known_defect(job)
        for n, other in enumerate(passes):
            attempted += 1
            if n and other["results"][i][:2] != (rc, out):
                failed += 1
                failures.append((job, [f"pass {n} output differs from pass 0"], None))
            elif reasons:
                failed += 1
                if n == 0:
                    failures.append((job, reasons, known))
    return attempted, failed, failures


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    setup_s = None if trace else measure_setup()
    import zetalab.cli  # noqa: F401  (loads every zetalab module)

    job_list = jobmod.build(workload, seed, scale)
    for argv in jobmod.WARMUP[workload]:
        run_job(jobmod.Job(argv, "warmup"))

    passes = []
    sensitivity = jobmod.SPEED_SENSITIVITY.get(workload, 1.0)
    if trace:
        # untraced and traced passes alternate; per-layer figures are per pass
        tracer = tracing.Tracer()
        start = time.perf_counter()
        while True:
            passes.append(run_pass(job_list, sensitivity=sensitivity))
            tracer.install()
            try:
                passes.append(run_pass(job_list, tracer, sensitivity))
            finally:
                tracer.uninstall()
            pair = passes[-2]["wall"] + passes[-1]["wall"]
            if (len(passes) >= 2 * TRACE_ROUNDS
                    and time.perf_counter() - start + pair > seconds):
                break
    else:
        start = time.perf_counter()
        while True:
            passes.append(run_pass(job_list, sensitivity=sensitivity))
            if time.perf_counter() - start + passes[-1]["wall"] > seconds:
                break
    attempted, failed, failures = check_passes(job_list, passes)
    unknown = [f for f in failures if f[2] is None]

    n = len(job_list)

    def per_job(of_passes):
        # a job's time is its median over the passes, in reference seconds;
        # the median is not moved by a pass in which the job was preempted
        return [statistics.median(p["times"][i] for p in of_passes) for i in range(n)]

    if trace:
        values = {k: v / (len(passes) // 2) for k, v in tracer.per_layer().items()}
        values["trace_overhead_frac"] = (math.fsum(per_job(passes[1::2]))
                                         / math.fsum(per_job(passes[0::2])) - 1)
        units = dict(tracing.metric_names())
    else:
        job_s = per_job(passes)
        values = {
            "setup_s": setup_s,
            "wall_s": math.fsum(job_s),
            "job_p50_ms": 1000 * statistics.median(job_s),
            "job_tail_ms": 1000 * _quantile_tail(job_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                 "job_tail_ms": "ms", "peak_rss_mb": "MB"}

    tail_rank = min(n, TAIL_BEYOND + 1)
    print(f"workload {workload}  seed {seed}  jobs {n}  passes {len(passes)}"
          f"{'  (untraced, traced)' if trace else ''}  elapsed per pass "
          + " ".join(f"{p['wall']:.2f}" for p in passes) + " s")
    print(f"times in reference seconds (probe {1000 * speed.PROBE_REF_S:g} ms, sensitivity "
          f"{sensitivity:g}); probe median per pass "
          + " ".join(f"{1000 * p['probe_s']:.3f}" for p in passes) + " ms")
    if not trace:
        print(f"job_tail_ms is the {tail_rank}th-slowest job of {n} "
              f"(percentile {100 * (n - tail_rank) / max(1, n - 1):.1f})")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} executions)")
    for job, why, known in failures:
        tag = "known defect" if known else "FAILED"
        print(f"  [{tag}] {job.key}\n      {'; '.join(why)}")
        if known:
            print(f"      ({known})")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": not unknown, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# steadiness

def _one_run(workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def steadiness(workloads, seed: int, repeat: int, seconds: float, scale: float,
               out: str | None) -> int:
    """Run each workload `repeat` times on consecutive seeds and report each
    end-to-end metric's median, quartiles and spread (q3 - q1) / median.
    The bound a metric needs is at least its spread, and three times it for
    a comfortable margin.  With `out`, also make one traced run per workload
    and write everything as one trajectory point."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    record = {"seconds": seconds, "repeat": repeat, "workloads": {}}
    for workload in workloads:
        seeds = list(range(seed, seed + repeat))
        runs = []
        print(f"== {workload}: {repeat} runs, seeds {seeds[0]}..{seeds[-1]}")
        for s in seeds:
            result = _one_run(workload, s, seconds, 0, scale)
            runs.append(result)
            status |= not result["correct"]
            print(f"  seed {s}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}"
              f"{'bound':>8}  verdict")
        stats = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            verdict = ("repeats within a tenth" if spread <= 0.1
                       else "does NOT repeat within a tenth")
            if bound is not None:
                verdict += ("; below a third of its bound" if spread < bound / 3 else
                            "; within its bound" if spread <= bound else
                            "; WIDER than its bound")
            print(f"  {name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                  f"{bound if bound is not None else '-':>8}  {verdict}")
        entry = {"seeds": seeds, "failed": [r["failed"] for r in runs],
                 "attempted": [r["attempted"] for r in runs], "end_to_end": stats}
        if out:
            traced = _one_run(workload, seed, seconds, 1, scale)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=jobmod.WORKLOADS + jobmod.EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="job-list size factor (the smoke test uses small lists)")
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per workload, one seed each")
    parser.add_argument("--out", default=None,
                        help="steadiness mode: write the runs and one traced run per "
                             "workload to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zetalab" / "cli.py").is_file():
        sys.stderr.write(f"zetalab sources not found under {ROOT / 'src'}\n")
        return 2
    os.chdir(ROOT)
    workloads = jobmod.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat:
        return steadiness(workloads, args.seed, args.repeat, args.seconds, args.scale,
                          args.out)
    if len(workloads) > 1:
        parser.error("--workload all needs --repeat")
    return run_workload(workloads[0], args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
