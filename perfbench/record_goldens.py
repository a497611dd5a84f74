"""Record perfbench/goldens.json: the golden result of every job a seed can
draw from the fixed pools, and of every unskewed base lattice.

Run from the repository root:  python3 perfbench/record_goldens.py

Goldens pin the outputs of the commit they are recorded at.  Re-recording
them accepts whatever the current code prints, so do it only for an
intended output change, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

import checks
import jobs as jobmod
from run import ROOT, run_job


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    goldens = {}
    t0 = time.perf_counter()
    pool = jobmod.pool_jobs()
    for i, job in enumerate(pool):
        rc, out, err = run_job(job)
        if rc != 0:
            sys.stderr.write(f"{job.key}: exit {rc}\n{err}")
            return 1
        result = json.loads(out)["result"]
        entry = checks.summarize(result)
        if job.command == "theta":
            entry["tails"] = result["certified_tails"]
        goldens[jobmod.golden_key(job)] = entry
        if i % 50 == 0:
            print(f"{i}/{len(pool)}  {time.perf_counter() - t0:.0f} s", flush=True)
    with open(checks.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"pool_seed": jobmod.POOL_SEED, "jobs": goldens}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(goldens)} goldens in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
