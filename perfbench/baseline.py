"""Repeat the benchmark over seeds and record a baseline.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json it makes one run per seed 1-10 with
tracing off, then one traced run at seed 1, all with its ``run_seconds``.
It writes every run's metrics to ``perfbench/baseline.json`` with, for each
end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and says whether each spread is within the metric's bound and within a
third of it.  It exits 1 if any spread is not within a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
OUT = ROOT / "perfbench" / "baseline.json"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench-out" / f"run-{workload}-seed{seed}-trace{trace}.json").read_text())
    result["environment"] = record["environment"]
    result["pass_starts"] = [p["started"] for p in record["passes"]]
    return result


def summary(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "within_bound": spread <= bound, "within_third": spread <= bound / 3}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"started": datetime.now(timezone.utc).isoformat(), "run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = [one_run(name, s, bench["run_seconds"], 0) for s in SEEDS]
        metrics = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            metrics[m["name"]] = dict(summary(values, m["bound"]), unit=m["unit"], values=values)
            ok = metrics[m["name"]]["within_third"]
            steady &= ok
            print(f"{name:9s} {m['name']:13s} median {metrics[m['name']]['median']:.6g} "
                  f"spread {metrics[m['name']]['spread']:.4f} (bound {m['bound']}){'' if ok else '  NOT STEADY'}", flush=True)
        traced = one_run(name, SEEDS[0], bench["run_seconds"], 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "environment": runs[0]["environment"],
        }
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
