"""Run bench/run.py once per (workload, seed), each in a fresh process, and
summarise every metric over the seeds: median, quartiles and the spread
(q3 - q1) / median that BENCHMARK.json's bounds are judged against.

    python3 bench/repeat.py --seeds 1-10 --seconds 35 --out results.json
    python3 bench/repeat.py --workloads cli_queries --seeds 1-5 --trace 1

Run from the repository root.  Exits non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("oracle_sweep", "cli_queries", "linkage_boxes")


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", help="a seed or an inclusive range like 1-10")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    failed = False
    results = {}
    for name in args.workloads:
        per_metric: dict[str, list[float]] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not res.get("correct"):
                failed = True
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            for metric, v in res["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in res["metrics"].items() if not args.trace
            ), flush=True)
        results[name] = {m: summarise(v) for m, v in per_metric.items()}
        for m, s in results[name].items():
            print(f"  {name:14s} {m:42s} median {s['median']:.6g}  spread {s['spread']:.3f}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
