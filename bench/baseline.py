#!/usr/bin/env python3
"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/baseline.py --workloads verify region-map general-auction \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace-seed 7] [--out FILE]

Runs every workload once per seed with tracing off, and, with --trace-seed,
once more traced at that seed. For each end-to-end metric it reports the
median, the quartiles and the spread, (q3 - q1) / median, which
BENCHMARK.json's bound for the metric must exceed; --out writes the whole
summary, including each run's detail record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    completed = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


# Figures ROADMAP.md measured by hand with time.perf_counter, before this
# harness existed. The general-auction instances here are drawn
# differently (bundles of 2-4 goods), so the coalition-table times need not agree.
ROADMAP_FIGURES = {
    "run_all_1000_s": 3.0,
    "coalition_value_table_n8_s": 0.022,
    "coalition_value_table_n10_s": 0.124,
    "coalition_value_table_n12_s": 0.670,
}


def roadmap_comparison(workloads: dict) -> dict:
    """This run's counterparts of the ROADMAP figures, with the gap as a share of them."""
    measured = {}
    if "verify" in workloads:
        measured["run_all_1000_s"] = workloads["verify"]["end_to_end"]["wall_s"]["median"]
    traced = workloads.get("general-auction", {}).get("traced")
    if traced:
        for n in (8, 10, 12):
            measured[f"coalition_value_table_n{n}_s"] = traced["per_layer"][
                f"model.coalition_value_table.self_s_per_call.n{n}"
            ]
    return {
        name: {"roadmap": ROADMAP_FIGURES[name], "measured": value,
               "gap": (value - ROADMAP_FIGURES[name]) / ROADMAP_FIGURES[name]}
        for name, value in measured.items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    summary: dict = {"run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        entry: dict = {
            "correct": all(result["correct"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "end_to_end": {},
            "runs": [detail for detail, _ in runs],
        }
        for name, bound in bounds.items():
            stats = summarise([result["metrics"][name]["value"] for _, result in runs])
            entry["end_to_end"][name] = stats
            within = name == "setup_s" or stats["spread"] < bound / 3
            steady = steady and within
            print(f"{workload:16} {name:12} median {stats['median']:.4f} spread {stats['spread']:.3f}"
                  f" bound {bound} {'ok' if within else 'WIDE'}", flush=True)
        if args.trace_seed is not None:
            detail, result = run_once(workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"], "detail": detail,
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        summary["workloads"][workload] = entry
    summary["roadmap_comparison"] = roadmap_comparison(summary["workloads"])
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
