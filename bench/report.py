"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/report.py                          # all workloads, seed 0
    python3 bench/report.py --seeds 0-9 --json bench/out/summary.json
    python3 bench/report.py --workloads locality-probe --seeds 0-4 --trace 1

Each run is a separate `bench/run.py` process (one workload per process),
measuring for BENCHMARK.json's run_seconds.
For every workload the table gives each metric's median and quartiles over
the runs, and for end-to-end metrics the spread (q3 - q1) / median next to
a third of the metric's bound from BENCHMARK.json.  The error_rate column
is failed / attempted over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# run metadata that differs from run to run
PER_RUN = ("wall_samples", "tail_percentile", "tail_beyond", "wall_tail_s",
           "raw_wall_p50_s", "frozen_wall_p50_s", "raw_setup_s", "frozen_setup_s")


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_path = os.path.join(BENCH, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail_path) as fh:
        result["meta"] = json.load(fh)["meta"]
    return result


def summarise(results: list[dict], bounds: dict) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else (values[0],) * 3)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                 "q1": q1, "q3": q3, "values": values}
        if name in bounds:
            entry["spread"] = (q3 - q1) / median if median else 0.0
            entry["bound"] = bounds[name]
        summary[name] = entry
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary["error_rate"] = {"unit": "1", "median": failed / attempted,
                             "failed": failed, "attempted": attempted}
    return summary


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="PATH", help="also write the summary here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, seconds, args.trace)
            meta = result["meta"]
            shown = ("wall_p50_s", "setup_s", "peak_rss_mb", "trace.wall_p50_s")
            values = " ".join(f"{k}={result['metrics'][k]['value']:.4f}"
                              for k in shown if k in result["metrics"])
            raw = " ".join(f"{k}={meta[k]:.4f}" for k in PER_RUN[3:] if k in meta)
            print(f"{workload} seed={seed} n={meta['wall_samples']} "
                  f"failed={result['failed']}/{result['attempted']} {values} {raw}", flush=True)
            results.append(result)
        summary = summarise(results, bounds)
        print(f"== {workload}: {len(results)} runs of {seconds} s, trace {args.trace}")
        for name, entry in summary.items():
            if name == "error_rate":
                print(f"   {name:40s} {entry['median']:.4g} "
                      f"({entry['failed']}/{entry['attempted']} calls)")
                continue
            line = (f"   {name:40s} {entry['median']:.6g} {entry['unit']}  "
                    f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]")
            if "spread" in entry:
                line += (f"  spread {entry['spread']:.4f} (bound/3 "
                         f"{entry['bound'] / 3:.4f})")
            print(line, flush=True)
        report["workloads"][workload] = {
            "summary": summary,
            "meta": {k: v for k, v in results[-1]["meta"].items()
                     if k not in PER_RUN + ("seed", "setup_pairs_s", "error_rate", "spans")},
            "runs": [{"seed": r["meta"]["seed"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      **{k: r["meta"][k] for k in PER_RUN if k in r["meta"]}}
                     for r in results],
        }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
