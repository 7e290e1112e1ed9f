"""dhlab benchmark: closed-loop calls of the public CLI entry point.

    python3 bench/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are resolved from
this file).  One client and one program worker process per run: the
worker imports `dhlab.cli` from ../src and calls `main(argv)` in-process;
each call waits for the previous one and for the check of its output.
BLAS runs on one thread (at most nproc).

--trace 0 reports the end-to-end metrics (wall_p50_s, setup_s,
peak_rss_mb; wall_tail_s is printed but not reported, see README.md).  The
host's speed drifts by tens of percent within minutes, so every timed call
is paired with the same call on a frozen copy of dhlab (frozen/dhlab, the
sources the benchmark was defined on) in a second worker, right before or
right after it, the order alternating.  A call's time is its wall time
divided by its pair's, times the workload's `reference_s` (a frozen-copy
call time measured on the baseline machine): it reads as seconds at that
machine's speed, and host drift cancels.  setup_s pairs fresh imports the
same way.  Raw wall times are printed and kept in the detail
file.  --trace 1 alternates untraced and traced calls and reports the
per-layer metrics from spans recorded by spans.py, plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A detail file
with metadata and every sample goes to bench/out/.

Exits 1 without a result when the program cannot be imported or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from spans import HOT_FUNCTIONS, LAYERS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(BENCH, "frozen")
OUT = os.path.join(BENCH, "out")
WORKER = os.path.join(BENCH, "worker.py")

SETUP_PAIRS = 5
# A frozen-copy `import dhlab.cli` time measured on the baseline machine.
SETUP_REFERENCE_S = 0.45
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0  # the worker is killed if the run is still going then


class BenchError(Exception):
    """The program could not be imported or run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on a shared 2-core machine a second thread made calls
    # slower and far noisier whenever another process held a core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _probe_import(env: dict, src: str) -> float:
    """Seconds to `import dhlab.cli` from `src` in a fresh process."""
    proc = subprocess.run(
        [sys.executable, WORKER, "--probe-import", src],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import dhlab.cli from {src}:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(program, frozen copy) import times, in pairs of fresh processes
    whose order alternates."""
    pairs = []
    for i in range(SETUP_PAIRS):
        order = (SRC, FROZEN) if i % 2 == 0 else (FROZEN, SRC)
        seconds = {src: _probe_import(env, src) for src in order}
        pairs.append((seconds[SRC], seconds[FROZEN]))
    return pairs


class Worker:
    """The worker process and the line protocol to it."""

    def __init__(self, env: dict, src: str):
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, src], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def request(self, **request) -> dict:
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"worker exited with code {self.proc.wait()}") from None
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """End of input stops the worker; kill it if it does not stop."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest order statistic
    with at least TAIL_BEYOND samples above it.  With fewer than
    TAIL_BEYOND + 1 samples that is the minimum, with fewer beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    percentile = 100.0 * k / (n - 1) if n > 1 else 0.0
    return ordered[k], percentile, n - 1 - k


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dhlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _attempt(worker: Worker, workload, call, out: str, traced: bool) -> tuple[dict, str | None]:
    """One call and the check of its output: (reply, None or why it failed)."""
    if os.path.exists(out):
        os.remove(out)
    reply = worker.request(op="call", argv=call.argv, trace=traced)
    if reply["error"] is not None:
        return reply, "raised: " + reply["error"].strip().splitlines()[-1]
    try:
        return reply, workload.check(reply["rc"], out, call.params)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return reply, f"unreadable output: {exc!r}"


def _reference_call(frozen: Worker, workload, call, out: str) -> float:
    reply, reason = _attempt(frozen, workload, call, out, False)
    if reason is not None:
        raise BenchError(f"the frozen copy failed {call.argv}: {reason}")
    return reply["wall_s"]


def run_calls(worker: Worker, workload, seed: int, seconds: float, trace: bool,
              workdir: str, frozen: Worker | None = None) -> list[dict]:
    """The closed loop: calls start until `seconds` have passed (in trace
    mode, also until one untraced and one traced call are done).  With a
    `frozen` worker, each call is paired with the same call on the frozen
    copy, which runs first on even calls and second on odd ones."""
    rng = random.Random(seed)
    out = os.path.join(workdir, "output")
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline or (trace and len(samples) < 2):
        traced = trace and len(samples) % 2 == 1
        call = workload.make_call(rng, workdir, out)
        frozen_first = frozen is not None and len(samples) % 2 == 0
        ref_wall = _reference_call(frozen, workload, call, out) if frozen_first else None
        reply, reason = _attempt(worker, workload, call, out, traced)
        if frozen is not None and not frozen_first:
            ref_wall = _reference_call(frozen, workload, call, out)
        sample = {"wall_s": reply["wall_s"], "traced": traced, "ok": reason is None,
                  "reason": reason, "argv": call.argv, "trace": reply["trace"]}
        if ref_wall is not None:
            sample["frozen_wall_s"] = ref_wall
            sample["norm_s"] = reply["wall_s"] / ref_wall * workload.reference_s
        samples.append(sample)
    return samples


def end_to_end_metrics(norms: list[float], setup: list[tuple[float, float]],
                       peak_rss_kb: int) -> dict:
    setup_s = statistics.median(own / frozen for own, frozen in setup) * SETUP_REFERENCE_S
    return {
        "wall_p50_s": {"value": statistics.median(norms), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
    }


def per_layer_metrics(samples: list[dict]) -> dict:
    """Medians over the traced calls of each call's span figures."""
    traced = [s for s in samples if s["traced"] and s["ok"]]
    untraced = [s["wall_s"] for s in samples if not s["traced"] and s["ok"]]
    summaries = [s["trace"] for s in traced]
    metrics: dict = {}

    def put(name, values, unit):
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.calls", [t["layers"][layer]["calls"] for t in summaries], "count")
        put(f"{layer}.self_s", [t["layers"][layer]["self_s"] for t in summaries], "s")
        put(f"{layer}.errors", [t["layers"][layer]["errors"] for t in summaries], "count")
    for fn in HOT_FUNCTIONS:
        put(f"{fn}.calls", [t["functions"][fn]["calls"] for t in summaries], "count")
        put(f"{fn}.self_s", [t["functions"][fn]["self_s"] for t in summaries], "s")
    put("fock.matrix_exponential.max_dim",
        [t["matrix_exponential_max_dim"] for t in summaries], "dim")
    put("dhrep.build_entangled_transform.nnz",
        [t["entangled_transform_nnz"] for t in summaries], "count")
    hits = sum(t["annihilator_cache"]["hits"] for t in summaries)
    lookups = sum(t["annihilator_cache"]["hits"] + t["annihilator_cache"]["misses"]
                  for t in summaries)
    metrics["fock.annihilator_cache.hit_ratio"] = {
        "value": hits / lookups if lookups else 1.0, "unit": "ratio"}
    put("fock.annihilator_cache.lookups",
        [t["annihilator_cache"]["hits"] + t["annihilator_cache"]["misses"] for t in summaries],
        "count")
    traced_p50 = statistics.median(s["wall_s"] for s in traced)
    untraced_p50 = statistics.median(untraced)
    metrics["trace.wall_p50_s"] = {"value": traced_p50, "unit": "s"}
    metrics["trace.untraced_wall_p50_s"] = {"value": untraced_p50, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_p50 - untraced_p50, "unit": "s"}
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    for src in (SRC, FROZEN):
        if not os.path.isfile(os.path.join(src, "dhlab", "cli.py")):
            raise BenchError(f"no dhlab sources under {src}")
    workload = WORKLOADS[workload_name]
    env = _worker_env()
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload_name}-seed{seed}-trace{int(trace)}")
    setup = [] if trace else measure_setup(env)
    workdir = tempfile.mkdtemp(prefix="calls-", dir=OUT)
    workers: list[Worker] = []

    def kill_workers() -> None:
        for worker in workers:
            worker.proc.kill()

    watchdog = threading.Timer(max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)),
                               kill_workers)
    watchdog.start()
    try:
        workers.append(Worker(env, SRC))
        if not trace:
            workers.append(Worker(env, FROZEN))
        for worker in workers:
            warm = worker.request(op="call", trace=False,
                                  argv=["qubit", "--out", os.path.join(workdir, "warm")])
            if warm["rc"] != 0:
                raise BenchError(f"warm-up call failed: {warm}")
        frozen = None if trace else workers[1]
        samples = run_calls(workers[0], workload, seed, seconds, trace, workdir, frozen)
        finish = workers[0].request(op="finish", spans_path=stem + ".spans" if trace else None)
    finally:
        watchdog.cancel()
        for worker in workers:
            worker.close()
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [s for s in samples if s["ok"] and not s["traced"]]
    if not timed:
        raise BenchError("no call succeeded: " + "; ".join(str(s["reason"]) for s in samples))
    failed = sum(not s["ok"] for s in samples)
    if trace:
        metrics = per_layer_metrics(samples)
    else:
        norms = [s["norm_s"] for s in timed]
        metrics = end_to_end_metrics(norms, setup, finish["peak_rss_kb"])
    meta = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "src_sha256": _source_digest(),
        "registry_modes": list(workload.registry_modes),
        "registry_dimensions": [2**m for m in workload.registry_modes],
        "traced_dimensions": sorted({d for s in samples if s["trace"]
                                     for d in s["trace"]["dimensions"]}),
        "wall_samples": len(timed),
        "raw_wall_p50_s": statistics.median(s["wall_s"] for s in timed),
        "error_rate": failed / len(samples),
        "spans": finish["spans"],
        **finish["meta"],
    }
    if not trace:
        tail_s, tail_pct, tail_beyond = tail(norms)
        meta.update({
            "wall_tail_s": tail_s, "tail_percentile": tail_pct, "tail_beyond": tail_beyond,
            "frozen_wall_p50_s": statistics.median(s["frozen_wall_s"] for s in timed),
            "reference_s": workload.reference_s,
            "setup_pairs_s": setup,
            "raw_setup_s": statistics.median(own for own, _ in setup),
            "frozen_setup_s": statistics.median(frozen for _, frozen in setup),
            "setup_reference_s": SETUP_REFERENCE_S,
        })
    detail = {"meta": meta, "metrics": metrics,
              "samples": [{k: v for k, v in s.items() if k != "trace"} for s in samples]}
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics, "meta": meta}


def print_summary(result: dict) -> None:
    meta = result["meta"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"dhlab={meta['dhlab']} python={meta['python']} numpy={meta['numpy']} "
          f"scipy={meta['scipy']} blas={meta['blas']['name']}-{meta['blas']['version']}"
          f"x{meta['blas']['threads']} nproc={meta['nproc']} commit={meta['git_commit']}")
    print(f"# registries: modes {meta['registry_modes']} "
          f"dimensions {meta['registry_dimensions']}")
    if not meta["trace"]:
        m = result["metrics"]
        print(f"wall_p50_s   {m['wall_p50_s']['value']:.4f} s   (n={meta['wall_samples']}; raw "
              f"{meta['raw_wall_p50_s']:.4f} s, frozen copy {meta['frozen_wall_p50_s']:.4f} s, "
              f"reference {meta['reference_s']} s)")
        print(f"wall_tail_s  {meta['wall_tail_s']:.4f} s   "
              f"(p{meta['tail_percentile']:.1f}, {meta['tail_beyond']} samples beyond, "
              f"n={meta['wall_samples']})")
        print(f"setup_s      {m['setup_s']['value']:.4f} s   "
              f"({len(meta['setup_pairs_s'])} pairs of fresh imports; raw "
              f"{meta['raw_setup_s']:.4f} s, frozen copy {meta['frozen_setup_s']:.4f} s, "
              f"reference {meta['setup_reference_s']} s)")
        print(f"peak_rss_mb  {m['peak_rss_mb']['value']:.1f} MB")
    else:
        for name, metric in result["metrics"].items():
            print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate   {result['failed']}/{result['attempted']} = "
          f"{meta['error_rate']:g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
