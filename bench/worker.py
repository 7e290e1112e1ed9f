"""Worker process of the benchmark: runs `dhlab.cli.main(argv)` in-process.

Started by run.py, one worker per run, so its peak RSS belongs to one
workload.  It reads one JSON request per line on stdin and answers with one
JSON line on the protocol pipe (the original stdout; the process's own
stdout is pointed at stderr so nothing the program prints can corrupt the
protocol).

    {"op": "call", "argv": [...], "trace": false}
        -> {"rc": 0, "wall_s": 3.41, "error": null, "trace": {...} or null}
    {"op": "finish", "spans_path": "... or null"}
        -> {"peak_rss_kb": 155000, "meta": {...}, "spans": 72397}

Before every call the worker empties dhlab's functools caches, so no call
reuses what an earlier one computed.

`python3 worker.py --probe-import SRC` instead times one `import dhlab.cli`
in this fresh process and prints the seconds it took; run.py uses it for
`setup_s`.  The module imports nothing heavy at top level, so the timed
import pays for numpy and scipy itself.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _import_dhlab(src: str):
    sys.path.insert(0, src)
    started = time.perf_counter()
    import dhlab.cli

    elapsed = time.perf_counter() - started
    origin = os.path.realpath(dhlab.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"dhlab was imported from {origin}, not from {src}")
    return dhlab.cli, elapsed


def _metadata() -> dict:
    import platform

    import numpy
    import scipy

    import dhlab

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "dhlab": getattr(dhlab, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None},
    }


def _clear_caches() -> None:
    """Empty every functools cache defined in dhlab (today fock's
    `_annihilator_matrix`), so each call starts as cold as a one-shot CLI
    invocation and pays the fill itself."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "dhlab" or name.startswith("dhlab.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", None) == name:
                value.cache_clear()


def _call(cli, tracer, argv: list[str], traced: bool) -> dict:
    _clear_caches()
    first = len(tracer) if traced else 0
    cache_before = tracer.cache_info() if traced else None
    if traced:
        tracer.install()
    rc, error = None, None
    started = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark counts the call as failed and goes on
        error = traceback.format_exc()
        sys.stderr.write(error)
    wall = time.perf_counter() - started
    summary = None
    if traced:
        tracer.uninstall()
        summary = tracer.summarize(first)
        hits, misses = tracer.cache_info()
        summary["annihilator_cache"] = {"hits": hits - cache_before[0],
                                        "misses": misses - cache_before[1]}
    return {"rc": rc, "wall_s": wall, "error": error, "trace": summary}


def serve(src: str) -> int:
    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    cli, _ = _import_dhlab(src)
    from spans import Tracer

    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "call":
            reply = _call(cli, tracer, request["argv"], request["trace"])
        elif request["op"] == "finish":
            if request.get("spans_path"):
                tracer.dump(request["spans_path"])
            reply = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "meta": _metadata(), "spans": len(tracer)}
        else:
            raise ValueError(f"unknown request {request['op']!r}")
        protocol.write(json.dumps(reply) + "\n")
        protocol.flush()
        if request["op"] == "finish":
            break
    protocol.close()
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--probe-import":
        _, seconds = _import_dhlab(sys.argv[2])
        print(repr(seconds))
        sys.exit(0)
    if len(sys.argv) == 2:
        sys.exit(serve(sys.argv[1]))
    sys.exit("usage: worker.py SRC | worker.py --probe-import SRC")
