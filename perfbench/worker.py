"""Run one pass of CLI jobs in a fresh interpreter.

Usage: ``python3 worker.py SPAWN_TIME SRC_DIR [SPANS_FILE]`` with a JSON list
of argv lists on stdin.  ``SPAWN_TIME`` is the parent's ``time.monotonic()``
just before it started this process, so the reported set-up time covers
interpreter start-up and ``import qhsplit.cli``.  With ``SPANS_FILE`` the
layers are traced (see ``tracer.py``).  Prints one JSON object on stdout.

Before each job and after the last one the worker times ``reference_kernel``,
a fixed piece of pure-Python work that does not touch the library, and
reports the mean kernel time as ``ref_s``: how fast the host ran during the
pass.
"""

import contextlib
import gc
import importlib
import io
import json
import resource
import sys
import time
from fractions import Fraction


def reference_kernel() -> None:
    """Repeated products of sparse polynomials with ``Fraction`` coefficients.

    The same mix of work as the library's scalar layers (small dicts keyed by
    tuples, rational arithmetic, sorting); about 5 ms on a 2-core Xeon VM.
    """
    a = {(i, i % 3): Fraction(i + 1, 2 * i + 3) for i in range(12)}
    b = {(i, (i + 1) % 3): Fraction(3 * i + 1, i + 2) for i in range(12)}
    for _ in range(6):
        c: dict = {}
        for (ea, za), ca in a.items():
            for (eb, zb), cb in b.items():
                key = (ea + eb, (za + zb) % 3)
                c[key] = c.get(key, 0) + ca * cb
        a = dict(sorted(c.items())[:12])


def time_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def run_jobs(cli, argvs, tracer=None) -> tuple[list[dict], float]:
    """Run the jobs; returns their results and the mean reference-kernel time."""
    results = []
    kernel = []
    for index, argv in enumerate(argvs):
        gc.collect()  # no job, and no kernel, pays for the garbage of the job before it
        kernel.append(time_kernel())
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.trace_id = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code
        except Exception as exc:  # a crashing job fails alone; the pass goes on
            rc = None
            err.write(repr(exc))
        seconds = time.perf_counter() - start
        results.append({"rc": rc, "seconds": seconds,
                        "out": out.getvalue(), "err": err.getvalue()})
    gc.collect()
    kernel.append(time_kernel())
    return results, sum(kernel) / len(kernel)


def main() -> None:
    spawn_time = float(sys.argv[1])
    sys.path.insert(0, sys.argv[2])
    cli = importlib.import_module("qhsplit.cli")
    setup_s = time.monotonic() - spawn_time

    argvs = json.load(sys.stdin)
    tracer = None
    if len(sys.argv) > 3:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results, ref_s = run_jobs(cli, argvs, tracer)
    payload = {
        "setup_s": setup_s,
        "ref_s": ref_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
    }
    if tracer is not None:
        tracer.write_spans(sys.argv[3])
        payload["counters"] = tracer.counters()
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
