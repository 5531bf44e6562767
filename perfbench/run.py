"""Benchmark of the qhsplit CLI: one workload, one seed, one closed-loop client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload homology --seed 0 --seconds 30 --trace 0

The parent process generates the workload's job list from the seed, writes the
brane-algebra files it needs, and then runs passes over the job list, one at a
time, each in a fresh worker process (``worker.py``) so that every in-process
cache starts cold, as it does for a user running the CLI.  A job is one
``qhsplit.cli.main(argv)`` call with its output captured and checked.

Times are reported in reference seconds: a time measured in a pass, scaled
by ``REF_S`` over the mean time of the worker's reference kernel in that pass,
so that a host running slower for minutes moves the kernel and the jobs alike
and not the metric.  Per job, the median over passes is kept.

``--trace 0`` runs passes until the next one would overrun ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` alternates plain and traced
passes (``tracer.py``) in the same way, writes the spans to ``perfbench/out/``
and reports the per-layer metrics, each the median over the traced passes.
Every metric is printed with its unit; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# every run, its set-up and its passes end well within 180 s
RUN_LIMIT_S = 170.0

# A time in reference seconds is what it would read on a host on which the
# worker's reference kernel takes REF_S seconds, about its time on a 2-core
# Xeon VM; so reference seconds read close to seconds there.
REF_S = 0.005


def run_pass(argvs: list[list[str]], spans_file: Path | None = None,
             timeout: float = RUN_LIMIT_S, command: list[str] | None = None) -> dict | None:
    """Run the jobs in one fresh worker; ``None`` when the worker failed.

    ``command`` replaces the worker's interpreter and script, for tests.
    """
    argv = (command or [sys.executable, str(WORKER)]) + [repr(time.monotonic()), str(SRC)]
    if spans_file is not None:
        argv.append(str(spans_file))
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(json.dumps(argvs), timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}: {err.strip()[-500:]}", file=sys.stderr)
        return None
    try:
        result = json.loads(out)
    except ValueError:
        print("worker printed no result", file=sys.stderr)
        return None
    if len(result.get("jobs", ())) != len(argvs):
        print("worker returned the wrong number of jobs", file=sys.stderr)
        return None
    return result


def evaluate(jobs: list[workloads.Job], passes: list[dict | None],
             golden: dict[str, str]) -> tuple[int, int]:
    """Check every execution; returns (attempted, failed).

    A job fails on a non-zero exit code, an output that fails its check or
    its recorded digest, bytes that differ from its first passing pass, or a
    worker that died: a failed worker fails every job of its pass.
    """
    attempted = failed = 0
    first: dict[int, str] = {}
    for number, result in enumerate(passes):
        for i, job in enumerate(jobs):
            attempted += 1
            if result is None:
                failed += 1
                continue
            run = result["jobs"][i]
            why = workloads.check_output(job, run["rc"], run["out"], golden)
            if why is None and first.setdefault(i, workloads.digest(run["out"])) \
                    != workloads.digest(run["out"]):
                why = "output bytes differ between passes"
            if why is not None:
                failed += 1
                print(f"pass {number}: {job.key}: {why}", file=sys.stderr)
    return attempted, failed


def _time_left(deadline: float) -> float:
    return max(deadline - time.monotonic(), 1.0)


def run_passes(argvs: list[list[str]], seconds: float,
               spans_files: list[Path | None]) -> list[list[dict | None]]:
    """Run rounds of passes until the next round would overrun ``seconds``.

    A round runs one pass per entry of ``spans_files``: plain for ``None``,
    traced into that file otherwise.  There is at least one round, and a
    failed worker ends the run.  Returns the passes of each entry in order.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rounds = []
    longest = 0.0
    while True:
        round_start = time.monotonic()
        results = [run_pass(argvs, spans_file=f, timeout=_time_left(deadline))
                   for f in spans_files]
        rounds.append(results)
        if None in results:
            break
        longest = max(longest, time.monotonic() - round_start)
        if time.monotonic() - start + longest > seconds:
            break
    return [list(kind) for kind in zip(*rounds)]


def run_workload(workload: str, seed: int, seconds: float, golden: dict[str, str],
                 spans_files: list[Path | None]):
    """Generate a workload's inputs, run its passes and check every output.

    Returns (jobs, passes per entry of ``spans_files``, attempted, failed).
    """
    jobs = workloads.jobs_for(workload, seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        input_dir = Path(tmp)
        workloads.write_algebras(jobs, input_dir)
        argvs = [job.resolved_argv(input_dir) for job in jobs]
        passes = run_passes(argvs, seconds, spans_files)
    attempted, failed = evaluate(jobs, [p for kind in passes for p in kind], golden)
    return jobs, passes, attempted, failed


def reference_times(result: dict) -> list[float]:
    """Each job's time in one pass, in reference seconds."""
    return [run["seconds"] * REF_S / result["ref_s"] for run in result["jobs"]]


def job_medians(passes: list[dict | None]) -> list[float]:
    """Per job, the median over the passing passes of its reference time."""
    good = [reference_times(p) for p in passes if p is not None]
    return [statistics.median(times) for times in zip(*good)] if good else [0.0]


def end_to_end(passes: list[dict | None], attempted: int, failed: int) -> dict:
    good = [p for p in passes if p is not None]
    per_job = job_medians(passes)
    return {
        "pass_s": (sum(per_job), "s"),
        "job_ms.p50": (statistics.median(per_job) * 1000, "ms"),
        "setup_s": (statistics.median(p["setup_s"] * REF_S / p["ref_s"] for p in good)
                    if good else 0.0, "s"),
        "peak_rss_mib": (max((p["rss_mib"] for p in good), default=0.0), "MiB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics of a traced run: name -> (value, unit).

    Counts come from the first traced pass; every traced pass repeats them.
    Self times are in reference seconds, each the median over the traced
    passes.  A ratio is 0 when its base count is 0.
    """
    counters = traced[0]["counters"] if traced else {"calls": {}, "extra": {}}
    calls, extra = counters["calls"], counters["extra"]

    def self_s(name):
        return statistics.median(p["counters"]["self_s"].get(name, 0.0) * REF_S / p["ref_s"]
                                 for p in traced) if traced else 0.0

    def ratio(part, base):
        return part / base if base else 0.0

    metrics: dict[str, tuple] = {}

    def layer(metric, traced_name=None, fields=("calls", "self_s")):
        traced_name = traced_name or metric
        if "calls" in fields:
            metrics[f"{metric}.calls"] = (calls.get(traced_name, 0), "count")
        if "self_s" in fields:
            metrics[f"{metric}.self_s"] = (self_s(traced_name), "s")

    layer("novikov.cyclo_mul")
    layer("novikov.cyclo_add")
    layer("novikov.cyclo_to_order", fields=("calls",))
    layer("novikov.cyclo_inverse", fields=("calls",))
    metrics["novikov.cyclo_mul.mixed_order_ratio"] = (ratio(
        extra.get("novikov.cyclo_mul.mixed_order", 0), calls.get("novikov.cyclo_mul", 0)), "ratio")
    layer("novikov.nov_init")
    layer("novikov.nov_mul")
    layer("novikov.nov_add")
    layer("novikov.nov_invert", fields=("calls",))
    metrics["novikov.nov_mul.monomial_ratio"] = (ratio(
        extra.get("novikov.nov_mul.monomial", 0), calls.get("novikov.nov_mul", 0)), "ratio")

    layer("linalg.row_reduce")
    rows = extra.get("linalg.row_reduce.rows", 0)
    metrics["linalg.row_reduce.rows"] = (rows, "count")
    metrics["linalg.row_reduce.rank_ratio"] = (
        ratio(extra.get("linalg.row_reduce.rank", 0), rows), "ratio")
    metrics["linalg.row_reduce.cutoff_limited"] = (
        extra.get("linalg.row_reduce.cutoff_limited", 0), "count")
    layer("linalg.determinant")
    metrics["linalg.determinant.max_n"] = (extra.get("linalg.determinant.max_n", 0), "rows")
    layer("linalg.gram_matrix")

    layer("hochschild.homology", "hochschild.hochschild_homology_dims")
    layer("hochschild.boundary_basis", "hochschild.hochschild_boundary_basis")
    chains = extra.get("hochschild.chains", 0)
    metrics["hochschild.chains"] = (chains, "count")
    metrics["hochschild.normalized_ratio"] = (
        ratio(extra.get("hochschild.normalized_chains", 0), chains), "ratio")

    layer("ainfty.from_json_dict", fields=("self_s",))
    layer("ainfty.check_ainfty")
    layer("ainfty.unit_violations", fields=("self_s",))

    layer("toric.clifford_algebra")
    layer("toric.critical_points", fields=("self_s",))
    layer("toric.hessian", fields=("self_s",))
    layer("toric.blaschke_enumerate")
    metrics["toric.blaschke_enumerate.classes"] = (
        extra.get("toric.blaschke_enumerate.classes", 0), "count")

    layer("openclosed.oc_matrix", fields=("self_s",))
    layer("openclosed.surjectivity_test")
    layer("blowup.split_report")
    layer("blowup.generation_check", fields=("self_s",))

    layer("trees.enumerate_stable_types")
    types = extra.get("trees.enumerate_stable_types.types", 0)
    metrics["trees.enumerate_stable_types.types"] = (types, "count")
    layer("trees.census_by_dimension", fields=("self_s",))
    layer("trees.canonical_key", fields=("calls",))
    metrics["trees.dedup_ratio"] = (ratio(types, calls.get("trees.candidates", 0)), "ratio")

    metrics["cli.self_s"] = (self_s("cli.main"), "s")
    metrics["cli.out_bytes"] = (sum(len(run["out"].encode("utf-8"))
                                    for run in traced[0]["jobs"]) if traced else 0, "B")
    traced_s = sum(job_medians(traced))
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (ratio(traced_s, sum(job_medians(plain))), "ratio")
    return metrics


def load_golden() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())["sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhsplit" / "cli.py").is_file():
        print(f"error: no qhsplit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    golden = load_golden()
    if args.trace:
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        _, (plain, traced), attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, golden, [None, spans_file])
        metrics = layer_metrics([] if failed else traced, [] if failed else plain)
        print(f"{len(traced)} traced passes; spans of the last in "
              f"{spans_file.relative_to(ROOT)}", file=sys.stderr)
    else:
        jobs, (passes,), attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, golden, [None])
        metrics = end_to_end(passes, attempted, failed)
        print(f"{len(passes)} passes of {len(jobs)} jobs", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
