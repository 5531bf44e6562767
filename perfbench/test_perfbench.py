"""Tests of the benchmark itself: checks that can fail, failed workers, smoke passes.

Run from the repository root with ``python -m pytest perfbench``.
"""

import contextlib
import io
import json
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from qhsplit import cli  # noqa: E402

GOLDEN = run.load_golden()


def _small(workload):
    """The cheapest few jobs of a workload at the default seed."""
    top = 3 if workload == "trees" else 2
    return [job for job in workloads.jobs_for(workload, 0)
            if job.n <= top and job.interior == 0][:4]


def _cli_output(job, input_dir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(job.resolved_argv(input_dir))
    return rc, out.getvalue()


def _job(workload, key_start):
    return next(job for job in _small(workload) if job.key.startswith(key_start))


def test_same_seed_gives_same_jobs():
    for workload in workloads.WORKLOADS:
        assert workloads.jobs_for(workload, 7) == workloads.jobs_for(workload, 7)
    assert workloads.jobs_for("homology", 1) != workloads.jobs_for("homology", 2)


@pytest.mark.parametrize("workload, key_start, old, new", [
    ("homology", "hh dims", "total,1,true", "total,2,true"),
    ("branes", "ainfty verify", '"ok": true', '"ok": false'),
    ("splitting", "oc matrix", "surjective", "deficient"),
    ("trees", "trees enumerate --boundary 3 --interior 0 --metric zero", "0,2", "0,3"),
])
def test_tampered_output_fails(tmp_path, workload, key_start, old, new):
    job = _job(workload, key_start)
    workloads.write_algebras([job], tmp_path)
    rc, out = _cli_output(job, tmp_path)
    assert workloads.check_output(job, rc, out, GOLDEN) is None
    assert job.key in GOLDEN
    # the property check fails without any recorded digest
    assert old in out
    assert workloads.check_output(job, rc, out.replace(old, new, 1), {}) is not None
    # one flipped byte fails the recorded digest
    flipped = out[:-2] + chr(ord(out[-2]) ^ 1) + out[-1]
    assert workloads.check_output(job, rc, flipped, GOLDEN) is not None
    assert workloads.check_output(job, 1, out, GOLDEN) is not None


@pytest.mark.parametrize("code", [
    "import sys; sys.exit(3)",
    f"import os; os.kill(os.getpid(), {int(signal.SIGKILL)})",
    "print('not json')",
])
def test_failed_worker_fails_every_job_of_its_pass(code):
    jobs = _small("trees")
    argvs = [job.resolved_argv(Path(".")) for job in jobs]
    assert run.run_pass(argvs, command=[sys.executable, "-c", code]) is None
    good = run.run_pass(argvs)
    assert run.evaluate(jobs, [good, None], GOLDEN) == (2 * len(jobs), len(jobs))


def test_outputs_that_differ_between_passes_fail():
    jobs = _small("trees")
    first = run.run_pass([job.resolved_argv(Path(".")) for job in jobs])
    second = json.loads(json.dumps(first))
    second["jobs"][0]["out"] += "\n"
    assert run.evaluate(jobs, [first, first], {}) == (2 * len(jobs), 0)
    assert run.evaluate(jobs, [first, second], {}) == (2 * len(jobs), 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_and_repeatable_trace(tmp_path, workload):
    jobs = _small(workload)
    workloads.write_algebras(jobs, tmp_path)
    argvs = [job.resolved_argv(tmp_path) for job in jobs]
    passes = [run.run_pass(argvs),
              run.run_pass(argvs, spans_file=tmp_path / "a.jsonl"),
              run.run_pass(argvs, spans_file=tmp_path / "b.jsonl")]
    assert run.evaluate(jobs, passes, GOLDEN) == (3 * len(jobs), 0)
    first, second = passes[1]["counters"], passes[2]["counters"]
    assert first["calls"] == second["calls"]
    assert first["extra"] == second["extra"]
    spans = [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()]
    assert sum(span["name"] == "cli.main" for span in spans) == len(jobs)
    ids = {span["id"] for span in spans}
    assert all(span["parent"] in ids for span in spans if span["name"] != "cli.main")

    calls = first["calls"]
    if workload == "trees":
        assert not any(calls[name] for name in calls if name.startswith("novikov."))
    if workload == "branes":
        assert calls["linalg.row_reduce"] == 0
    if workload == "homology":
        assert calls["linalg.determinant"] == 0


def _pass(seconds, ref_s, setup_s=0.1):
    return {"setup_s": setup_s, "ref_s": ref_s, "rss_mib": 20.0,
            "jobs": [{"seconds": t} for t in seconds]}


def test_times_follow_the_reference_kernel():
    """A host twice as slow doubles job and kernel times and leaves the metrics."""
    fast = _pass([0.01, 0.03, 0.2], run.REF_S)
    slow = _pass([0.02, 0.06, 0.4], 2 * run.REF_S, setup_s=0.2)
    assert run.reference_times(slow) == pytest.approx(run.reference_times(fast))
    assert run.reference_times(fast) == pytest.approx([0.01, 0.03, 0.2])
    # per job, the median over passes; a dead worker's pass is left out
    metrics = run.end_to_end([fast, slow, _pass([0.5, 0.5, 0.5], run.REF_S), None], 12, 3)
    assert metrics["pass_s"][0] == pytest.approx(0.01 + 0.03 + 0.2)
    assert metrics["job_ms.p50"][0] == pytest.approx(30.0)
    assert metrics["setup_s"][0] == pytest.approx(0.1)
    assert metrics["ok_ratio"][0] == 0.75


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer = run.layer_metrics([], [])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}


def test_timed_run_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "trees", "--seed", "3", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
