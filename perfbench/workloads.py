"""Seeded job lists for the four workloads, and the checks on their outputs.

A job is one ``qhsplit`` CLI invocation.  Every input is drawn here from the
workload seed: critical points, eps values, output formats, job order and the
brane-algebra files themselves.  The library only ever sees the generated
argv and files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("homology", "branes", "splitting", "trees")

# eps values below 1, so every blowup report can generate
EPS = ("1/10", "1/7", "1/5", "2/9", "1/4", "3/10", "1/3", "2/5")


@dataclass(frozen=True)
class Algebra:
    """A brane algebra at one critical point of a disk potential."""

    kind: str  # "pn" or "exceptional"
    n: int
    point: int
    eps: str | None = None

    @property
    def name(self) -> str:
        eps = f",eps={self.eps}" if self.eps else ""
        return f"{self.kind}{self.n}@{self.point}{eps}"

    @property
    def file_name(self) -> str:
        eps = f"_{self.eps.replace('/', 'over')}" if self.eps else ""
        return f"{self.kind}{self.n}_{self.point}{eps}.json"


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``key`` names it independently of where files live."""

    key: str
    argv: tuple
    kind: str
    n: int = 0
    interior: int = 0
    metric: str = ""
    algebra: Algebra | None = None

    def resolved_argv(self, input_dir: Path) -> list[str]:
        return [str(input_dir / self.algebra.file_name) if a == "@" else a
                for a in self.argv]


def critical_point_count(kind: str, n: int) -> int:
    return n + 1 if kind == "pn" else max(n - 1, 1)


def _algebra(rng: random.Random, kind: str, n: int) -> Algebra:
    # Only the first two critical points, (1, ..., 1) and (z, ..., z), cost the
    # same to within about 5 %; later points cost up to 90 % more (projective
    # n=4 at point 4, for example), so drawing them would make the work of a
    # pass depend on the seed.
    point = rng.randrange(min(2, critical_point_count(kind, n)))
    eps = rng.choice(EPS) if kind == "exceptional" else None
    return Algebra(kind, n, point, eps)


# Every job takes well under a second, so that a 30-s run holds about twenty
# passes and each job's fastest time skips the host's slow phases.  Left out:
# hh dims at projective n=2, L=5 (1.8 s), exceptional n=3, L=4 (3.7 s) and
# projective n=3, L=4 (15-22 s); ainfty verify at rank 16 (1.4-4.5 s) and
# potential crit at projective n=4 (1.5 s); oc matrix at projective n=6 (6.5-7.3 s).


def _homology(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, n, lengths in (("pn", 1, (3, 4, 5, 6)), ("pn", 2, (3, 4)),
                             ("pn", 3, (3,)), ("exceptional", 2, (3, 4, 5)),
                             ("exceptional", 3, (3,))):
        for length in lengths:
            alg = _algebra(rng, kind, n)
            jobs.append(Job(f"hh dims {alg.name} --length {length}",
                            ("hh", "dims", "@", "--length", str(length)),
                            "hh", n=n, algebra=alg))
    return jobs


def _branes(rng: random.Random) -> list[Job]:
    jobs = []
    for kind, ns in (("pn", (1, 2, 3)), ("exceptional", (2, 3))):
        for n in ns:
            alg = _algebra(rng, kind, n)
            jobs.append(Job(f"ainfty verify {alg.name}", ("ainfty", "verify", "@"),
                            "ainfty", n=n, algebra=alg))
    # exceptional n=4 builds three rank-16 Clifford algebras
    for kind, ns in (("pn", (1, 2, 3)), ("exceptional", (2, 3, 4))):
        for n in ns:
            argv = ("potential", "crit", "--kind", kind, "--n", str(n))
            if kind == "exceptional":
                argv += ("--eps", rng.choice(EPS))
            jobs.append(Job(" ".join(argv), argv, "crit", n=n))
    return jobs


def _splitting(rng: random.Random) -> list[Job]:
    jobs = []
    for n in (2, 3, 4, 5):
        argv = ("blowup", "split", "--n", str(n), "--eps", rng.choice(EPS),
                "--format", rng.choice(("json", "md")))
        jobs.append(Job(" ".join(argv), argv, "split", n=n))
    # projective n=5 is a 6x6 permutation-expansion determinant at order 6
    for kind, ns in (("pn", (1, 2, 3, 4, 5)), ("exceptional", (2, 3, 4, 5, 6))):
        for n in ns:
            argv = ("oc", "matrix", "--n", str(n), "--kind", kind,
                    "--format", rng.choice(("json", "csv", "md")))
            if kind == "exceptional":
                argv += ("--eps", rng.choice(EPS))
            jobs.append(Job(" ".join(argv), argv, "oc", n=n))
    return jobs


# (boundary, interior, metric) combinations that take about 1 s or less;
# (3, 2, zero) takes 4 s and (4, 1, all) 1.6 s, for example
TREE_CASES = ((3, 0, "zero"), (3, 0, "all"), (3, 1, "zero"), (3, 1, "all"),
              (4, 0, "zero"), (4, 0, "all"), (4, 1, "zero"),
              (5, 0, "zero"), (5, 0, "all"), (6, 0, "zero"), (6, 0, "all"))


def _trees(rng: random.Random) -> list[Job]:
    cases = list(TREE_CASES)
    rng.shuffle(cases)
    jobs = []
    for b, i, metric in cases:
        argv = ("trees", "enumerate", "--boundary", str(b), "--interior", str(i),
                "--metric", metric)
        jobs.append(Job(" ".join(argv), argv, "trees", n=b, interior=i, metric=metric))
    return jobs


_BUILDERS = {"homology": _homology, "branes": _branes,
             "splitting": _splitting, "trees": _trees}


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The job list of one workload; the same seed gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def write_algebras(jobs: list[Job], input_dir: Path) -> None:
    """Write each brane algebra the jobs read, as ``to_json_dict`` emits it."""
    from qhsplit import toric

    for alg in sorted({job.algebra for job in jobs if job.algebra},
                      key=lambda a: a.file_name):
        if alg.kind == "pn":
            potential = toric.PotentialFunction.clifford_torus(alg.n)
        else:
            potential = toric.PotentialFunction.exceptional(alg.n, Fraction(alg.eps))
        point = toric.critical_points(potential)[alg.point]
        data = toric.brane_algebra(potential, point).to_json_dict()
        (input_dir / alg.file_name).write_text(json.dumps(data, sort_keys=True))


# ---------------------------------------------------------------------------
# output checks


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_hh(job: Job, out: str) -> str | None:
    rows = {row[0]: row[1:] for row in csv.reader(out.splitlines()[2:])}
    if rows.get("total") != ["1", "true"]:
        return f"expected total,1,true, got {rows.get('total')}"
    parity = job.n % 2
    if rows.get(str(parity)) != ["1", "true"] or rows.get(str(1 - parity)) != ["0", "true"]:
        return f"the class is not in parity {parity}"
    return None


def _check_ainfty(job: Job, out: str) -> str | None:
    return None if json.loads(out)["ok"] is True else "relations fail"


def _check_crit(job: Job, out: str) -> str | None:
    expected = critical_point_count(job.argv[job.argv.index("--kind") + 1], job.n)
    payload = json.loads(out)
    if payload["count"] != expected or len(payload["critical_points"]) != expected:
        return f"expected {expected} critical points, got {payload['count']}"
    return None


def _report_fields(out: str) -> dict:
    if out.startswith("{"):
        report = json.loads(out)["report"]
        return {key: str(value) for key, value in report.items()}
    fields = {}
    for line in out.splitlines():
        if line.startswith("- **"):
            key, _, value = line[4:].partition("**: ")
            fields[key] = value
    return fields


def _check_split(job: Job, out: str) -> str | None:
    report = _report_fields(out)
    want = {"status": "generates", "generation": "generates",
            "total_dim": str(2 * job.n), "bound_holds": "True"}
    bad = {key: report.get(key) for key, value in want.items() if report.get(key) != value}
    return f"report differs from {want}: {bad}" if bad else None


def _check_oc(job: Job, out: str) -> str | None:
    if out.startswith("{"):
        verdict = json.loads(out)["determinant"]["surjectivity"]
    elif out.startswith("#"):
        verdict = out.split("surjectivity=", 1)[1].split()[0]
    else:
        verdict = out.split("surjectivity = ", 1)[1].split()[0]
    return None if verdict == "surjective" else f"surjectivity is {verdict}"


_FACE_COUNTS: dict[int, dict[int, int]] = {}


def _check_trees(job: Job, out: str) -> str | None:
    lines = out.splitlines()
    census = {int(dim): int(count) for dim, count in csv.reader(lines[2:-1])}
    total = lines[-1]
    if total != f"total,{sum(census.values())}":
        return f"{total} is not the sum of the census"
    if job.interior == 0 and job.metric == "zero":
        from qhsplit import trees

        if job.n not in _FACE_COUNTS:
            _FACE_COUNTS[job.n] = trees.associahedron_face_counts(job.n)
        if census != _FACE_COUNTS[job.n]:
            return f"census {census} differs from the associahedron {_FACE_COUNTS[job.n]}"
    return None


_CHECKS = {"hh": _check_hh, "ainfty": _check_ainfty, "crit": _check_crit,
           "split": _check_split, "oc": _check_oc, "trees": _check_trees}


def check_output(job: Job, rc, out: str, golden: dict[str, str]) -> str | None:
    """Why one execution failed, or ``None`` when it passed."""
    if rc != 0:
        return f"exit code {rc}"
    expected = golden.get(job.key)
    if expected is not None and digest(out) != expected:
        return "output bytes differ from the recorded digest"
    try:
        return _CHECKS[job.kind](job, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
