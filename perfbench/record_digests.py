"""Record the sha256 of every job output of the default seed in digests.json.

Run from the repository root: ``python3 perfbench/record_digests.py``.  The
benchmark then fails any job whose output bytes differ from the recorded
ones, so reports must stay byte-identical.  Re-record only for a change that
is meant to alter reports.
"""

import json
import sys

import run
import workloads

SEED = 0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    digests = {}
    for workload in workloads.WORKLOADS:
        # one pass, checked by its properties only
        jobs, ((result,),), attempted, failed = run.run_workload(workload, SEED, 0, {}, [None])
        if failed:
            print(f"{workload}: {failed} of {attempted} jobs fail; nothing recorded",
                  file=sys.stderr)
            return 1
        for job, output in zip(jobs, result["jobs"]):
            digests[job.key] = workloads.digest(output["out"])
    run.DIGESTS.write_text(json.dumps({"seed": SEED, "sha256": digests},
                                      indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {run.DIGESTS.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
