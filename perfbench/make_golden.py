"""Record the expected output of every CLI job.

    python3 perfbench/make_golden.py [workload ...]

Runs each workload's job list once per input slot and stores, per job, the
exit code and a digest of stdout in ``perfbench/golden/<workload>.json``.
The seed only draws inputs, so every slot must give the same output for a
job; a job whose output differs between slots, or fails its check from
theory, is reported and nothing is written for its workload.  Run it only
at a commit whose outputs are trusted; the benchmark then requires every
later commit to reproduce them byte for byte.
"""

from __future__ import annotations

import json
import sys

from run import HERE, digest, import_program, run_job
import workloads


def record(cli, name):
    expected: dict = {}
    problems = []
    for slot in range(workloads.SLOTS):
        for job in workloads.build(name, slot).jobs:
            if not job.golden:
                continue
            code, out = run_job(cli, job)
            problem = job.check(code, out) if job.check else None
            if problem is not None:
                problems.append(f"{name} slot {slot} {job.name}: {problem}")
            got = [code, digest(out)]
            if expected.setdefault(job.name, got) != got:
                problems.append(f"{name} slot {slot} {job.name}: output differs "
                                f"from slot 0")
        print(f"{name} slot {slot} done", file=sys.stderr, flush=True)
    return expected, problems


def main(names):
    cli = import_program()
    failed = False
    for name in names or workloads.WORKLOADS:
        expected, problems = record(cli, name)
        for line in problems:
            print(line, file=sys.stderr)
        if problems:
            failed = True
            continue
        path = HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"jobs": expected}, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
