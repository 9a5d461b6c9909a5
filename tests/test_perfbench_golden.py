"""Every benchmark job reproduces its stored exit code and stdout digest
(`perfbench/golden/`) and passes its check from theory.  The runner and
the workload builder are loaded from their files and left unedited."""

import importlib.util
import sys
from pathlib import Path

import pytest

import entrolen.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    # @dataclass looks its module up in sys.modules while it runs
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run = _load("perfbench_run", "run.py")
workloads = _load("perfbench_workloads", "workloads.py")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_benchmark_jobs_match_golden_outputs(name):
    golden = run.load_golden(name)
    jobs = [job for job in workloads.build(name, 0).jobs if job.expected_error is None]
    assert jobs
    problems = {
        job.name: problem
        for job in jobs
        if (problem := run.verdict(job, golden, *run.run_job(entrolen.cli, job)))
    }
    assert problems == {}
