"""Closed-loop benchmark of the entrolen CLI and API.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 40 --trace 0

One process runs one workload: the fixed job list built from the seed (see
workloads.py) is executed job after job, and the whole list is repeated
until the run length is used up.  Jobs are in-process calls to
``entrolen.cli.main(argv)`` and a few Python-API calls; there are no threads
and no worker pool.  Every job's exit code and stdout are checked against
the stored expectation for the seed and against checks from theory.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* setup_s      median of several fresh interpreter launches that import
               entrolen, build the CLI parser and generate the inputs;
* wall_s       median wall time of one pass over the job list;
* max_job_s    the largest per-job median wall time;
* peak_rss_mb  ru_maxrss of this process.

Jobs that hit a known defect (``Job.expected_error``) are left out of
wall_s and max_job_s, so that a change which only makes them fail sooner
does not read as a speedup, and they run in the first pass only; their
time is reported per layer as ``harness.known_defect_s``.

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes (medians over passes),
the share of failed jobs and the tracing overhead.  Spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 15
MIN_PASSES = 3
UNATTRIBUTED_LIMIT = 0.05


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, build the parser and the inputs, then exit")
    return p.parse_args(argv)


def import_program():
    """Import entrolen from this checkout's src/, never from elsewhere."""
    if not (SRC / "entrolen" / "__init__.py").is_file():
        raise SystemExit(f"error: no entrolen sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrolen
    import entrolen.cli

    if Path(entrolen.__file__).resolve().parent != SRC / "entrolen":
        raise SystemExit(f"error: imported entrolen from {entrolen.__file__}")
    return entrolen.cli


# ------------------------------------------------------------------- setup


def measure_setup(args) -> float:
    """Median wall time of fresh launches of the set-up path alone."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------------- jobs


def run_job(cli, job):
    """Execute one job; returns (exit_code, stdout) or raises."""
    if job.api is not None:
        return job.api()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_golden(workload: str) -> dict:
    """Expected [exit code, stdout digest] per job; the same for every slot."""
    path = HERE / "golden" / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def verdict(job, golden, code, out):
    """First problem with a job's result, or None."""
    if job.golden:
        want = golden.get(job.name)
        if want is None:
            return "no stored expectation"
        if code != want[0]:
            return f"exit {code}, expected {want[0]}"
        if digest(out) != want[1]:
            return "stdout differs from the stored expectation"
    return job.check(code, out) if job.check else None


class Pass:
    """Timings and outcomes of one pass over the job list."""

    def __init__(self, traced):
        self.traced = traced
        self.attempted = 0
        self.job_s: dict = {}  # jobs without a known defect
        self.known_defect_s = 0.0  # jobs with an expected error
        self.failed: list = []  # jobs that crashed or returned a wrong result
        self.wrong: list = []  # failed jobs other than an expected error

    @property
    def wall_s(self):
        return sum(self.job_s.values())

    @property
    def total_s(self):
        return self.wall_s + self.known_defect_s


def run_pass(cli, jobs, golden, tracer, index):
    p = Pass(tracer is not None)
    p.attempted = len(jobs)
    for job in jobs:
        root = tracer.open("harness.job", f"{index}:{job.name}") if tracer else None
        t0 = perf_counter()
        if tracer:
            tracer.spans[root].start = t0
        try:
            code, out = run_job(cli, job)
            exc = None
        except Exception as caught:  # a crash is a failed job, not a harness error
            exc = caught
        if tracer:
            tracer.close(root)
            dt = tracer.spans[root].end - t0
        else:
            dt = perf_counter() - t0
        if job.expected_error is None:
            p.job_s[job.name] = dt
        else:
            p.known_defect_s += dt

        if exc is None:
            problem = verdict(job, golden, code, out)
        else:
            problem = f"{type(exc).__name__}: {str(exc)[:120]}"
        if problem is None:
            continue
        p.failed.append(job.name)
        # Only the job's own known defect is tolerated; any other crash, or
        # another exception from that job, is as bad as a wrong result.
        if not isinstance(exc, job.expected_error or ()):
            p.wrong.append(job.name)
        print(f"FAIL pass={index} job={job.name}: {problem}", file=sys.stderr)
    return p


def run_passes(cli, wl, golden, seconds, tracer=None):
    """Closed loop: passes back to back until the next one would overrun.

    Without a tracer every pass is untraced; with one, untraced and traced
    passes alternate so both see the same machine state.

    Jobs with a known defect run in every pass of a traced run, so that the
    per-layer counts repeat from pass to pass, but only in the first pass of
    an untraced run: their time counts in neither wall_s nor max_job_s, and
    it goes to further passes instead."""
    steady = [job for job in wl.jobs if job.expected_error is None]
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            jobs = wl.jobs if tracer is not None or not passes else steady
            passes.append(run_pass(cli, jobs, golden, tracer if traced else None, len(passes)))
        finally:
            if traced:
                tracer.uninstall()
        elapsed = perf_counter() - start
        typical = statistics.median(p.total_s for p in passes)
        if len(passes) >= MIN_PASSES and (tracer is None or len(passes) % 2 == 0) \
                and elapsed + typical > seconds:
            print("pass wall_s: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
                  file=sys.stderr)
            return passes


# ------------------------------------------------------------------- metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes, setup_s):
    """Metrics over the jobs without a known defect."""
    jobs = passes[0].job_s
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "max_job_s": metric(
            max(statistics.median(p.job_s[j] for p in passes) for j in jobs), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, passes):
    """Per-layer metrics of the traced passes, as medians over passes."""
    from tracer import layer_metrics

    per_pass = []
    for i, p in enumerate(passes):
        if not p.traced:
            continue
        prefix = f"{i}:"
        spans = [s for s in tracer.spans if s.job.startswith(prefix)]
        errors: dict = {}
        for job, modules in tracer.errors.items():
            if job.startswith(prefix):
                for module, n in modules.items():
                    errors[module] = errors.get(module, 0) + n
        pp = layer_metrics(spans, errors)
        # Time outside every wrapped layer function: the harness itself,
        # plus parsing and unwrapped helpers that land in cli.main.
        share = (pp["harness.job.self_s"][0] + pp["cli.main.self_s"][0]) / p.total_s
        if share > UNATTRIBUTED_LIMIT:
            print(f"pass {i}: {share:.1%} of traced time is outside the wrapped "
                  f"layers (limit {UNATTRIBUTED_LIMIT:.0%})", file=sys.stderr)
        pp["harness.unattributed_share"] = (share, "share")
        pp["harness.known_defect_s"] = (p.known_defect_s, "s")
        per_pass.append(pp)

    names = list(per_pass[0])
    units = {name: per_pass[0][name][1] for name in names}
    out = {name: (statistics.median_low if units[name] == "count" else statistics.median)(
        [pp[name][0] for pp in per_pass]) for name in names}
    mismatches = [name for name in names
                  if units[name] == "count" and len({pp[name][0] for pp in per_pass}) > 1]
    for name in mismatches:
        print(f"NONDETERMINISTIC count {name}: {[pp[name][0] for pp in per_pass]}",
              file=sys.stderr)

    untraced = statistics.median(p.wall_s for p in passes if not p.traced)
    traced = statistics.median(p.wall_s for p in passes if p.traced)
    out["trace_overhead_share"], units["trace_overhead_share"] = traced / untraced - 1, "share"
    attempted = sum(p.attempted for p in passes)
    out["fail_share"] = sum(len(p.failed) for p in passes) / attempted
    units["fail_share"] = "share"
    out["determinism.count_mismatches"] = len(mismatches)
    units["determinism.count_mismatches"] = "count"
    return {name: metric(out[name], units[name]) for name in out}


# ------------------------------------------------------------------- records


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "entrolen").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_info(args, slot):
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "slot": slot,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_digest": source_digest(),
    }


def compare_with_previous(info, counts, rss):
    """Counts and peak RSS must repeat across runs with the same inputs and
    sources; report any that differ from the previous run's record."""
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"record-{info['workload']}-slot{info['slot']}-trace{info['trace']}"
                  f"-{info['source_digest']}.json")
    mismatches = 0
    if path.exists():
        prev = json.loads(path.read_text())
        for name, value in counts.items():
            if prev["counts"].get(name) != value:
                mismatches += 1
                print(f"NONDETERMINISTIC count {name}: previous run "
                      f"{prev['counts'].get(name)}, this run {value}", file=sys.stderr)
        if abs(rss - prev["peak_rss_mb"]) > 0.05 * prev["peak_rss_mb"]:
            print(f"peak_rss_mb moved: previous run {prev['peak_rss_mb']:.1f}, "
                  f"this run {rss:.1f}", file=sys.stderr)
    path.write_text(json.dumps({"info": info, "counts": counts, "peak_rss_mb": rss}))
    return mismatches


# ------------------------------------------------------------------- main


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    cli.build_parser()
    wl = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        return 0
    golden = load_golden(args.workload)
    info = run_info(args, wl.slot)
    print(json.dumps({"info": info}))

    if not args.trace:
        setup_s = measure_setup(args)
        passes = run_passes(cli, wl, golden, args.seconds)
        metrics = end_to_end(passes, setup_s)
        compare_with_previous(info, {}, metrics["peak_rss_mb"]["value"])
    else:
        from tracer import Tracer

        tracer = Tracer()
        passes = run_passes(cli, wl, golden, args.seconds, tracer)
        metrics = per_layer(tracer, passes)
        counts = {k: v["value"] for k, v in metrics.items()
                  if v["unit"] == "count" and k != "determinism.count_mismatches"}
        metrics["determinism.count_mismatches"]["value"] += compare_with_previous(
            info, counts, peak_rss_mb())
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", info)

    # An operation is one job of the list, however many passes repeat it,
    # so that attempted and failed do not depend on how many passes fit in
    # the run.  A job fails if it crashed or gave a wrong result in any pass;
    # a wrong result, or a crash other than the job's known defect, makes the
    # run incorrect.
    print(json.dumps({
        "correct": not any(p.wrong for p in passes),
        "attempted": len(wl.jobs),
        "failed": len({name for p in passes for name in p.failed}),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
