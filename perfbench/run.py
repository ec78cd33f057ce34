"""End-to-end benchmark of the ``drinfeld`` CLI on fixed, seeded job lists.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process imports ``drinfeld``, builds the workload's job list
from the seed and runs every job once, one at a time, through the CLI's own
entry point with stdout captured (a closed loop with one client, no threads).
Every output is then checked against values computed apart from the
program (``checks.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same list runs once untraced in a child process and once traced here,
and the metrics are the per-layer ones (``spans.py``), including the tracing
overhead.  The job list is fixed work: ``--seconds`` is the time one list
was sized to take on a 2-CPU machine, and never cuts a run short.

Per-run records and span files go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up is sampled this many more times, each in a fresh interpreter, the
# probes spread evenly through the job list (off the clock of the jobs).
SETUP_PROBES = 11
# job_tail_s is the highest job time with at least this many jobs above it.
TAIL_BEYOND = 10
# End-to-end metrics and their units.
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "stdout_bytes": "bytes",
}
# A fresh interpreter that imports this module, then times set_up().
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import run; "
    "print(run.set_up(sys.argv[2], int(sys.argv[3]))[2])"
)


def set_up(workload: str, seed: int):
    """Import the program and build the job list.  Returns the CLI entry
    point, the jobs and the seconds this took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from drinfeld import cli

    jobs = workloads.job_list(workload, seed)
    elapsed = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"drinfeld was imported from {cli.__file__}, not from {SRC}")
    return cli.main, jobs, elapsed


def invoke(main, job: list[str]) -> tuple[int, str, str]:
    """One CLI invocation in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    sys.argv = ["drinfeld", *job]
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # the installed CLI would exit 1 with this traceback
            code = 1
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


def run_list(main, jobs: list, tracer: spans.Tracer | None = None, between=None) -> dict:
    """Run every job once; time each job and the whole list.  ``between(job_id)``
    runs before each job, and its time is left out of the list's wall time."""
    times, outputs = [], []
    off_clock = 0.0
    list_start = time.perf_counter()
    for job_id, job in enumerate(jobs):
        if between is not None:
            pause = time.perf_counter()
            between(job_id)
            off_clock += time.perf_counter() - pause
        start = time.perf_counter()
        if tracer is None:
            result = invoke(main, job)
        else:
            result = tracer.run_job(job_id, lambda: invoke(main, job))
        times.append(time.perf_counter() - start)
        outputs.append(result)
    wall = time.perf_counter() - list_start - off_clock
    failed, wrong, report = 0, 0, []
    for job, (code, out, err) in zip(jobs, outputs):
        if code:
            problems = [f"exit code {code}: {err.strip()[-300:]}"]
        else:
            problems = checks.check_job(job, out)
            wrong += bool(problems)
        failed += bool(problems)
        if problems:
            report.append({"job": job, "problems": problems})
    return {
        "wall_s": wall,
        "times": times,
        "stdout_bytes": sum(len(out.encode("utf-8")) for _, out, _ in outputs),
        "failed": failed,
        "wrong": wrong,
        "report": report,
    }


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(args, main, jobs, setup_s: float) -> tuple[dict, dict]:
    setups = [setup_s]
    every = len(jobs) // SETUP_PROBES

    def probe(job_id: int) -> None:
        if job_id % every == every // 2 and len(setups) <= SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))

    ran = run_list(main, jobs, between=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = sorted(ran["times"])
    values = {
        "jobs_per_s": len(jobs) / ran["wall_s"],
        "job_p50_s": statistics.median(times),
        "job_tail_s": times[len(times) - TAIL_BEYOND - 1],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "stdout_bytes": ran["stdout_bytes"],
    }
    ran["setup_samples"] = setups
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END.items()}, ran


def per_layer(args, main, jobs) -> tuple[dict, dict]:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    reference = json.loads(child.stdout.strip().splitlines()[-1])
    untraced_wall = reference["attempted"] / reference["metrics"]["jobs_per_s"]["value"]
    tracer = spans.Tracer()
    tracer.install()
    ran = run_list(main, jobs, tracer)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}-{args.seed}.spans.json.gz")
    ran["untraced"] = reference
    ran["wrong"] += not reference["correct"]
    return tracer.metrics(ran["wall_s"] - untraced_wall), ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drinfeld" / "cli.py").is_file():
        print(f"no program source at {SRC / 'drinfeld'}", file=sys.stderr)
        return 2
    os.environ.pop("DRINFELD_THREADS", None)
    cli_main, jobs, setup_s = set_up(args.workload, args.seed)
    if args.trace:
        metrics, ran = per_layer(args, cli_main, jobs)
    else:
        metrics, ran = end_to_end(args, cli_main, jobs, setup_s)
    result = {
        "correct": ran["wrong"] == 0,
        "attempted": len(jobs),
        "failed": ran["failed"],
        "metrics": metrics,
    }
    for entry in ran["report"][:5]:
        print(f"failed: {' '.join(entry['job'])}: {entry['problems'][:3]}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  jobs=[" ".join(job) for job in jobs], **ran)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
