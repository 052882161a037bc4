"""repstack benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload solvers --seed 0 --seconds 55 --trace 0

Runs from the root of a source checkout and imports the program from its
`src/`.  The workload runs in its own process (worker.py).  With --trace 0
the last stdout line holds the end-to-end metrics; with --trace 1 a separate
traced pass gives the per-layer metrics.  A first process draws the seed's
instance plan, untimed; set-up from that plan is then measured in several
fresh processes, before and after the measuring one, and reported as their
median.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solvers", "strategies")
SETUP_ONLY_RUNS = 6  # plus the measuring process itself: seven set-up samples
DEADLINE_S = 175


class WorkerFailed(RuntimeError):
    pass


def run_worker(arguments: list[str], deadline: float) -> str:
    """Run worker.py to the end; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed("no time left for the workload process")
    spawn_ns = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *arguments, "--spawn-ns", str(spawn_ns)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def measure(args, work: Path, deadline: float) -> tuple[list[dict], dict]:
    """Draw the plan, then set up from it SETUP_ONLY_RUNS times around one
    measuring run; return the set-up-only results and the measuring one."""
    plan = work / "plan.json"
    run_worker(["--workload", args.workload, "--seed", str(args.seed), "--plan-out", str(plan)], deadline)

    def worker(tag: str, setup_only: bool) -> dict:
        stdout = run_worker(
            ["--plan", str(plan), "--workdir", str(work / tag), "--seconds", str(args.seconds),
             "--trace", str(args.trace)] + (["--setup-only"] if setup_only else []),
            deadline,
        )
        if not stdout.strip():
            raise WorkerFailed("workload process printed no result")
        return json.loads(stdout.strip().splitlines()[-1])

    runs = 0 if args.trace else SETUP_ONLY_RUNS
    setups = [worker(f"setup{k}", True) for k in range(runs // 2)]
    main_run = worker("main", False)
    setups += [worker(f"setup{k}", True) for k in range(runs // 2, runs)]
    return setups, main_run


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for needed in (ROOT / "src" / "repstack" / "__init__.py", ROOT / "data" / "k4.txt"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a repstack checkout", file=sys.stderr)
            return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, main_run = measure(args, work, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run uses it

    failures = dict(main_run["failures"])
    for setup in setups:
        for kind, count in setup["failures"].items():
            failures[kind] += count
    attempted = sum(run["attempted"] for run in setups + [main_run])
    failed = sum(failures.values())
    for message in main_run["messages"] + [m for s in setups for m in s["messages"]]:
        print(f"failure: {message}", file=sys.stderr)

    if args.trace:
        metrics = {name: metric(value, unit) for name, (value, unit) in main_run["layers"].items()}
        for kind, count in failures.items():
            metrics[f"fail.{kind}"] = metric(count, "count")
        metrics["failed_frac"] = metric(failed / attempted, "ratio")
        metrics["known_defect.RecursionError"] = metric(main_run["known_defect.RecursionError"], "count")
    else:
        metrics = {
            "throughput_inst_per_s": metric(main_run["throughput_inst_per_s"], "1/s"),
            "latency_p50_ms": metric(main_run["latency_p50_ms"], "ms"),
            "latency_p90_ms": metric(main_run["latency_p90_ms"], "ms"),
            "setup_s": metric(statistics.median([s["setup_s"] for s in setups + [main_run]]), "s"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        }
        print(
            f"{args.workload} seed={args.seed}: {main_run['samples']} samples in "
            f"{main_run['passes']} passes of {main_run['instances']} instances"
        )
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted}; "
          + ", ".join(f"{k} {v}" for k, v in failures.items()) + ")")
    for message in main_run["probe_messages"]:
        print(f"probe: {message}", file=sys.stderr)
    if main_run["probes"]:
        print(f"known defect: {main_run['known_defect.RecursionError']} of {main_run['probes']} "
              "long-horizon probes raised RecursionError (not counted as failed)")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
