"""One workload process: draw a plan, or set up from one, run a closed loop and report.

Started by run.py, never imported by it.  Prints one JSON object on its last
stdout line.  A single client sends the next instance only after the
previous one returns; there is one thread and no parallelism.

With `--plan-out` the process only draws the seed's plan (workloads.py) and
writes it; that search is not part of any timed set-up.  Otherwise it sets
up from `--plan`: it writes and loads the input files and runs one warm-up
instance of each instance group.  Untraced mode then repeats whole passes
over the instance list, each in a fresh seeded order, until `--seconds` have
elapsed (to the nearest pass) and at least MIN_INSTANCES instances have run.
Traced mode runs one pass with the tracer installed between two untraced
passes, and reports per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import repstack  # noqa: E402

if Path(repstack.__file__).resolve().parent != ROOT / "src" / "repstack":
    sys.exit(f"repstack imported from {repstack.__file__}, not from this checkout")

from tracer import Tracer  # noqa: E402
from workloads import CheckFailed, digest, make_instances, make_plan  # noqa: E402

MIN_INSTANCES = 100
DEFAULT_SEED = 0  # the seed whose exact values digests.json holds
DIGESTS = Path(__file__).resolve().parent / "digests.json"
FAILURE_CLASSES = ("RecursionError", "StateSpaceExceeded", "check", "other")


def failure_class(exc: BaseException) -> str:
    if isinstance(exc, CheckFailed):
        return "check"
    if isinstance(exc, RecursionError):
        return "RecursionError"
    if isinstance(exc, repstack.StateSpaceExceeded):
        return "StateSpaceExceeded"
    return "other"


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


class Runner:
    """Runs instances and checks every output exactly."""

    def __init__(self, instances, expected: dict[str, str] | None):
        self.instances = instances
        self.expected = expected or {}
        self.seen: dict[str, str] = {}
        self.failures = {name: 0 for name in FAILURE_CLASSES}
        self.attempted = 0
        self.messages: list[str] = []

    def run(self, instance) -> tuple[int, bool]:
        """Run one instance; return its latency in ns (the call alone) and
        whether it completed and passed its check."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            output = instance.run()
        except Exception as exc:  # boundary: every instance must be counted
            latency = time.perf_counter_ns() - start
            self.fail(instance, failure_class(exc), exc)
            return latency, False
        latency = time.perf_counter_ns() - start
        try:
            record = instance.check(output)
            hexdigest = digest(record)
            want = self.expected.get(instance.id) or self.seen.setdefault(instance.id, hexdigest)
            if hexdigest != want:
                raise CheckFailed(f"exact values differ from the reference digest {want[:12]}")
        except Exception as exc:  # a check that cannot even parse the output failed too
            self.fail(instance, "check", exc)
            return latency, False
        return latency, True

    def fail(self, instance, kind: str, exc: BaseException) -> None:
        self.failures[kind] += 1
        if len(self.messages) < 20:
            self.messages.append(f"{instance.id}: {kind}: {type(exc).__name__}: {exc}")

    def run_pass(self, order=None) -> tuple[list[int], int, int]:
        """One pass over `order` (default: the instance list): per-instance
        latencies, instances passed, pass wall ns."""
        start = time.perf_counter_ns()
        results = [self.run(instance) for instance in order or self.instances]
        wall = time.perf_counter_ns() - start
        return [latency for latency, _ in results], sum(ok for _, ok in results), wall


def timed_loop(runner: Runner, seconds: float, seed: int) -> dict:
    """Whole passes until `seconds` are reached, to the nearest pass, and at
    least MIN_INSTANCES instances have run.  Each pass runs the instances in
    a fresh seeded order, so that no group of like instances always meets
    the same phase of the machine's speed."""
    order = list(runner.instances)
    shuffle = random.Random(f"repstack-perfbench:order:{seed}").shuffle
    latencies: list[int] = []
    passed = wall = passes = pass_wall = 0
    while wall + pass_wall / 2 < seconds * 1e9 or len(latencies) < MIN_INSTANCES:
        shuffle(order)
        pass_latencies, pass_passed, pass_wall = runner.run_pass(order)
        latencies += pass_latencies
        passed += pass_passed
        wall += pass_wall
        passes += 1
    pooled = [ns / 1e6 for ns in latencies]
    deciles = statistics.quantiles(pooled, n=10)
    return {
        "throughput_inst_per_s": passed / (wall / 1e9),
        "latency_p50_ms": statistics.median(pooled),
        "latency_p90_ms": deciles[8],
        "samples": len(pooled),
        "passes": passes,
    }


def run_traced(runner: Runner, tracer: Tracer) -> int:
    """One pass with the tracer installed; return the instances' summed latency
    in ns.  The benchmark's tests drive this same loop."""
    instance_ns = 0
    tracer.install()
    try:
        for instance in runner.instances:
            tracer.instance = instance.id
            instance_ns += runner.run(instance)[0]
    finally:
        tracer.uninstall()
    return instance_ns


def traced_pass(runner: Runner, out_dir: Path, workload: str, seed: int) -> dict:
    """One traced pass between two untraced ones; their mean is the base of
    `trace.overhead_frac`, which cancels a steady drift in machine speed."""
    before_ns = runner.run_pass()[2]
    tracer = Tracer()
    start = time.perf_counter_ns()
    instance_ns = run_traced(runner, tracer)
    traced_ns = time.perf_counter_ns() - start
    after_ns = runner.run_pass()[2]
    tracer.write_spans(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    metrics = tracer.metrics(instance_ns)
    metrics["trace.overhead_frac"] = (traced_ns / ((before_ns + after_ns) / 2) - 1, "ratio")
    return metrics


def write_plan(args) -> None:
    plan = make_plan(args.workload, args.seed, ROOT / "data")
    Path(args.plan_out).write_text(json.dumps(plan), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--plan-out", help="draw the plan, write it here and exit")
    parser.add_argument("--plan", help="set up from this plan")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir")
    args = parser.parse_args()
    if args.plan_out:
        write_plan(args)
        return 0

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        workload, seed = plan["workload"], plan["seed"]
        instances = make_instances(plan["instances"], workdir)
        runner = Runner(instances, expected_digests(workload, seed))
        first: dict[str, object] = {}
        for spec, instance in zip(plan["instances"], instances):
            first.setdefault(spec["group"], instance)
        for instance in first.values():  # warm-up: the first instance of each group
            runner.run(instance)
        setup_s = (time.perf_counter_ns() - args.spawn_ns) / 1e9
        result = {"setup_s": setup_s, "instances": len(instances)}
        if not args.setup_only:
            if args.trace:
                result["layers"] = traced_pass(runner, ROOT / ".perfbench_out", workload, seed)
            else:
                result.update(timed_loop(runner, args.seconds, seed))
            # Probes run once, untraced, after the measurement.  They count as
            # attempted; a RecursionError there is the documented defect and
            # is reported apart, any other failure counts as failed.
            probes = Runner(make_instances(plan["probes"], workdir), None)
            for probe in probes.instances:
                probes.run(probe)
            result["probes"] = len(probes.instances)
            result["known_defect.RecursionError"] = probes.failures.pop("RecursionError")
            for kind, count in probes.failures.items():
                runner.failures[kind] += count
            runner.attempted += probes.attempted
            result["probe_messages"] = probes.messages
        result["attempted"] = runner.attempted
        result["failures"] = runner.failures
        result["messages"] = runner.messages
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
