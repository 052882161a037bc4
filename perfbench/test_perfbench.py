"""Tests of the benchmark itself: exact counters, held-out seed, digests, attribution.

    python3 -m pytest perfbench/test_perfbench.py -q

Takes a few minutes: it runs every workload's instance list several times.
"""

from __future__ import annotations

import inspect
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from worker import DEFAULT_SEED, ROOT, Runner, expected_digests, run_traced  # first: puts src/ on sys.path

from repstack import hardness, oracle
from run import WORKLOADS
from tracer import Tracer
from workloads import WORKLOAD_GROUPS, make_instances, make_plan

EXACT_COUNTERS = (
    "lp.threat.calls",
    "lp.simplex_solve.calls",
    "oracle.states",
    "gpa.sample.draws",
    "gpa.sample.swaps",
    "hardness.grid.evaluations",
    "cli.exit.0",
    "cli.exit.2",
    "cli.exit.3",
    "cli.exit.4",
)
GRID_BUDGET = inspect.signature(hardness.grid_audit_player3).parameters["budget"].default

# Layers that must own most of each instance group's self time.
NAMED_LAYERS = {
    "solve": ("lp.",),
    "evaluate": ("oracle.", "gpa.round_strategy"),
    "construct": ("gpa.", "oracle.simulate"),
    "audit": ("hardness.",),
}


def traced(workload: str, seed: int, group: str | None = None) -> tuple[Runner, Tracer, int]:
    """One traced pass, as `run.py --trace 1` makes it: every output is checked
    exactly, and against digests.json on the default seed.  With `group`,
    only that instance group's instances run."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        plan = make_plan(workload, seed, ROOT / "data")
        specs = [spec for spec in plan["instances"] if group in (None, spec["group"])]
        runner = Runner(make_instances(specs, Path(workdir)), expected_digests(workload, seed))
        instance_ns = run_traced(runner, tracer)
    assert runner.failures == dict.fromkeys(runner.failures, 0), runner.messages
    return runner, tracer, instance_ns


def counters(workload: str, seed: int) -> dict:
    _, tracer, instance_ns = traced(workload, seed)
    metrics = tracer.metrics(instance_ns)
    return {name: metrics[name][0] for name in EXACT_COUNTERS}


def instance_ids(runner: Runner) -> list[str]:
    return sorted(instance.id for instance in runner.instances)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    assert counters(workload, DEFAULT_SEED) == counters(workload, DEFAULT_SEED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_digests(workload):
    runner, _, _ = traced(workload, DEFAULT_SEED)  # a digest mismatch fails a check
    assert instance_ids(runner) == sorted(expected_digests(workload, DEFAULT_SEED))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_checks_within_budgets(workload):
    runner, tracer, _ = traced(workload, 1)
    for counts in tracer.instance_counts.values():
        assert counts["oracle.states"] < oracle.DEFAULT_STATE_BUDGET
        assert counts["hardness.grid.evaluations"] < GRID_BUDGET
        assert counts["cli.exit.2"] == counts["cli.exit.3"] == 0
    # Instance ids name the slot (shape, horizon, graph size), not the draw,
    # so the held-out seed lists the same ids as the default seed.
    assert instance_ids(runner) == sorted(expected_digests(workload, DEFAULT_SEED))


@pytest.mark.parametrize(
    ("workload", "group"), [(workload, group) for workload in WORKLOADS for group in WORKLOAD_GROUPS[workload]]
)
def test_trace_attributes_most_time_to_the_named_layer(workload, group):
    _, tracer, _ = traced(workload, DEFAULT_SEED, group)
    total = sum(tracer.self_ns.values())
    named = sum(ns for name, ns in tracer.self_ns.items() if name.startswith(NAMED_LAYERS[group]))
    assert named > total / 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solvers", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
