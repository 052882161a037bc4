"""Span tracer that wraps repstack's public functions from outside the package.

Every module binding through which the program calls a traced function is
replaced by a wrapper, so nested calls record child spans: name, start, end,
parent span and instance id.  A span's self time is its duration minus the
time covered by its children.  Hot per-round methods (`round_strategy`) are
recorded as aggregate call counts and times only, not one span per call.
Spans stay in memory until `write_spans` is called at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

from repstack import cli, core, gpa, hardness, lp, oracle

# (span name, owners whose attribute of that name is wrapped).  A function
# imported into several modules is wrapped at each binding, because the
# caller resolves whichever name its own module holds.
SPAN_BINDINGS: tuple[tuple[str, str, tuple[object, ...]], ...] = (
    ("lp.simplex_solve", "simplex_solve", (lp,)),
    ("lp.threat", "threat", (lp, gpa, cli)),
    ("lp.stackelberg_lp", "stackelberg_lp", (lp, gpa, oracle, cli)),
    ("lp.game_value", "game_value", (lp,)),
    ("oracle.best_response", "best_response", (oracle,)),
    ("oracle.verify_prescription", "verify_prescription", (oracle,)),
    ("oracle.simulate", "simulate", (oracle,)),
    ("oracle.external_regret", "external_regret", (oracle,)),
    ("gpa.sample_prescription", "sample_prescription", (gpa,)),
    ("gpa.build_deterministic_gpa", "build_deterministic_gpa", (gpa,)),
    ("gpa.serialize", "gpa_to_json", (gpa,)),
    ("gpa.serialize", "gpa_from_json", (gpa,)),
    ("hardness.graph_from_text", "graph_from_text", (hardness,)),
    ("hardness.reduce_graph", "reduce_graph", (hardness,)),
    ("hardness.balanced_vertex_cover", "balanced_vertex_cover", (hardness,)),
    ("hardness.cover_strategies", "cover_strategies", (hardness,)),
    ("hardness.player3_audit", "player3_audit", (hardness,)),
    ("hardness.grid_audit_player3", "grid_audit_player3", (hardness,)),
    ("core.game_from_json", "game_from_json", (core,)),
    ("cli.main", "main", (cli,)),
)

# Spans recorded (and counted in their layer's share) but not reported on
# their own: no end-to-end metric depends on them.
UNREPORTED = ("hardness.graph_from_text", "hardness.cover_strategies")

SPAN_NAMES = tuple(
    name for name in dict.fromkeys(name for name, _, _ in SPAN_BINDINGS) if name not in UNREPORTED
) + ("gpa.round_strategy",)

# Layer of a span is the prefix before the first dot.
LAYERS = ("lp", "oracle", "gpa", "hardness", "cli", "core")

EXIT_CODES = (0, 2, 3, 4)

# `cli.main` minus its children is the CLI's own work: argument parsing,
# file I/O and JSON.
SELF_METRIC = {"cli.main": "cli.self_s"}


def _argument(fn, name: str):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _strategy_classes() -> list[type]:
    """Every strategy class the program defines."""
    found = []
    for module in (gpa, hardness):
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, gpa.GamePlayingAlgorithm)
                and value.__module__ == module.__name__
            ):
                found.append(value)
    return found


class Tracer:
    """Records spans and exact counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # None while a span is open
        self.stack: list[list] = []  # [start_ns, child_ns, span_id]
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.instance_counts: dict[str | None, Counter] = defaultdict(Counter)
        self.instance: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        horizon_sim = _argument(oracle.simulate, "horizon")
        horizon_sample = _argument(gpa.sample_prescription, "horizon")
        resolution = _argument(hardness.grid_audit_player3, "resolution")
        game3_arg = _argument(hardness.grid_audit_player3, "game3")

        def add(key: str, count: int) -> None:
            self.counts[key] += count
            self.instance_counts[self.instance][key] += count

        def count_states(args, kwargs, result):
            add("oracle.states", len(result.follower_policy))

        def count_rounds(args, kwargs, result):
            add("oracle.simulate.rounds", horizon_sim(args, kwargs))

        def count_draws(args, kwargs, result):
            add("gpa.sample.draws", horizon_sample(args, kwargs) - 1)
            add("gpa.sample.swaps", result.swaps)

        def count_grid(args, kwargs, result):
            n, _, k = game3_arg(args, kwargs).strategy_counts
            res = resolution(args, kwargs)
            add("hardness.grid.evaluations", math.comb(res + n - 1, n - 1) ** 2 * k)

        def count_exit(args, kwargs, result):
            add(f"cli.exit.{result}", 1)

        counters = {
            "oracle.best_response": count_states,
            "oracle.simulate": count_rounds,
            "gpa.sample_prescription": count_draws,
            "hardness.grid_audit_player3": count_grid,
            "cli.main": count_exit,
        }
        for name, attr, owners in SPAN_BINDINGS:
            for owner in owners:
                self._patch(owner, attr, name, False, counters.get(name))
        for cls in _strategy_classes():
            for attr in ("round_strategy", "round_probabilities"):
                # MW exposes only float round probabilities; they play the
                # role round_strategy plays for exact strategies.
                if attr in vars(cls) and (attr == "round_strategy" or not cls.exact):
                    self._patch(cls, attr, "gpa.round_strategy", True, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, name, aggregate, counter) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, aggregate, counter))
        self._patches.append((owner, attr, original))

    def _wrap(self, name, fn, aggregate, counter):
        tracer = self
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if aggregate:
                span_id = parent
            else:
                span_id = len(spans)
                spans.append(None)
            frame = [perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                tracer.self_ns[name] += duration - frame[1]
                tracer.total_ns[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if not aggregate:
                    spans[span_id] = (name, frame[0], end, parent, tracer.instance)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        return wrapper

    # -- reporting --------------------------------------------------------

    def metrics(self, instance_ns: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for a traced pass whose instances took `instance_ns`."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[SELF_METRIC.get(name, f"{name}.self_s")] = (
                self.self_ns.get(name, 0) / 1e9,
                "s",
            )
        for code in EXIT_CODES:
            out[f"cli.exit.{code}"] = (self.counts.get(f"cli.exit.{code}", 0), "count")
        for key in (
            "oracle.states",
            "oracle.simulate.rounds",
            "gpa.sample.draws",
            "gpa.sample.swaps",
            "hardness.grid.evaluations",
        ):
            out[key] = (self.counts.get(key, 0), "count")
        out["oracle.states_per_s"] = (
            _rate(self.counts.get("oracle.states", 0), self.total_ns.get("oracle.best_response", 0)),
            "1/s",
        )
        out["hardness.grid.evals_per_s"] = (
            _rate(
                self.counts.get("hardness.grid.evaluations", 0),
                self.total_ns.get("hardness.grid_audit_player3", 0),
            ),
            "1/s",
        )
        layer_ns = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            layer_ns[name.split(".", 1)[0]] += ns
        for layer in LAYERS:
            out[f"layer.{layer}.self_frac"] = (layer_ns[layer] / instance_ns, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, (name, start, end, parent, instance) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "instance": instance,
                        }
                    )
                    + "\n"
                )


def _rate(count: int, ns: int) -> float:
    return count / (ns / 1e9) if ns else 0.0
