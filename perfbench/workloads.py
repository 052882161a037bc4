"""The benchmark's instance groups and workloads: seeded inputs, one call per instance, exact checks.

Four instance groups (solve, evaluate, construct, audit) each exercise one
layer; the two workloads run two groups each (`WORKLOAD_GROUPS`).  A seed
turns a workload into a plan: a JSON-ready list of instance specs (games,
graphs, horizons, sampling seeds), each tagged with its group.  The slot
lists below fix the mix of shapes, horizons and graph sizes; the seed only
draws the payoffs, graphs and sampling seeds that fill each slot, so every
seed measures the same mix.  Drawing a plan may search (some slots redraw
until a game fits), so it runs once, before any set-up is timed.
`make_instances` then writes the plan's input files and loads them.  An
instance's `run` is the timed call into the program; its `check` verifies the
output exactly, without calling the program, and returns the exact values
that the default-seed digest covers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from repstack import cli, core, gpa, lp, oracle


class CheckFailed(Exception):
    """An output broke one of the workload's exact invariants."""


@dataclass
class Instance:
    id: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def digest(record: Any) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def pairs_digest(pairs) -> str:
    return hashlib.sha256(";".join(f"{p.row},{p.col}" for p in pairs).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs.


def random_matrix(rng: random.Random, rows: int, cols: int, scale: int) -> list[list[Fraction]]:
    return [[Fraction(rng.randint(-scale, scale), scale) for _ in range(cols)] for _ in range(rows)]


def pd_like(rng: random.Random, scale: int) -> tuple[list, list]:
    """A prisoner's dilemma with sucker < punish < reward < temptation."""
    s, p, r, t = (Fraction(v, scale) for v in sorted(rng.sample(range(-scale, scale + 1), 4)))
    return [[r, s], [t, p]], [[r, t], [s, p]]


def encode(matrix) -> list[list[str]]:
    return [[text(v) for v in row] for row in matrix]


def decode(matrix) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in matrix]


def write_game(path: Path, m1, m2) -> None:
    path.write_text(json.dumps({"M1": encode(m1), "M2": encode(m2)}) + "\n", encoding="utf-8")


def load_game(path: Path) -> core.BimatrixGame:
    return core.game_from_json(path.read_text(encoding="utf-8"))


def cycle_length(solution: lp.StackelbergSolution) -> int:
    return math.lcm(*(w.denominator for w in solution.alpha.values()))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def column_values(strategy: tuple[Fraction, ...], matrix) -> list[Fraction]:
    """strategy . matrix e_j for every column j."""
    return [
        sum((w * matrix[i][j] for i, w in enumerate(strategy)), Fraction(0))
        for j in range(len(matrix[0]))
    ]


# ---------------------------------------------------------------------------
# solve: the lp layer alone.  Rows and cols run from 3 to 20, mostly small,
# rectangular shapes included.  Quantiles of a few dozen games hinge on
# single games' pivot counts, so the shapes come in groups: sixteen 6x6
# games hold the median and nine 10x10 games the 90th percentile, and each
# quantile is an order statistic within a group of like games.  A = 1 makes
# degenerate programs that exercise Bland's tie-breaking; every fifth game is
# zero-sum.

# (shapes, payoff scales cycled through the group, games per shape)
SOLVE_GROUPS = (
    (((3, 3), (3, 4), (4, 3), (4, 4), (3, 5), (5, 3), (4, 5), (5, 4), (5, 5), (3, 6),
      (6, 3), (4, 6), (6, 4), (3, 7), (7, 3), (5, 6), (6, 5), (10, 3), (20, 3), (16, 4)),
     (1, 2, 6, 60), 1),
    (((6, 6),), (1, 2, 6, 60), 16),
    (((7, 7), (8, 8), (3, 10), (8, 4), (4, 8), (12, 3), (12, 6), (7, 9), (9, 7)), (1, 2, 6, 60), 1),
    (((10, 10),), (2, 6, 60), 9),
    (((3, 20),), (2,), 1),
)


def solve_slots() -> list[tuple[int, int, int]]:
    slots = []
    for shapes, scales, repeats in SOLVE_GROUPS:
        for k, (rows, cols) in enumerate(shape for shape in shapes for _ in range(repeats)):
            slots.append((rows, cols, scales[k % len(scales)]))
    return slots


def plan_solve(rng: random.Random) -> list[dict]:
    specs = []
    for index, (rows, cols, scale) in enumerate(solve_slots()):
        zero_sum = index % 5 == 4
        m1 = random_matrix(rng, rows, cols, scale)
        m2 = [[-v for v in row] for row in m1] if zero_sum else random_matrix(rng, rows, cols, scale)
        specs.append({
            "id": f"solve-{index:02d}-{rows}x{cols}-A{scale}{'-zs' if zero_sum else ''}",
            "m1": encode(m1), "m2": encode(m2), "zero_sum": zero_sum,
        })
    return specs


def solve_instance(spec: dict, workdir: Path) -> Instance:
    m1, m2 = decode(spec["m1"]), decode(spec["m2"])
    path = workdir / f"{spec['id']}.json"
    write_game(path, m1, m2)
    return Instance(spec["id"], partial(solve_run, load_game(path)), partial(solve_check, m1, m2, spec["zero_sum"]))


def solve_run(game):
    return lp.threat(game), lp.stackelberg_lp(game), lp.game_value(game)


def solve_check(m1, m2, zero_sum, output):
    threat, solution, value = output
    x = threat.strategy.weights
    v = threat.value
    require(len(x) == len(m1), "threat strategy has the wrong length")
    require(all(w >= 0 for w in x) and sum(x) == 1, "threat strategy is not a distribution")
    require(max(column_values(x, m2)) == v, "max_j x*.M2 e_j != V")
    require(solution.threat_value == v, "commitment LP threat value differs from threat()")
    alpha = solution.alpha
    require(len(alpha) == len(m1) * len(m1[0]), "alpha does not cover every pair")
    require(all(w >= 0 for w in alpha.values()) and sum(alpha.values()) == 1, "alpha is not a distribution")
    follower = sum((w * m2[p.row - 1][p.col - 1] for p, w in alpha.items()), Fraction(0))
    leader = sum((w * m1[p.row - 1][p.col - 1] for p, w in alpha.items()), Fraction(0))
    require(follower >= v, "sum alpha.M2 < V")
    require(solution.value == leader, "OPT != sum alpha.M1")
    # The threat with a leader-favourable follower best reply is feasible.
    replies = column_values(x, m2)
    induced = max(column_values(x, m1)[j] for j, r in enumerate(replies) if r == v)
    require(solution.value >= induced, "OPT below the threat-induced distribution")
    require(solution.value >= value, "OPT below the leader's maximin value")
    if zero_sum:
        require(value == -v, "zero-sum game value != -V")
    return {
        "V": text(v),
        "x": [text(w) for w in x],
        "alpha": {f"{p.row},{p.col}": text(w) for p, w in sorted(alpha.items()) if w},
        "opt": text(solution.value),
        "game_value": text(value),
    }


# ---------------------------------------------------------------------------
# evaluate: `build` then `evaluate --json` through the CLI.  The oracle's
# state count is fixed by the slot: T untriggered prefixes plus, for each
# deviation, a punished subtree branching support*cols per round.  Slots are
# sized so that no instance comes near the state budget.  The costs form
# three clusters: ten cheap instances (T = 9 pure threats, T = 6 mixed 2x2),
# twelve mixed-threat 2x2 and 3x2 games at T = 7 that hold the median, and
# six mixed-threat 2x3 games at T = 6 that sit with PD at T = 13 around the
# 90th percentile, under PD at T = 14 and 15.  Each slot alternates its
# payoff scale between 1 and 2 instead of drawing it, so that the seed moves
# a cluster's costs as little as it can.

PD = ([["3/5", "0"], ["1", "1/5"]], [["3/5", "1"], ["0", "1/5"]])

# (rows, cols, threat kind, T, sampled, instances)
EVALUATE_SLOTS = (
    (2, 2, "pure", 9, False, 2), (2, 2, "pure", 9, True, 2), (3, 2, "pure", 9, False, 2),
    (2, 2, "mixed", 6, False, 2), (2, 2, "mixed", 6, True, 2),
    (2, 3, "pure", 7, False, 2), (2, 3, "pure", 7, True, 2),
    (2, 2, "mixed", 7, False, 3), (2, 2, "mixed", 7, True, 3),
    (3, 2, "mixed", 7, False, 3), (3, 2, "mixed", 7, True, 3),
    (2, 3, "mixed", 6, False, 3), (2, 3, "mixed", 6, True, 3),
)
EVALUATE_PD = ((11, False), (12, True), (13, False), (14, True), (15, False))
# Single-column games at a long horizon: today the recursive oracle raises
# RecursionError on them, a known defect reported separately (see README).
LONG_HORIZON = 1500
LONG_HORIZON_ROWS = (2, 3)


def draw_evaluate_game(rng, rows, cols, kind, horizon, sampled, scale):
    for _ in range(2000):
        m1 = random_matrix(rng, rows, cols, scale)
        m2 = random_matrix(rng, rows, cols, scale)
        game = core.validate_game(m1, m2)
        support = len(lp.threat(game).strategy.support())
        if (support == 1) != (kind == "pure"):
            continue
        if not sampled and cycle_length(lp.stackelberg_lp(game)) >= horizon:
            continue
        return m1, m2
    raise RuntimeError(f"no {rows}x{cols} {kind}-threat game fits T={horizon}")


def evaluate_spec(name, m1, m2, horizon, sampled, seed) -> dict:
    return {"id": name, "m1": encode(m1), "m2": encode(m2), "horizon": horizon, "sampled": sampled, "seed": seed}


def plan_evaluate(rng: random.Random) -> list[dict]:
    pd_m1, pd_m2 = decode(PD[0]), decode(PD[1])
    drawn = []
    for rows, cols, kind, horizon, sampled, count in EVALUATE_SLOTS:
        for k in range(count):
            m1, m2 = draw_evaluate_game(rng, rows, cols, kind, horizon, sampled, 1 + k % 2)
            drawn.append((f"{rows}x{cols}-{kind}", m1, m2, horizon, sampled))
    for horizon, sampled in EVALUATE_PD:
        drawn.append(("pd", pd_m1, pd_m2, horizon, sampled))
    return [
        evaluate_spec(f"evaluate-{i:02d}-{label}-T{horizon}{'-sampled' if sampled else ''}",
                      m1, m2, horizon, sampled, rng.randrange(1 << 30))
        for i, (label, m1, m2, horizon, sampled) in enumerate(drawn)
    ]


def plan_long_horizon(rng: random.Random) -> list[dict]:
    specs = []
    for rows in LONG_HORIZON_ROWS:
        m1 = random_matrix(rng, rows, 1, 2)
        m2 = random_matrix(rng, rows, 1, 2)
        specs.append(evaluate_spec(f"evaluate-long-{rows}x1-T{LONG_HORIZON}", m1, m2, LONG_HORIZON, False, 0))
    return specs


def evaluate_instance(spec: dict, workdir: Path) -> Instance:
    name, horizon, sampled = spec["id"], spec["horizon"], spec["sampled"]
    m1, m2 = decode(spec["m1"]), decode(spec["m2"])
    game_path = workdir / f"{name}.game.json"
    strategy_path = workdir / f"{name}.gpa.json"
    write_game(game_path, m1, m2)
    build = ["build", str(game_path), "-T", str(horizon), "-o", str(strategy_path), "--json"]
    if sampled:
        build += ["--sampled", "--seed", str(spec["seed"])]
    evaluate = ["evaluate", str(game_path), str(strategy_path), "--json"]

    def run():
        built = run_cli(build)
        return built, run_cli(evaluate)

    def check(output):
        (build_code, _), (code, stdout) = output
        require(build_code == 0, f"build exited {build_code}")
        require(code in (0, 4), f"evaluate exited {code}")
        report = json.loads(stdout)
        strategy = json.loads(strategy_path.read_text(encoding="utf-8"))
        prescription = [tuple(pair) for pair in strategy["prescription"]]
        require(len(prescription) == horizon == report["T"], "horizon mismatch")
        obeys = report["verdict"] == "Obeys"
        require(obeys == (code == 0), "exit code disagrees with the verdict")
        leader = Fraction(report["leader_average"])
        follower = Fraction(report["follower_average"])
        opt = Fraction(report["opt"])
        require(Fraction(report["gap"]) == opt - leader, "gap != opt - leader_average")
        if obeys:
            obedient_leader = sum((m1[r - 1][c - 1] for r, c in prescription), Fraction(0)) / horizon
            obedient_follower = sum((m2[r - 1][c - 1] for r, c in prescription), Fraction(0)) / horizon
            require(follower == obedient_follower, "obeying follower average differs from the script")
            require(leader >= obedient_leader, "leader average below the obedient average")
        return {
            "prescription": hashlib.sha256(json.dumps(prescription).encode()).hexdigest(),
            "threat": strategy["threat"],
            "leader_average": text(leader),
            "follower_average": text(follower),
            "opt": text(opt),
        }

    return Instance(name, run, check)


# ---------------------------------------------------------------------------
# construct: library calls that build, verify and replay prescriptions.  In
# PD-like games the commitment LP's follower constraint binds, so the swap
# repair fires.  simulate is quadratic today, so it runs only for T <= 4097;
# one MW-versus-myopic instance per pass exercises the float learner.  Most
# instances run at T = 1025 and hold the median.  Five 7x7 and 8x8 games
# with A = 2 at T = 1025 and the MW instance cost about the same and hold
# the 90th percentile, under the T = 4097 and T = 16385 instances.  The long horizons use PD-like games, whose sampling cost
# does not depend on the draw (a random game whose follower can already get
# their maximum skips sampling altogether).

# (game kind, rows, cols, payoff scale, T)
CONSTRUCT_SLOTS = (
    ("random", 2, 2, 1, 1025), ("random", 2, 2, 6, 1025), ("random", 2, 2, 2, 1025),
    ("random", 2, 2, 2, 1025), ("random", 2, 3, 6, 1025), ("random", 3, 2, 2, 1025),
    ("random", 2, 3, 2, 1025), ("random", 3, 2, 6, 1025), ("random", 2, 4, 2, 1025),
    ("random", 3, 3, 1, 1025), ("random", 3, 3, 2, 1025), ("random", 3, 3, 6, 1025),
    ("random", 3, 4, 2, 1025), ("random", 4, 3, 2, 1025), ("random", 4, 4, 2, 1025),
    ("random", 4, 4, 1, 1025), ("random", 5, 5, 1, 1025), ("random", 5, 5, 2, 1025),
    ("pd", 2, 2, 3, 1025), ("pd", 2, 2, 5, 1025), ("pd", 2, 2, 6, 1025),
    ("pd", 2, 2, 8, 1025), ("pd", 2, 2, 10, 1025), ("pd", 2, 2, 12, 1025),
    ("pd", 2, 2, 15, 1025), ("pd", 2, 2, 20, 1025), ("pd", 2, 2, 30, 1025),
    ("pd", 2, 2, 40, 1025), ("pd", 2, 2, 60, 1025),
    ("pd", 2, 2, 7, 1025), ("pd", 2, 2, 9, 1025), ("pd", 2, 2, 25, 1025),
    ("random", 6, 6, 1, 1025), ("random", 7, 7, 1, 1025), ("random", 8, 8, 1, 1025),
    ("random", 6, 6, 2, 1025), ("random", 7, 7, 2, 1025), ("random", 8, 8, 2, 1025),
    ("random", 7, 7, 2, 1025), ("random", 8, 8, 2, 1025), ("random", 8, 8, 2, 1025),
    ("pd", 2, 2, 10, 4097), ("pd", 2, 2, 20, 16385),
)
SIMULATE_MAX_T = 4097
MW_HORIZON = 500
MW_RATE = Fraction(1, 10)


def draw_construct_game(rng, kind, rows, cols, scale, horizon):
    for _ in range(2000):
        if kind == "pd":
            m1, m2 = pd_like(rng, scale)
        else:
            m1, m2 = random_matrix(rng, rows, cols, scale), random_matrix(rng, rows, cols, scale)
        solution = lp.stackelberg_lp(core.validate_game(m1, m2))
        if cycle_length(solution) < horizon:
            return m1, m2, solution.alpha
    raise RuntimeError(f"no {kind} {rows}x{cols} game fits T={horizon}")


def plan_construct(rng: random.Random) -> list[dict]:
    specs = []
    for index, (kind, rows, cols, scale, horizon) in enumerate(CONSTRUCT_SLOTS):
        m1, m2, alpha = draw_construct_game(rng, kind, rows, cols, scale, horizon)
        specs.append({
            "id": f"construct-{index:02d}-{kind}-{rows}x{cols}-A{scale}-T{horizon}",
            "m1": encode(m1), "m2": encode(m2), "horizon": horizon, "seed": rng.randrange(1 << 30),
            "alpha": {f"{p.row},{p.col}": text(w) for p, w in alpha.items()},
        })
    m1, m2 = pd_like(rng, 10)
    specs.append({
        "id": f"construct-{len(specs):02d}-mw-pd-T{MW_HORIZON}",
        "m1": encode(m1), "m2": encode(m2), "horizon": MW_HORIZON, "seed": rng.randrange(1 << 30),
    })
    return specs


def construct_instance(spec: dict, workdir: Path) -> Instance:
    m1, m2, horizon = decode(spec["m1"]), decode(spec["m2"]), spec["horizon"]
    path = workdir / f"{spec['id']}.json"
    write_game(path, m1, m2)
    game = load_game(path)
    if "alpha" not in spec:
        return Instance(spec["id"], partial(mw_run, game, horizon, spec["seed"]), partial(mw_check, m1, horizon))
    alpha = {pair: Fraction(w) for pair, w in spec["alpha"].items()}
    return Instance(
        spec["id"],
        partial(construct_run, game, horizon, spec["seed"]),
        partial(construct_check, m1, m2, alpha, horizon),
    )


def construct_run(game, horizon, seed):
    sampled = gpa.sample_prescription(game, horizon, seed)
    deterministic, params = gpa.build_deterministic_gpa(game, horizon)
    verdicts = (
        oracle.verify_prescription(sampled.gpa, game),
        oracle.verify_prescription(deterministic, game),
    )
    restored = gpa.gpa_from_json(gpa.gpa_to_json(sampled.gpa), game)
    transcript = regret = None
    if horizon <= SIMULATE_MAX_T:
        follower = gpa.prescription_follower(sampled.gpa.prescription, game.cols)
        transcript = oracle.simulate(sampled.gpa, follower, game, horizon, seed)
        regret = oracle.external_regret(transcript, game, "leader")
    return sampled, deterministic, params, verdicts, restored, transcript, regret


def construct_check(m1, m2, alpha, horizon, output):
    sampled, deterministic, params, _, restored, transcript, regret = output
    x = sampled.gpa.threat_strategy.weights
    threat_value = max(column_values(x, m2))
    require(deterministic.threat_strategy.weights == x, "constructions disagree on the threat")
    script = sampled.gpa.prescription
    require(len(script) == horizon and len(sampled.post_swap) == horizon - 1, "sampled horizon mismatch")
    require(script[:-1] == sampled.post_swap, "sampled script is not the repaired block")
    follower_sum = sum((m2[p.row - 1][p.col - 1] for p in sampled.post_swap), Fraction(0))
    require(follower_sum >= threat_value * (horizon - 1), "post-swap follower sum below V(T-1)")
    require(len(sampled.pre_swap) == horizon - 1, "pre-swap sample has the wrong size")
    block = params.cycles * params.cycle_length
    require(block + params.reward_rounds == horizon, "T != cN + r")
    for pair, count in params.counts.items():
        require(alpha[f"{pair.row},{pair.col}"] * block == count, f"deterministic count of {pair} != alpha*c*N")
    laid_out = Counter(deterministic.prescription[:block])
    require(
        laid_out == Counter({p: c for p, c in params.counts.items() if c}),
        "deterministic block does not realize the counts",
    )
    require(restored.prescription == script, "strategy JSON round trip changed the script")
    record = {
        "V": text(threat_value),
        "x": [text(w) for w in x],
        "alpha": {pair: text(w) for pair, w in alpha.items() if w},
        "swaps": sampled.swaps,
        "pre_swap": pairs_digest(sampled.pre_swap),
        "post_swap": pairs_digest(sampled.post_swap),
        "deterministic": pairs_digest(deterministic.prescription),
        "cycle": [params.cycle_length, params.cycles, params.reward_rounds],
    }
    if transcript is not None:
        require(transcript.pairs == script, "obedient transcript differs from the prescription")
        leader_total = sum((m1[p.row - 1][p.col - 1] for p in script), Fraction(0))
        require(regret.realized_total == leader_total, "regret realized_total != transcript total")
        record["regret"] = [text(regret.total_regret), regret.best_fixed_action, text(regret.realized_total)]
    return record


def mw_run(game, horizon, seed):
    leader = gpa.multiplicative_weights(game, "leader", MW_RATE)
    follower = gpa.myopic_best_responder(game, leader)
    transcript = oracle.simulate(leader, follower, game, horizon, seed)
    return transcript, oracle.external_regret(transcript, game, "leader")


def mw_check(m1, horizon, output):
    transcript, regret = output
    require(len(transcript.pairs) == horizon, "MW transcript has the wrong length")
    realized = sum((m1[p.row - 1][p.col - 1] for p in transcript.pairs), Fraction(0))
    fixed = [sum((m1[a][p.col - 1] for p in transcript.pairs), Fraction(0)) for a in range(len(m1))]
    require(regret.realized_total == realized, "regret realized_total != transcript total")
    require(regret.total_regret == max(fixed) - realized, "regret != best fixed action - realized")
    return {
        "transcript": pairs_digest(transcript.pairs),
        "regret": [text(regret.total_regret), regret.best_fixed_action, text(regret.realized_total)],
    }


# ---------------------------------------------------------------------------
# audit: `audit-vc --json` through the CLI.  Graphs with a balanced cover take
# the cheap cover path and hold the median; the others run the grid audit at
# the largest resolution whose evaluation count (points^2 * k, the count the
# audit's own budget uses) stays within 3 * 10^4, which puts every grid audit
# between about 10^4 and 3 * 10^4 evaluations.  Each slot fixes n and the
# edge count m, so k = n + m + 1 and the audit's cost do not depend on the
# seed, which only picks the edges.

# (n, m) per graph
AUDIT_COVER_GRAPHS = (
    (6, 6), (4, 3), (5, 4), (6, 6), (4, 3), (5, 4), (6, 6), (6, 6), (5, 4), (4, 3),
    (6, 6), (5, 4), (6, 6), (4, 3), (5, 4), (6, 6), (6, 6), (5, 4), (4, 3), (6, 6),
)
AUDIT_GRID_GRAPHS = (
    (5, 8), (6, 12), (5, 8), (4, 6), (5, 8), (5, 8), (6, 12), (5, 8), (4, 6), (5, 8),
    (5, 8), (6, 12), (5, 8),
)
GRID_MAX_EVALUATIONS = 30_000
C_EXPONENT = 5


def min_cover_size(n: int, edges) -> int:
    for size in range(n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return n


def random_graph(rng: random.Random, n: int, m: int, balanced: bool):
    """m random edges on n vertices, with or without a balanced cover."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = rng.sample(pairs, m)
        if (min_cover_size(n, edges) <= n // 2) == balanced:
            return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


def grid_resolution(n: int, m: int) -> int:
    resolution = 1
    while math.comb(resolution + n, n - 1) ** 2 * (n + m + 1) <= GRID_MAX_EVALUATIONS:
        resolution += 1
    return resolution


def plan_audit(rng: random.Random, data_dir: Path) -> list[dict]:
    graphs = [("cycle4", True, parse_graph((data_dir / "cycle4.txt").read_text(encoding="utf-8")))]
    graphs += [(f"cover-n{n}-m{m}", True, (n, random_graph(rng, n, m, True))) for n, m in AUDIT_COVER_GRAPHS]
    graphs += [("k4", False, parse_graph((data_dir / "k4.txt").read_text(encoding="utf-8")))]
    graphs += [(f"grid-n{n}-m{m}", False, (n, random_graph(rng, n, m, False))) for n, m in AUDIT_GRID_GRAPHS]
    specs = []
    for index, (label, balanced, (n, edges)) in enumerate(graphs):
        resolution = grid_resolution(n, len(edges))
        specs.append({
            "id": f"audit-{index:02d}-{label}" + ("" if balanced else f"-res{resolution}"),
            "n": n, "edges": edges, "balanced": balanced, "resolution": resolution,
        })
    return specs


def audit_instance(spec: dict, workdir: Path) -> Instance:
    n, edges, resolution = spec["n"], [tuple(edge) for edge in spec["edges"]], spec["resolution"]
    path = workdir / f"{spec['id']}.txt"
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    argv = ["audit-vc", str(path), "--resolution", str(resolution), "--c-exponent", str(C_EXPONENT), "--json"]
    return Instance(spec["id"], partial(run_cli, argv), partial(audit_check, n, edges, spec["balanced"], resolution))


def parse_graph(content: str):
    lines = [line.split() for line in content.splitlines() if line.strip()]
    return int(lines[0][0]), [(int(u), int(v)) for u, v in lines[1:]]


def player3_best_reply(n, edges, cover) -> tuple[str, Fraction]:
    """Player 3's best reply when Players 1 and 2 play uniformly on the cover
    (padded with the lowest non-cover vertices to n // 2) and its complement.

    With odd n the two sets differ in size, so a vertex action can beat t0.
    """
    padded = sorted(cover)
    padded += [v for v in range(1, n + 1) if v not in cover][: n // 2 - len(padded)]
    complement = [v for v in range(1, n + 1) if v not in padded]
    bonus = Fraction(n, n - 2)

    def miss(vertices, group):
        return 1 - Fraction(sum(v in group for v in vertices), len(group))

    candidates = [("t0", Fraction(1))]
    candidates += [(f"tv{v}", bonus * miss([v], padded) * miss([v], complement)) for v in range(1, n + 1)]
    candidates += [(f"te{u}-{w}", bonus * miss([u, w], padded)) for u, w in edges]
    best = max(value for _, value in candidates)
    return next(c for c in candidates if c[1] == best)


def audit_check(n, edges, balanced, resolution, output):
    code, stdout = output
    report = json.loads(stdout)
    cover = report["balanced_cover"]
    require((cover is not None) == balanced, "balanced cover found/missed wrongly")
    if cover is not None:
        chosen = set(cover)
        require(len(chosen) == len(cover) <= n // 2, "cover is not balanced")
        require(all(1 <= v <= n for v in chosen), "cover names a missing vertex")
        require(all(u in chosen or v in chosen for u, v in edges), "cover misses an edge")
        action, value = player3_best_reply(n, edges, cover)
        require(report["p3_best_action"] == action, "Player 3's best reply differs")
        require(Fraction(report["p3_best_value"]) == value, "Player 3's best value differs")
        if n % 2 == 0:
            require((action, value) == ("t0", 1), "Player 3 does not settle for t0 at value 1")
        require(code == (0 if (action, value) == ("t0", 1) else 4), f"audit-vc exit {code} disagrees")
        return {"cover": cover, "p3": [action, text(value)]}
    threshold = 1 + Fraction(1, (n - 2) * n ** (C_EXPONENT - 1))
    worst = Fraction(report["grid_worst_case"])
    require(report["resolution"] == resolution, "resolution not echoed")
    require(Fraction(report["threshold"]) == threshold, "threshold != 1 + 1/((n-2) n^(c-1))")
    require(report["certified_on_grid"] == (worst > threshold), "certified_on_grid != (worst > threshold)")
    require(code == (0 if worst > threshold else 4), f"audit-vc exit {code} disagrees with the certificate")
    return {"worst": text(worst), "threshold": text(threshold)}


# ---------------------------------------------------------------------------


INSTANCE_BUILDERS = {
    "solve": solve_instance,
    "evaluate": evaluate_instance,
    "construct": construct_instance,
    "audit": audit_instance,
}

# Each workload runs two instance groups.  `solvers` holds the exact solvers
# (the simplex, the Fraction grid audit); `strategies` builds and checks
# repeated-game strategies (gpa, the oracle, simulate).  Two workloads, not
# one per group, so that each run can measure for longer within the
# benchmark's total time budget and average out more of the machine's speed
# drift.
WORKLOAD_GROUPS = {
    "solvers": ("solve", "audit"),
    "strategies": ("evaluate", "construct"),
}


def plan_group(group: str, seed: int, data_dir: Path) -> tuple[list[dict], list[dict]]:
    """One group's instance specs and probes: instances that today hit a
    known defect and run once, outside the timed loop."""
    rng = random.Random(f"repstack-perfbench:{group}:{seed}")
    probes = []
    if group == "solve":
        specs = plan_solve(rng)
    elif group == "evaluate":
        specs = plan_evaluate(rng)
        probes = plan_long_horizon(random.Random(f"repstack-perfbench:long:{seed}"))
    elif group == "construct":
        specs = plan_construct(rng)
    else:
        specs = plan_audit(rng, data_dir)
    for spec in specs + probes:
        spec["group"] = group
    return specs, probes


def make_plan(workload: str, seed: int, data_dir: Path) -> dict:
    """The seed's instance specs and probes for every group of the workload."""
    if workload not in WORKLOAD_GROUPS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {"workload": workload, "seed": seed, "instances": [], "probes": []}
    for group in WORKLOAD_GROUPS[workload]:
        specs, probes = plan_group(group, seed, data_dir)
        plan["instances"] += specs
        plan["probes"] += probes
    return plan


def make_instances(specs: list[dict], workdir: Path) -> list[Instance]:
    """Write each spec's input files under `workdir` and load them."""
    return [INSTANCE_BUILDERS[spec["group"]](spec, workdir) for spec in specs]
