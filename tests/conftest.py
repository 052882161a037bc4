"""Shared fixtures: canonical games, random game generators, brute-force oracles.

The brute-force best-response helpers here are deliberately independent of
the package's backward-induction oracle: they enumerate follower strategies
outright and never use a bellman-style max, so they can serve as ground
truth for it.  The history-prefix helpers are the oracle as it was before it
ran over automaton states: a recursion over every history prefix, kept as
the reference that the state-based oracle must match exactly.  Likewise
`fraction_simplex_solve`, `fraction_grid_audit_player3` and
`fraction_player3_audit` are the solvers as they were before they ran on
integers: every tableau entry and grid total a `Fraction`.  The integer
kernels must match them exactly, pivot counts included.
`fraction_sample_prescription` and `fraction_verify_prescription` are the
sampled construction and the prescription check as they were before they ran
on per-pair counts and integers: a `Fraction` CDF walk per draw
(`fraction_sample`, the draw rule read as "the first action whose
cumulative weight exceeds u/2^64"), `Fraction`-keyed sorts, and a
`Fraction` suffix array.  `fraction_pair_ordering`,
`fraction_max_follower_pair` and `fraction_totals` are the game's pair order,
follower-best pair and payoff totals as they were before the game held them
as integers: a `Fraction`-keyed sort, a `Fraction`-keyed min and a `Fraction`
fold.  `per_round_simulate` is the simulator as it was before it played pure
stretches a run at a time: one round and one `step` per player at a time.
`commitment_program` is the commitment LP as `stackelberg_lp` built it
before it pivoted the game's integer view directly: a `LinearProgram` for
`simplex_solve`.  `full_two_phase` (with `_full_pivot`, `_full_optimize`
and `_full_rebuild_cost_row`) is the integer two-phase core as it was before
it held only the nonbasic columns, copied verbatim: a full tableau with one
column per variable, artificials included, whose basic columns are unit
vectors.  `installed_threat_start` is the certified threat's start tableau as
it was built before it was written out: the raw full integer tableau plus one
`_full_pivot` per basic variable.  `fraction_reduce_graph` is the
reduction as it was built before it shared its constants: fresh `Fraction`s
for every entry and fresh cells for every vertex pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest

from repstack import ActionPair, BimatrixGame, Transcript, format_rational, validate_game
from repstack._rng import CounterRng
from repstack.core import InputError, MixedStrategy, stable_json
from repstack.gpa import (
    _STREAM_SAMPLES,
    GamePlayingAlgorithm,
    History,
    HorizonTooShort,
    PrescribedSequenceGPA,
    SampledConstruction,
    State,
    history_key,
)
from repstack.hardness import (
    DimensionMismatch,
    Graph,
    GraphTooSmall,
    ThreePlayerGame,
    _grid_points,
)
from repstack.lp import MAX_DEGENERATE_RUN, ONE, LinearProgram, LPSolution, LPStatus, stackelberg_lp
from repstack.oracle import (
    _STREAM_FOLLOWER,
    _STREAM_LEADER,
    DeviationProfitableAt,
    Obeys,
    _check_actions,
    _sample_action,
)


@pytest.fixture
def pd_game() -> BimatrixGame:
    """Prisoner's dilemma scaled into [-1, 1]; row/col 1 cooperate, 2 defect."""
    return validate_game(
        [["3/5", "0"], ["1", "1/5"]],
        [["3/5", "1"], ["0", "1/5"]],
    )


@pytest.fixture
def inevitability_game() -> BimatrixGame:
    """Game whose best leader commitment is exactly 1/T short of the LP value."""
    return validate_game([[1, 0], [0, 0]], [["1/2", 1], [0, 0]])


@pytest.fixture
def regret_tension_game() -> BimatrixGame:
    """General-sum game where good commitments force linear leader regret."""
    return validate_game(
        [["1/4", "3/4"], ["0", "1/2"]],
        [["1", "0"], ["0", "1"]],
    )


@pytest.fixture
def matching_pennies() -> BimatrixGame:
    return validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])


def random_game(
    rng: random.Random, rows: int, cols: int, max_denominator: int = 6
) -> BimatrixGame:
    def entry() -> Fraction:
        q = rng.randint(1, max_denominator)
        return Fraction(rng.randint(-q, q), q)

    m1 = [[entry() for _ in range(cols)] for _ in range(rows)]
    m2 = [[entry() for _ in range(cols)] for _ in range(rows)]
    return validate_game(m1, m2)


def random_zero_sum_game(
    rng: random.Random, rows: int, cols: int, max_denominator: int = 6
) -> BimatrixGame:
    def entry() -> Fraction:
        q = rng.randint(1, max_denominator)
        return Fraction(rng.randint(-q, q), q)

    m1 = [[entry() for _ in range(cols)] for _ in range(rows)]
    m2 = [[-v for v in row] for row in m1]
    return validate_game(m1, m2)


def state_after(player: GamePlayingAlgorithm, history: History) -> State:
    """The automaton state reached by folding `step` over a history."""
    state = player.initial_state()
    for t, pair in enumerate(history):
        state = player.step(t, state, pair)
    return state


def round_strategy(player: GamePlayingAlgorithm, history: History) -> MixedStrategy:
    """The player's strategy for the round after `history`."""
    return player.strategy_at(len(history), state_after(player, history))


def brute_force_deterministic(
    leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> tuple[Fraction, Fraction]:
    """Best follower value against a deterministic leader, by enumerating
    every pure follower action sequence.

    Returns the lexicographic maximum of (follower total, leader total),
    which matches the leader-favorable tie-breaking of a best response.
    """
    best: tuple[Fraction, Fraction] | None = None
    for columns in itertools.product(range(1, game.cols + 1), repeat=horizon):
        history: tuple[ActionPair, ...] = ()
        follower_total = Fraction(0)
        leader_total = Fraction(0)
        for col in columns:
            (row,) = round_strategy(leader, history).support()
            pair = ActionPair(row, col)
            follower_total += game.follower_payoff(pair)
            leader_total += game.leader_payoff(pair)
            history = history + (pair,)
        candidate = (follower_total, leader_total)
        if best is None or candidate > best:
            best = candidate
    assert best is not None
    return best


def brute_force_randomized(
    leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> tuple[Fraction, Fraction]:
    """Best follower value against a randomized leader.

    Materializes the exact (follower, leader) expected totals of every
    deterministic follower strategy on the reachable tree and takes the
    lexicographic maximum; exponential, so only for tiny horizons.
    """

    def achievable(history: tuple[ActionPair, ...], t: int) -> list[tuple[Fraction, Fraction]]:
        if t == horizon:
            return [(Fraction(0), Fraction(0))]
        strategy = round_strategy(leader, history)
        support = [(i, w) for i, w in enumerate(strategy.weights, 1) if w > 0]
        outcomes: list[tuple[Fraction, Fraction]] = []
        for col in range(1, game.cols + 1):
            child_sets = [
                achievable(history + (ActionPair(row, col),), t + 1)
                for row, _ in support
            ]
            for combo in itertools.product(*child_sets):
                follower_total = Fraction(0)
                leader_total = Fraction(0)
                for (row, weight), (child_f, child_l) in zip(support, combo):
                    pair = ActionPair(row, col)
                    follower_total += weight * (game.follower_payoff(pair) + child_f)
                    leader_total += weight * (game.leader_payoff(pair) + child_l)
                outcomes.append((follower_total, leader_total))
        return outcomes

    return max(achievable((), 0))


@dataclass(frozen=True)
class HistoryPrefixResult:
    """The reference oracle's output: a policy over every evaluated prefix."""

    follower_policy: dict[History, int]
    follower_value: Fraction
    leader_value: Fraction


def history_prefix_best_response(
    leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> HistoryPrefixResult:
    """Backward induction over history prefixes, by recursion.

    At each history the follower's value for a column is the expectation over
    the leader's conditional strategy of the immediate payoff plus the value
    of the extended history; the follower takes the best column, ties broken
    by leader continuation value, then by lowest column index.
    """
    policy: dict[History, int] = {}
    memo: dict[History, tuple[Fraction, Fraction]] = {}

    def value(history: History) -> tuple[Fraction, Fraction]:
        if len(history) == horizon:
            return Fraction(0), Fraction(0)
        cached = memo.get(history)
        if cached is not None:
            return cached
        strategy = round_strategy(leader, history)
        support = [
            (row, weight)
            for row, weight in enumerate(strategy.weights, start=1)
            if weight > 0
        ]
        best: tuple[Fraction, Fraction] | None = None
        best_col = 1
        for col in range(1, game.cols + 1):
            follower_total = Fraction(0)
            leader_total = Fraction(0)
            for row, weight in support:
                pair = ActionPair(row, col)
                child_follower, child_leader = value(history + (pair,))
                follower_total += weight * (game.follower_payoff(pair) + child_follower)
                leader_total += weight * (game.leader_payoff(pair) + child_leader)
            candidate = (follower_total, leader_total)
            if best is None or candidate > best:
                best = candidate
                best_col = col
        assert best is not None
        memo[history] = best
        policy[history] = best_col
        return best

    follower_value, leader_value = value(())
    return HistoryPrefixResult(policy, follower_value, leader_value)


def history_prefix_on_path(
    result: HistoryPrefixResult, leader: GamePlayingAlgorithm, horizon: int
) -> dict[History, int]:
    """The reference policy restricted to histories reachable when the
    follower plays it and the leader realizes any action in its support."""
    on_path: dict[History, int] = {}
    frontier: list[History] = [()]
    while frontier:
        history = frontier.pop()
        if len(history) == horizon or history not in result.follower_policy:
            continue
        col = result.follower_policy[history]
        on_path[history] = col
        strategy = round_strategy(leader, history)
        for row in strategy.support():
            frontier.append(history + (ActionPair(row, col),))
    return on_path


def history_prefix_to_json(
    result: HistoryPrefixResult, leader: GamePlayingAlgorithm, horizon: int
) -> str:
    """The reference serialization: values plus the on-path slice."""
    on_path = history_prefix_on_path(result, leader, horizon)
    return stable_json(
        {
            "follower_value": format_rational(result.follower_value),
            "leader_value": format_rational(result.leader_value),
            "on_path_policy": {history_key(h): col for h, col in on_path.items()},
        }
    )


def history_prefix_transcript(
    result: HistoryPrefixResult, leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> Transcript:
    """Realized play of a deterministic leader against the reference policy."""
    history: History = ()
    for _ in range(horizon):
        strategy = round_strategy(leader, history)
        (row,) = strategy.support()
        col = result.follower_policy[history]
        history = history + (ActionPair(row, col),)
    return Transcript(history, game)


def _fraction_pivot(tableau: list[list[Fraction]], pivot_row: int, pivot_col: int) -> None:
    row = tableau[pivot_row]
    factor = row[pivot_col]
    tableau[pivot_row] = [v / factor for v in row]
    row = tableau[pivot_row]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        coeff = other[pivot_col]
        if coeff != 0:
            tableau[i] = [a - coeff * b for a, b in zip(other, row)]


def _fraction_bland_optimize(
    tableau: list[list[Fraction]], basis: list[int], n_cols: int
) -> tuple[LPStatus, int]:
    m = len(tableau) - 1
    pivots = 0
    while True:
        entering = -1
        for j in range(n_cols):
            if tableau[0][j] < 0:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL, pivots
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(1, m + 1):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i - 1] < basis[leaving - 1])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED, pivots
        _fraction_pivot(tableau, leaving, entering)
        basis[leaving - 1] = entering
        pivots += 1


def _fraction_rebuild_cost_row(
    tableau: list[list[Fraction]], basis: list[int], costs: list[Fraction], n_cols: int
) -> None:
    zero = Fraction(0)
    row0 = [-c for c in costs] + [zero] * (n_cols - len(costs)) + [zero]
    for i, var in enumerate(basis, start=1):
        cb = costs[var] if var < len(costs) else zero
        if cb != 0:
            row0 = [a + cb * b for a, b in zip(row0, tableau[i])]
    tableau[0] = row0


def fraction_simplex_solve(lp: LinearProgram) -> LPSolution:
    """The two-phase Bland's-rule simplex over a `Fraction` tableau.

    Same standard-form rewrite, phases, drive-out and redundant-row dropping
    as `simplex_solve`; pivots are counted the same way (drive-out pivots in
    phase 1).
    """
    zero = Fraction(0)
    n = len(lp.objective)
    bounds = lp.bounds()
    col_of: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    shift: list[Fraction] = []
    n_std = 0
    for j, lb in enumerate(bounds):
        if lb is None:
            col_of[j] = [(n_std, 1), (n_std + 1, -1)]
            shift.append(zero)
            n_std += 2
        else:
            col_of[j] = [(n_std, 1)]
            shift.append(lb)
            n_std += 1

    def expand(row) -> tuple[list[Fraction], Fraction]:
        out = [zero] * n_std
        offset = zero
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            for column, sign in col_of[j]:
                out[column] += sign * coeff
            offset += coeff * shift[j]
        return out, offset

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_slacks = len(lp.a_ge)
    for row, b in zip(lp.a_eq, lp.b_eq):
        expanded, offset = expand(row)
        rows.append(expanded + [zero] * n_slacks)
        rhs.append(b - offset)
    for k, (row, b) in enumerate(zip(lp.a_ge, lp.b_ge)):
        expanded, offset = expand(row)
        slack = [zero] * n_slacks
        slack[k] = Fraction(-1)
        rows.append(expanded + slack)
        rhs.append(b - offset)

    n_real = n_std + n_slacks
    m = len(rows)
    objective_std = [zero] * n_real
    expanded_obj, _ = expand(lp.objective)
    objective_std[:n_std] = expanded_obj

    if m == 0:
        for j, c in enumerate(lp.objective):
            if c != 0 and bounds[j] is None:
                return LPSolution(LPStatus.UNBOUNDED)
            if c > 0:
                return LPSolution(LPStatus.UNBOUNDED)
        values = tuple(b if b is not None else zero for b in bounds)
        value = sum((c * v for c, v in zip(lp.objective, values)), zero)
        return LPSolution(LPStatus.OPTIMAL, values, value)

    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    n_total = n_real + m
    tableau: list[list[Fraction]] = [[zero] * (n_total + 1)]
    basis: list[int] = []
    for i in range(m):
        art = [zero] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
        basis.append(n_real + i)
    phase1_costs = [zero] * n_real + [Fraction(-1)] * m
    _fraction_rebuild_cost_row(tableau, basis, phase1_costs, n_total)
    status, phase1_pivots = _fraction_bland_optimize(tableau, basis, n_total)
    assert status is LPStatus.OPTIMAL
    if tableau[0][-1] != 0:
        return LPSolution(LPStatus.INFEASIBLE, pivots=(phase1_pivots, 0))

    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = next(
                (j for j in range(n_real) if tableau[i + 1][j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i + 1)
            else:
                _fraction_pivot(tableau, i + 1, pivot_col)
                basis[i] = pivot_col
                phase1_pivots += 1
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i - 1]

    tableau = [row[:n_real] + [row[-1]] for row in tableau]
    _fraction_rebuild_cost_row(tableau, basis, objective_std, n_real)
    status, phase2_pivots = _fraction_bland_optimize(tableau, basis, n_real)
    pivots = (phase1_pivots, phase2_pivots)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, pivots=pivots)

    std_values = [zero] * n_real
    for var, row in zip(basis, tableau[1:]):
        std_values[var] = row[-1]
    values = []
    for j in range(n):
        total = sum(
            (Fraction(sign) * std_values[column] for column, sign in col_of[j]), zero
        )
        values.append(total + shift[j])
    objective_value = sum((c * v for c, v in zip(lp.objective, values)), zero)
    return LPSolution(LPStatus.OPTIMAL, tuple(values), objective_value, pivots)


def _full_pivot(
    tableau: list[list[int]], pivot_row: int, pivot_col: int, denominator: int
) -> int:
    """Integer-preserving (Bareiss) pivot; returns the new common denominator.

    The tableau holds `denominator` times the true rational tableau.  Every
    other row becomes (p*row - row[e]*pivot_row) / denominator, where p is the
    pivot, and the division is exact by Sylvester's identity.  A negative
    pivot (possible when driving out artificials) first negates the pivot
    row, which negates every row of the result and keeps the denominator
    positive, so signs in the tableau are the true tableau's signs.
    """
    row = tableau[pivot_row]
    if row[pivot_col] < 0:
        row = tableau[pivot_row] = [-v for v in row]
    p = row[pivot_col]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        coeff = other[pivot_col]
        if coeff:
            tableau[i] = [(p * a - coeff * b) // denominator for a, b in zip(other, row)]
        elif p != denominator:
            tableau[i] = [p * a // denominator for a in other]
    return p


def _full_optimize(
    tableau: list[list[int]], basis: list[int], n_cols: int, denominator: int, dantzig: bool = False
) -> tuple[LPStatus | None, int, int]:
    """Run simplex iterations on a feasible tableau until optimal or unbounded.

    Row 0 holds reduced costs for maximization (entering while any is < 0).
    Bland's rule enters the lowest-index eligible column; with `dantzig` the
    most negative reduced cost enters, lowest index on a tie.  Either way the
    leaving row is the minimum-ratio row with the lowest basis variable index.
    Ratios share the tableau's denominator, so they are compared by
    cross-multiplication.  Bland's rule terminates on every program.
    Dantzig's can cycle, so it gives up (status None) once more than
    `MAX_DEGENERATE_RUN` pivots in a row leave the objective unchanged.
    Returns the status, the final denominator and the number of pivots.
    """
    m = len(tableau) - 1
    pivots = degenerate = 0
    while True:
        costs = tableau[0]
        if dantzig:
            lowest = min(costs[:n_cols])
            entering = costs.index(lowest) if lowest < 0 else -1
        else:
            entering = -1
            for j in range(n_cols):
                if costs[j] < 0:
                    entering = j
                    break
        if entering < 0:
            return LPStatus.OPTIMAL, denominator, pivots
        leaving = -1
        for i in range(1, m + 1):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                ratio = tableau[i][-1] * tableau[leaving][entering]
                best_ratio = tableau[leaving][-1] * coeff
                if ratio < best_ratio or (
                    ratio == best_ratio and basis[i - 1] < basis[leaving - 1]
                ):
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED, denominator, pivots
        if dantzig:
            degenerate = degenerate + 1 if tableau[leaving][-1] == 0 else 0
            if degenerate > MAX_DEGENERATE_RUN:
                return None, denominator, pivots
        denominator = _full_pivot(tableau, leaving, entering, denominator)
        basis[leaving - 1] = entering
        pivots += 1


def _full_rebuild_cost_row(
    tableau: list[list[int]], basis: list[int], costs: Sequence[int], denominator: int
) -> None:
    """Set row 0 to denominator * (c_B B^-1 A - c) and the scaled basic objective.

    `costs` are integers over the tableau's columns; the constraint rows
    already hold denominator * B^-1 A, so the sum needs no division.
    """
    row0 = [-denominator * c for c in costs] + [0]
    for i, var in enumerate(basis, start=1):
        cb = costs[var]
        if cb:
            row0 = [a + cb * b for a, b in zip(row0, tableau[i])]
    tableau[0] = row0


def full_two_phase(
    rows: list[list[int]], costs: list[int]
) -> tuple[LPStatus, list[list[int]], list[int], int, tuple[int, int]]:
    """Two-phase Bland's-rule simplex over integer constraint rows.

    Each row holds a constraint over the real columns, right-hand side last;
    `costs` are the phase-2 costs to maximize.  A row with a negative
    right-hand side is negated, and each row gets an identity artificial
    column.  Leftover artificials are driven out on the first real column
    with a nonzero entry; a row with none is redundant and dropped.  Returns
    the status, the final tableau, its basis and denominator, and the
    (phase 1, phase 2) pivot counts.  Scaling every row by one positive
    integer, or the costs by another, keeps every sign and ratio order that
    Bland's rule reads (the artificials scale with the rows), so it takes the
    same pivots to the same vertex.
    """
    n_real, m = len(costs), len(rows)
    tableau: list[list[int]] = [[]]
    basis: list[int] = []
    for i, row in enumerate(rows):
        if row[-1] < 0:
            row = [-v for v in row]
        art = [0] * m
        art[i] = 1
        tableau.append(row[:-1] + art + row[-1:])
        basis.append(n_real + i)
    _full_rebuild_cost_row(tableau, basis, [0] * n_real + [-1] * m, 1)
    status, denominator, phase1_pivots = _full_optimize(tableau, basis, n_real + m, 1)
    assert status is LPStatus.OPTIMAL  # phase 1 objective is bounded above by 0
    if tableau[0][-1] != 0:
        return LPStatus.INFEASIBLE, tableau, basis, denominator, (phase1_pivots, 0)

    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = next(
                (j for j in range(n_real) if tableau[i + 1][j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i + 1)
            else:
                denominator = _full_pivot(tableau, i + 1, pivot_col, denominator)
                basis[i] = pivot_col
                phase1_pivots += 1
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i - 1]

    tableau = [row[:n_real] + [row[-1]] for row in tableau]
    _full_rebuild_cost_row(tableau, basis, costs, denominator)
    status, denominator, phase2_pivots = _full_optimize(tableau, basis, n_real, denominator)
    return status, tableau, basis, denominator, (phase1_pivots, phase2_pivots)


def commitment_program(game: BimatrixGame, value: Fraction) -> LinearProgram:
    """The commitment LP over one weight per pair, row-major, with threat value `value`."""
    # Variables: the weight of each pair, in row-major order.
    objective = tuple(itertools.chain.from_iterable(game.m1))
    a_ge = (tuple(itertools.chain.from_iterable(game.m2)),)
    b_ge = (value,)
    a_eq = ((ONE,) * len(objective),)
    b_eq = (ONE,)
    return LinearProgram(objective, a_eq, b_eq, a_ge, b_ge)


def installed_threat_start(game: BimatrixGame) -> tuple[list[list[int]], list[int], int]:
    """The certified threat's raw full tableau with its start basis installed
    by pivoting: (tableau, basis, denominator)."""
    rows, cols = game.rows, game.cols
    scaled = game.scaled_m2
    w = rows  # w+ is column w, w- is column w + 1
    n = rows + 2 + cols
    cost = [0] * (n + 1)
    cost[w], cost[w + 1] = 1, -1  # row 0 starts at -c for maximize -w+ + w-
    tableau = [cost, [1] * rows + [0] * (cols + 2) + [1]]
    for j in range(cols):
        row = [-scaled[i][j] for i in range(rows)] + [1, -1] + [0] * (cols + 1)
        row[w + 2 + j] = -1
        tableau.append(row)
    first = scaled[0]
    top = first.index(max(first))
    basis = [0] + [w + 2 + j for j in range(cols)]
    basis[1 + top] = w if first[top] >= 0 else w + 1
    denominator = 1
    for i, var in enumerate(basis, start=1):
        denominator = _full_pivot(tableau, i, var, denominator)
    return tableau, basis, denominator


def fraction_reduce_graph(graph: Graph) -> ThreePlayerGame:
    """The graph-to-three-player reduction with a fresh `Fraction` per entry."""
    n = graph.n
    if n < 3:
        raise GraphTooSmall(f"reduction needs n >= 3, got n = {n}")
    bonus = Fraction(n, n - 2)
    k = graph.m + n + 1
    mu1 = []
    mu2 = []
    mu3 = []
    for r in range(1, n + 1):
        row1, row2, row3 = [], [], []
        for s in range(1, n + 1):
            cell3 = [Fraction(1)]  # index 0: t0
            for v in range(1, n + 1):
                cell3.append(Fraction(0) if v in (r, s) else bonus)
            for u, w in graph.edges:
                cell3.append(Fraction(0) if r in (u, w) else bonus)
            row3.append(tuple(cell3))
            common = tuple([Fraction(1)] + [Fraction(0)] * (k - 1))
            row1.append(common)
            row2.append(common)
        mu1.append(tuple(row1))
        mu2.append(tuple(row2))
        mu3.append(tuple(row3))
    return ThreePlayerGame(graph, tuple(mu1), tuple(mu2), tuple(mu3))


def fraction_grid_audit_player3(game3: ThreePlayerGame, resolution: int) -> Fraction:
    """Player 3's grid audit with every total a `Fraction` (no budget check)."""
    n, _, k = game3.strategy_counts
    grid = list(_grid_points(n, resolution))
    res = Fraction(resolution)
    worst: Fraction | None = None
    for q2 in grid:
        contracted: list[list[Fraction]] = []
        for t in range(k):
            row_values = []
            for r in range(1, n + 1):
                total = Fraction(0)
                for s in range(1, n + 1):
                    if q2[s - 1]:
                        total += Fraction(q2[s - 1]) * game3.payoff3(r, s, t)
                row_values.append(total / res)
            contracted.append(row_values)
        for q1 in grid:
            best: Fraction | None = None
            for t in range(k):
                row_values = contracted[t]
                total = Fraction(0)
                for r in range(n):
                    if q1[r]:
                        total += Fraction(q1[r]) * row_values[r]
                total /= res
                if best is None or total > best:
                    best = total
            assert best is not None
            if worst is None or best < worst:
                worst = best
    assert worst is not None
    return worst


def fraction_player3_audit(
    game3: ThreePlayerGame, p1: MixedStrategy, p2: MixedStrategy
) -> tuple[int, Fraction]:
    """Player 3's best reply as a `Fraction` fold per action; the first
    maximal action wins."""
    n, _, k = game3.strategy_counts
    if len(p1) != n or len(p2) != n:
        raise DimensionMismatch(
            f"strategies must range over {n} vertices, got {len(p1)} and {len(p2)}"
        )
    best_index = 0
    best_value: Fraction | None = None
    for t in range(k):
        total = Fraction(0)
        for r in range(1, n + 1):
            wr = p1.probability(r)
            if wr == 0:
                continue
            for s in range(1, n + 1):
                ws = p2.probability(s)
                if ws == 0:
                    continue
                total += wr * ws * game3.payoff3(r, s, t)
        if best_value is None or total > best_value:
            best_value = total
            best_index = t
    assert best_value is not None
    return best_index, best_value


def fraction_pair_order_key(game: BimatrixGame):
    """The pair sort key on `Fraction` payoffs: (M2, -M1, row, col)."""
    return lambda p: (game.follower_payoff(p), -game.leader_payoff(p), p.row, p.col)


def _fresh_pairs(game: BimatrixGame) -> list[ActionPair]:
    """Every pair of the game in row-major order, built anew."""
    return [
        ActionPair(row, col) for row in range(1, game.rows + 1) for col in range(1, game.cols + 1)
    ]


def fraction_pair_ordering(game: BimatrixGame) -> tuple[ActionPair, ...]:
    """All pairs sorted on `fraction_pair_order_key`."""
    return tuple(sorted(_fresh_pairs(game), key=fraction_pair_order_key(game)))


def fraction_max_follower_pair(game: BimatrixGame) -> tuple[ActionPair, Fraction]:
    """The follower-best pair by a `Fraction`-keyed min: maximal follower
    payoff, then maximal leader payoff, then lowest (row, col)."""
    best = min(
        _fresh_pairs(game),
        key=lambda p: (-game.follower_payoff(p), -game.leader_payoff(p), p.row, p.col),
    )
    return best, game.follower_payoff(best)


def fraction_totals(game: BimatrixGame, counts) -> tuple[Fraction, Fraction]:
    """Total (leader, follower) payoff over {pair: count}, one `Fraction` fold each."""
    leader = sum((game.m1[r - 1][c - 1] * n for (r, c), n in counts.items()), Fraction(0))
    follower = sum((game.m2[r - 1][c - 1] * n for (r, c), n in counts.items()), Fraction(0))
    return leader, follower


def fraction_sample(weights: Sequence[Fraction], u: int) -> int:
    """The 1-based action that a 64-bit draw u picks: the first whose
    cumulative weight exceeds u/2^64, walked in `Fraction`s."""
    cumulative = Fraction(0)
    for action, weight in enumerate(weights, start=1):
        cumulative += weight
        if Fraction(u, 1 << 64) < cumulative:
            return action
    raise AssertionError("the weights sum to less than 1")


def fraction_sample_prescription(
    game: BimatrixGame, horizon: int, seed: int
) -> SampledConstruction:
    """The sampled construction with a `Fraction` CDF walk per draw and
    `Fraction`-keyed sorts of the whole block."""
    if horizon < 2:
        raise HorizonTooShort(horizon, 2)
    solution = stackelberg_lp(game)
    threat_result = solution.threat
    reward_pair, follower_max = fraction_max_follower_pair(game)

    if follower_max == threat_result.value:
        script = tuple([reward_pair] * horizon)
        gpa = PrescribedSequenceGPA(game, script, threat_result.strategy)
        block = tuple([reward_pair] * (horizon - 1))
        return SampledConstruction(gpa, block, block, 0)

    all_pairs = list(game.pairs())
    weights = [solution.alpha[p] for p in all_pairs]
    draw = CounterRng(seed, _STREAM_SAMPLES).u64
    draws = [all_pairs[fraction_sample(weights, draw(k)) - 1] for k in range(1, horizon)]

    ascending = lambda p: (game.follower_payoff(p), game.leader_payoff(p), p.row, p.col)
    canonical = fraction_pair_order_key(game)
    pre_swap = tuple(sorted(draws, key=canonical))

    block_len = horizon - 1
    required = threat_result.value * block_len
    follower_sum = sum((game.follower_payoff(p) for p in draws), Fraction(0))
    repaired = sorted(draws, key=ascending)
    swaps = 0
    position = 0
    while follower_sum < required:
        while repaired[position] == reward_pair:
            position += 1
        follower_sum += follower_max - game.follower_payoff(repaired[position])
        repaired[position] = reward_pair
        position += 1
        swaps += 1

    post_swap = tuple(sorted(repaired, key=canonical))
    script = post_swap + (reward_pair,)
    gpa = PrescribedSequenceGPA(game, script, threat_result.strategy)
    return SampledConstruction(gpa, pre_swap, post_swap, swaps)


def fraction_verify_prescription(
    gpa: PrescribedSequenceGPA, game: BimatrixGame, horizon: int | None = None
) -> Obeys | DeviationProfitableAt:
    """The prescription check over a `Fraction` suffix array of all T rounds."""
    if horizon is not None and horizon != gpa.horizon:
        raise InputError(
            f"horizon {horizon} does not match prescription length {gpa.horizon}"
        )
    rounds = gpa.horizon
    _, follower_best = fraction_max_follower_pair(game)
    threat_cap = max(
        sum((w * game.m2[i][j] for i, w in enumerate(gpa.threat_strategy.weights)), Fraction(0))
        for j in range(game.cols)
    )
    suffix = Fraction(0)
    suffix_values: list[Fraction] = [Fraction(0)] * rounds
    for t in range(rounds, 0, -1):
        suffix += game.follower_payoff(gpa.prescription[t - 1])
        suffix_values[t - 1] = suffix
    for t in range(1, rounds + 1):
        if suffix_values[t - 1] < follower_best + threat_cap * (rounds - t):
            return DeviationProfitableAt(t)
    return Obeys()


def per_round_simulate(
    leader: GamePlayingAlgorithm,
    follower: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
    seed: int,
) -> Transcript:
    """`simulate` one round at a time."""
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    _check_actions(leader, "leader", game.rows)
    _check_actions(follower, "follower", game.cols)
    table = game.pair_table
    leader_rng = CounterRng(seed, _STREAM_LEADER)
    follower_rng = CounterRng(seed, _STREAM_FOLLOWER)
    leader_state = leader.initial_state()
    follower_state = follower.initial_state()
    pairs = []
    for t in range(horizon):
        row, _ = _sample_action(leader, t, leader_state, leader_rng)
        col, _ = _sample_action(follower, t, follower_state, follower_rng)
        pair = table[row - 1][col - 1]
        pairs.append(pair)
        leader_state = leader.step(t, leader_state, pair)
        follower_state = follower.step(t, follower_state, pair)
    return Transcript(tuple(pairs), game)
