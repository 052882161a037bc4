"""Shared fixtures: canonical games, random game generators, brute-force oracles.

The brute-force best-response helpers here are deliberately independent of
the package's backward-induction oracle: they enumerate follower strategies
outright and never use a bellman-style max, so they can serve as ground
truth for it.  The history-prefix helpers are the oracle as it was before it
ran over automaton states: a recursion over every history prefix, kept as
the reference that the state-based oracle must match exactly.  Likewise
`fraction_simplex_solve` and `fraction_grid_audit_player3` are the solvers as
they were before they ran on integers: every tableau entry and grid total a
`Fraction`.  The integer kernels must match them exactly, pivot counts
included.  `fraction_sample_prescription` and `fraction_verify_prescription`
are the sampled construction and the prescription check as they were before
they ran on per-pair counts and integers: a `Fraction` CDF walk per draw,
`Fraction`-keyed sorts, and a `Fraction` suffix array.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from repstack import ActionPair, BimatrixGame, Transcript, format_rational, validate_game
from repstack._rng import CounterRng
from repstack.core import InputError, MixedStrategy, pair_order_key, stable_json
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
from repstack.hardness import ThreePlayerGame, _grid_points
from repstack.lp import LinearProgram, LPSolution, LPStatus, max_follower_pair, stackelberg_lp
from repstack.oracle import DeviationProfitableAt, Obeys


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
    for pair in history:
        state = player.step(state, pair)
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


def fraction_sample_prescription(
    game: BimatrixGame, horizon: int, seed: int
) -> SampledConstruction:
    """The sampled construction with a `Fraction` CDF walk per draw and
    `Fraction`-keyed sorts of the whole block."""
    if horizon < 2:
        raise HorizonTooShort(horizon, 2)
    solution = stackelberg_lp(game)
    threat_result = solution.threat
    reward_pair, follower_max = max_follower_pair(game)

    if follower_max == threat_result.value:
        script = tuple([reward_pair] * horizon)
        gpa = PrescribedSequenceGPA(game, script, threat_result.strategy)
        block = tuple([reward_pair] * (horizon - 1))
        return SampledConstruction(gpa, block, block, 0)

    all_pairs = list(game.pairs())
    weights = MixedStrategy(tuple(solution.alpha[p] for p in all_pairs))
    rng = CounterRng(seed, _STREAM_SAMPLES)
    draws = [
        all_pairs[weights.sample_index(rng.unit_fraction(k)) - 1]
        for k in range(1, horizon)
    ]

    ascending = lambda p: (game.follower_payoff(p), game.leader_payoff(p), p.row, p.col)
    canonical = pair_order_key(game)
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
    _, follower_best = max_follower_pair(game)
    threat_cap = max(
        gpa.threat_strategy.expected([game.m2[i][j] for i in range(game.rows)])
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
