"""Shared fixtures: canonical games, random game generators, brute-force oracles.

The brute-force best-response helpers here are deliberately independent of
the package's backward-induction oracle: they enumerate follower strategies
outright and never use a bellman-style max, so they can serve as ground
truth for it.  The history-prefix helpers are the oracle as it was before it
ran over automaton states: a recursion over every history prefix, kept as
the reference that the state-based oracle must match exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from repstack import ActionPair, BimatrixGame, Transcript, format_rational, validate_game
from repstack.core import stable_json
from repstack.gpa import GamePlayingAlgorithm, History, history_key


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
            (row,) = leader.round_strategy(history).support()
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
        strategy = leader.round_strategy(history)
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
        strategy = leader.round_strategy(history)
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
        strategy = leader.round_strategy(history)
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
        strategy = leader.round_strategy(history)
        (row,) = strategy.support()
        col = result.follower_policy[history]
        history = history + (ActionPair(row, col),)
    return Transcript(history, game)
