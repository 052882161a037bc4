"""Ground truth for follower behavior.

`best_response` is an exact dynamic program over the leader automaton's
reachable (round, state) pairs: it computes the follower's optimal total
payoff against a declared leader strategy, breaking ties first in favor of
the leader's continuation value and then by lowest action index.  It runs
iteratively, so the horizon meets no recursion limit.  Everything downstream
(gap measurements, the acceptance suite) treats its output as the reference
answer, so it fails loudly when the state space exceeds its budget rather
than truncating.

`verify_prescription` is the check that obeying a prescribed sequence is
optimal: at every round the scripted suffix must be worth at least one round
of the follower's global best payoff plus threat-capped payoffs thereafter.
It runs as one backward pass over the script's runs, with payoffs scaled to
integers, so it costs O(runs), not O(T).  The check is sound but
conservative; `best_response` is the complete fallback.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._rng import CounterRng
from .core import (
    ActionPair,
    BimatrixGame,
    EmptyTranscript,
    InputError,
    Transcript,
    format_rational,
    stable_json,
)
from .gpa import ExactStrategyUnavailable, GamePlayingAlgorithm, History, PrescribedSequenceGPA
from .gpa import State, history_key
from .lp import max_follower_pair, stackelberg_lp

DEFAULT_STATE_BUDGET = 2_000_000

_STREAM_LEADER = 1
_STREAM_FOLLOWER = 2


class StateSpaceExceeded(RuntimeError):
    """The best-response state space outgrew the configured budget."""

    def __init__(self, budget: int, visited: int, horizon: int, round: int):
        super().__init__(
            f"best-response state space exceeded budget of {budget} states "
            f"at round {round} of T={horizon} (aborted after visiting {visited})"
        )
        self.budget = budget
        self.visited = visited
        self.horizon = horizon
        self.round = round


@dataclass(frozen=True)
class BestResponseResult:
    """Exact follower optimum against a fixed leader strategy.

    `decisions[t]` maps each reachable leader state after t rounds to the
    follower's chosen column.  `follower_value` is the maximal expected total
    follower payoff; `leader_value` is the expected total leader payoff under
    the leader-favorable tie-breaking among follower optima.  `leader` is the
    strategy answered, and the horizon is `len(decisions)`.
    """

    follower_value: Fraction
    leader_value: Fraction
    decisions: tuple[dict[State, int], ...]
    leader: GamePlayingAlgorithm = field(repr=False, compare=False)

    @cached_property
    def follower_policy(self) -> dict[History, int]:
        """The decisions keyed by history, on path only: the histories reached
        when the follower plays them and the leader realizes any action in its
        conditional support.  Built on first access; the keys hold O(T^2)
        pairs in total even when the automaton has O(T) states."""
        horizon = len(self.decisions)
        policy: dict[History, int] = {}
        frontier: list[tuple[History, State]] = [((), self.leader.initial_state())]
        while frontier:
            history, state = frontier.pop()
            t = len(history)
            if t == horizon:
                continue
            col = self.decisions[t][state]
            policy[history] = col
            for row in self.leader.strategy_at(t, state).support():
                pair = ActionPair(row, col)
                frontier.append((history + (pair,), self.leader.step(state, pair)))
        return policy


def best_response(
    leader: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> BestResponseResult:
    """Backward induction over the leader automaton's reachable states.

    A forward pass collects the states reachable after each round; the
    budget counts them.  A backward pass then values each state: the
    follower's value for a column is the expectation over the leader's
    conditional strategy of the immediate payoff plus the value of the
    successor state; the follower takes the best column, ties broken by
    leader continuation value, then by lowest column index.
    """
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    if budget < 1:
        raise InputError(f"state budget must be at least 1, got {budget}")
    if not leader.exact:
        raise ExactStrategyUnavailable(
            "best response requires the leader's exact conditional strategies"
        )

    # layers[t] maps each state after t rounds to its leader support and, per
    # column, the successor state of each support row.
    layers: list[dict[State, tuple[list, list[list[State]]]]] = []
    frontier: dict[State, None] = {leader.initial_state(): None}
    visited = 0
    for t in range(horizon):
        layer = {}
        successors: dict[State, None] = {}
        for state in frontier:
            visited += 1
            if visited > budget:
                raise StateSpaceExceeded(budget, visited, horizon, t + 1)
            strategy = leader.strategy_at(t, state)
            support = [
                (row, weight)
                for row, weight in enumerate(strategy.weights, start=1)
                if weight > 0
            ]
            children = [
                [leader.step(state, ActionPair(row, col)) for row, _ in support]
                for col in range(1, game.cols + 1)
            ]
            for column_children in children:
                successors.update(dict.fromkeys(column_children))
            layer[state] = (support, children)
        layers.append(layer)
        frontier = successors

    zero = (Fraction(0), Fraction(0))
    values: dict[State, tuple[Fraction, Fraction]] = dict.fromkeys(frontier, zero)
    decisions: list[dict[State, int]] = []
    while layers:
        layer_values = {}
        layer_decisions = {}
        for state, (support, children) in layers.pop().items():
            best: tuple[Fraction, Fraction] | None = None
            best_col = 1
            for col, column_children in enumerate(children, start=1):
                follower_total = Fraction(0)
                leader_total = Fraction(0)
                for (row, weight), child in zip(support, column_children):
                    child_follower, child_leader = values[child]
                    follower_total += weight * (game.m2[row - 1][col - 1] + child_follower)
                    leader_total += weight * (game.m1[row - 1][col - 1] + child_leader)
                candidate = (follower_total, leader_total)
                if best is None or candidate > best:
                    best = candidate
                    best_col = col
            assert best is not None
            layer_values[state] = best
            layer_decisions[state] = best_col
        values = layer_values
        decisions.append(layer_decisions)
    decisions.reverse()

    follower_value, leader_value = values[leader.initial_state()]
    return BestResponseResult(follower_value, leader_value, tuple(decisions), leader)


def on_path_transcript(result: BestResponseResult, game: BimatrixGame) -> Transcript:
    """Realized play when the follower uses the oracle policy against the
    result's own leader, over the result's horizon.

    Only defined while the leader plays a pure strategy on the path, where
    play follows a single path; raises `InputError` naming the first round
    where the leader mixes.
    """
    leader = result.leader
    state = leader.initial_state()
    pairs = []
    for t in range(len(result.decisions)):
        support = leader.strategy_at(t, state).support()
        if len(support) != 1:
            raise InputError(f"on-path transcript: the leader mixes at round {t + 1}")
        pair = ActionPair(support[0], result.decisions[t][state])
        pairs.append(pair)
        state = leader.step(state, pair)
    return Transcript(tuple(pairs), game)


@dataclass(frozen=True)
class Obeys:
    """Following the prescription is optimal at every round."""


@dataclass(frozen=True)
class DeviationProfitableAt:
    """The conservative bound flags a possibly profitable deviation."""

    round: int


def verify_prescription(
    gpa: PrescribedSequenceGPA, game: BimatrixGame
) -> Obeys | DeviationProfitableAt:
    """Check round by round that obeying dominates the deviation bound.

    Deviating at round t is worth at most the follower's global best payoff m
    once, then the threat-capped payoff for each remaining round; obeying is
    worth exactly the scripted suffix.  Returns the first round at which the
    bound fails, if any.  A failure here does not prove the true best
    response deviates, only that this linear check cannot certify obedience.
    """
    _, follower_best = max_follower_pair(game)
    threat_cap = max(
        gpa.threat_strategy.expected([game.m2[i][j] for i in range(game.rows)])
        for j in range(game.cols)
    )
    # Round t fails when its suffix S_t falls below m + cap * (T - t).  Going
    # back one round adds the round's payoff to S_t and one cap to the bound,
    # so the running margin S_t - cap * (T - t) grows by s = (payoff - cap).
    # All of it is scaled to integers once.  Within a run of one pair s is
    # fixed: entering the run from its last round with margin M, round
    # end + 1 - k has margin M + s*k for k = 1..count, so the run is folded
    # in closed form.  The pass goes backward, and the last failure it
    # records is the first round that fails.
    scale = math.lcm(game.granularity, threat_cap.denominator)
    cap = int(threat_cap * scale)
    step = [[int(v * scale) - cap for v in row] for row in game.m2]
    best = int(follower_best * scale)
    margin = cap
    first_failure = None
    end = gpa.horizon
    for pair, count in reversed(gpa.runs):
        s = step[pair.row - 1][pair.col - 1]
        if margin + s * count < best:
            # The run's first round fails: the margin there is the lowest
            # when s <= 0, and with s > 0 every round of the run fails.
            first_failure = end + 1 - count
        elif margin + s < best:
            # s > 0: rounds k = 1 .. (best - M - 1) // s fail, and the
            # largest such k is the earliest failing round of the run.
            first_failure = end + 1 - (best - margin - 1) // s
        margin += s * count
        end -= count
    if first_failure is None:
        return Obeys()
    return DeviationProfitableAt(first_failure)


def simulate(
    leader: GamePlayingAlgorithm,
    follower: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
    seed: int,
) -> Transcript:
    """Play both strategies against each other for `horizon` rounds.

    Each player's randomness comes from its own stream of the seeded
    counter-based generator, draw t for round t, so the transcript is a pure
    function of (leader, follower, game, horizon, seed).  A round whose
    strategy is pure takes no draw; since draws are indexed by round,
    skipping one changes no other.
    """
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    leader_rng = CounterRng(seed, _STREAM_LEADER)
    follower_rng = CounterRng(seed, _STREAM_FOLLOWER)
    leader_state = leader.initial_state()
    follower_state = follower.initial_state()
    pairs = []
    for t in range(horizon):
        row = _sample_action(leader, t, leader_state, leader_rng)
        col = _sample_action(follower, t, follower_state, follower_rng)
        pair = ActionPair(row, col)
        pairs.append(pair)
        leader_state = leader.step(leader_state, pair)
        follower_state = follower.step(follower_state, pair)
    return Transcript(tuple(pairs), game)


def _sample_action(player: GamePlayingAlgorithm, t: int, state: State, rng: CounterRng) -> int:
    """The player's action in round t + 1, from draw t + 1 when it mixes."""
    if player.exact:
        strategy = player.strategy_at(t, state)
        support = strategy.support()
        if len(support) == 1:
            return support[0]
        return strategy.sample_index(rng.unit_fraction(t + 1))
    probabilities = player.probabilities_at(t, state)
    u = rng.unit_float(t + 1)
    cumulative = 0.0
    for action, p in enumerate(probabilities, start=1):
        cumulative += p
        if u < cumulative:
            return action
    return len(probabilities)


@dataclass(frozen=True)
class RegretReport:
    """Realized external regret of one side of a transcript.

    `total_regret` is the best fixed action's total against the realized
    opponent sequence minus the realized total; it may be negative when the
    realized play beat every fixed action, and is reported as-is.
    """

    total_regret: Fraction
    best_fixed_action: int
    realized_total: Fraction

    def to_json(self) -> str:
        return stable_json(
            {
                "total_regret": format_rational(self.total_regret),
                "best_fixed_action": self.best_fixed_action,
                "realized_total": format_rational(self.realized_total),
            }
        )


def external_regret(transcript: Transcript, game: BimatrixGame, side: str) -> RegretReport:
    """Exact regret against the realized opponent action sequence."""
    if side not in ("leader", "follower"):
        raise InputError('side must be "leader" or "follower"')
    if len(transcript) == 0:
        raise EmptyTranscript("regret needs a nonempty transcript")
    # matrix[own - 1][opponent - 1] is the side's payoff; the totals need only
    # how often each (own, opponent) action pair and opponent action occurred.
    rows = [p.row for p in transcript.pairs]
    cols = [p.col for p in transcript.pairs]
    if side == "leader":
        matrix, n_actions = game.m1, game.rows
        played, opponent = Counter(zip(rows, cols)), Counter(cols)
    else:
        matrix, n_actions = tuple(zip(*game.m2)), game.cols
        played, opponent = Counter(zip(cols, rows)), Counter(rows)
    realized = sum((matrix[a - 1][b - 1] * c for (a, b), c in played.items()), Fraction(0))
    fixed = [sum((row[b - 1] * c for b, c in opponent.items()), Fraction(0)) for row in matrix]
    best_action = max(range(1, n_actions + 1), key=lambda a: (fixed[a - 1], -a))
    best_total = fixed[best_action - 1]
    return RegretReport(best_total - realized, best_action, realized)


def stackelberg_gap(
    leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> Fraction:
    """Commitment-LP value minus the leader's oracle-evaluated average.

    The LP value upper-bounds every leader strategy's per-round value, so
    this never understates the optimality loss of the given strategy.
    """
    result = best_response(leader, game, horizon)
    return stackelberg_lp(game).value - result.leader_value / horizon


def best_response_to_json(result: BestResponseResult) -> str:
    """Serialize values plus the on-path slice of the policy.

    On-path histories are those reachable when the follower plays the policy
    and the leader realizes any action in its conditional support; the slice
    is `result.follower_policy`.
    """
    return stable_json(
        {
            "follower_value": format_rational(result.follower_value),
            "leader_value": format_rational(result.leader_value),
            "on_path_policy": {
                history_key(history): col for history, col in result.follower_policy.items()
            },
        }
    )
