"""Ground truth for follower behavior.

`best_response` is an exact dynamic program over history prefixes: it
computes the follower's optimal total payoff against a declared leader
strategy, breaking ties first in favor of the leader's continuation value
and then by lowest action index.  Everything downstream (gap measurements,
the acceptance suite) treats its output as the reference answer, so it fails
loudly when the state space exceeds its budget rather than truncating.

`verify_prescription` is the linear-time check that obeying a prescribed
sequence is optimal: at every round the scripted suffix must be worth at
least one round of the follower's global best payoff plus threat-capped
payoffs thereafter.  The check is sound but conservative; `best_response`
is the complete fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .gpa import GamePlayingAlgorithm, History, PrescribedSequenceGPA, history_key
from .lp import max_follower_pair, stackelberg_lp

DEFAULT_STATE_BUDGET = 2_000_000

_STREAM_LEADER = 1
_STREAM_FOLLOWER = 2


class StateSpaceExceeded(RuntimeError):
    """The backward-induction state space outgrew the configured budget."""

    def __init__(self, budget: int, visited: int):
        super().__init__(
            f"best-response state space exceeded budget of {budget} prefixes "
            f"(aborted after visiting {visited})"
        )
        self.budget = budget
        self.visited = visited


class RandomnessContractViolation(RuntimeError):
    """The leader strategy cannot be analyzed exactly round by round."""


@dataclass(frozen=True)
class BestResponseResult:
    """Exact follower optimum against a fixed leader strategy.

    `follower_policy` maps every evaluated history prefix to the follower's
    chosen column.  `follower_value` is the maximal expected total follower
    payoff; `leader_value` is the expected total leader payoff under the
    leader-favorable tie-breaking among follower optima.
    """

    follower_policy: dict[History, int]
    follower_value: Fraction
    leader_value: Fraction


def best_response(
    leader: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> BestResponseResult:
    """Backward induction over history prefixes.

    At each history the follower's value for a column is the expectation over
    the leader's conditional strategy of the immediate payoff plus the value
    of the extended history; the follower takes the best column, ties broken
    by leader continuation value, then by lowest column index.
    """
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    if leader.randomness == "correlated":
        raise RandomnessContractViolation(
            "leader strategies with cross-round correlated randomness are not supported"
        )
    if not leader.exact:
        raise RandomnessContractViolation(
            "best response requires the leader's exact conditional strategies"
        )

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
        if len(memo) > budget:
            raise StateSpaceExceeded(budget, len(memo))
        return best

    follower_value, leader_value = value(())
    return BestResponseResult(policy, follower_value, leader_value)


def on_path_transcript(
    result: BestResponseResult, leader: GamePlayingAlgorithm, game: BimatrixGame, horizon: int
) -> Transcript:
    """Realized play when the follower uses the oracle policy.

    Only defined for deterministic-given-history leaders, where play follows
    a single path.
    """
    if leader.randomness != "none":
        raise InputError("on-path transcript requires a deterministic leader")
    history: History = ()
    for _ in range(horizon):
        strategy = leader.round_strategy(history)
        (row,) = strategy.support()
        col = result.follower_policy[history]
        history = history + (ActionPair(row, col),)
    return Transcript(history, game)


@dataclass(frozen=True)
class Obeys:
    """Following the prescription is optimal at every round."""


@dataclass(frozen=True)
class DeviationProfitableAt:
    """The conservative bound flags a possibly profitable deviation."""

    round: int


Verdict = Obeys | DeviationProfitableAt


def verify_prescription(
    gpa: PrescribedSequenceGPA, game: BimatrixGame, horizon: int | None = None
) -> Obeys | DeviationProfitableAt:
    """Check round by round that obeying dominates the deviation bound.

    Deviating at round t is worth at most the follower's global best payoff m
    once, then the threat-capped payoff for each remaining round; obeying is
    worth exactly the scripted suffix.  Returns the first round at which the
    bound fails, if any.  A failure here does not prove the true best
    response deviates, only that this linear check cannot certify obedience.
    """
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
    function of (leader, follower, game, horizon, seed).
    """
    leader_rng = CounterRng(seed, _STREAM_LEADER)
    follower_rng = CounterRng(seed, _STREAM_FOLLOWER)
    history: History = ()
    for t in range(1, horizon + 1):
        row = _sample_action(leader, history, leader_rng, t)
        col = _sample_action(follower, history, follower_rng, t)
        history = history + (ActionPair(row, col),)
    return Transcript(history, game)


def _sample_action(
    player: GamePlayingAlgorithm, history: History, rng: CounterRng, counter: int
) -> int:
    if player.exact:
        return player.round_strategy(history).sample_index(rng.unit_fraction(counter))
    probabilities = player.round_probabilities(history)
    u = rng.unit_float(counter)
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
    if side == "leader":
        realized = sum((game.leader_payoff(p) for p in transcript.pairs), Fraction(0))
        n_actions = game.rows
        fixed = [
            sum((game.m1[a - 1][p.col - 1] for p in transcript.pairs), Fraction(0))
            for a in range(1, n_actions + 1)
        ]
    else:
        realized = sum((game.follower_payoff(p) for p in transcript.pairs), Fraction(0))
        n_actions = game.cols
        fixed = [
            sum((game.m2[p.row - 1][a - 1] for p in transcript.pairs), Fraction(0))
            for a in range(1, n_actions + 1)
        ]
    best_action = max(range(1, n_actions + 1), key=lambda a: (fixed[a - 1], -a))
    best_total = fixed[best_action - 1]
    return RegretReport(best_total - realized, best_action, realized)


def stackelberg_gap(
    leader: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
    budget: int = DEFAULT_STATE_BUDGET,
) -> Fraction:
    """Commitment-LP value minus the leader's oracle-evaluated average.

    The LP value upper-bounds every leader strategy's per-round value, so
    this never understates the optimality loss of the given strategy.
    """
    result = best_response(leader, game, horizon, budget)
    return stackelberg_lp(game).value - result.leader_value / horizon


def best_response_to_json(
    result: BestResponseResult,
    leader: GamePlayingAlgorithm,
    game: BimatrixGame,
    horizon: int,
) -> str:
    """Serialize values plus the on-path slice of the policy.

    On-path histories are those reachable when the follower plays the policy
    and the leader realizes any action in its conditional support.
    """
    on_path: dict[str, int] = {}
    frontier: list[History] = [()]
    while frontier:
        history = frontier.pop()
        if len(history) == horizon or history not in result.follower_policy:
            continue
        col = result.follower_policy[history]
        on_path[history_key(history)] = col
        strategy = leader.round_strategy(history)
        for row in strategy.support():
            frontier.append(history + (ActionPair(row, col),))
    return stable_json(
        {
            "follower_value": format_rational(result.follower_value),
            "leader_value": format_rational(result.leader_value),
            "on_path_policy": on_path,
        }
    )
