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
conservative; `evaluate_prescription` is the complete answer for a
prescribed leader: `best_response`'s two totals in closed form, computed in
integers at each run's two ends, in O(runs * cols).

`simulate` plays two automata against each other.  Where both are pure and
both `hold`, it appends a whole stretch of one pair at once, so a script is
played a run at a time.
"""

from __future__ import annotations

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
from .lp import reply_values, stackelberg_lp

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
                frontier.append((history + (pair,), self.leader.step(t, state, pair)))
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
    _check_actions(leader, "leader", game.rows)
    if not leader.exact:
        raise ExactStrategyUnavailable(
            "best response requires the leader's exact conditional strategies"
        )

    # layers[t] maps each state after t rounds to its leader support and, per
    # column, the successor state of each support row.
    layers: list[dict[State, tuple[list, list[list[State]]]]] = []
    columns = tuple(zip(*game.pair_table))
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
                [leader.step(t, state, column[row - 1]) for row, _ in support]
                for column in columns
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
    _check_actions(leader, "leader", game.rows)
    state = leader.initial_state()
    pairs = []
    for t in range(len(result.decisions)):
        support = leader.strategy_at(t, state).support()
        if len(support) != 1:
            raise InputError(f"on-path transcript: the leader mixes at round {t + 1}")
        pair = game.pair_table[support[0] - 1][result.decisions[t][state] - 1]
        pairs.append(pair)
        state = leader.step(t, state, pair)
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
    (best_row, best_col), _ = game.max_follower_pair
    replies, scale = reply_values(game.scaled_m2, game.granularity, gpa.threat_strategy)
    # Round t fails when its suffix S_t falls below m + cap * (T - t).  Going
    # back one round adds the round's payoff to S_t and one cap to the bound,
    # so the running margin S_t - cap * (T - t) grows by s = (payoff - cap).
    # All of it is scaled to integers by `scale`, over which the threat cap
    # (the best reply to the threat) is an integer and which the granularity
    # divides, so each step is `factor` times an entry of A*M2 less the cap.
    # Within a run of one pair s is fixed: entering the run from its last
    # round with margin M, round end + 1 - k has margin M + s*k for
    # k = 1..count, so the run is folded in closed form.  The pass goes
    # backward, and the last failure it records is the first round that fails.
    cap = max(replies)
    factor = scale // game.granularity
    step = [[factor * v - cap for v in row] for row in game.scaled_m2]
    best = factor * game.scaled_m2[best_row - 1][best_col - 1]
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


def evaluate_prescription(
    gpa: PrescribedSequenceGPA, game: BimatrixGame, budget: int = DEFAULT_STATE_BUDGET
) -> tuple[Fraction, Fraction]:
    """The (follower, leader) totals of `best_response(gpa, game,
    gpa.horizon, budget)`, in O(runs * cols).

    After the follower leaves the script, each round is worth theta, the
    value of the best reply to the threat.  So the optimum is the
    lexicographic max of "obey throughout" and, for each k, "obey k rounds,
    play the best off-script column, then theta".  Within a run the latter
    is linear in k, so only the run's two ends are evaluated, in integers
    over D * A (D the LCM of the threat's denominators).  The budget counts
    `best_response`'s states: one in round 1, then untriggered and
    triggered in each later round (untriggered only in a one-column game).
    """
    if budget < 1:
        raise InputError(f"state budget must be at least 1, got {budget}")
    _check_actions(gpa, "leader", game.rows)
    horizon = gpa.horizon
    per_round = 2 if game.cols > 1 else 1
    if 1 + per_round * (horizon - 1) > budget:
        raise StateSpaceExceeded(budget, budget + 1, horizon, (budget - 1) // per_round + 2)

    x = gpa.threat_strategy
    follower, denominator = reply_values(game.scaled_m2, game.granularity, x)
    leader, _ = reply_values(game.scaled_m1, game.granularity, x)
    theta_f, theta_l = max(zip(follower, leader))
    scale = denominator // game.granularity
    # payoff[r][c]: the (follower, leader) payoff of pair (r + 1, c + 1).
    payoff = [
        [(scale * f, scale * l) for f, l in zip(*rows)]
        for rows in zip(game.scaled_m2, game.scaled_m1)
    ]
    candidates = []
    obeyed_f = obeyed_l = start = 0
    for (row, col), count in gpa.runs:
        pair_f, pair_l = payoff[row - 1][col - 1]
        off_script = [value for j, value in enumerate(payoff[row - 1], start=1) if j != col]
        if off_script:
            deviation_f, deviation_l = max(off_script)
            for k in (start, start + count - 1):  # leave the script in round k + 1
                rest = horizon - k - 1
                candidates.append((
                    obeyed_f + (k - start) * pair_f + deviation_f + rest * theta_f,
                    obeyed_l + (k - start) * pair_l + deviation_l + rest * theta_l,
                ))
        obeyed_f += count * pair_f
        obeyed_l += count * pair_l
        start += count
    candidates.append((obeyed_f, obeyed_l))
    follower_total, leader_total = max(candidates)
    return Fraction(follower_total, denominator), Fraction(leader_total, denominator)


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

    When both players are pure and the pair played leaves both states as
    they were, the same pair repeats for as long as both `hold`, so that
    stretch is appended at once.  Prescribed leaders and the obedient and
    myopic followers hold for a whole run, so playing a script costs
    O(runs) rounds of work.
    """
    if horizon < 1:
        raise InputError("horizon must be at least 1")
    _check_actions(leader, "leader", game.rows)
    _check_actions(follower, "follower", game.cols)
    table = game.pair_table
    leader_rng = CounterRng(seed, _STREAM_LEADER)
    follower_rng = CounterRng(seed, _STREAM_FOLLOWER)
    leader_state = leader.initial_state()
    follower_state = follower.initial_state()
    pairs: list[ActionPair] = []
    t = 0
    while t < horizon:
        row, leader_pure = _sample_action(leader, t, leader_state, leader_rng)
        col, follower_pure = _sample_action(follower, t, follower_state, follower_rng)
        pair = table[row - 1][col - 1]
        next_leader = leader.step(t, leader_state, pair)
        next_follower = follower.step(t, follower_state, pair)
        rounds = 1
        if (
            leader_pure
            and follower_pure
            and next_leader == leader_state
            and next_follower == follower_state
        ):
            rounds = min(
                leader.hold(t, leader_state), follower.hold(t, follower_state), horizon - t
            )
        pairs += [pair] * rounds
        t += rounds
        leader_state, follower_state = next_leader, next_follower
    return Transcript(tuple(pairs), game)


def _check_actions(player: GamePlayingAlgorithm, side: str, actions: int) -> None:
    """Raise `InputError` unless the player has the game's `actions` for its side."""
    if player.n_actions != actions:
        raise InputError(
            f"the {side} strategy has {player.n_actions} actions, "
            f"but the game has {actions} {side} actions"
        )


def _sample_action(
    player: GamePlayingAlgorithm, t: int, state: State, rng: CounterRng
) -> tuple[int, bool]:
    """The player's action in round t + 1, from draw t + 1 when it mixes,
    and whether its strategy was pure."""
    if player.exact:
        strategy = player.strategy_at(t, state)
        support = strategy.support()
        if len(support) == 1:
            return support[0], True
        return strategy.sample(rng.u64(t + 1)), False
    probabilities = player.probabilities_at(t, state)
    u = rng.unit_float(t + 1)
    cumulative = 0.0
    for action, p in enumerate(probabilities, start=1):
        cumulative += p
        if u < cumulative:
            return action, False
    return len(probabilities), False


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


def external_regret(transcript: Transcript, game: BimatrixGame, side: str) -> RegretReport:
    """Exact regret against the realized opponent action sequence."""
    if side not in ("leader", "follower"):
        raise InputError('side must be "leader" or "follower"')
    if len(transcript) == 0:
        raise EmptyTranscript("regret needs a nonempty transcript")
    # matrix[own - 1][opponent - 1] is the side's payoff times the
    # granularity; the totals need only how often each pair and each
    # opponent action occurred.
    leader_total, follower_total = game.totals(transcript.counts)
    if side == "leader":
        matrix, realized, opponent_index = game.scaled_m1, leader_total, 1
    else:
        matrix, realized, opponent_index = tuple(zip(*game.scaled_m2)), follower_total, 0
    opponent: Counter[int] = Counter()
    for pair, count in transcript.counts.items():
        opponent[pair[opponent_index]] += count
    fixed = [sum(row[b - 1] * c for b, c in opponent.items()) for row in matrix]
    best_action = max(range(1, len(matrix) + 1), key=lambda a: (fixed[a - 1], -a))
    best_total = Fraction(fixed[best_action - 1], game.granularity)
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
