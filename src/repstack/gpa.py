"""Leader strategy automata and their constructions.

A GamePlayingAlgorithm maps the history of play so far to a mixed strategy
for the current round.  Instances carry no mutable state: whether a threat
has been triggered is re-derived from the history on every call, so a single
instance can be shared freely.

Two constructions build prescribed-sequence automata from the commitment LP:

* `build_deterministic_gpa` lays out the LP distribution exactly over whole
  cycles of length N (the LCM of the probability denominators) and finishes
  with reward rounds at the follower's best pair, achieving the LP value to
  within 2N/T on the obedient transcript.
* `build_sampled_gpa` draws the sequence i.i.d. from the LP distribution,
  repairs the follower's average up to the threat value by swapping in the
  follower's best pair, and appends one final reward round.  Its guarantee is
  independent of the number of actions but degrades as T^-0.25.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ._rng import CounterRng
from .core import (
    ActionPair,
    BimatrixGame,
    InputError,
    MixedStrategy,
    Transcript,
    format_rational,
    pair_order_key,
    pair_ordering,
    parse_rational,
    stable_json,
)
from .lp import StackelbergSolution, max_follower_pair, stackelberg_lp
from .lp import threat  # noqa: F401 -- kept bound: perfbench/tracer.py wraps gpa.threat

_STREAM_SAMPLES = 3

History = tuple[ActionPair, ...]


class HorizonTooShort(InputError):
    """The horizon is too short for the requested construction."""

    def __init__(self, horizon: int, minimum: int, cycle_length: int | None = None):
        if cycle_length is None:
            message = f"horizon T={horizon} too short; need T >= {minimum}"
        else:
            message = (
                f"horizon T={horizon} too short: cycle length N={cycle_length} "
                f"requires T >= {minimum}"
            )
        super().__init__(message)
        self.horizon = horizon
        self.minimum = minimum
        self.cycle_length = cycle_length


class MissingEntry(InputError):
    """A lookup-table strategy was queried on a history it does not cover."""


class ExactStrategyUnavailable(RuntimeError):
    """The strategy cannot express its conditional distribution in rationals."""


class GamePlayingAlgorithm:
    """Base class: one player's algorithm for a finite-horizon repeated game.

    Subclasses implement `round_strategy`, whose output may depend only on
    the history passed in (plus construction-time randomness already baked
    into the instance).  `n_actions` is the size of the owning player's
    action set.

    Attributes:
        exact: the conditional distribution given any history is available
            as exact rationals (required by the best-response oracle).
        randomness: "none" for deterministic-given-history strategies,
            "per_round" for strategies that mix fresh randomness each round,
            "correlated" for strategies whose rounds share random coins
            (never produced here, rejected by the oracle).
    """

    kind: str = "abstract"
    exact: bool = True
    randomness: str = "none"

    def __init__(self, n_actions: int):
        if n_actions < 1:
            raise InputError("a player needs at least one action")
        self.n_actions = n_actions

    def round_strategy(self, history: History) -> MixedStrategy:
        raise NotImplementedError

    def round_probabilities(self, history: History) -> list[float]:
        """Float view of the current conditional strategy (simulation only)."""
        return [float(w) for w in self.round_strategy(history).weights]


class PrescribedSequenceGPA(GamePlayingAlgorithm):
    """Play a fixed pair script; punish any follower deviation forever.

    Before the follower has ever departed from the scripted column, round t
    plays the scripted leader row.  From the first deviation on, every round
    plays the threat strategy.
    """

    kind = "prescribed"

    def __init__(
        self,
        game: BimatrixGame,
        prescription: Sequence[ActionPair],
        threat_strategy: MixedStrategy,
    ):
        super().__init__(game.rows)
        if not prescription:
            raise InputError("prescription must cover at least one round")
        for pair in prescription:
            if not game.contains(pair):
                raise InputError(f"prescribed pair {pair} out of bounds")
        if len(threat_strategy) != game.rows:
            raise InputError("threat strategy must range over leader rows")
        self.game = game
        self.prescription = tuple(prescription)
        self.threat_strategy = threat_strategy
        self.randomness = "none" if threat_strategy.is_pure() else "per_round"

    @property
    def horizon(self) -> int:
        return len(self.prescription)

    def triggered(self, history: History) -> bool:
        return any(
            played.col != scripted.col
            for played, scripted in zip(history, self.prescription)
        )

    def round_strategy(self, history: History) -> MixedStrategy:
        t = len(history)
        if t >= self.horizon:
            raise InputError("history extends beyond the horizon")
        if self.triggered(history):
            return self.threat_strategy
        return MixedStrategy.pure(self.prescription[t].row, self.n_actions)

    def obedient_transcript(self) -> Transcript:
        """The transcript realized when the follower obeys every round."""
        return Transcript(self.prescription, self.game)


@dataclass(frozen=True)
class CycleParameters:
    """Shape of the deterministic layout: T = c*N + r with r in [1, N].

    `counts` gives how many of the first c*N rounds each pair occupies; each
    count is its LP weight times c*N, always an integer by choice of N.
    """

    cycle_length: int
    cycles: int
    reward_rounds: int
    counts: dict[ActionPair, int]


def build_deterministic_gpa(
    game: BimatrixGame, horizon: int, solution: StackelbergSolution | None = None
) -> tuple[PrescribedSequenceGPA, CycleParameters]:
    """Lay the LP distribution out exactly, worst pairs for the follower first.

    The first c*N rounds realize the LP weights exactly in ascending order of
    follower payoff; the final r rounds prescribe the follower's best pair so
    no late deviation is ever profitable.  Requires T >= N + 1.
    """
    if solution is None:
        solution = stackelberg_lp(game)
    cycle_length = math.lcm(*(w.denominator for w in solution.alpha.values()))
    if horizon <= cycle_length:
        raise HorizonTooShort(horizon, cycle_length + 1, cycle_length)
    reward_rounds = horizon % cycle_length or cycle_length
    cycles = (horizon - reward_rounds) // cycle_length
    block = cycles * cycle_length
    counts: dict[ActionPair, int] = {}
    prescription: list[ActionPair] = []
    for pair in pair_ordering(game):
        weight = solution.alpha[pair] * block
        assert weight.denominator == 1
        counts[pair] = int(weight)
        prescription.extend([pair] * int(weight))
    reward_pair, _ = max_follower_pair(game)
    prescription.extend([reward_pair] * reward_rounds)
    gpa = PrescribedSequenceGPA(game, prescription, solution.threat.strategy)
    params = CycleParameters(cycle_length, cycles, reward_rounds, counts)
    return gpa, params


@dataclass(frozen=True)
class SampledConstruction:
    """A sampled prescription plus the raw sample it was repaired from."""

    gpa: PrescribedSequenceGPA
    pre_swap: tuple[ActionPair, ...]
    post_swap: tuple[ActionPair, ...]
    swaps: int


def sample_prescription(
    game: BimatrixGame, horizon: int, seed: int
) -> SampledConstruction:
    """Draw T-1 pairs i.i.d. from the LP distribution and repair them.

    While the sampled follower average falls below the threat value, the
    sampled pair currently worst for the follower (ties: worst for the
    leader, then lexicographic) is replaced by the follower's best pair.
    The repaired block is sorted by ascending follower payoff and one final
    reward round is appended.  Fully determined by (game, horizon, seed).
    """
    if horizon < 2:
        raise HorizonTooShort(horizon, 2)
    solution = stackelberg_lp(game)
    threat_result = solution.threat
    reward_pair, follower_max = max_follower_pair(game)

    if follower_max == threat_result.value:
        # The follower will settle for nothing less than their maximum, so
        # prescribe the leader-best pair achieving it every round.
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


def build_sampled_gpa(
    game: BimatrixGame, horizon: int, seed: int
) -> PrescribedSequenceGPA:
    return sample_prescription(game, horizon, seed).gpa


class GrimTriggerGPA(GamePlayingAlgorithm):
    """Cooperate until the follower's first departure, then punish forever."""

    kind = "grim_trigger"

    def __init__(self, game: BimatrixGame, cooperate_pair: ActionPair, punish_row: int):
        super().__init__(game.rows)
        if not game.contains(cooperate_pair):
            raise InputError(f"cooperate pair {cooperate_pair} out of bounds")
        if not 1 <= punish_row <= game.rows:
            raise InputError(f"punish row {punish_row} out of bounds")
        self.game = game
        self.cooperate_pair = cooperate_pair
        self.punish_row = punish_row

    def round_strategy(self, history: History) -> MixedStrategy:
        if any(pair.col != self.cooperate_pair.col for pair in history):
            return MixedStrategy.pure(self.punish_row, self.n_actions)
        return MixedStrategy.pure(self.cooperate_pair.row, self.n_actions)


def grim_trigger(
    game: BimatrixGame, cooperate_pair: ActionPair, punish_row: int
) -> GrimTriggerGPA:
    return GrimTriggerGPA(game, cooperate_pair, punish_row)


class TwoPhaseDefectGPA(GamePlayingAlgorithm):
    """Defect for a fixed opening phase, then cooperate; grim on col 2.

    Uses the standard prisoner's-dilemma orientation: row 1 / col 1 cooperate,
    row 2 / col 2 defect.  Any follower defection switches the leader to
    defecting for the remainder of the game.
    """

    kind = "two_phase"

    def __init__(self, game: BimatrixGame, phase1_len: int):
        super().__init__(game.rows)
        if game.rows < 2 or game.cols < 2:
            raise InputError("two-phase strategy needs at least two actions per side")
        if phase1_len < 0:
            raise InputError("phase1_len must be nonnegative")
        self.game = game
        self.phase1_len = phase1_len

    def round_strategy(self, history: History) -> MixedStrategy:
        if any(pair.col == 2 for pair in history):
            return MixedStrategy.pure(2, self.n_actions)
        if len(history) < self.phase1_len:
            return MixedStrategy.pure(2, self.n_actions)
        return MixedStrategy.pure(1, self.n_actions)


def two_phase_defect_gpa(game: BimatrixGame, phase1_len: int) -> TwoPhaseDefectGPA:
    return TwoPhaseDefectGPA(game, phase1_len)


class MultiplicativeWeightsGPA(GamePlayingAlgorithm):
    """Exponential-weights learner over own actions.

    Weights are exp(rate * cumulative payoff of each action against the
    realized opponent actions), evaluated in floating point; exponentials are
    irrational, so this strategy is quarantined from every exact solver path
    and only exposes `round_probabilities`.
    """

    kind = "mw"
    exact = False
    randomness = "per_round"

    def __init__(self, game: BimatrixGame, side: str, learning_rate: Fraction):
        if side not in ("leader", "follower"):
            raise InputError('side must be "leader" or "follower"')
        if not 0 < learning_rate < 1:
            raise InputError("learning rate must lie in (0, 1)")
        super().__init__(game.rows if side == "leader" else game.cols)
        self.game = game
        self.side = side
        self.learning_rate = learning_rate

    def _cumulative_payoffs(self, history: History) -> list[float]:
        totals = [0.0] * self.n_actions
        for pair in history:
            for action in range(1, self.n_actions + 1):
                if self.side == "leader":
                    payoff = self.game.m1[action - 1][pair.col - 1]
                else:
                    payoff = self.game.m2[pair.row - 1][action - 1]
                totals[action - 1] += float(payoff)
        return totals

    def round_probabilities(self, history: History) -> list[float]:
        rate = float(self.learning_rate)
        totals = self._cumulative_payoffs(history)
        peak = max(totals)
        weights = [math.exp(rate * (t - peak)) for t in totals]
        norm = sum(weights)
        return [w / norm for w in weights]

    def round_strategy(self, history: History) -> MixedStrategy:
        raise ExactStrategyUnavailable(
            "multiplicative weights cannot report exact rational strategies"
        )


def multiplicative_weights(
    game: BimatrixGame, side: str, learning_rate: Fraction
) -> MultiplicativeWeightsGPA:
    return MultiplicativeWeightsGPA(game, side, learning_rate)


class LookupTableGPA(GamePlayingAlgorithm):
    """Deterministic strategy replayed from an explicit history table."""

    kind = "lookup"

    def __init__(self, table: Mapping[History, int], n_actions: int):
        super().__init__(n_actions)
        self.table = dict(table)
        for action in self.table.values():
            if not 1 <= action <= n_actions:
                raise InputError(f"table action {action} out of range")

    def round_strategy(self, history: History) -> MixedStrategy:
        try:
            action = self.table[tuple(history)]
        except KeyError:
            raise MissingEntry(f"no table entry for history of length {len(history)}")
        return MixedStrategy.pure(action, self.n_actions)


def lookup_table_gpa(table: Mapping[History, int], n_actions: int) -> LookupTableGPA:
    return LookupTableGPA(table, n_actions)


class ConstantGPA(GamePlayingAlgorithm):
    """Play one fixed mixed strategy every round, independent of history."""

    kind = "constant"

    def __init__(self, strategy: MixedStrategy):
        super().__init__(len(strategy))
        self.strategy = strategy
        self.randomness = "none" if strategy.is_pure() else "per_round"

    def round_strategy(self, history: History) -> MixedStrategy:
        return self.strategy


def constant_gpa(strategy: MixedStrategy) -> ConstantGPA:
    return ConstantGPA(strategy)


class PrescriptionFollower(GamePlayingAlgorithm):
    """Follower that replays the column script of a prescription verbatim."""

    kind = "obedient"

    def __init__(self, prescription: Sequence[ActionPair], n_actions: int):
        super().__init__(n_actions)
        self.prescription = tuple(prescription)

    def round_strategy(self, history: History) -> MixedStrategy:
        t = len(history)
        if t >= len(self.prescription):
            raise InputError("history extends beyond the prescription")
        return MixedStrategy.pure(self.prescription[t].col, self.n_actions)


def prescription_follower(
    prescription: Sequence[ActionPair], n_actions: int
) -> PrescriptionFollower:
    return PrescriptionFollower(prescription, n_actions)


class MyopicBestResponder(GamePlayingAlgorithm):
    """Follower that best-replies to the leader's current round strategy.

    Uses exact expectations whenever the leader can provide them, floats
    otherwise; ties resolve to the lowest column index.
    """

    kind = "myopic"

    def __init__(self, game: BimatrixGame, leader: GamePlayingAlgorithm):
        super().__init__(game.cols)
        self.game = game
        self.leader = leader

    def round_strategy(self, history: History) -> MixedStrategy:
        if self.leader.exact:
            strategy = self.leader.round_strategy(history)
            scores = [
                strategy.expected([self.game.m2[i][j] for i in range(self.game.rows)])
                for j in range(self.game.cols)
            ]
        else:
            probs = self.leader.round_probabilities(history)
            scores = [
                sum(p * float(self.game.m2[i][j]) for i, p in enumerate(probs))
                for j in range(self.game.cols)
            ]
        best = max(range(len(scores)), key=lambda j: (scores[j], -j))
        return MixedStrategy.pure(best + 1, self.n_actions)


def myopic_best_responder(
    game: BimatrixGame, leader: GamePlayingAlgorithm
) -> MyopicBestResponder:
    return MyopicBestResponder(game, leader)


# ---------------------------------------------------------------------------
# Serialization.  Strategies round-trip exactly through JSON.


def history_key(history: History) -> str:
    return ";".join(f"{p.row},{p.col}" for p in history)


def _history_from_key(key: str) -> History:
    if not key:
        return ()
    pairs = []
    for token in key.split(";"):
        row, col = token.split(",")
        pairs.append(ActionPair(int(row), int(col)))
    return tuple(pairs)


def gpa_to_json(gpa: GamePlayingAlgorithm) -> str:
    if isinstance(gpa, PrescribedSequenceGPA):
        return stable_json(
            {
                "kind": "prescribed",
                "prescription": [p.as_list() for p in gpa.prescription],
                "threat": [format_rational(w) for w in gpa.threat_strategy.weights],
            }
        )
    if isinstance(gpa, GrimTriggerGPA):
        return stable_json(
            {
                "kind": "grim_trigger",
                "cooperate": gpa.cooperate_pair.as_list(),
                "punish_row": gpa.punish_row,
            }
        )
    if isinstance(gpa, TwoPhaseDefectGPA):
        return stable_json({"kind": "two_phase", "phase1_len": gpa.phase1_len})
    if isinstance(gpa, MultiplicativeWeightsGPA):
        return stable_json(
            {
                "kind": "mw",
                "side": gpa.side,
                "learning_rate": format_rational(gpa.learning_rate),
            }
        )
    if isinstance(gpa, LookupTableGPA):
        return stable_json(
            {
                "kind": "lookup",
                "n_actions": gpa.n_actions,
                "table": {history_key(h): a for h, a in gpa.table.items()},
            }
        )
    raise InputError(f"cannot serialize strategy of kind {gpa.kind!r}")


def gpa_from_json(text: str, game: BimatrixGame) -> GamePlayingAlgorithm:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid strategy file: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError('strategy file must be an object with a "kind" key')
    kind = data["kind"]
    try:
        return _gpa_from_data(kind, data, game)
    except KeyError as exc:
        raise InputError(f"{kind!r} strategy file lacks key {exc}") from exc
    except InputError:
        raise
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind!r} strategy file: {exc}") from exc


def _integer(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected an integer, got {value!r}")
    return value


def _pair(entry: object) -> ActionPair:
    if not (isinstance(entry, list) and len(entry) == 2):
        raise InputError(f"expected a [row, col] pair, got {entry!r}")
    return ActionPair(_integer(entry[0]), _integer(entry[1]))


def _gpa_from_data(kind: object, data: dict, game: BimatrixGame) -> GamePlayingAlgorithm:
    if kind == "prescribed":
        prescription = [_pair(entry) for entry in data["prescription"]]
        weights = tuple(parse_rational(w) for w in data["threat"])
        return PrescribedSequenceGPA(game, prescription, MixedStrategy(weights))
    if kind == "grim_trigger":
        return GrimTriggerGPA(game, _pair(data["cooperate"]), _integer(data["punish_row"]))
    if kind == "two_phase":
        return TwoPhaseDefectGPA(game, _integer(data["phase1_len"]))
    if kind == "mw":
        return MultiplicativeWeightsGPA(
            game, data["side"], parse_rational(data["learning_rate"])
        )
    if kind == "lookup":
        table = {_history_from_key(k): _integer(a) for k, a in data["table"].items()}
        return LookupTableGPA(table, _integer(data["n_actions"]))
    raise InputError(f"unknown strategy kind {kind!r}")
