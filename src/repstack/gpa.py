"""Leader strategy automata and their constructions.

A GamePlayingAlgorithm is a finite automaton: `initial_state()`, a
transition `step(t, state, pair)` on the pair played in round t+1, and
`strategy_at(t, state)`, the mixed strategy for round t+1 in that state.
States are hashable values, so the oracle and the simulator carry one state
per player instead of the whole history.  Strategies without a compact state
use the history itself as their state.  `hold(t, state)` says for how many
rounds from t both stay as they are at t, so the simulator can play a pure
stretch at once.  Instances change only to cache what they derive from their
own inputs, so a single instance can be shared freely.

Two constructions build prescribed-sequence automata from the commitment LP:

* `build_deterministic_gpa` lays out the LP distribution exactly over whole
  cycles of length N (the LCM of the probability denominators) and finishes
  with reward rounds at the follower's best pair, achieving the LP value to
  within 2N/T on the obedient transcript.
* `sample_prescription` draws the sequence i.i.d. from the LP distribution,
  repairs the follower's average up to the threat value by swapping in the
  follower's best pair, and appends one final reward round.  Its guarantee is
  independent of the number of actions but degrades as T^-0.25.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from ._rng import CounterRng
from .core import (
    ActionPair,
    BimatrixGame,
    InputError,
    MixedStrategy,
    Transcript,
    as_integers,
    decode_json,
    draw_thresholds,
    format_rational,
    parse_integer,
    parse_integer_token,
    parse_pair,
    parse_pairs,
    parse_rational,
    stable_json,
)
from .lp import reply_values, stackelberg_lp
from .lp import threat  # noqa: F401 -- kept bound: perfbench/tracer.py wraps gpa.threat

_STREAM_SAMPLES = 3

History = tuple[ActionPair, ...]
State = Hashable


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

    Every subclass implements `strategy_at`, the one per-round method.  It
    overrides `initial_state` and `step` when a state more compact than the
    history will do, and otherwise keeps the default history-as-state
    automaton: state () and `state + (pair,)`.  Output may depend only on
    the round and the state (plus construction-time randomness already baked
    into the instance).  Each round is drawn afresh from `strategy_at(t,
    state)`, so rounds share coins only through the state.  `n_actions` is
    the size of the owning player's action set.

    `hold(t, state)` is a count h >= 1 of rounds t, ..., t+h-1 over which
    `strategy_at(·, state)` and `step(·, state, pair)`, for every pair, are
    what they are at t.  It is asked only after `strategy_at(t, state)`
    returned.  The default 1 is always true; a longer hold lets `simulate`
    append a pure stretch at once.

    Attributes:
        exact: the conditional distribution given any history is available
            as exact rationals (required by the best-response oracle).  An
            inexact strategy must define `probabilities_at(t, state)`, the
            float distribution that `simulate` and the myopic follower use.
    """

    kind: str = "abstract"
    exact: bool = True

    def __init__(self, n_actions: int):
        if n_actions < 1:
            raise InputError("a player needs at least one action")
        self.n_actions = n_actions

    def initial_state(self) -> State:
        return ()

    def step(self, t: int, state: State, pair: ActionPair) -> State:
        return state + (pair,)

    def strategy_at(self, t: int, state: State) -> MixedStrategy:
        """The mixed strategy after t rounds that led to `state`."""
        raise NotImplementedError(f"{type(self).__name__} defines no strategy_at")

    def hold(self, t: int, state: State) -> int:
        return 1


class PrescribedSequenceGPA(GamePlayingAlgorithm):
    """Play a fixed pair script; punish any follower deviation forever.

    Before the follower has ever departed from the scripted column, round t
    plays the scripted leader row.  From the first deviation on, every round
    plays the threat strategy.  The state is the triggered bit; the round
    comes from `t`.

    `runs` is the script run-length encoded: (pair, count) for each maximal
    block of equal consecutive pairs.  Both constructions emit sorted
    blocks, so a script has at most rows*cols + 1 runs, and work that
    depends only on the pairs (validation, `verify_prescription`,
    `evaluate_prescription`, JSON, pure stretches in `simulate`) is done
    once per run.
    """

    kind = "prescribed"

    def __init__(
        self,
        game: BimatrixGame,
        prescription: Sequence[ActionPair],
        threat_strategy: MixedStrategy,
    ):
        super().__init__(game.rows)
        self.prescription = tuple(prescription)
        if not self.prescription:
            raise InputError("prescription must cover at least one round")
        self.runs = tuple(
            (pair, len(list(block))) for pair, block in itertools.groupby(self.prescription)
        )
        for pair, _ in self.runs:
            if not game.contains(pair):
                raise InputError(f"prescribed pair {pair} out of bounds")
        if len(threat_strategy) != game.rows:
            raise InputError("threat strategy must range over leader rows")
        self.game = game
        self.threat_strategy = threat_strategy
        self.horizon = len(self.prescription)
        self._run_ends = tuple(itertools.accumulate(count for _, count in self.runs))

    def initial_state(self) -> bool:
        return False

    def step(self, t: int, triggered: bool, pair: ActionPair) -> bool:
        return triggered or (t < self.horizon and pair.col != self.prescription[t].col)

    def strategy_at(self, t: int, triggered: bool) -> MixedStrategy:
        if t >= self.horizon:
            raise InputError("history extends beyond the horizon")
        if triggered:
            return self.threat_strategy
        return MixedStrategy.pure(self.prescription[t].row, self.n_actions)

    def hold(self, t: int, triggered: bool) -> int:
        if triggered:
            return self.horizon - t
        return self._run_ends[bisect.bisect_right(self._run_ends, t)] - t

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
    game: BimatrixGame, horizon: int
) -> tuple[PrescribedSequenceGPA, CycleParameters]:
    """Lay the LP distribution out exactly, worst pairs for the follower first.

    The first c*N rounds realize the LP weights exactly in ascending order of
    follower payoff; the final r rounds prescribe the follower's best pair so
    no late deviation is ever profitable.  Requires T >= N + 1.
    """
    solution = stackelberg_lp(game)
    cycle_length = math.lcm(*(w.denominator for w in solution.alpha.values()))
    if horizon <= cycle_length:
        raise HorizonTooShort(horizon, cycle_length + 1, cycle_length)
    reward_rounds = horizon % cycle_length or cycle_length
    cycles = (horizon - reward_rounds) // cycle_length
    block = cycles * cycle_length
    canonical = game.pair_ordering
    # Each weight's denominator divides N, so c*N is a common denominator.
    counts = dict(zip(canonical, as_integers([solution.alpha[p] for p in canonical], block)))
    reward_pair, _ = game.max_follower_pair
    prescription = _expand(canonical, counts) + (reward_pair,) * reward_rounds
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
    sampled pair currently worst for the follower (first in `pair_ordering`)
    is replaced by the follower's best pair.
    The repaired block is sorted by ascending follower payoff and one final
    reward round is appended.  Fully determined by (game, horizon, seed).

    Every output depends only on how often each pair was drawn, so the
    sampler keeps one count per pair.  Draw k is the integer u = u64(k),
    and it picks the first pair whose `draw_thresholds` entry exceeds u.
    The LP weights are a vertex of a two-row LP, so at most two pairs have
    positive weight: with one, every draw picks it and nothing is hashed;
    with two, `count_below` counts the draws below the first one's threshold
    in a single pass, and the second takes the rest.  When V is the
    follower's maximum, the one pair is the reward pair and nothing is swapped.
    """
    if horizon < 2:
        raise HorizonTooShort(horizon, 2)
    solution = stackelberg_lp(game)
    threat_result = solution.threat
    reward_pair, _ = game.max_follower_pair
    all_pairs = list(game.pairs())
    weights = [solution.alpha[p] for p in all_pairs]
    support = [i for i, weight in enumerate(weights) if weight]
    if len(support) > 2:
        raise RuntimeError(
            f"commitment LP returned {len(support)} support pairs; a vertex has at most two"
        )
    # A draw below the first support pair's threshold picks that pair and any
    # other draw the last one: zero-weight pairs before the first have
    # threshold 0, and those between the two repeat the first's threshold.
    first, last = support[0], support[-1]
    drawn = [0] * len(all_pairs)
    drawn[last] = horizon - 1
    if first != last:
        cut = draw_thresholds(weights)[first]
        below = CounterRng(seed, _STREAM_SAMPLES).count_below(cut, horizon)
        drawn[first] += below
        drawn[last] -= below
    counts = dict(zip(all_pairs, drawn))

    # Swap drawn pairs for the reward pair in `pair_ordering`, worst for the
    # follower first, until the follower total reaches V * (T - 1).  Each
    # pair swapped before the deficit closes gains the follower a positive
    # amount: once every pair below the follower's maximum M is swapped, the
    # total is M * (T - 1) >= V * (T - 1).  The leader tie-break never
    # applies: alpha is a vertex of a two-row LP, so at most two pairs are
    # drawn, and while a deficit remains their follower payoffs differ.
    # The deficit and the gains are integers in units of 1 / (A * d), with A
    # the granularity and d the denominator of V.
    scaled = game.scaled_m2
    d = threat_result.value.denominator
    best = scaled[reward_pair.row - 1][reward_pair.col - 1]
    drawn_total = sum(map(operator.mul, drawn, itertools.chain.from_iterable(scaled)))
    deficit = threat_result.value.numerator * game.granularity * (horizon - 1) - d * drawn_total
    swaps = 0
    repaired = dict(counts)
    canonical = game.pair_ordering
    for pair in canonical:
        if deficit <= 0:
            break
        count = counts[pair]
        if not count or pair == reward_pair:
            continue
        gain = d * (best - scaled[pair.row - 1][pair.col - 1])
        taken = min(count, -(-deficit // gain))
        repaired[pair] -= taken
        swaps += taken
        deficit -= taken * gain
    repaired[reward_pair] += swaps

    pre_swap = _expand(canonical, counts)
    post_swap = _expand(canonical, repaired)
    script = post_swap + (reward_pair,)
    gpa = PrescribedSequenceGPA(game, script, threat_result.strategy)
    return SampledConstruction(gpa, pre_swap, post_swap, swaps)


def _expand(order: Sequence[ActionPair], counts: Mapping[ActionPair, int]) -> tuple[ActionPair, ...]:
    """The block holding counts[pair] copies of each pair, in the given order."""
    return tuple(itertools.chain.from_iterable(itertools.repeat(p, counts[p]) for p in order))


class GrimTriggerGPA(GamePlayingAlgorithm):
    """Cooperate until the follower's first departure, then punish forever.

    The state is the triggered bit.
    """

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

    def initial_state(self) -> bool:
        return False

    def step(self, t: int, state: bool, pair: ActionPair) -> bool:
        return state or pair.col != self.cooperate_pair.col

    def strategy_at(self, t: int, state: bool) -> MixedStrategy:
        row = self.punish_row if state else self.cooperate_pair.row
        return MixedStrategy.pure(row, self.n_actions)


class TwoPhaseDefectGPA(GamePlayingAlgorithm):
    """Defect for a fixed opening phase, then cooperate; grim on col 2.

    Uses the standard prisoner's-dilemma orientation: row 1 / col 1 cooperate,
    row 2 / col 2 defect.  Any follower defection switches the leader to
    defecting for the remainder of the game.  The state is the triggered bit.
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

    def initial_state(self) -> bool:
        return False

    def step(self, t: int, state: bool, pair: ActionPair) -> bool:
        return state or pair.col == 2

    def strategy_at(self, t: int, state: bool) -> MixedStrategy:
        if state or t < self.phase1_len:
            return MixedStrategy.pure(2, self.n_actions)
        return MixedStrategy.pure(1, self.n_actions)


class MultiplicativeWeightsGPA(GamePlayingAlgorithm):
    """Exponential-weights learner over own actions.

    Weights are exp(rate * cumulative payoff of each action against the
    realized opponent actions), evaluated in floating point; exponentials are
    irrational, so this strategy is quarantined from every exact solver path
    and only exposes float probabilities.  The state is the tuple of float
    cumulative payoffs, one per own action.  The payoffs and the rate are
    converted to floats once, at construction.
    """

    kind = "mw"
    exact = False

    def __init__(self, game: BimatrixGame, side: str, learning_rate: Fraction):
        if side not in ("leader", "follower"):
            raise InputError('side must be "leader" or "follower"')
        if not 0 < learning_rate < 1:
            raise InputError("learning rate must lie in (0, 1)")
        super().__init__(game.rows if side == "leader" else game.cols)
        self.game = game
        self.side = side
        self.learning_rate = learning_rate
        # _payoffs[b - 1][a - 1]: own action a's payoff against opponent action b.
        own = zip(*game.m1) if side == "leader" else game.m2
        self._payoffs = tuple(tuple(float(v) for v in row) for row in own)
        self._rate = float(learning_rate)

    def initial_state(self) -> tuple[float, ...]:
        return (0.0,) * self.n_actions

    def step(self, t: int, state: tuple[float, ...], pair: ActionPair) -> tuple[float, ...]:
        opponent = pair.col if self.side == "leader" else pair.row
        return tuple(map(operator.add, state, self._payoffs[opponent - 1]))

    def probabilities_at(self, t: int, state: tuple[float, ...]) -> list[float]:
        rate = self._rate
        peak = max(state)
        weights = [math.exp(rate * (total - peak)) for total in state]
        norm = sum(weights)
        return [w / norm for w in weights]

    def strategy_at(self, t: int, state: tuple[float, ...]) -> MixedStrategy:
        raise ExactStrategyUnavailable(
            "multiplicative weights cannot report exact rational strategies"
        )


multiplicative_weights = MultiplicativeWeightsGPA  # kept: perfbench/workloads.py calls it


class LookupTableGPA(GamePlayingAlgorithm):
    """Deterministic strategy replayed from an explicit history table; its
    state is the history."""

    kind = "lookup"

    def __init__(self, table: Mapping[History, int], n_actions: int):
        super().__init__(n_actions)
        self.table = dict(table)
        for action in self.table.values():
            if not 1 <= action <= n_actions:
                raise InputError(f"table action {action} out of range")

    def strategy_at(self, t: int, history: History) -> MixedStrategy:
        try:
            action = self.table[history]
        except KeyError:
            raise MissingEntry(f"no table entry for history of length {len(history)}")
        return MixedStrategy.pure(action, self.n_actions)


class ConstantGPA(GamePlayingAlgorithm):
    """Play one fixed mixed strategy every round, independent of history.
    Its state is the history: a mixed one reaches exponentially many."""

    kind = "constant"

    def __init__(self, strategy: MixedStrategy):
        super().__init__(len(strategy))
        self.strategy = strategy

    def strategy_at(self, t: int, history: History) -> MixedStrategy:
        return self.strategy


class PrescriptionFollower(GamePlayingAlgorithm):
    """Follower that replays the column script of a prescription verbatim.

    Its play depends on the round alone, so it has a single state, and it
    holds to the end of each run of equal columns.
    """

    kind = "obedient"

    def __init__(self, prescription: Sequence[ActionPair], n_actions: int):
        super().__init__(n_actions)
        self.prescription = tuple(prescription)
        columns = itertools.groupby(map(operator.itemgetter(1), self.prescription))
        self._run_ends = tuple(itertools.accumulate(len(list(run)) for _, run in columns))

    def initial_state(self) -> None:
        return None

    def step(self, t: int, state: None, pair: ActionPair) -> None:
        return None

    def strategy_at(self, t: int, state: None) -> MixedStrategy:
        if t >= len(self.prescription):
            raise InputError("history extends beyond the prescription")
        return MixedStrategy.pure(self.prescription[t].col, self.n_actions)

    def hold(self, t: int, state: None) -> int:
        return self._run_ends[bisect.bisect_right(self._run_ends, t)] - t


prescription_follower = PrescriptionFollower  # kept: perfbench/workloads.py calls it


class MyopicBestResponder(GamePlayingAlgorithm):
    """Follower that best-replies to the leader's current round strategy.

    Uses exact expectations whenever the leader can provide them, floats
    otherwise; ties resolve to the lowest column index.  Its state is the
    leader's state, and it holds as long as the leader does.  The float
    columns of M2 are built on the first float round and kept.
    """

    kind = "myopic"

    def __init__(self, game: BimatrixGame, leader: GamePlayingAlgorithm):
        super().__init__(game.cols)
        self.game = game
        self.leader = leader
        self._float_columns = None

    def initial_state(self) -> State:
        return self.leader.initial_state()

    def step(self, t: int, state: State, pair: ActionPair) -> State:
        return self.leader.step(t, state, pair)

    def hold(self, t: int, state: State) -> int:
        return self.leader.hold(t, state)

    def strategy_at(self, t: int, state: State) -> MixedStrategy:
        if self.leader.exact:
            x = self.leader.strategy_at(t, state)
            scores, _ = reply_values(self.game.scaled_m2, self.game.granularity, x)
        else:
            probs = self.leader.probabilities_at(t, state)
            if self._float_columns is None:
                self._float_columns = [[float(v) for v in col] for col in zip(*self.game.m2)]
            scores = [sum(p * v for p, v in zip(probs, col)) for col in self._float_columns]
        best = max(range(len(scores)), key=lambda j: (scores[j], -j))
        return MixedStrategy.pure(best + 1, self.n_actions)


myopic_best_responder = MyopicBestResponder  # kept: perfbench/workloads.py calls it


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
        pairs.append(ActionPair(parse_integer_token(row), parse_integer_token(col)))
    return tuple(pairs)


def gpa_to_json(gpa: GamePlayingAlgorithm) -> str:
    if isinstance(gpa, PrescribedSequenceGPA):
        # The bytes `stable_json` would write, with each run's pair encoded once.
        script = ",".join(",".join([stable_json(pair)] * count) for pair, count in gpa.runs)
        threat = stable_json([format_rational(w) for w in gpa.threat_strategy.weights])
        return f'{{"kind":{stable_json(gpa.kind)},"prescription":[{script}],"threat":{threat}}}'
    if isinstance(gpa, GrimTriggerGPA):
        data = {"cooperate": gpa.cooperate_pair, "punish_row": gpa.punish_row}
    elif isinstance(gpa, TwoPhaseDefectGPA):
        data = {"phase1_len": gpa.phase1_len}
    elif isinstance(gpa, MultiplicativeWeightsGPA):
        data = {"side": gpa.side, "learning_rate": format_rational(gpa.learning_rate)}
    elif isinstance(gpa, LookupTableGPA):
        data = {
            "n_actions": gpa.n_actions,
            "table": {history_key(h): a for h, a in gpa.table.items()},
        }
    else:
        raise InputError(f"cannot serialize strategy of kind {gpa.kind!r}")
    return stable_json({"kind": gpa.kind, **data})


# `gpa_to_json`'s bytes around a prescribed script, and one pair as it
# writes pairs: no sign, no leading zero.
_WRITTEN_PRESCRIBED = '{"kind":"prescribed","prescription":['
_WRITTEN_PAIR = re.compile(r"\[([1-9][0-9]*),([1-9][0-9]*)\]")
_WRITTEN_THREAT = '],"threat":'


def _read_written_prescription(text: str, game: BimatrixGame) -> PrescribedSequenceGPA | None:
    """The prescribed strategy whose `gpa_to_json` bytes are `text`, else None.

    Outer JSON whitespace aside, the text must be exactly what `gpa_to_json`
    writes, and it is read one run at a time: the run's first pair by
    `_WRITTEN_PAIR`, its length by comparing ever longer blocks of its
    `,[r,c]` copies with `str.startswith`, doubling while they match and then
    halving, O(log length) compares.  Only the threat list is decoded as
    JSON.  The answer stands only when `gpa_to_json` writes it back as the
    same bytes, and then the general reader would return an equal strategy;
    on any other text this returns None without raising, so the general
    reader runs and every error is its own.
    """
    text = text.strip(" \t\n\r")
    if not text.startswith(_WRITTEN_PRESCRIBED):
        return None
    end = len(_WRITTEN_PRESCRIBED)
    runs = []
    try:
        while True:
            match = _WRITTEN_PAIR.match(text, end)
            if match is None:
                return None
            pair = game.pair_table[int(match[1]) - 1][int(match[2]) - 1]
            start = end = match.end()
            unit = block = "," + match[0]
            while text.startswith(block, end):
                end += len(block)
                block += block
            # Fewer copies than `block` holds are left, so each halving is
            # taken at most once.
            while len(block) > len(unit):
                block = block[: len(block) // 2]
                if text.startswith(block, end):
                    end += len(block)
            runs.append(itertools.repeat(pair, 1 + (end - start) // len(unit)))
            if not text.startswith(",", end):
                break
            end += 1
        if not text.startswith(_WRITTEN_THREAT, end):
            return None
        weights = decode_json(text[end + len(_WRITTEN_THREAT) : -1], "strategy")
        if not isinstance(weights, list):
            return None
        threat_strategy = MixedStrategy(tuple(map(parse_rational, weights)))
        gpa = PrescribedSequenceGPA(game, itertools.chain.from_iterable(runs), threat_strategy)
    # An index past the game's actions or past `int`'s digit limit, or any
    # threat or script that the constructors refuse.
    except (IndexError, ValueError):
        return None
    return gpa if gpa_to_json(gpa) == text else None


def gpa_from_json(text: str, game: BimatrixGame) -> GamePlayingAlgorithm:
    """Read a strategy file: a prescribed strategy as written, one run at a
    time; any other JSON through `decode_json` and the per-kind parsers."""
    written = _read_written_prescription(text, game)
    if written is not None:
        return written
    data = decode_json(text, "strategy")
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


def _gpa_from_data(kind: object, data: dict, game: BimatrixGame) -> GamePlayingAlgorithm:
    if kind == "prescribed":
        prescription = parse_pairs(_json_list(data, "prescription"))
        weights = tuple(parse_rational(w) for w in _json_list(data, "threat"))
        return PrescribedSequenceGPA(game, prescription, MixedStrategy(weights))
    if kind == "grim_trigger":
        return GrimTriggerGPA(game, parse_pair(data["cooperate"]), parse_integer(data["punish_row"]))
    if kind == "two_phase":
        return TwoPhaseDefectGPA(game, parse_integer(data["phase1_len"]))
    if kind == "mw":
        return MultiplicativeWeightsGPA(
            game, data["side"], parse_rational(data["learning_rate"])
        )
    if kind == "lookup":
        table = {_history_from_key(k): parse_integer(a) for k, a in data["table"].items()}
        return LookupTableGPA(table, parse_integer(data["n_actions"]))
    raise InputError(f"unknown strategy kind {kind!r}")


def _json_list(data: dict, key: str) -> list:
    value = data[key]
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a JSON list, got {value!r}")
    return value
