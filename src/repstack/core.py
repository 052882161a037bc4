"""Exact game representation: rationals, bimatrix games, pair orderings, transcripts.

Every payoff, probability and solver quantity in this package is a
`fractions.Fraction`; nothing in a solver path ever touches floating point.
All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence


class InputError(ValueError):
    """Base class for malformed inputs (bad files, bad payoffs, bad indices)."""


class RationalParseError(InputError):
    """A value could not be parsed as an exact rational."""


class EntryOutOfRange(InputError):
    """A payoff entry lies outside the admissible range [-1, 1]."""


class ShapeMismatch(InputError):
    """The two payoff matrices are not rectangular matrices of equal shape."""


class EmptyTranscript(InputError):
    """An operation that averages over rounds received zero rounds."""


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" / "p" string.

    Floats are rejected: there is no exact interpretation of a binary float
    that we are willing to guess at.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise RationalParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "/" in text:
                num_text, den_text = text.split("/")
                num, den = int(num_text), int(den_text)
                if den <= 0:
                    raise RationalParseError(
                        f"invalid rational {value!r}: denominator must be positive"
                    )
                return Fraction(num, den)
            return Fraction(int(text))
        except ValueError as exc:
            raise RationalParseError(f"invalid rational {value!r}") from exc
    raise RationalParseError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class ActionPair(NamedTuple):
    """A joint action: leader row and follower column, both 1-based.

    A tuple, so hashing, comparison and JSON encoding (as `[row, col]`) run
    in C, and a pair equals the plain tuple `(row, col)`.
    """

    row: int
    col: int


@dataclass(frozen=True)
class MixedStrategy:
    """A probability distribution over a player's actions.

    Weights are exact rationals, nonnegative, and sum to exactly 1.
    Action indices are 1-based throughout the package.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise InputError("mixed strategy must have at least one action")
        if any(w < 0 for w in self.weights):
            raise InputError("mixed strategy weights must be nonnegative")
        if sum(self.weights) != 1:
            raise InputError("mixed strategy weights must sum to exactly 1")

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def pure(action: int, n_actions: int) -> MixedStrategy:
        """The pure strategy on `action`; one shared instance per argument pair."""
        if not 1 <= action <= n_actions:
            raise InputError(f"action {action} out of range 1..{n_actions}")
        return MixedStrategy(
            tuple(Fraction(1 if i == action else 0) for i in range(1, n_actions + 1))
        )

    @staticmethod
    def uniform(n_actions: int) -> MixedStrategy:
        return MixedStrategy(tuple(Fraction(1, n_actions) for _ in range(n_actions)))

    def __len__(self) -> int:
        return len(self.weights)

    def probability(self, action: int) -> Fraction:
        return self.weights[action - 1]

    def support(self) -> tuple[int, ...]:
        """The actions of positive weight, computed on the first call."""
        support = self.__dict__.get("_support")
        if support is None:
            support = tuple(i for i, w in enumerate(self.weights, start=1) if w > 0)
            # A cache, not a field: equality, hashing and repr ignore it.
            self.__dict__["_support"] = support
        return support

    def expected(self, values: Sequence[Fraction]) -> Fraction:
        """Exact expectation of one value per action."""
        if len(values) != len(self.weights):
            raise InputError("value vector length does not match strategy")
        return sum((w * v for w, v in zip(self.weights, values)), Fraction(0))

    def sample_index(self, u: Fraction) -> int:
        """Map a uniform draw u in [0, 1) to a 1-based action, exactly."""
        if not 0 <= u < 1:
            raise InputError("uniform draw must lie in [0, 1)")
        cumulative = Fraction(0)
        for action, weight in enumerate(self.weights, start=1):
            cumulative += weight
            if u < cumulative:
                return action
        return len(self.weights)  # unreachable when weights sum to 1


@dataclass(frozen=True)
class BimatrixGame:
    """A two-player game in normal form with exact payoffs.

    `m1` holds the leader (row player) payoffs and `m2` the follower
    (column player) payoffs.  Every entry lies in [-1, 1] and is an integer
    multiple of 1/granularity; the granularity is the LCM of the payoff
    denominators.  Construct instances through `validate_game`.
    """

    rows: int
    cols: int
    m1: tuple[tuple[Fraction, ...], ...]
    m2: tuple[tuple[Fraction, ...], ...]
    granularity: int

    def leader_payoff(self, pair: ActionPair) -> Fraction:
        return self.m1[pair.row - 1][pair.col - 1]

    def follower_payoff(self, pair: ActionPair) -> Fraction:
        return self.m2[pair.row - 1][pair.col - 1]

    def pairs(self) -> Iterator[ActionPair]:
        """All action pairs in row-major order."""
        for row in range(1, self.rows + 1):
            for col in range(1, self.cols + 1):
                yield ActionPair(row, col)

    def contains(self, pair: ActionPair) -> bool:
        return 1 <= pair.row <= self.rows and 1 <= pair.col <= self.cols


def _parse_matrix(raw: Sequence[Sequence[object]], name: str) -> list[list[Fraction]]:
    matrix = (list, tuple)
    if not isinstance(raw, matrix) or not raw or any(
        not isinstance(row, matrix) or not row for row in raw
    ):
        raise ShapeMismatch(f"{name} must be a nonempty rectangular matrix")
    width = len(raw[0])
    parsed: list[list[Fraction]] = []
    for i, row in enumerate(raw, start=1):
        if len(row) != width:
            raise ShapeMismatch(f"{name} row {i} has {len(row)} entries, expected {width}")
        parsed_row = []
        for j, cell in enumerate(row, start=1):
            try:
                value = parse_rational(cell)  # type: ignore[arg-type]
            except RationalParseError as exc:
                raise RationalParseError(f"{name}[{i}][{j}]: {exc}") from exc
            if not -1 <= value <= 1:
                raise EntryOutOfRange(
                    f"{name}[{i}][{j}] = {format_rational(value)} lies outside [-1, 1]"
                )
            parsed_row.append(value)
        parsed.append(parsed_row)
    return parsed


def validate_game(
    m1: Sequence[Sequence[object]], m2: Sequence[Sequence[object]]
) -> BimatrixGame:
    """Build a validated game from raw payoff matrices.

    Entries may be ints, Fractions, or "p/q" strings; they are normalized on
    load.  The granularity is set to the LCM of all payoff denominators, so
    every payoff is an integer multiple of its reciprocal.
    """
    leader = _parse_matrix(m1, "M1")
    follower = _parse_matrix(m2, "M2")
    if len(leader) != len(follower) or len(leader[0]) != len(follower[0]):
        raise ShapeMismatch(
            f"M1 is {len(leader)}x{len(leader[0])} but M2 is {len(follower)}x{len(follower[0])}"
        )
    denominators = [cell.denominator for mat in (leader, follower) for row in mat for cell in row]
    return BimatrixGame(
        rows=len(leader),
        cols=len(leader[0]),
        m1=tuple(tuple(row) for row in leader),
        m2=tuple(tuple(row) for row in follower),
        granularity=math.lcm(*denominators),
    )


def pair_order_key(game: BimatrixGame) -> Callable[[ActionPair], tuple]:
    """Sort key for pairs: nondecreasing follower payoff.

    Ties are broken by nonincreasing leader payoff (the leader-favorable
    choice), then lexicographically by (row, col), which makes the ordering
    deterministic for a fixed game.
    """
    return lambda p: (game.follower_payoff(p), -game.leader_payoff(p), p.row, p.col)


def pair_ordering(game: BimatrixGame) -> tuple[ActionPair, ...]:
    """All action pairs of the game sorted by `pair_order_key`."""
    return tuple(sorted(game.pairs(), key=pair_order_key(game)))


@dataclass(frozen=True)
class Transcript:
    """A realized sequence of action pairs for one play of a repeated game."""

    pairs: tuple[ActionPair, ...]
    game: BimatrixGame

    def __post_init__(self) -> None:
        # Each distinct pair once, in order of first occurrence.
        for pair in dict.fromkeys(self.pairs):
            if not self.game.contains(pair):
                raise InputError(f"pair {pair} out of bounds for game")

    def __len__(self) -> int:
        return len(self.pairs)

    def total_payoffs(self) -> tuple[Fraction, Fraction]:
        leader = sum((self.game.leader_payoff(p) for p in self.pairs), Fraction(0))
        follower = sum((self.game.follower_payoff(p) for p in self.pairs), Fraction(0))
        return leader, follower


def average_payoffs(transcript: Transcript) -> tuple[Fraction, Fraction]:
    """Exact per-round average payoffs (leader, follower) of a transcript."""
    if len(transcript) == 0:
        raise EmptyTranscript("cannot average over an empty transcript")
    leader, follower = transcript.total_payoffs()
    rounds = len(transcript)
    return leader / rounds, follower / rounds


# ---------------------------------------------------------------------------
# File formats.  Games are {"M1": [[...]], "M2": [[...]]} with entries that
# are integers or "p/q" strings; transcripts are {"pairs": [[row, col], ...]}
# with 1-based indices.  All JSON output is byte-stable across runs.


def stable_json(data: object) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def game_to_json(game: BimatrixGame) -> str:
    return stable_json(
        {
            "M1": [[format_rational(v) for v in row] for row in game.m1],
            "M2": [[format_rational(v) for v in row] for row in game.m2],
        }
    )


def game_from_json(text: str) -> BimatrixGame:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid game file: {exc}") from exc
    if not isinstance(data, dict) or "M1" not in data or "M2" not in data:
        raise InputError('game file must be an object with "M1" and "M2" keys')
    return validate_game(data["M1"], data["M2"])


def transcript_to_json(transcript: Transcript) -> str:
    return stable_json({"pairs": transcript.pairs})


def parse_integer(value: object) -> int:
    """A JSON integer; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"expected an integer, got {value!r}")
    return value


def parse_pair(entry: object) -> ActionPair:
    """A JSON `[row, col]` list of two integers."""
    if not (isinstance(entry, list) and len(entry) == 2):
        raise InputError(f"expected a [row, col] pair, got {entry!r}")
    return ActionPair(parse_integer(entry[0]), parse_integer(entry[1]))


def transcript_from_json(text: str, game: BimatrixGame) -> Transcript:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid transcript file: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise InputError('transcript file must be an object with a "pairs" list')
    return Transcript(tuple(parse_pair(entry) for entry in data["pairs"]), game)
