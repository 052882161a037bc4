"""Exact game representation: rationals, bimatrix games, transcripts.

Every payoff, probability and solver quantity in this package is a
`fractions.Fraction`; nothing in a solver path ever touches floating point.
All types here are immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


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

    A string is an optional sign and ASCII digits, then optionally "/" and
    a positive denominator in ASCII digits, with outer whitespace only.
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
        # A signed denominator is matched only to be refused as not positive.
        match = re.fullmatch(r"([+-]?[0-9]+)(?:/(-?[0-9]+))?", value.strip())
        if match is None:
            raise RationalParseError(f"invalid rational {value!r}")
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
            raise RationalParseError(f"invalid rational {value!r}") from exc
        if den <= 0:
            raise RationalParseError(f"invalid rational {value!r}: denominator must be positive")
        return Fraction(num, den)
    raise RationalParseError(f"not a rational: {value!r}")


def parse_integer_token(token: str) -> int:
    """An integer written as an optional sign and ASCII digits, nothing else.

    Bare `int` would also read other scripts' digits, `_` separators and
    outer whitespace.
    """
    if re.fullmatch(r"[+-]?[0-9]+", token) is None:
        raise InputError(f"invalid integer {token!r}")
    try:
        return int(token)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise InputError(f"invalid integer {token!r}") from exc


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

    Weights are `int`s or `Fraction`s (floats and bools raise
    `InputError`), nonnegative, and sum to exactly 1, which is checked in
    integers over their common denominator.  Action indices are 1-based
    throughout the package.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise InputError("mixed strategy must have at least one action")
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
                raise InputError(f"mixed strategy weights must be int or Fraction, got {w!r}")
        lcm = math.lcm(*(w.denominator for w in self.weights))
        numerators = as_integers(self.weights, lcm)
        if any(v < 0 for v in numerators):
            raise InputError("mixed strategy weights must be nonnegative")
        if sum(numerators) != lcm:
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

    @functools.cached_property
    def _thresholds(self) -> list[int]:
        # A cache, not a field: equality, hashing and repr ignore it.
        return draw_thresholds(self.weights)

    def sample(self, u: int) -> int:
        """The 1-based action that the 64-bit draw u in [0, 2^64) picks."""
        if not 0 <= u < 1 << 64:
            raise InputError("draw must lie in [0, 2^64)")
        return bisect.bisect_right(self._thresholds, u) + 1


def draw_thresholds(weights: Sequence[Fraction]) -> list[int]:
    """The integer draw rule: a draw u in [0, 2^64) picks the first i with u < thresholds[i].

    With the weights over their common denominator N and cumulative
    numerators C_i, u / 2^64 < C_i / N holds exactly when u is below
    ceil(C_i * 2^64 / N).  A zero weight repeats the previous threshold, so
    no draw picks it, and the last threshold is 2^64.
    """
    denominator = math.lcm(*(w.denominator for w in weights))
    return [
        -(-(cumulative << 64) // denominator)
        for cumulative in itertools.accumulate(as_integers(weights, denominator))
    ]


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
        """All action pairs in row-major order, the objects of `pair_table`."""
        return itertools.chain.from_iterable(self.pair_table)

    def contains(self, pair: ActionPair) -> bool:
        return 1 <= pair.row <= self.rows and 1 <= pair.col <= self.cols

    # The cached properties below are the game's integer, interned view, each
    # computed on its first read.  They are caches, not fields: equality,
    # hashing and repr ignore them.

    @functools.cached_property
    def pair_table(self) -> tuple[tuple[ActionPair, ...], ...]:
        """`pair_table[row - 1][col - 1]` is the one `ActionPair` of (row, col)."""
        return tuple(
            tuple(ActionPair(row, col) for col in range(1, self.cols + 1))
            for row in range(1, self.rows + 1)
        )

    @functools.cached_property
    def scaled_m1(self) -> tuple[tuple[int, ...], ...]:
        """granularity * M1 as integers."""
        return tuple(tuple(as_integers(row, self.granularity)) for row in self.m1)

    @functools.cached_property
    def scaled_m2(self) -> tuple[tuple[int, ...], ...]:
        """granularity * M2 as integers."""
        return tuple(tuple(as_integers(row, self.granularity)) for row in self.m2)

    @functools.cached_property
    def pair_ordering(self) -> tuple[ActionPair, ...]:
        """All pairs by nondecreasing follower payoff.

        Ties are broken by nonincreasing leader payoff (the leader-favorable
        choice), then lexicographically by (row, col), which makes the
        ordering deterministic for a fixed game.  Scaling both payoffs by the
        granularity keeps their order, so the key is integer.
        """
        m1, m2 = self.scaled_m1, self.scaled_m2
        return tuple(
            sorted(
                self.pairs(),
                key=lambda p: (m2[p.row - 1][p.col - 1], -m1[p.row - 1][p.col - 1], p),
            )
        )

    @functools.cached_property
    def max_follower_pair(self) -> tuple[ActionPair, Fraction]:
        """The pair with maximal follower payoff, and that payoff.

        Ties go to the pair with maximal leader payoff, then to the first in
        row-major order; the reward rounds of the constructions use this pair.
        """
        m1, m2 = self.scaled_m1, self.scaled_m2
        # `max` keeps the first of equal keys, and `pairs` runs row-major.
        best = max(
            self.pairs(), key=lambda p: (m2[p.row - 1][p.col - 1], m1[p.row - 1][p.col - 1])
        )
        return best, self.follower_payoff(best)

    def totals(self, counts: Mapping[ActionPair, int]) -> tuple[Fraction, Fraction]:
        """Total (leader, follower) payoff over a multiset of pairs, {pair: count}."""
        m1, m2 = self.scaled_m1, self.scaled_m2
        leader = follower = 0
        for (r, c), n in counts.items():
            if n:
                leader += n * m1[r - 1][c - 1]
                follower += n * m2[r - 1][c - 1]
        return Fraction(leader, self.granularity), Fraction(follower, self.granularity)


def as_integers(values: Iterable[Fraction], scale: int) -> list[int]:
    """`scale` times each of `values`, as integers; `scale` is a common denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


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


@dataclass(frozen=True)
class Transcript:
    """A realized sequence of action pairs for one play of a repeated game."""

    pairs: tuple[ActionPair, ...]
    game: BimatrixGame

    def __post_init__(self) -> None:
        # `counts` holds each distinct pair once, in order of first occurrence,
        # with how often it was played, counted once per run of equal pairs.
        # Not a field: equality, hashing and repr ignore it.
        counts = Counter()
        for pair, run in itertools.groupby(self.pairs):
            counts[pair] += len(list(run))
        object.__setattr__(self, "counts", counts)
        for pair in counts:
            if not self.game.contains(pair):
                raise InputError(f"pair {pair} out of bounds for game")

    def __len__(self) -> int:
        return len(self.pairs)


def average_payoffs(transcript: Transcript) -> tuple[Fraction, Fraction]:
    """Exact per-round average payoffs (leader, follower) of a transcript."""
    if len(transcript) == 0:
        raise EmptyTranscript("cannot average over an empty transcript")
    leader, follower = transcript.game.totals(transcript.counts)
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


def decode_json(text: str, what: str) -> object:
    """`json.loads`, with every way it can fail an `InputError` naming the file.

    Besides malformed text, that is an integer longer than
    `sys.get_int_max_str_digits()` (`ValueError`) and nesting deeper than the
    recursion limit (`RecursionError`).
    """
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid {what} file: {exc}") from exc


def game_from_json(text: str) -> BimatrixGame:
    data = decode_json(text, "game")
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


def parse_pairs(entries: list) -> tuple[ActionPair, ...]:
    """`parse_pair` over each entry, once per run of equal entries.

    A run is parsed once only when every entry in it is a list of two exact
    ints: `[1, true]` and `[1, 1.0]` equal `[1, 1]` but are errors.  Any
    other run is parsed entry by entry, so the first bad entry names itself.
    """
    pairs: list[ActionPair] = []
    for first, block in itertools.groupby(entries):
        block = list(block)
        # Only a list equals a list, so when `first` is one, all of `block` are.
        if (
            type(first) is list
            and len(first) == 2
            and set(map(type, itertools.chain.from_iterable(block))) == {int}
        ):
            pairs += itertools.repeat(ActionPair(*first), len(block))
        else:
            pairs += map(parse_pair, block)
    return tuple(pairs)


def transcript_from_json(text: str, game: BimatrixGame) -> Transcript:
    data = decode_json(text, "transcript")
    if not isinstance(data, dict) or not isinstance(data.get("pairs"), list):
        raise InputError('transcript file must be an object with a "pairs" list')
    return Transcript(parse_pairs(data["pairs"]), game)
