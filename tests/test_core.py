"""Core types: rational parsing, game validation, orderings, transcripts."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repstack import (
    ActionPair,
    EmptyTranscript,
    EntryOutOfRange,
    InputError,
    MixedStrategy,
    RationalParseError,
    ShapeMismatch,
    Transcript,
    average_payoffs,
    format_rational,
    game_from_json,
    game_to_json,
    pair_ordering,
    parse_rational,
    transcript_from_json,
    transcript_to_json,
    validate_game,
)
from repstack.gpa import PrescribedSequenceGPA

rationals = st.fractions(
    min_value=-(10**9), max_value=10**9, max_denominator=10**9
)


@given(rationals)
def test_rational_round_trip(value: Fraction) -> None:
    assert parse_rational(format_rational(value)) == value


def test_parse_rational_accepts_ints_and_strings() -> None:
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/5") == Fraction(3, 5)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational(" 4 ") == Fraction(4)


@pytest.mark.parametrize("bad", ["3/0", "1/-2", "x", "1.5", 2.5, None, True])
def test_parse_rational_rejects_garbage(bad) -> None:
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_validate_game_pd_granularity(pd_game) -> None:
    assert pd_game.granularity == 5
    assert pd_game.rows == pd_game.cols == 2
    assert pd_game.leader_payoff(ActionPair(2, 1)) == 1
    assert pd_game.follower_payoff(ActionPair(1, 2)) == 1


def test_validate_game_trivial_zero_game() -> None:
    game = validate_game([[0]], [[0]])
    assert game.granularity == 1
    assert game.rows == game.cols == 1


def test_validate_game_entry_out_of_range() -> None:
    with pytest.raises(EntryOutOfRange):
        validate_game([["3/2", 0], [0, 0]], [[0, 0], [0, 0]])


def test_validate_game_shape_mismatch() -> None:
    with pytest.raises(ShapeMismatch):
        validate_game([[0, 0]], [[0], [0]])
    with pytest.raises(ShapeMismatch):
        validate_game([], [])
    with pytest.raises(ShapeMismatch):
        validate_game([[0, 0], [0]], [[0, 0], [0, 0]])


def test_validate_game_names_offending_cell() -> None:
    with pytest.raises(RationalParseError, match=r"M1\[1\]\[2\]"):
        validate_game([[0, "3/0"]], [[0, 0]])


def test_pair_ordering_pd(pd_game) -> None:
    ordering = pair_ordering(pd_game)
    assert [(p.row, p.col) for p in ordering] == [(2, 1), (2, 2), (1, 1), (1, 2)]
    payoffs = [pd_game.follower_payoff(p) for p in ordering]
    assert payoffs == [Fraction(0), Fraction(1, 5), Fraction(3, 5), Fraction(1)]


def test_pair_ordering_single_pair() -> None:
    game = validate_game([[0]], [[0]])
    assert [(p.row, p.col) for p in pair_ordering(game)] == [(1, 1)]


def test_pair_ordering_tie_break_prefers_leader() -> None:
    game = validate_game([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    ordering = list(pair_ordering(game))
    leaders = [game.leader_payoff(p) for p in ordering]
    assert leaders == [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    # among equal leader payoffs, lexicographic by (row, col)
    assert [(p.row, p.col) for p in ordering] == [(1, 1), (2, 2), (1, 2), (2, 1)]


def test_pair_ordering_is_permutation_and_idempotent(pd_game) -> None:
    ordering = pair_ordering(pd_game)
    assert sorted(ordering) == sorted(pd_game.pairs())
    assert pair_ordering(pd_game) == ordering


def test_average_payoffs_constant_sequence(pd_game) -> None:
    transcript = Transcript(tuple([ActionPair(2, 2)] * 7), pd_game)
    assert average_payoffs(transcript) == (Fraction(1, 5), Fraction(1, 5))


def test_average_payoffs_grim_trigger_path(pd_game) -> None:
    pairs = tuple([ActionPair(1, 1)] * 4 + [ActionPair(1, 2)])
    leader, follower = average_payoffs(Transcript(pairs, pd_game))
    assert leader == Fraction(12, 25)
    assert follower == Fraction(17, 25)


def test_average_payoffs_eleven_round_script(pd_game) -> None:
    # 6x(2,1), 3x(1,1), 2x(1,2): exact averages of the scripted pairs.
    pairs = tuple(
        [ActionPair(2, 1)] * 6 + [ActionPair(1, 1)] * 3 + [ActionPair(1, 2)] * 2
    )
    leader, follower = average_payoffs(Transcript(pairs, pd_game))
    assert leader == Fraction(39, 55)
    assert follower == Fraction(19, 55)


def test_average_payoffs_empty_transcript(pd_game) -> None:
    with pytest.raises(EmptyTranscript):
        average_payoffs(Transcript((), pd_game))


@given(st.data())
def test_average_payoffs_concatenation_linearity(data) -> None:
    game = validate_game([[1, 0], [0, "1/2"]], [[0, 1], [1, "1/3"]])
    pairs = st.tuples(st.integers(1, 2), st.integers(1, 2)).map(lambda rc: ActionPair(*rc))
    first = data.draw(st.lists(pairs, min_size=1, max_size=6))
    second = data.draw(st.lists(pairs, min_size=1, max_size=6))
    t1, t2 = Transcript(tuple(first), game), Transcript(tuple(second), game)
    merged = Transcript(tuple(first + second), game)
    a1, b1 = average_payoffs(t1)
    a2, b2 = average_payoffs(t2)
    n1, n2 = len(t1), len(t2)
    assert average_payoffs(merged) == (
        (n1 * a1 + n2 * a2) / (n1 + n2),
        (n1 * b1 + n2 * b2) / (n1 + n2),
    )


def test_mixed_strategy_validation() -> None:
    with pytest.raises(Exception):
        MixedStrategy((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(Exception):
        MixedStrategy((Fraction(3, 2), Fraction(-1, 2)))
    strategy = MixedStrategy((Fraction(1, 3), Fraction(2, 3)))
    assert strategy.support() == (1, 2)
    assert MixedStrategy.pure(2, 3).support() == (2,)


def test_pure_strategies_are_shared() -> None:
    assert MixedStrategy.pure(2, 3) is MixedStrategy.pure(2, 3)
    assert MixedStrategy.pure(2, 3) == MixedStrategy((Fraction(0), Fraction(1), Fraction(0)))
    for _ in range(2):
        with pytest.raises(InputError):
            MixedStrategy.pure(4, 3)
        with pytest.raises(InputError):
            MixedStrategy.pure(0, 3)


def test_mixed_strategy_sampling_is_exact() -> None:
    strategy = MixedStrategy((Fraction(1, 3), Fraction(2, 3)))
    assert strategy.sample_index(Fraction(0)) == 1
    assert strategy.sample_index(Fraction(1, 3)) == 2
    assert strategy.sample_index(Fraction(999, 1000)) == 2


def test_game_json_round_trip(pd_game) -> None:
    text = game_to_json(pd_game)
    assert game_from_json(text) == pd_game
    assert game_to_json(game_from_json(text)) == text


def test_transcript_json_round_trip(pd_game) -> None:
    transcript = Transcript((ActionPair(1, 1), ActionPair(2, 2)), pd_game)
    text = transcript_to_json(transcript)
    assert text == '{"pairs":[[1,1],[2,2]]}'
    assert transcript_from_json(text, pd_game).pairs == transcript.pairs


def test_action_pair_hashes_compares_and_prints_as_before() -> None:
    for row, col in [(1, 1), (1, 2), (2, 1), (7, 3)]:
        assert hash(ActionPair(row, col)) == hash((row, col))
        assert ActionPair(row, col) == (row, col)
    assert repr(ActionPair(1, 2)) == "ActionPair(row=1, col=2)"
    assert json.dumps(ActionPair(2, 3)) == "[2, 3]"


def test_game_pairs_are_row_major_which_is_sorted_order() -> None:
    game = validate_game([[0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0]])
    pairs = list(game.pairs())
    assert pairs == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == pairs


def test_out_of_bounds_names_the_first_bad_pair_in_script_order(pd_game) -> None:
    # (3, 2) comes first in the script; (1, 3) comes first in sorted order and
    # (3, 1) first when iterating a set of these pairs.
    script = tuple(ActionPair(*p) for p in [(1, 1), (3, 2), (1, 3), (3, 1), (2, 5), (3, 2)])
    with pytest.raises(InputError) as transcript_error:
        Transcript(script, pd_game)
    assert str(transcript_error.value) == "pair ActionPair(row=3, col=2) out of bounds for game"
    with pytest.raises(InputError) as gpa_error:
        PrescribedSequenceGPA(pd_game, script, MixedStrategy.pure(2, 2))
    assert str(gpa_error.value) == "prescribed pair ActionPair(row=3, col=2) out of bounds"
