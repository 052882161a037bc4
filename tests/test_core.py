"""Core types: rational parsing, game validation, orderings, transcripts."""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
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
    parse_rational,
    transcript_from_json,
    transcript_to_json,
    validate_game,
)
from repstack.core import draw_thresholds
from repstack.gpa import MultiplicativeWeightsGPA, MyopicBestResponder, PrescribedSequenceGPA
from repstack.oracle import simulate

from conftest import (
    fraction_max_follower_pair,
    fraction_sample,
    fraction_pair_ordering,
    fraction_totals,
    random_game,
)

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


@pytest.mark.parametrize(
    "bad", ["3/0", "1/-2", "x", "1.5", 2.5, None, True, "1/1_0", "\u0663/\u0664", "1/ 2", "1/+2"]
)
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
    ordering = pd_game.pair_ordering
    assert [(p.row, p.col) for p in ordering] == [(2, 1), (2, 2), (1, 1), (1, 2)]
    payoffs = [pd_game.follower_payoff(p) for p in ordering]
    assert payoffs == [Fraction(0), Fraction(1, 5), Fraction(3, 5), Fraction(1)]


def test_pair_ordering_single_pair() -> None:
    game = validate_game([[0]], [[0]])
    assert [(p.row, p.col) for p in game.pair_ordering] == [(1, 1)]


def test_pair_ordering_tie_break_prefers_leader() -> None:
    game = validate_game([[1, 0], [0, 1]], [[0, 0], [0, 0]])
    ordering = list(game.pair_ordering)
    leaders = [game.leader_payoff(p) for p in ordering]
    assert leaders == [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    # among equal leader payoffs, lexicographic by (row, col)
    assert [(p.row, p.col) for p in ordering] == [(1, 1), (2, 2), (1, 2), (2, 1)]


def test_pair_ordering_is_permutation_and_idempotent(pd_game) -> None:
    ordering = pd_game.pair_ordering
    assert sorted(ordering) == sorted(pd_game.pairs())
    assert pd_game.pair_ordering == ordering


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
    """The draws u/2^64 = 0, the first at or past 1/3, and the last below
    999/1000 pick actions 1, 2 and 2 of (1/3, 2/3)."""
    strategy = MixedStrategy((Fraction(1, 3), Fraction(2, 3)))
    assert strategy.sample(0) == 1
    assert strategy.sample(-(-(1 << 64) // 3)) == 2
    assert strategy.sample((999 << 64) // 1000) == 2


def _random_mix(rng: random.Random) -> MixedStrategy:
    """Zero weights, pure mixes and denominators past 2^64 all occur."""
    size = rng.randint(1, 6)
    numerators = [
        rng.choice([0, 0, rng.randint(1, 10), rng.randint(1, 1 << 70)]) for _ in range(size)
    ]
    if not any(numerators):
        numerators[rng.randrange(size)] = 1
    total = sum(numerators)
    return MixedStrategy(tuple(Fraction(n, total) for n in numerators))


def test_sample_matches_the_fraction_draw_rule() -> None:
    """`sample(u)` is the first action whose cumulative weight exceeds
    u/2^64, at u = 0, u = 2^64 - 1, every threshold and every threshold - 1."""
    rng = random.Random(20)
    mixes = [_random_mix(rng) for _ in range(200)]
    mixes += [MixedStrategy.pure(2, 3), MixedStrategy((Fraction(1, 3**41), 1 - Fraction(1, 3**41)))]
    assert any(len(m.support()) == 1 for m in mixes)
    assert any(0 in m.weights for m in mixes)
    assert any(max(w.denominator for w in m.weights) > 1 << 64 for m in mixes)
    for mix in mixes:
        thresholds = draw_thresholds(mix.weights)
        assert thresholds[-1] == 1 << 64
        draws = {0, (1 << 64) - 1} | {u for t in thresholds for u in (t, t - 1) if 0 <= u < 1 << 64}
        for u in sorted(draws):
            assert mix.sample(u) == fraction_sample(mix.weights, u), (mix, u)
        for u in (-1, 1 << 64):
            with pytest.raises(InputError):
                mix.sample(u)


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


def _per_round_totals(transcript: Transcript) -> tuple[Fraction, Fraction]:
    leader = sum((transcript.game.m1[r - 1][c - 1] for r, c in transcript.pairs), Fraction(0))
    follower = sum((transcript.game.m2[r - 1][c - 1] for r, c in transcript.pairs), Fraction(0))
    return leader, follower


@pytest.mark.parametrize("seed", range(6))
def test_totals_over_pair_counts_equal_per_round_sums(seed: int) -> None:
    """Random games; scripts with long runs, with one pair per run, and MW
    play (few runs), each against a per-round `Fraction` sum."""
    rng = random.Random(4400 + seed)
    game = random_game(rng, rng.randint(1, 4), rng.randint(1, 4))
    pairs = list(game.pairs())
    runs = [p for p in rng.choices(pairs, k=8) for _ in range(rng.randint(1, 50))]
    scattered = rng.choices(pairs, k=60)
    leader = MultiplicativeWeightsGPA(game, "leader", Fraction(1, 4))
    played = simulate(leader, MyopicBestResponder(game, leader), game, 200, seed).pairs
    for script in (runs, scattered, played):
        transcript = Transcript(tuple(script), game)
        assert game.totals(Counter(script)) == _per_round_totals(transcript)
        assert game.totals(transcript.counts) == _per_round_totals(transcript)
        assert average_payoffs(transcript) == tuple(v / len(script) for v in _per_round_totals(transcript))


def test_transcript_counts_take_no_part_in_eq_hash_or_repr(pd_game) -> None:
    first = Transcript((ActionPair(1, 1), ActionPair(2, 2), ActionPair(1, 1)), pd_game)
    second = Transcript(first.pairs, pd_game)
    assert first.counts == Counter({ActionPair(1, 1): 2, ActionPair(2, 2): 1})
    assert list(first.counts) == [ActionPair(1, 1), ActionPair(2, 2)]
    assert [f.name for f in dataclasses.fields(Transcript)] == ["pairs", "game"]
    second.counts[ActionPair(1, 2)] = 5
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second)
    assert "counts" not in repr(first)


def test_scaled_m2_takes_no_part_in_eq_hash_or_repr() -> None:
    game = validate_game([[0, 1], [1, 0]], [["1/2", "-1/3"], [1, "1/6"]])
    other = validate_game(game.m1, game.m2)
    assert game.scaled_m2 == ((3, -2), (6, 1))  # granularity 6
    assert game.scaled_m2 is game.scaled_m2  # computed once
    assert [f.name for f in dataclasses.fields(game)] == ["rows", "cols", "m1", "m2", "granularity"]
    assert "scaled_m2" not in vars(other)
    assert game == other and hash(game) == hash(other)
    assert repr(game) == repr(other)
    assert "scaled_m2" not in repr(game)


INTEGER_VIEW = ("pair_table", "scaled_m1", "scaled_m2", "pair_ordering", "max_follower_pair")


def test_integer_view_takes_no_part_in_eq_hash_or_repr() -> None:
    game = validate_game([[0, "1/4"], [1, 0]], [["1/2", "-1/3"], [1, "1/6"]])
    other = validate_game(game.m1, game.m2)
    for name in INTEGER_VIEW:
        assert getattr(game, name) is getattr(game, name)  # computed once
        assert name not in vars(other)
    assert game.scaled_m1 == ((0, 3), (12, 0))  # granularity 12
    assert game == other and hash(game) == hash(other)
    assert repr(game) == repr(other)
    assert not any(name in repr(game) for name in INTEGER_VIEW)


def _game_over(rng: random.Random, rows: int, cols: int, a: int):
    """A random game with every payoff a multiple of 1/a (a = 1 ties often)."""
    def matrix():
        return [[Fraction(rng.randint(-a, a), a) for _ in range(cols)] for _ in range(rows)]

    return validate_game(matrix(), matrix())


SHAPES = [(1, 1), (1, 5), (5, 1), (1, 8), (8, 1), (2, 3), (3, 2), (4, 4), (5, 7), (8, 8)]


@pytest.mark.parametrize("a", [1, 2, 6, 60])
def test_integer_view_matches_fraction_reference(a) -> None:
    """The integer pair order, follower-best pair and totals equal the
    `Fraction`-keyed sort, min and fold."""
    rng = random.Random(a)
    for rows, cols in SHAPES:
        for _ in range(4):
            game = _game_over(rng, rows, cols, a)
            assert game.pair_ordering == fraction_pair_ordering(game)
            assert game.max_follower_pair == fraction_max_follower_pair(game)
            pair, payoff = game.max_follower_pair
            assert type(payoff) is Fraction and type(pair) is ActionPair
            for _ in range(3):
                counts = {p: rng.choice((0, 0, 1, 7, 10**12)) for p in game.pairs()}
                assert game.totals(counts) == fraction_totals(game, counts)
            assert game.totals({}) == (0, 0)


def test_pairs_come_from_the_pair_table(pd_game) -> None:
    first, second = list(pd_game.pairs()), list(pd_game.pairs())
    assert first == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all(p is q for p, q in zip(first, second))
    assert all(pd_game.pair_table[p.row - 1][p.col - 1] is p for p in first)
    assert {id(p) for p in pd_game.pair_ordering} == {id(p) for p in first}
    assert any(pd_game.max_follower_pair[0] is p for p in first)


def test_simulate_transcript_holds_the_table_pairs() -> None:
    game = random_game(random.Random(4), 3, 4)
    leader = MultiplicativeWeightsGPA(game, "leader", Fraction(1, 10))
    transcript = simulate(leader, MyopicBestResponder(game, leader), game, 40, seed=2)
    assert all(game.pair_table[p.row - 1][p.col - 1] is p for p in transcript.pairs)

# Messages recorded when every entry was parsed on its own.
@pytest.mark.parametrize(
    "pairs, message",
    [
        ("[[1,1],[1,true]]", "expected an integer, got True"),
        ("[[1,1],[1,1.0]]", "expected an integer, got 1.0"),
        ("[[1,1],[1]]", "expected a [row, col] pair, got [1]"),
        ('[[1,1],"ab"]', "expected a [row, col] pair, got 'ab'"),
        ("[[1,1],[1,2,3]]", "expected a [row, col] pair, got [1, 2, 3]"),
        ("[[1,1],5]", "expected a [row, col] pair, got 5"),
        ("[5,5]", "expected a [row, col] pair, got 5"),
        ("[[3,1]]", "pair ActionPair(row=3, col=1) out of bounds for game"),
    ],
)
def test_transcript_from_json_names_the_first_bad_entry(pd_game, pairs, message) -> None:
    with pytest.raises(InputError) as error:
        transcript_from_json(f'{{"pairs":{pairs}}}', pd_game)
    assert str(error.value) == message
