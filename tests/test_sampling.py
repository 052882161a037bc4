"""Sampled construction and prescription check: golden digests and references.

`sampled_golden.json` holds one sha256 per sampled construction, recorded
from the `Fraction` sampler that `fraction_sample_prescription` in
`conftest.py` keeps.  The count-based sampler must reproduce every one of
them byte for byte.  To rewrite the file, which only a deliberate change of
the sampler's output may do, run `PYTHONPATH=src python tests/test_sampling.py`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from repstack import (
    ActionPair,
    DeviationProfitableAt,
    MixedStrategy,
    Obeys,
    Transcript,
    build_deterministic_gpa,
    external_regret,
    gpa_to_json,
    sample_prescription,
    stackelberg_lp,
    validate_game,
    verify_prescription,
)
from repstack import _rng
from repstack import gpa as gpa_module
from repstack.gpa import _STREAM_SAMPLES, HorizonTooShort, PrescribedSequenceGPA
from repstack.oracle import _STREAM_FOLLOWER, _STREAM_LEADER
from conftest import (
    fraction_sample_prescription,
    fraction_verify_prescription,
    random_game,
    random_zero_sum_game,
)

GOLDEN_PATH = Path(__file__).with_name("sampled_golden.json")

# The three games of test_swap_repair_loss_bound; a 3x3 and a 4x4 game whose
# commitment distribution puts zero weight on pairs before, between and after
# its support in row-major order; and a game with constant follower payoffs,
# which takes the follower_max == V shortcut.
GOLDEN_GAMES = {
    "pd": ([["3/5", "0"], ["1", "1/5"]], [["3/5", "1"], ["0", "1/5"]]),
    "inevitability": ([[1, 0], [0, 0]], [["1/2", 1], [0, 0]]),
    "tension": ([["1/4", "3/4"], ["0", "1/2"]], [["1", "0"], ["0", "1"]]),
    "zero-weight-3x3": (
        [["-2/3", "-1", "1"], ["0", "-1", "-2/5"], ["-1", "1/2", "-1"]],
        [["1", "-1", "-4/5"], ["1", "1", "1/5"], ["-1", "1", "0"]],
    ),
    "zero-weight-4x4": (
        [
            ["1/2", "0", "2/5", "0"],
            ["1/4", "-2/5", "-3/5", "-2/3"],
            ["1", "1/3", "1", "-3/5"],
            ["-1", "-5/6", "-1/6", "1"],
        ],
        [
            ["0", "1/4", "1", "1"],
            ["3/4", "-1/5", "1", "-1"],
            ["0", "1", "2/3", "1"],
            ["1/4", "0", "-5/6", "1"],
        ],
    ),
    "shortcut": ([[0, 1], ["1/2", 0]], [["1/4", "1/4"], ["1/4", "1/4"]]),
}
GOLDEN_HORIZONS = (17, 257, 4097)
GOLDEN_SEEDS = {
    "pd": 100,
    "inevitability": 100,
    "tension": 100,
    "zero-weight-3x3": 30,
    "zero-weight-4x4": 30,
    "shortcut": 3,
}


def _pairs_text(pairs) -> str:
    return ";".join(f"{p.row},{p.col}" for p in pairs)


def construction_digest(construction) -> str:
    """sha256 over the pre-swap block, post-swap block, swaps and strategy JSON."""
    text = "\n".join(
        [
            _pairs_text(construction.pre_swap),
            _pairs_text(construction.post_swap),
            str(construction.swaps),
            gpa_to_json(construction.gpa),
        ]
    )
    return hashlib.sha256(text.encode()).hexdigest()


def golden_digests() -> dict[str, list[str]]:
    digests = {}
    for name, (m1, m2) in GOLDEN_GAMES.items():
        game = validate_game(m1, m2)
        for horizon in GOLDEN_HORIZONS:
            digests[f"{name}/T{horizon}"] = [
                construction_digest(sample_prescription(game, horizon, seed))
                for seed in range(GOLDEN_SEEDS[name])
            ]
    return digests


def test_sampled_constructions_match_golden_digests() -> None:
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = golden_digests()
    assert actual.keys() == expected.keys()
    for case, digests in expected.items():
        mismatched = [seed for seed, (a, b) in enumerate(zip(actual[case], digests)) if a != b]
        assert len(actual[case]) == len(digests)
        assert not mismatched, f"{case}: seeds {mismatched} differ from the golden digests"


def _random_shape(rng: random.Random) -> tuple[int, int]:
    """Mostly small square-ish games, with 1xk and kx1 shapes drawn often."""
    kind = rng.randrange(4)
    if kind == 0:
        return 1, rng.randint(1, 4)
    if kind == 1:
        return rng.randint(1, 4), 1
    return rng.randint(2, 4), rng.randint(2, 4)


def _random_game(rng: random.Random):
    rows, cols = _random_shape(rng)
    make = random_zero_sum_game if rng.random() < 0.3 else random_game
    return make(rng, rows, cols, max_denominator=rng.choice((1, 2, 6, 12)))


def _assert_same_construction(game, horizon: int, seed: int) -> None:
    try:
        expected = fraction_sample_prescription(game, horizon, seed)
    except HorizonTooShort:
        with pytest.raises(HorizonTooShort):
            sample_prescription(game, horizon, seed)
        return
    actual = sample_prescription(game, horizon, seed)
    assert actual.pre_swap == expected.pre_swap
    assert actual.post_swap == expected.post_swap
    assert actual.swaps == expected.swaps
    assert actual.gpa.prescription == expected.gpa.prescription
    assert actual.gpa.threat_strategy == expected.gpa.threat_strategy
    assert gpa_to_json(actual.gpa) == gpa_to_json(expected.gpa)


@pytest.mark.parametrize("block", range(4))
def test_sample_prescription_matches_fraction_reference(block: int) -> None:
    rng = random.Random(6100 + block)
    for _ in range(60):
        game = _random_game(rng)
        horizon = rng.choice((1, 2, 2, 3, 5, rng.randint(6, 40), rng.randint(41, 400)))
        _assert_same_construction(game, horizon, rng.randrange(1 << 20))


@pytest.mark.parametrize("stream", [0, _STREAM_LEADER, _STREAM_FOLLOWER, _STREAM_SAMPLES])
def test_u64_is_the_hash_of_seed_stream_counter(stream: int) -> None:
    """Draw k of stream s under seed z is the first 8 bytes of
    blake2b("z:s:k"), read big-endian, for any seed and counter."""
    for seed in (0, 7, -1, -(10**30), 2**64 + 3, 10**40):
        rng = _rng.CounterRng(seed, stream)
        for counter in (0, 1, 9, 10, 12345, 2**63, 10**30):
            payload = f"{seed}:{stream}:{counter}".encode()
            expected = int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")
            assert rng.u64(counter) == expected
            assert rng.u64(counter) == expected  # a draw leaves no trace on the next


def test_count_below_is_the_u64_sum() -> None:
    """`count_below(cut, stop)` counts the draws 1..stop-1 below `cut`, at
    cuts on, just beside and far outside the draws themselves."""
    for seed, stream in ((0, _STREAM_SAMPLES), (7, 0), (-3, _STREAM_LEADER), (10**30, _STREAM_FOLLOWER)):
        rng = _rng.CounterRng(seed, stream)
        draws = [rng.u64(k) for k in range(1, 500)]
        cuts = [-1, 0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 5]
        cuts += [draws[j] + shift for j in (0, 1, 7, 250, 498) for shift in (-1, 0, 1)]
        for stop in (1, 2, 500):
            for cut in cuts:
                assert rng.count_below(cut, stop) == sum(u < cut for u in draws[: stop - 1])


def test_sample_prescription_keeps_one_draw_per_round(monkeypatch) -> None:
    """The sampler counts draws 1..T-1 of its stream in one pass when the
    commitment has two support pairs, and hashes nothing when it has one."""
    seen = []
    count_below = _rng.CounterRng.count_below

    def recording_count_below(self, cut, stop):
        seen.append((self.seed, self.stream, stop))
        return count_below(self, cut, stop)

    monkeypatch.setattr(_rng.CounterRng, "count_below", recording_count_below)
    sample_prescription(validate_game(*GOLDEN_GAMES["pd"]), 50, seed=7)
    assert seen == [(7, 3, 50)]
    seen.clear()
    game = validate_game(*GOLDEN_GAMES["inevitability"])
    assert sum(1 for p in game.pairs() if stackelberg_lp(game).alpha[p]) == 1
    construction = sample_prescription(game, 50, seed=7)
    assert seen == []
    assert construction.pre_swap == fraction_sample_prescription(game, 50, seed=7).pre_swap


@pytest.mark.parametrize("name", ["pd", "zero-weight-3x3", "zero-weight-4x4"])
def test_draws_on_cdf_boundaries_match_fraction_reference(monkeypatch, name) -> None:
    """Draws at, just below and just above every scaled CDF boundary land on
    the same pair as the `Fraction` CDF walk."""
    game = validate_game(*GOLDEN_GAMES[name])
    alpha = stackelberg_lp(game).alpha
    assert any(alpha[p] == 0 for p in game.pairs())
    cumulative = Fraction(0)
    draws = [0, (1 << 64) - 1]
    for pair in game.pairs():
        cumulative += alpha[pair]
        edge = cumulative * (1 << 64)
        draws += [u for u in (math.floor(edge) - 1, math.floor(edge), math.ceil(edge)) if 0 <= u < 1 << 64]
    # The reference reads draw k through `u64` and the sampler counts the
    # same draws below its cut through `count_below`.
    def injected(counter):
        return draws[counter % len(draws)]

    monkeypatch.setattr(_rng.CounterRng, "u64", lambda self, counter: injected(counter))
    monkeypatch.setattr(
        _rng.CounterRng,
        "count_below",
        lambda self, cut, stop: sum(injected(k) < cut for k in range(1, stop)),
    )
    horizon = 3 * len(draws) + 1
    expected = fraction_sample_prescription(game, horizon, seed=0)
    actual = sample_prescription(game, horizon, seed=0)
    assert (actual.pre_swap, actual.post_swap, actual.swaps) == (
        expected.pre_swap,
        expected.post_swap,
        expected.swaps,
    )


def test_sample_prescription_rejects_more_than_two_support_pairs(monkeypatch) -> None:
    """A commitment with three positive weights is not an LP vertex; the
    sampler raises instead of drawing from it."""
    game = validate_game(*GOLDEN_GAMES["zero-weight-3x3"])
    solution = stackelberg_lp(game)
    pairs = list(game.pairs())
    alpha = {p: Fraction(0) for p in pairs}
    for p in pairs[:3]:
        alpha[p] = Fraction(1, 3)
    broken = dataclasses.replace(solution, alpha=alpha)
    monkeypatch.setattr(gpa_module, "stackelberg_lp", lambda game: broken)
    with pytest.raises(RuntimeError, match="3 support pairs"):
        sample_prescription(game, 50, seed=7)


def _random_mixed(rng: random.Random, n: int) -> MixedStrategy:
    raw = [rng.randint(0, 7) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return MixedStrategy(tuple(Fraction(w, total) for w in raw))


def _random_scripts(rng: random.Random, game):
    """Constructed, shuffled and uniformly random scripts for one game."""
    horizon = rng.choice((1, 2, 3, rng.randint(4, 30), rng.randint(31, 300)))
    pairs = list(game.pairs())
    scripts = [[rng.choice(pairs) for _ in range(horizon)]]
    if horizon >= 2:
        scripts.append(list(sample_prescription(game, horizon, rng.randrange(1000)).gpa.prescription))
    solution = stackelberg_lp(game)
    try:
        built, _ = build_deterministic_gpa(game, max(horizon, 2), solution)
        scripts.append(list(built.prescription))
    except HorizonTooShort:
        pass
    for script in scripts[1:]:
        shuffled = script[:]
        rng.shuffle(shuffled)
        scripts.append(shuffled)
    threats = [solution.threat.strategy, _random_mixed(rng, game.rows)]
    return [(script, rng.choice(threats)) for script in scripts]


@pytest.mark.parametrize("block", range(4))
def test_verify_prescription_matches_fraction_reference(block: int) -> None:
    rng = random.Random(6200 + block)
    verdicts = Counter()
    for _ in range(60):
        game = _random_game(rng)
        for script, threat_strategy in _random_scripts(rng, game):
            gpa = PrescribedSequenceGPA(game, script, threat_strategy)
            expected = fraction_verify_prescription(gpa, game)
            assert verify_prescription(gpa, game) == expected
            verdicts[isinstance(expected, Obeys)] += 1
    assert verdicts[True] and verdicts[False]


# Follower payoffs scaled by 4 are 4, 0, 2, 1.  Against the pure threat on row
# 2 the cap is 2 (scaled), so the per-round margin steps are +2, -2, 0 and -1;
# against the uniform threat the cap is 3 and the steps are +1, -3, -1, -2.
# The follower's best payoff is 4 in both.
FOLD_GAME = ([[0, 0], [0, 0]], [[1, 0], ["1/2", "1/4"]])
FOLD_THREATS = {"row-2": (0, 1), "uniform": (Fraction(1, 2), Fraction(1, 2))}


def _fold_gpa(script, threat_name: str) -> PrescribedSequenceGPA:
    game = validate_game(*FOLD_GAME)
    threat_strategy = MixedStrategy(tuple(map(Fraction, FOLD_THREATS[threat_name])))
    return PrescribedSequenceGPA(game, [ActionPair(*pair) for pair in script], threat_strategy)


def test_verify_prescription_folds_runs_like_the_fraction_reference() -> None:
    """A head, one long run, then a tail that sets the margin entering the run.

    The tail's length and mix sweep that margin over every integer from 4
    down to -23, so the run's first failing round lands on every offset of a
    run with a positive step, and at the run's first round for the others.
    """
    offsets = {}
    for threat_name in FOLD_THREATS:
        for head in ((), ((2, 2),), ((1, 2), (1, 2))):
            for pair in ((1, 1), (1, 2), (2, 1), (2, 2)):
                for length in (1, 2, 12):
                    for a, b, c in itertools.product(range(3), range(13), range(2)):
                        script = head + (pair,) * length + ((1, 2),) * b + ((2, 2),) * c + ((1, 1),) * a
                        gpa = _fold_gpa(script, threat_name)
                        expected = fraction_verify_prescription(gpa, gpa.game)
                        assert verify_prescription(gpa, gpa.game) == expected, script
                        if isinstance(expected, DeviationProfitableAt):
                            offset = expected.round - len(head) - 1
                            if 0 <= offset < length:
                                offsets.setdefault((threat_name, pair, length), set()).add(offset)
    # Positive step (+2 and +1): a failure at every offset of the long run.
    assert offsets["row-2", (1, 1), 12] == set(range(12))
    assert offsets["uniform", (1, 1), 12] == set(range(12))
    # Zero and negative steps: the run fails at its first round or not at all.
    for pair in ((1, 2), (2, 1), (2, 2)):
        assert offsets["row-2", pair, 12] == {0}
        assert offsets["uniform", pair, 12] == {0}


def test_verify_prescription_zero_step_run_at_the_bound() -> None:
    # (2, 1) steps 0 against the row-2 threat; after a final (1, 1) the
    # margin is exactly the bound 4, which passes, and one below it fails.
    gpa = _fold_gpa(((2, 1),) * 12 + ((1, 1),), "row-2")
    assert verify_prescription(gpa, gpa.game) == Obeys()
    gpa = _fold_gpa(((2, 1),) * 12 + ((2, 2), (1, 1)), "row-2")
    assert verify_prescription(gpa, gpa.game) == DeviationProfitableAt(1)


def test_verify_prescription_positive_run_fails_partway() -> None:
    # Entering the (1, 1) run with margin 2 - 2*4 = -6, rounds k = 1..4 from
    # the run's end fail (margin -4, -2, 0, 2) and k >= 5 pass, so the first
    # failure is the fourth round from the end of the run: round 9 of 16.
    gpa = _fold_gpa(((1, 1),) * 12 + ((1, 2),) * 4, "row-2")
    assert verify_prescription(gpa, gpa.game) == DeviationProfitableAt(9)
    assert fraction_verify_prescription(gpa, gpa.game) == DeviationProfitableAt(9)


def test_verify_prescription_single_round_runs() -> None:
    rng = random.Random(6400)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    verdicts = Counter()
    for threat_name in FOLD_THREATS:
        for pair in pairs:  # T = 1
            gpa = _fold_gpa((pair,), threat_name)
            assert verify_prescription(gpa, gpa.game) == fraction_verify_prescription(gpa, gpa.game)
        for _ in range(300):
            script = [rng.choice(pairs)]
            for _ in range(rng.randint(1, 40)):
                script.append(rng.choice([p for p in pairs if p != script[-1]]))
            gpa = _fold_gpa(script, threat_name)
            assert all(count == 1 for _, count in gpa.runs)
            expected = fraction_verify_prescription(gpa, gpa.game)
            assert verify_prescription(gpa, gpa.game) == expected
            verdicts[isinstance(expected, Obeys)] += 1
    assert verdicts[True] and verdicts[False]


def _per_round_regret(transcript: Transcript, game, side: str):
    """The regret as the per-round sum it is defined by."""
    leader = side == "leader"
    n_actions = game.rows if leader else game.cols

    def payoff(action: int, pair: ActionPair) -> Fraction:
        return game.m1[action - 1][pair.col - 1] if leader else game.m2[pair.row - 1][action - 1]

    realized = Fraction(0)
    fixed = [Fraction(0)] * n_actions
    for pair in transcript.pairs:
        realized += payoff(pair.row if leader else pair.col, pair)
        for a in range(1, n_actions + 1):
            fixed[a - 1] += payoff(a, pair)
    best = max(range(1, n_actions + 1), key=lambda a: (fixed[a - 1], -a))
    return fixed[best - 1] - realized, best, realized


@pytest.mark.parametrize("side", ["leader", "follower"])
def test_external_regret_matches_per_round_sum(side: str) -> None:
    rng = random.Random(6300 if side == "leader" else 6301)
    for _ in range(80):
        game = _random_game(rng)
        pairs = list(game.pairs())
        length = rng.choice((1, 2, rng.randint(3, 50), rng.randint(51, 400)))
        transcript = Transcript(tuple(rng.choice(pairs) for _ in range(length)), game)
        report = external_regret(transcript, game, side)
        expected = _per_round_regret(transcript, game, side)
        assert (report.total_regret, report.best_fixed_action, report.realized_total) == expected


def test_support_is_memoized_without_changing_identity() -> None:
    weights = (Fraction(1, 3), Fraction(0), Fraction(2, 3))
    strategy = MixedStrategy(weights)
    twin = MixedStrategy(weights)
    assert strategy.support() == (1, 3)
    assert strategy.support() is strategy.support()
    assert strategy == twin and hash(strategy) == hash(twin)
    assert repr(strategy) == repr(twin)
    with pytest.raises(AttributeError):
        strategy.weights = (Fraction(1),)  # type: ignore[misc]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
