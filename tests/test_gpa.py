"""Strategy constructions: deterministic layout, sampled repair, references."""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from repstack import (
    ActionPair,
    HorizonTooShort,
    InputError,
    MissingEntry,
    MixedStrategy,
    Transcript,
    average_payoffs,
    build_deterministic_gpa,
    gpa_from_json,
    gpa_to_json,
    multiplicative_weights,
    sample_prescription,
    stackelberg_lp,
    threat,
    validate_game,
)
from repstack import gpa as gpa_module
from repstack import lp
from repstack.core import parse_pair, parse_pairs
from repstack.gpa import (
    ExactStrategyUnavailable,
    GrimTriggerGPA,
    LookupTableGPA,
    PrescribedSequenceGPA,
    TwoPhaseDefectGPA,
)
from conftest import random_game, round_strategy, state_after

F = Fraction


def _pairs(gpa) -> list[tuple[int, int]]:
    return [(p.row, p.col) for p in gpa.prescription]


def test_deterministic_build_pd_eleven_rounds(pd_game) -> None:
    gpa, params = build_deterministic_gpa(pd_game, 11)
    assert (params.cycle_length, params.cycles, params.reward_rounds) == (3, 3, 2)
    assert params.counts[ActionPair(2, 1)] == 6
    assert params.counts[ActionPair(1, 1)] == 3
    assert _pairs(gpa) == [(2, 1)] * 6 + [(1, 1)] * 3 + [(1, 2)] * 2
    leader_avg, _ = average_payoffs(gpa.obedient_transcript())
    assert leader_avg == F(39, 55)
    assert gpa.threat_strategy.weights == (F(0), F(1))


def test_deterministic_build_inevitability(inevitability_game) -> None:
    for horizon in (2, 5, 9):
        gpa, params = build_deterministic_gpa(inevitability_game, horizon)
        assert params.cycle_length == 1
        assert _pairs(gpa) == [(1, 1)] * (horizon - 1) + [(1, 2)]
        leader_avg, _ = average_payoffs(gpa.obedient_transcript())
        assert leader_avg == 1 - F(1, horizon)


def test_deterministic_build_point_mass_on_best_pair() -> None:
    # Follower's favorite pair also maximizes the leader payoff, so the LP
    # puts all mass there and every round prescribes it.
    game = validate_game([[1, 0], [0, 0]], [[1, 0], [0, "1/2"]])
    solution = stackelberg_lp(game)
    assert solution.alpha[ActionPair(1, 1)] == 1
    gpa, _ = build_deterministic_gpa(game, 7)
    assert _pairs(gpa) == [(1, 1)] * 7


def test_deterministic_build_horizon_too_short(pd_game) -> None:
    with pytest.raises(HorizonTooShort) as info:
        build_deterministic_gpa(pd_game, 3)
    assert info.value.cycle_length == 3
    assert info.value.minimum == 4


def test_prescribed_gpa_threat_switching(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    obedient = tuple(gpa.prescription[:3])
    assert round_strategy(gpa, obedient).support() == (2,)  # round 4 scripts (2,1)
    deviated = obedient[:2] + (ActionPair(2, 2),)
    assert round_strategy(gpa, deviated) == gpa.threat_strategy
    # once triggered, always triggered
    longer = deviated + (ActionPair(2, 1),)
    assert round_strategy(gpa, longer) == gpa.threat_strategy


def test_reach_lp_bound_exactly(pd_game, inevitability_game) -> None:
    """Obedient average is within 2N/T of the LP optimum, and the cyclic
    block alone attains the optimum exactly."""
    for game in (pd_game, inevitability_game):
        opt = stackelberg_lp(game).value
        for horizon in range(2, 30):
            try:
                gpa, params = build_deterministic_gpa(game, horizon)
            except HorizonTooShort:
                continue
            leader_avg, _ = average_payoffs(gpa.obedient_transcript())
            assert leader_avg >= opt - F(2 * params.cycle_length, horizon)
            block = params.cycles * params.cycle_length
            block_avg, _ = average_payoffs(
                Transcript(gpa.prescription[:block], game)
            )
            assert block_avg == opt


def test_block_suffix_averages_cover_threat(pd_game, inevitability_game) -> None:
    """Within the cyclic block, every suffix is worth at least the threat
    value per round to the follower."""
    games = [pd_game, inevitability_game]
    for seed in range(5):
        games.append(random_game(random.Random(4000 + seed), 2, 2))
    checked = 0
    for game in games:
        value = threat(game).value
        try:
            gpa, params = build_deterministic_gpa(game, 25)
        except HorizonTooShort:
            continue
        checked += 1
        block = params.cycles * params.cycle_length
        for t in range(block):
            suffix = gpa.prescription[t:block]
            total = sum((game.follower_payoff(p) for p in suffix), F(0))
            assert total >= value * len(suffix)
    assert checked >= 2


def test_sampled_build_when_threat_equals_follower_max() -> None:
    # Constant follower payoffs make the threat value equal the maximum, so
    # the construction short-circuits to the leader-best pair every round.
    game = validate_game([[0, 1], ["1/2", 0]], [["1/4", "1/4"], ["1/4", "1/4"]])
    construction = sample_prescription(game, 9, seed=5)
    assert _pairs(construction.gpa) == [(1, 2)] * 9
    assert construction.swaps == 0


def test_sampled_build_point_mass_distribution() -> None:
    game = validate_game([[1, 0], [0, 0]], [[1, 0], [0, "1/2"]])
    construction = sample_prescription(game, 6, seed=1)
    assert _pairs(construction.gpa) == [(1, 1)] * 6


def test_sampled_build_repair_invariants(pd_game) -> None:
    value = threat(pd_game).value
    _, follower_best = pd_game.max_follower_pair
    for seed in range(20):
        construction = sample_prescription(pd_game, 100, seed=seed)
        block = construction.post_swap
        assert len(block) == 99
        total = sum((pd_game.follower_payoff(p) for p in block), F(0))
        assert total >= value * 99
        payoffs = [pd_game.follower_payoff(p) for p in block]
        assert payoffs == sorted(payoffs)
        final = construction.gpa.prescription[-1]
        assert pd_game.follower_payoff(final) == follower_best


def test_sampled_build_determinism(pd_game) -> None:
    first = sample_prescription(pd_game, 37, seed=99).gpa
    second = sample_prescription(pd_game, 37, seed=99).gpa
    assert first.prescription == second.prescription
    other = sample_prescription(pd_game, 37, seed=100).gpa
    assert first.prescription != other.prescription  # overwhelmingly likely


def test_sampled_build_short_horizon(pd_game) -> None:
    with pytest.raises(HorizonTooShort):
        sample_prescription(pd_game, 1, seed=0)


def test_swap_repair_loss_bound() -> None:
    """Leader-average shift from the swap repair stays within the bound
    2*sqrt(10 A)/(T-1)^(1/4) on every run that satisfies the sampling
    accuracy event |V - pre-swap follower average| <= 10/sqrt(T-1)."""
    games = [
        validate_game([["3/5", "0"], ["1", "1/5"]], [["3/5", "1"], ["0", "1/5"]]),
        validate_game([[1, 0], [0, 0]], [["1/2", 1], [0, 0]]),
        validate_game([["1/4", "3/4"], ["0", "1/2"]], [["1", "0"], ["0", "1"]]),
    ]
    violations = 0
    runs = 0
    for game in games:
        value = threat(game).value
        a = game.granularity
        for horizon in (17, 257, 4097):
            block = horizon - 1
            for seed in range(100):
                construction = sample_prescription(game, horizon, seed=seed)
                runs += 1
                pre = sum(
                    (game.follower_payoff(p) for p in construction.pre_swap), F(0)
                ) / block
                event_gap = value - pre
                if event_gap > 0 and event_gap**2 * block > 100:
                    violations += 1
                    continue
                pre_leader = sum(
                    (game.leader_payoff(p) for p in construction.pre_swap), F(0)
                ) / block
                post_leader = sum(
                    (game.leader_payoff(p) for p in construction.post_swap), F(0)
                ) / block
                diff = abs(pre_leader - post_leader)
                assert diff**4 * block <= 1600 * a * a
    assert violations <= runs // 100


def test_grim_trigger_behavior(pd_game) -> None:
    gpa = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    assert round_strategy(gpa, ()).support() == (1,)
    cooperative = (ActionPair(1, 1), ActionPair(1, 1))
    assert round_strategy(gpa, cooperative).support() == (1,)
    betrayed = (ActionPair(1, 2),)
    assert round_strategy(gpa, betrayed).support() == (2,)
    assert round_strategy(gpa, betrayed + (ActionPair(2, 1),)).support() == (2,)


def test_two_phase_matches_grim_with_empty_phase(pd_game) -> None:
    two_phase = TwoPhaseDefectGPA(pd_game, 0)
    grim = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    histories = [()]
    for _ in range(3):
        histories = [
            h + (ActionPair(r, c),) for h in histories for r in (1, 2) for c in (1, 2)
        ]
        for history in histories:
            assert round_strategy(two_phase, history) == round_strategy(grim, history)


def test_two_phase_defects_then_cooperates(pd_game) -> None:
    gpa = TwoPhaseDefectGPA(pd_game, 2)
    assert round_strategy(gpa, ()).support() == (2,)
    h1 = (ActionPair(2, 1),)
    assert round_strategy(gpa, h1).support() == (2,)
    h2 = h1 + (ActionPair(2, 1),)
    assert round_strategy(gpa, h2).support() == (1,)
    # follower defection in phase 2 triggers permanent defection
    h3 = h2 + (ActionPair(1, 2),)
    assert round_strategy(gpa, h3).support() == (2,)


def test_multiplicative_weights_uniform_first_round(pd_game) -> None:
    mw = multiplicative_weights(pd_game, "leader", F(1, 10))
    assert mw.probabilities_at(0, state_after(mw, ())) == [0.5, 0.5]
    with pytest.raises(ExactStrategyUnavailable):
        round_strategy(mw, ())


def test_multiplicative_weights_concentrates_on_best_reply(pd_game) -> None:
    # Against a constant column-1 opponent the defect row earns more, so its
    # relative weight must strictly increase every round.
    mw = multiplicative_weights(pd_game, "leader", F(1, 10))
    history: tuple[ActionPair, ...] = ()
    previous_ratio = 1.0
    for _ in range(30):
        history = history + (ActionPair(1, 1),)
        p1, p2 = mw.probabilities_at(len(history), state_after(mw, history))
        ratio = p2 / p1
        assert ratio > previous_ratio
        previous_ratio = ratio
    assert previous_ratio > 3  # exp(0.1 * 30 * 2/5) = e^1.2


def test_lookup_table_gpa() -> None:
    table = {(): 1, ((ActionPair(1, 1),)): 2}
    gpa = LookupTableGPA(table, n_actions=2)
    assert round_strategy(gpa, ()).support() == (1,)
    assert round_strategy(gpa, (ActionPair(1, 1),)).support() == (2,)
    with pytest.raises(MissingEntry):
        round_strategy(gpa, (ActionPair(2, 2),))


def test_gpa_serialization_round_trips(pd_game) -> None:
    built, _ = build_deterministic_gpa(pd_game, 11)
    candidates = [
        built,
        GrimTriggerGPA(pd_game, ActionPair(1, 1), 2),
        TwoPhaseDefectGPA(pd_game, 3),
        multiplicative_weights(pd_game, "follower", F(1, 7)),
        LookupTableGPA({(): 1, (ActionPair(1, 2),): 2}, 2),
    ]
    for gpa in candidates:
        text = gpa_to_json(gpa)
        loaded = gpa_from_json(text, pd_game)
        assert gpa_to_json(loaded) == text
        assert type(loaded) is type(gpa)
    loaded = gpa_from_json(gpa_to_json(built), pd_game)
    assert loaded.prescription == built.prescription
    assert loaded.threat_strategy == built.threat_strategy


def test_gpa_to_json_bytes(pd_game) -> None:
    """The exact bytes of one strategy of each serializable kind."""
    built, _ = build_deterministic_gpa(pd_game, 11)
    cases = [
        (
            built,
            '{"kind":"prescribed","prescription":[[2,1],[2,1],[2,1],[2,1],[2,1],[2,1],'
            '[1,1],[1,1],[1,1],[1,2],[1,2]],"threat":["0","1"]}',
        ),
        (
            GrimTriggerGPA(pd_game, ActionPair(1, 1), 2),
            '{"cooperate":[1,1],"kind":"grim_trigger","punish_row":2}',
        ),
        (TwoPhaseDefectGPA(pd_game, 3), '{"kind":"two_phase","phase1_len":3}'),
        (
            multiplicative_weights(pd_game, "follower", F(1, 7)),
            '{"kind":"mw","learning_rate":"1/7","side":"follower"}',
        ),
        (
            LookupTableGPA({(): 1, (ActionPair(1, 2),): 2}, 2),
            '{"kind":"lookup","n_actions":2,"table":{"":1,"1,2":2}}',
        ),
    ]
    for gpa, expected in cases:
        assert gpa_to_json(gpa) == expected


def _shuffled_pd_script(game) -> PrescribedSequenceGPA:
    built, _ = build_deterministic_gpa(game, 4097)
    script = list(built.prescription)
    random.Random(0).shuffle(script)
    return PrescribedSequenceGPA(game, script, built.threat_strategy)


# sha256 of the `gpa_to_json` bytes, recorded when every round's pair was
# encoded on its own; encoding each run once must give the same bytes.
@pytest.mark.parametrize(
    ("construct", "digest"),
    [
        (
            lambda game: build_deterministic_gpa(game, 4097)[0],
            "1cc5974269ab457638a56d178d4317f7bf1e56f6278600b54d634119055f9e7f",
        ),
        (
            lambda game: sample_prescription(game, 4097, 0).gpa,
            "53121e9a107fb024cdbfdf0d742caccf8eace8cdf8b75f89692456595e53c14b",
        ),
        (_shuffled_pd_script, "93b384cf4c7a6207f4eb76fb527c446fe2959a01492541e777acade6e1a8e5bf"),
    ],
    ids=["deterministic", "sampled", "shuffled"],
)
def test_gpa_to_json_digest_and_round_trip(pd_game, construct, digest) -> None:
    built = construct(pd_game)
    text = gpa_to_json(built)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    loaded = gpa_from_json(text, pd_game)
    assert loaded.prescription == built.prescription
    assert loaded.runs == built.runs


def test_prescription_parse_matches_entry_by_entry(pd_game) -> None:
    """Runs of equal entries parse to the pairs, or fail with the error, that
    `parse_pair` on every entry gives, also where `[1, true]` or `[1, 1.0]`
    equals `[1, 1]`.  Each case is also written compactly, with the keys in
    `gpa_to_json` order, so the per-run reader meets it too: it answers
    exactly the cases that load, and every other one fails as before."""
    good = [[1, 1], [1, 2], [2, 1], [2, 2]]
    bad = [[1, True], [True, 1], [1, 1.0], [1], [1, 2, 3], [1, "1"], [3, 1], "ab", 5, None, {"a": 1}]
    rng = random.Random(11)
    outcomes = set()
    for _ in range(400):
        entries = []
        for _ in range(rng.randint(1, 6)):
            value = rng.choice(bad) if rng.random() < 0.15 else rng.choice(good)
            entries += [value] * rng.randint(1, 4)
        data = {"kind": "prescribed", "prescription": entries, "threat": ["0", "1"]}
        text = json.dumps(data)
        compact = json.dumps(data, separators=(",", ":"))
        loaded = json.loads(text)["prescription"]
        per_entry = None
        try:
            per_entry = tuple(parse_pair(entry) for entry in loaded)
            expected = PrescribedSequenceGPA(pd_game, per_entry, MixedStrategy.pure(2, 2)).prescription
        except InputError as exc:
            expected = str(exc)
        for written in (text, compact):
            try:
                actual = gpa_from_json(written, pd_game).prescription
            except InputError as exc:
                actual = str(exc)
            assert actual == expected, (written, entries)
        read = gpa_module._read_written_prescription(compact, pd_game)
        assert (read is not None) == (type(expected) is tuple), entries
        try:
            parsed = parse_pairs(loaded)
        except InputError as exc:
            parsed = str(exc)
        assert parsed == (expected if per_entry is None else per_entry), entries
        outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def _loaded_or_error(load, text, game):
    """(prescription, threat) of the strategy `load` reads, or its error."""
    try:
        loaded = load(text, game)
    except InputError as exc:
        return str(exc)
    return loaded.prescription, loaded.threat_strategy


def _replace_nth(text: str, old: str, new: str, n: int) -> str:
    """`text` with the n-th (0-based) occurrence of `old` replaced by `new`."""
    start = -1
    for _ in range(n + 1):
        start = text.index(old, start + 1)
    return text[:start] + new + text[start + len(old) :]


def test_written_script_is_read_per_run(pd_game, monkeypatch) -> None:
    """A file as `gpa_to_json` writes it loads without `parse_pairs`, with or
    without outer whitespace; any other text gets what the general reader
    gives, the same strategy or the same error."""
    constructs = [
        build_deterministic_gpa(pd_game, 4097)[0],
        sample_prescription(pd_game, 4097, 0).gpa,
        _shuffled_pd_script(pd_game),
    ]

    def general_only(text, game):
        with monkeypatch.context() as patch:
            patch.setattr(gpa_module, "_read_written_prescription", lambda text, game: None)
            return gpa_from_json(text, game)

    with monkeypatch.context() as patch:
        patch.setattr(gpa_module, "parse_pairs", lambda entries: pytest.fail("parse_pairs called"))
        for built in constructs:
            text = gpa_to_json(built)
            for written in (text, text + "\n", " \t\r\n" + text + "\n"):
                loaded = gpa_from_json(written, pd_game)
                assert loaded.prescription == built.prescription
                assert loaded.runs == built.runs
                assert loaded.threat_strategy == built.threat_strategy

    built, _ = build_deterministic_gpa(pd_game, 11)
    text = gpa_to_json(built)
    assert text.startswith('{"kind":"prescribed","prescription":[[2,1],[2,1],[2,1],[2,1]')
    body = text[len('{"kind":"prescribed",') : -1]
    perturbed = [
        _replace_nth(text, ",", ", ", 7),
        "{" + body + ',"kind":"prescribed"}',
        '{"threat":["0","1"],' + body.split(',"threat":')[0] + ',"kind":"prescribed"}',
        "{" + body + ',"kind":"two_phase"}',
        _replace_nth(text, "[2,1]", "[02,1]", 3),
        _replace_nth(text, "[2,1]", "[2,1.0]", 3),
        _replace_nth(text, "[2,1]", "[2,true]", 3),
        _replace_nth(text, "[2,1]", "[" + "1" * 5000 + ",1]", 3),
        _replace_nth(text, "[1,1]", "[1,3]", 1),
        text.replace('["0","1"]', '["0","0","1"]'),
        text.replace('["0","1"]', '["0/1","1"]'),
        '{"kind":"prescribed","prescription":[],"threat":["0","1"]}',
        text.replace("]],", "],],"),
    ]
    outcomes = set()
    for variant in perturbed:
        assert variant != text
        assert gpa_module._read_written_prescription(variant, pd_game) is None, variant
        expected = _loaded_or_error(general_only, variant, pd_game)
        assert _loaded_or_error(gpa_from_json, variant, pd_game) == expected, variant
        outcomes.add(type(expected))
    assert outcomes == {tuple, str}


def test_prescription_runs(pd_game) -> None:
    built, _ = build_deterministic_gpa(pd_game, 11)
    assert built.runs == ((ActionPair(2, 1), 6), (ActionPair(1, 1), 3), (ActionPair(1, 2), 2))
    assert built.horizon == 11
    alternating = PrescribedSequenceGPA(pd_game, [ActionPair(1, 1), ActionPair(2, 2)] * 2, built.threat_strategy)
    assert alternating.runs == tuple((pair, 1) for pair in alternating.prescription)


@pytest.mark.parametrize(
    "construct",
    [
        lambda game: build_deterministic_gpa(game, 11),
        lambda game: sample_prescription(game, 11, 0),
    ],
    ids=["deterministic", "sampled"],
)
def test_construction_solves_two_linear_programs(pd_game, monkeypatch, construct) -> None:
    """One threat LP and one commitment LP: the threat is solved only once.

    Every threat solve starts in `_certified_threat`, and PD's threat is
    certified there, so the two-phase core sees the commitment LP alone.
    """
    calls = []

    def counting(name):
        solve = getattr(lp, name)

        def counted(*args):
            calls.append(name)
            return solve(*args)

        monkeypatch.setattr(lp, name, counted)

    counting("_certified_threat")
    counting("_two_phase")
    construct(pd_game)
    assert calls == ["_certified_threat", "_two_phase"]


@pytest.mark.parametrize("seed", range(6))
def test_constructions_use_the_commitment_threat(seed: int) -> None:
    rng = random.Random(4100 + seed)
    game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    expected = threat(game).strategy
    solution = stackelberg_lp(game)
    cycle_length = math.lcm(*(w.denominator for w in solution.alpha.values()))
    built, _ = build_deterministic_gpa(game, cycle_length + 1)
    assert built.threat_strategy == expected
    assert sample_prescription(game, 9, seed).gpa.threat_strategy == expected
