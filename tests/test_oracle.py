"""Best-response oracle, linear verifier, simulator, and regret measurement."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import repstack
from repstack import (
    ActionPair,
    DeviationProfitableAt,
    ExactStrategyUnavailable,
    Graph,
    InputError,
    MixedStrategy,
    Obeys,
    StateSpaceExceeded,
    Transcript,
    average_payoffs,
    best_response,
    build_deterministic_gpa,
    coloring_leader_gpa,
    external_regret,
    game_value,
    multiplicative_weights,
    myopic_best_responder,
    on_path_transcript,
    prescription_follower,
    sample_prescription,
    simulate,
    stackelberg_gap,
    stackelberg_lp,
    threat,
    validate_game,
    verify_prescription,
)
from repstack.gpa import (
    ConstantGPA,
    GamePlayingAlgorithm,
    GrimTriggerGPA,
    LookupTableGPA,
    PrescribedSequenceGPA,
    TwoPhaseDefectGPA,
)
from repstack.oracle import best_response_to_json
from conftest import (
    brute_force_deterministic,
    brute_force_randomized,
    random_game,
    random_zero_sum_game,
)

F = Fraction


def test_best_response_grim_trigger_pd(pd_game) -> None:
    gpa = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    result = best_response(gpa, pd_game, 3)
    assert result.follower_value == F(11, 5)
    path = on_path_transcript(result, pd_game)
    assert [(p.row, p.col) for p in path.pairs] == [(1, 1), (1, 1), (1, 2)]


def test_best_response_deterministic_construction_pd(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    result = best_response(gpa, pd_game, 11)
    path = on_path_transcript(result, pd_game)
    assert path.pairs == gpa.prescription
    assert result.leader_value / 11 == F(39, 55)
    assert result.follower_value / 11 == F(19, 55)


def test_on_path_transcript_under_a_mixed_threat_that_never_fires(pd_game) -> None:
    """Purity is checked round by round on the path, not declared: obeying
    the PD script is optimal against this mixed threat, so the path is the
    script and the threat never mixes on it."""
    built, _ = build_deterministic_gpa(pd_game, 11)
    leader = PrescribedSequenceGPA(
        pd_game, built.prescription, MixedStrategy((F(1, 10), F(9, 10)))
    )
    result = best_response(leader, pd_game, 11)
    assert on_path_transcript(result, pd_game).pairs == built.prescription


def test_on_path_transcript_names_the_first_mixed_round(pd_game) -> None:
    result = best_response(ConstantGPA(MixedStrategy.uniform(2)), pd_game, 3)
    with pytest.raises(InputError, match="mixes at round 1$"):
        on_path_transcript(result, pd_game)
    # The coloring leader plays action 1 until its final round, then mixes.
    leader, game = coloring_leader_gpa(Graph(3, ((1, 2), (2, 3))))
    result = best_response(leader, game, 3)
    with pytest.raises(InputError, match="mixes at round 3$"):
        on_path_transcript(result, game)


def test_best_response_single_round_myopic() -> None:
    game = validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    leader = ConstantGPA(MixedStrategy.uniform(2))
    result = best_response(leader, game, 1)
    assert result.follower_value == 0  # both columns average to zero
    assert result.follower_policy[()] == 1  # tie resolves to the lowest column


def test_best_response_rejects_inexact_leader(pd_game) -> None:
    mw = multiplicative_weights(pd_game, "leader", F(1, 10))
    with pytest.raises(ExactStrategyUnavailable):
        best_response(mw, pd_game, 2)


def test_inexact_leader_error_is_the_package_export(pd_game) -> None:
    """One exception means "no exact rationals": the oracle raises the one
    the strategy defines, and the package root exports it."""
    mw = multiplicative_weights(pd_game, "leader", F(1, 10))
    with pytest.raises(repstack.ExactStrategyUnavailable) as info:
        best_response(mw, pd_game, 2)
    assert type(info.value) is repstack.gpa.ExactStrategyUnavailable
    assert not hasattr(repstack, "RandomnessContractViolation")


def test_best_response_state_budget(pd_game) -> None:
    leader = ConstantGPA(MixedStrategy.uniform(2))
    with pytest.raises(StateSpaceExceeded) as info:
        best_response(leader, pd_game, 6, budget=100)
    assert info.value.budget == 100
    assert info.value.visited > 100


@pytest.mark.parametrize("seed", range(20))
def test_best_response_matches_brute_force(seed: int) -> None:
    """Exact agreement with strategy enumeration, values and tie-breaks."""
    rng = random.Random(5000 + seed)
    shapes = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)]
    game = random_game(rng, *rng.choice(shapes))

    # Deterministic leader: a random full lookup table, horizon 5.
    horizon = 5
    table = {}
    frontier = [()]
    for _ in range(horizon):
        next_frontier = []
        for history in frontier:
            table[history] = rng.randint(1, game.rows)
            for row in range(1, game.rows + 1):
                for col in range(1, game.cols + 1):
                    next_frontier.append(history + (ActionPair(row, col),))
        frontier = next_frontier
    leader = LookupTableGPA(table, game.rows)
    result = best_response(leader, game, horizon)
    assert (result.follower_value, result.leader_value) == brute_force_deterministic(
        leader, game, horizon
    )

    # Randomized leader: a constant mixed strategy, horizon 3.
    weights = [F(rng.randint(1, 4)) for _ in range(game.rows)]
    total = sum(weights)
    mixed = ConstantGPA(MixedStrategy(tuple(w / total for w in weights)))
    result = best_response(mixed, game, 3)
    assert (result.follower_value, result.leader_value) == brute_force_randomized(
        mixed, game, 3
    )


@pytest.mark.parametrize("seed", range(6))
def test_lp_value_bounds_every_candidate_leader(seed: int) -> None:
    """No candidate leader strategy beats the commitment LP value per round."""
    rng = random.Random(6000 + seed)
    rows, cols = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
    game = random_game(rng, rows, cols)
    opt = stackelberg_lp(game).value
    horizon = 4 if rows * cols <= 6 else 3
    candidates: list[GamePlayingAlgorithm] = [
        ConstantGPA(MixedStrategy.pure(row, game.rows))
        for row in range(1, game.rows + 1)
    ]
    candidates.append(ConstantGPA(threat(game).strategy))
    candidates.append(ConstantGPA(MixedStrategy.uniform(game.rows)))
    try:
        deterministic, _ = build_deterministic_gpa(game, horizon)
        candidates.append(deterministic)
    except Exception:
        pass
    candidates.append(sample_prescription(game, horizon, seed=seed).gpa)
    for leader in candidates:
        result = best_response(leader, game, horizon)
        assert result.leader_value <= opt * horizon


def test_verify_prescription_obeys(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    assert isinstance(verify_prescription(gpa, pd_game), Obeys)


def test_verify_prescription_detects_reversed_script(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    reversed_gpa = PrescribedSequenceGPA(
        pd_game, tuple(reversed(gpa.prescription)), gpa.threat_strategy
    )
    verdict = verify_prescription(reversed_gpa, pd_game)
    assert isinstance(verdict, DeviationProfitableAt)
    # Rounds 1 and 2 still satisfy the bound; round 3's scripted suffix of
    # 9/5 falls below one best round (1) plus eight threat-capped rounds (8/5).
    assert verdict.round == 3


def test_verify_prescription_single_round_best_pair(pd_game) -> None:
    gpa = PrescribedSequenceGPA(
        pd_game, (ActionPair(1, 2),), threat(pd_game).strategy
    )
    assert isinstance(verify_prescription(gpa, pd_game), Obeys)


def test_constructed_gpas_always_verify_and_match_oracle(pd_game) -> None:
    """Both constructions pass the linear check, and the oracle confirms the
    follower cannot beat the obedient transcript."""
    for game, horizon in ((pd_game, 7), (pd_game, 11)):
        for gpa in (
            build_deterministic_gpa(game, horizon)[0],
            sample_prescription(game, horizon, seed=3).gpa,
        ):
            assert isinstance(verify_prescription(gpa, game), Obeys)
            result = best_response(gpa, game, horizon)
            leader_total, follower_total = gpa.obedient_transcript().total_payoffs()
            assert result.follower_value == follower_total
            assert result.leader_value >= leader_total


def test_two_phase_defect_against_oracle(pd_game) -> None:
    """Half defection then cooperation extracts (4T-3)/5 total at even T,
    while stretching phase one to T-1 rounds collapses play to the static
    commitment value."""
    horizon = 6
    leader = TwoPhaseDefectGPA(pd_game, horizon // 2)
    result = best_response(leader, pd_game, horizon)
    assert result.leader_value == F(4 * horizon - 3, 5)
    path = on_path_transcript(result, pd_game)
    assert [(p.row, p.col) for p in path.pairs] == (
        [(2, 1)] * 3 + [(1, 1)] * 2 + [(1, 2)]
    )

    greedy = TwoPhaseDefectGPA(pd_game, horizon - 1)
    result = best_response(greedy, pd_game, horizon)
    path = on_path_transcript(result, pd_game)
    assert path.pairs[0].col == 2  # the follower defects immediately
    assert result.leader_value == horizon * F(1, 5)


def test_oracle_policy_is_a_lookup_table_strategy(pd_game) -> None:
    """The oracle's policy replayed as a lookup-table strategy reproduces
    the on-path transcript against the same leader."""
    leader = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    result = best_response(leader, pd_game, 4)
    follower = LookupTableGPA(result.follower_policy, pd_game.cols)
    transcript = simulate(leader, follower, pd_game, 4, seed=0)
    assert transcript.pairs == on_path_transcript(result, pd_game).pairs


@pytest.mark.parametrize("seed", range(5))
def test_obedience_is_optimal_on_random_games(seed: int) -> None:
    """On random games, both constructions make obeying a follower optimum;
    the oracle's leader value never falls below the obedient transcript."""
    rng = random.Random(7000 + seed)
    game = random_game(rng, 2, 2)
    horizon = 6
    candidates = [sample_prescription(game, horizon, seed=seed).gpa]
    try:
        candidates.append(build_deterministic_gpa(game, horizon)[0])
    except Exception:
        pass
    for gpa in candidates:
        assert isinstance(verify_prescription(gpa, game), Obeys)
        result = best_response(gpa, game, horizon)
        leader_total, follower_total = gpa.obedient_transcript().total_payoffs()
        assert result.follower_value == follower_total
        assert result.leader_value >= leader_total


def test_simulate_obedient_follower_reproduces_script(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    follower = prescription_follower(gpa.prescription, pd_game.cols)
    transcript = simulate(gpa, follower, pd_game, 11, seed=0)
    assert transcript.pairs == gpa.prescription


@pytest.mark.parametrize("horizon", [0, -3])
def test_simulate_rejects_horizon_below_one(pd_game, horizon) -> None:
    leader = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    follower = ConstantGPA(MixedStrategy.pure(2, 2))
    with pytest.raises(InputError, match="^horizon must be at least 1$"):
        simulate(leader, follower, pd_game, horizon, seed=0)


def test_simulate_grim_vs_always_defect(pd_game) -> None:
    leader = GrimTriggerGPA(pd_game, ActionPair(1, 1), punish_row=2)
    follower = ConstantGPA(MixedStrategy.pure(2, 2))
    transcript = simulate(leader, follower, pd_game, 5, seed=1)
    assert [(p.row, p.col) for p in transcript.pairs] == [(1, 2)] + [(2, 2)] * 4


def test_simulate_is_deterministic_given_seed(matching_pennies) -> None:
    mw1 = multiplicative_weights(matching_pennies, "leader", F(1, 20))
    mw2 = multiplicative_weights(matching_pennies, "follower", F(1, 20))
    first = simulate(mw1, mw2, matching_pennies, 50, seed=9)
    second = simulate(mw1, mw2, matching_pennies, 50, seed=9)
    assert first.pairs == second.pairs


def test_simulate_mw_self_play_mixes(matching_pennies) -> None:
    mw1 = multiplicative_weights(matching_pennies, "leader", F(1, 20))
    mw2 = multiplicative_weights(matching_pennies, "follower", F(1, 20))
    transcript = simulate(mw1, mw2, matching_pennies, 1000, seed=11)
    row1 = sum(1 for p in transcript.pairs if p.row == 1) / 1000
    col1 = sum(1 for p in transcript.pairs if p.col == 1) / 1000
    assert abs(row1 - 0.5) <= 0.1
    assert abs(col1 - 0.5) <= 0.1
    leader_avg, _ = average_payoffs(transcript)
    assert abs(float(leader_avg)) <= 0.1


def test_external_regret_tension_game(regret_tension_game) -> None:
    game = regret_tension_game
    always = lambda r, c, n: Transcript(tuple([ActionPair(r, c)] * n), game)
    row2 = external_regret(always(2, 2, 16), game, "leader")
    assert row2.total_regret / 16 == F(1, 4)
    assert row2.best_fixed_action == 1
    row1 = external_regret(always(1, 1, 16), game, "leader")
    assert row1.total_regret <= 0


def test_external_regret_single_round(pd_game) -> None:
    transcript = Transcript((ActionPair(1, 1),), pd_game)
    report = external_regret(transcript, pd_game, "leader")
    assert report.total_regret == F(1) - F(3, 5)
    assert report.best_fixed_action == 2
    assert report.realized_total == F(3, 5)


def test_external_regret_follower_side(pd_game) -> None:
    transcript = Transcript((ActionPair(1, 1), ActionPair(1, 1)), pd_game)
    report = external_regret(transcript, pd_game, "follower")
    assert report.best_fixed_action == 2
    assert report.total_regret == 2 * (F(1) - F(3, 5))


def test_regret_is_reproducible(pd_game) -> None:
    transcript = Transcript(tuple([ActionPair(2, 1)] * 5), pd_game)
    first = external_regret(transcript, pd_game, "leader")
    second = external_regret(transcript, pd_game, "leader")
    assert first == second


def test_regret_report_json_format(pd_game) -> None:
    transcript = Transcript((ActionPair(1, 1),), pd_game)
    report = external_regret(transcript, pd_game, "leader")
    assert report.to_json() == (
        '{"best_fixed_action":2,"realized_total":"3/5","total_regret":"2/5"}'
    )


def test_stackelberg_gap_pd_eleven(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    assert stackelberg_gap(gpa, pd_game, 11) == F(13, 15) - F(39, 55)


def test_stackelberg_gap_inevitability(inevitability_game) -> None:
    gpa, _ = build_deterministic_gpa(inevitability_game, 4)
    assert stackelberg_gap(gpa, inevitability_game, 4) == F(1, 4)


def test_gap_monotonically_bounded(pd_game, inevitability_game) -> None:
    for game in (pd_game, inevitability_game):
        for horizon in range(2, 12):
            try:
                gpa, params = build_deterministic_gpa(game, horizon)
            except Exception:
                continue
            gap = stackelberg_gap(gpa, game, horizon)
            assert gap <= F(2 * params.cycle_length, horizon)


def test_zero_sum_no_regret_commitment(matching_pennies) -> None:
    """A no-regret leader earns at least the game value minus the realized
    average regret, against any follower; checked with the myopic responder."""
    games = [matching_pennies, random_zero_sum_game(random.Random(77), 3, 3)]
    for game in games:
        value = game_value(game)
        mw = multiplicative_weights(game, "leader", F(1, 20))
        responder = myopic_best_responder(game, mw)
        transcript = simulate(mw, responder, game, 400, seed=13)
        report = external_regret(transcript, game, "leader")
        assert report.realized_total >= value * 400 - report.total_regret


def test_best_response_serialization(pd_game) -> None:
    gpa, _ = build_deterministic_gpa(pd_game, 11)
    result = best_response(gpa, pd_game, 11)
    text = best_response_to_json(result)
    assert '"follower_value":"19/5"' in text
    assert '"leader_value":"39/5"' in text
    second = best_response_to_json(result)
    assert text == second
