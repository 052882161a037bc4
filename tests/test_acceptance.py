"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every numeric check is exact rational equality or an exact
inequality; the only decimals anywhere are the stated runtime limits.

Criterion 1's golden values follow from the prescription it pins,
6x(2,1), 3x(1,1), 2x(1,2), whose leader payoffs are 1, 3/5 and 0:
(6*1 + 3*3/5 + 2*0)/11 = 39/55 and 13/15 - 39/55 = 26/165.  The brute-force
oracle `brute_force_deterministic` in conftest.py agrees.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from repstack import (
    ActionPair,
    HorizonTooShort,
    MixedStrategy,
    Obeys,
    Transcript,
    average_payoffs,
    balanced_vertex_cover,
    best_response,
    build_deterministic_gpa,
    cover_strategies,
    external_regret,
    game_value,
    grid_audit_player3,
    multiplicative_weights,
    myopic_best_responder,
    on_path_transcript,
    player3_audit,
    reduce_graph,
    sample_prescription,
    simulate,
    stackelberg_gap,
    stackelberg_lp,
    threat,
    validate_game,
    verify_prescription,
)
from repstack.gpa import ConstantGPA, GrimTriggerGPA, LookupTableGPA
from repstack.hardness import Graph
from conftest import (
    brute_force_deterministic,
    brute_force_randomized,
    random_game,
    random_zero_sum_game,
)

F = Fraction


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s exceeds {limit_seconds}s"
    print(f"\ncriterion {number} ({name}): PASS ({elapsed:.2f}s)")


def _pd_game():
    return validate_game(
        [["3/5", "0"], ["1", "1/5"]],
        [["3/5", "1"], ["0", "1/5"]],
    )


def _inevitability_game():
    return validate_game([[1, 0], [0, 0]], [["1/2", 1], [0, 0]])


def _tension_game():
    return validate_game([["1/4", "3/4"], ["0", "1/2"]], [[1, 0], [0, 1]])


def _matching_pennies():
    return validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])


def test_criterion_1_pd_golden_run() -> None:
    with criterion(1, "PD golden run", 1.0):
        game = _pd_game()
        threat_result = threat(game)
        assert threat_result.value == F(1, 5)
        assert threat_result.strategy.weights == (F(0), F(1))
        solution = stackelberg_lp(game)
        assert solution.value == F(13, 15)
        assert solution.alpha[ActionPair(1, 1)] == F(1, 3)
        assert solution.alpha[ActionPair(2, 1)] == F(2, 3)
        assert solution.alpha[ActionPair(1, 2)] == 0
        assert solution.alpha[ActionPair(2, 2)] == 0
        gpa, params = build_deterministic_gpa(game, 11)
        assert (params.cycle_length, params.cycles, params.reward_rounds) == (3, 3, 2)
        assert [(p.row, p.col) for p in gpa.prescription] == (
            [(2, 1)] * 6 + [(1, 1)] * 3 + [(1, 2)] * 2
        )
        leader_avg, _ = average_payoffs(gpa.obedient_transcript())
        gap = stackelberg_gap(gpa, game, 11)
        # (6*1 + 3*3/5 + 2*0)/11 = 39/55 and 13/15 - 39/55 = 26/165; the
        # brute-force oracle in conftest.py gives the same leader average.
        assert leader_avg == F(39, 55), (
            f"golden leader average 39/55 vs exact average {leader_avg} "
            "of the pinned prescription"
        )
        assert gap == F(26, 165), f"golden gap 26/165 vs exact gap {gap}"


def test_criterion_2_inevitability() -> None:
    with criterion(2, "inevitability 1/T gap", 5.0):
        game = _inevitability_game()
        solution = stackelberg_lp(game)
        assert solution.value == 1
        for horizon in (2, 4, 8):
            gpa, _ = build_deterministic_gpa(game, horizon)
            result = best_response(gpa, game, horizon)
            assert result.leader_value / horizon == 1 - F(1, horizon)
            assert stackelberg_gap(gpa, game, horizon) == F(1, horizon)


def test_criterion_3_grim_trigger_separation() -> None:
    with criterion(3, "grim-trigger separation", 10.0):
        game = _pd_game()
        static_value = F(1, 5)  # repeated single-round commitment value
        for horizon in (3, 5, 7):
            leader = GrimTriggerGPA(game, ActionPair(1, 1), punish_row=2)
            result = best_response(leader, game, horizon)
            path = on_path_transcript(result, game)
            expected = [(1, 1)] * (horizon - 1) + [(1, 2)]
            assert [(p.row, p.col) for p in path.pairs] == expected
            assert result.leader_value == F(3 * (horizon - 1), 5)
            assert result.leader_value > static_value * horizon


def test_criterion_4_deterministic_rate() -> None:
    with criterion(4, "deterministic 2N/T rate", 60.0):
        rng = random.Random(20260809)
        tested = 0
        for index in range(50):
            size = 2 if index < 25 else 3
            game = random_game(rng, size, size, max_denominator=6)
            solution = stackelberg_lp(game)
            opt = solution.value
            for horizon in range(2, 61):
                try:
                    gpa, params = build_deterministic_gpa(game, horizon, solution)
                except HorizonTooShort:
                    continue
                leader_avg, _ = average_payoffs(gpa.obedient_transcript())
                assert leader_avg >= opt - F(2 * params.cycle_length, horizon)
                assert isinstance(verify_prescription(gpa, game), Obeys)
                tested += 1
        assert tested > 100  # the bound was exercised, not vacuously skipped


def test_criterion_5_oracle_equivalence() -> None:
    with criterion(5, "oracle vs brute force", 120.0):
        rng = random.Random(555)
        shapes = [(2, 2), (1, 2), (2, 1), (1, 3), (3, 1), (1, 4), (4, 1)]
        for _ in range(20):
            game = random_game(rng, *rng.choice(shapes))

            # Deterministic leader: random lookup table over all histories.
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
            expected = brute_force_deterministic(leader, game, horizon)
            assert (result.follower_value, result.leader_value) == expected

            # Randomized leader: constant mixed strategy, full enumeration.
            weights = [F(rng.randint(1, 4)) for _ in range(game.rows)]
            total = sum(weights)
            mixed = ConstantGPA(MixedStrategy(tuple(w / total for w in weights)))
            result = best_response(mixed, game, 3)
            expected = brute_force_randomized(mixed, game, 3)
            assert (result.follower_value, result.leader_value) == expected


def test_criterion_6_sampled_construction() -> None:
    with criterion(6, "sampled construction", 120.0):
        rng = random.Random(424242)
        games = [
            _pd_game(),
            _inevitability_game(),
            _tension_game(),
            _matching_pennies(),
            random_game(rng, 3, 3, max_denominator=4),
        ]
        for game in games:
            value = threat(game).value
            opt = stackelberg_lp(game).value
            a = game.granularity
            for horizon in (17, 257):
                held = 0
                for seed in range(100):
                    construction = sample_prescription(game, horizon, seed=seed)
                    block = construction.post_swap
                    follower_total = sum(
                        (game.follower_payoff(p) for p in block), F(0)
                    )
                    # Repaired block never undercuts the threat value: exact,
                    # required in 100% of runs.
                    assert follower_total >= value * (horizon - 1)
                    leader_avg, _ = average_payoffs(
                        construction.gpa.obedient_transcript()
                    )
                    shortfall = opt - leader_avg
                    # leader_avg >= opt - 4*sqrt(10A)/T^0.25, compared via
                    # fourth powers to stay exact.
                    if shortfall <= 0 or shortfall**4 * horizon <= 25600 * a * a:
                        held += 1
                assert held >= 95


def test_criterion_7_zero_sum_no_regret() -> None:
    with criterion(7, "zero-sum no-regret commitment", 30.0):
        games = [_matching_pennies(), random_zero_sum_game(random.Random(7), 3, 3)]
        for game in games:
            value = game_value(game)
            leader = multiplicative_weights(game, "leader", F(1, 20))
            responder = myopic_best_responder(game, leader)
            transcript = simulate(leader, responder, game, 1000, seed=2026)
            report = external_regret(transcript, game, "leader")
            # Average payoff >= game value - realized regret / T, exactly.
            assert report.realized_total >= value * 1000 - report.total_regret


def test_criterion_8_general_sum_counterexample() -> None:
    with criterion(8, "general-sum regret tension", 5.0):
        game = _tension_game()
        row1 = ConstantGPA(MixedStrategy.pure(1, 2))
        row2 = ConstantGPA(MixedStrategy.pure(2, 2))
        horizon = 6
        result1 = best_response(row1, game, horizon)
        assert result1.leader_value / horizon == F(1, 4)
        result2 = best_response(row2, game, horizon)
        assert result2.leader_value / horizon == F(1, 2)
        induced1 = Transcript(tuple([ActionPair(1, 1)] * 16), game)
        assert external_regret(induced1, game, "leader").total_regret <= 0
        induced2 = Transcript(tuple([ActionPair(2, 2)] * 16), game)
        per_round = external_regret(induced2, game, "leader").total_regret / 16
        assert per_round == F(1, 4)
        assert per_round >= F(1, 64)


def test_criterion_9_hardness_reduction() -> None:
    with criterion(9, "hardness reduction audits", 120.0):
        cycle4 = Graph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
        cover = balanced_vertex_cover(cycle4)
        assert cover == (1, 3)
        game3 = reduce_graph(cycle4)
        p1, p2 = cover_strategies(cycle4, cover)
        action, value = player3_audit(game3, p1, p2)
        assert value == 1
        assert game3.p3_label(action) == "t0"

        k4 = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
        assert balanced_vertex_cover(k4) is None
        worst = grid_audit_player3(reduce_graph(k4), 8)
        threshold = 1 + F(1, (4 - 2) * 4 ** (5 - 1))
        assert worst > threshold
