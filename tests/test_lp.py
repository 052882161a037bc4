"""Exact simplex, threat LP, commitment LP, and their certificates."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repstack import (
    ActionPair,
    LinearProgram,
    LPStatus,
    game_value,
    max_follower_pair,
    simplex_solve,
    stackelberg_lp,
    threat,
    validate_game,
)
from conftest import random_game

F = Fraction


def test_simplex_single_variable_bound() -> None:
    # maximize x subject to x <= 1 (written as -x >= -1), x >= 0
    lp = LinearProgram(
        objective=(F(1),), a_ge=((F(-1),),), b_ge=(F(-1),)
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.values == (F(1),)
    assert solution.objective_value == F(1)


def test_simplex_infeasible() -> None:
    # x >= 2 and x <= 1 cannot both hold
    lp = LinearProgram(
        objective=(F(1),), a_ge=((F(1),), (F(-1),)), b_ge=(F(2), F(-1))
    )
    assert simplex_solve(lp).status is LPStatus.INFEASIBLE


def test_simplex_unbounded() -> None:
    lp = LinearProgram(objective=(F(1),), a_ge=((F(1),),), b_ge=(F(0),))
    assert simplex_solve(lp).status is LPStatus.UNBOUNDED


def test_simplex_pd_commitment_lp_objective(pd_game) -> None:
    # The commitment LP written out explicitly over the four pair weights.
    lp = LinearProgram(
        objective=(F(3, 5), F(0), F(1), F(1, 5)),
        a_eq=((F(1), F(1), F(1), F(1)),),
        b_eq=(F(1),),
        a_ge=((F(3, 5), F(1), F(0), F(1, 5)),),
        b_ge=(F(1, 5),),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.objective_value == F(13, 15)
    assert solution.values == (F(1, 3), F(0), F(2, 3), F(0))


def test_simplex_free_variable() -> None:
    # maximize -v subject to v >= -3: optimum at the constraint.
    lp = LinearProgram(
        objective=(F(-1),),
        a_ge=((F(1),),),
        b_ge=(F(-3),),
        lower_bounds=(None,),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.values == (F(-3),)


def test_simplex_degenerate_cycling_program_terminates() -> None:
    # Beale's classic example: Dantzig's rule cycles on it, Bland's rule
    # must terminate at the optimum 1/20 (x1 = 1/25, x3 = 1).
    lp = LinearProgram(
        objective=(F(3, 4), F(-150), F(1, 50), F(-6)),
        a_ge=(
            (F(-1, 4), F(60), F(1, 25), F(-9)),
            (F(-1, 2), F(90), F(1, 50), F(-3)),
            (F(0), F(0), F(-1), F(0)),
        ),
        b_ge=(F(0), F(0), F(-1)),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.objective_value == F(1, 20)


def test_simplex_kuhn_cycling_program_terminates() -> None:
    # Kuhn's degenerate example, another classic cycler; optimum 1 at
    # x = (1, 0, 1, 0), certified by the dual point y = (0, 18, 1).
    lp = LinearProgram(
        objective=(F(10), F(-57), F(-9), F(-24)),
        a_ge=(
            (F(-1, 2), F(11, 2), F(5, 2), F(-9)),
            (F(-1, 2), F(3, 2), F(1, 2), F(-1)),
            (F(-1), F(0), F(0), F(0)),
        ),
        b_ge=(F(0), F(0), F(-1)),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.objective_value == F(1)


def test_simplex_degenerate_redundant_rows() -> None:
    # Duplicate equality rows force a redundant phase-1 artificial basis.
    lp = LinearProgram(
        objective=(F(1), F(1)),
        a_eq=((F(1), F(1)), (F(1), F(1)), (F(2), F(2))),
        b_eq=(F(1), F(1), F(2)),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    assert solution.objective_value == F(1)


def test_simplex_agrees_with_float_solver() -> None:
    """Random boxed programs: exact optima track scipy's HiGHS within 1e-7."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        objective = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        a_ge = [
            tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
            for _ in range(m)
        ]
        b_ge = [F(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(m)]
        # box 0 <= x <= 3 keeps every instance bounded
        for i in range(n):
            row = [F(0)] * n
            row[i] = F(-1)
            a_ge.append(tuple(row))
            b_ge.append(F(-3))
        solution = simplex_solve(
            LinearProgram(objective, a_ge=tuple(a_ge), b_ge=tuple(b_ge))
        )
        reference = scipy_opt.linprog(
            c=[-float(c) for c in objective],
            A_ub=[[-float(v) for v in row] for row in a_ge],
            b_ub=[-float(b) for b in b_ge],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if solution.status is LPStatus.INFEASIBLE:
            assert reference.status == 2
        else:
            assert solution.status is LPStatus.OPTIMAL
            assert reference.status == 0
            assert abs(float(solution.objective_value) + reference.fun) < 1e-7


def test_simplex_with_equalities_agrees_with_float_solver() -> None:
    """Distribution-constrained programs (sum x = 1) against scipy HiGHS."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(0, 2)
        objective = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        a_ge = tuple(
            tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n))
            for _ in range(m)
        )
        b_ge = tuple(F(rng.randint(-2, 1), 2) for _ in range(m))
        lp = LinearProgram(
            objective,
            a_eq=(tuple(F(1) for _ in range(n)),),
            b_eq=(F(1),),
            a_ge=a_ge,
            b_ge=b_ge,
        )
        solution = simplex_solve(lp)
        reference = scipy_opt.linprog(
            c=[-float(c) for c in objective],
            A_ub=[[-float(v) for v in row] for row in a_ge] or None,
            b_ub=[-float(b) for b in b_ge] or None,
            A_eq=[[1.0] * n],
            b_eq=[1.0],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if solution.status is LPStatus.INFEASIBLE:
            assert reference.status == 2
        else:
            assert solution.status is LPStatus.OPTIMAL
            assert reference.status == 0
            assert abs(float(solution.objective_value) + reference.fun) < 1e-7


def test_threat_pd(pd_game) -> None:
    result = threat(pd_game)
    assert result.value == F(1, 5)
    assert result.strategy.weights == (F(0), F(1))


def test_threat_inevitability(inevitability_game) -> None:
    result = threat(inevitability_game)
    assert result.value == F(0)
    assert result.strategy.weights == (F(0), F(1))


def test_threat_constant_follower_matrix() -> None:
    game = validate_game([[1, 0], [0, 1]], [["1/3", "1/3"], ["1/3", "1/3"]])
    result = threat(game)
    assert result.value == F(1, 3)
    assert sum(result.strategy.weights) == 1


def _threat_dual_value(game) -> Fraction:
    """Follower side of the zero-sum threat game: max_y min_i e_i M2 y."""
    rows, cols = game.rows, game.cols
    lp = LinearProgram(
        objective=tuple([F(0)] * cols + [F(1)]),
        a_eq=(tuple([F(1)] * cols + [F(0)]),),
        b_eq=(F(1),),
        a_ge=tuple(
            tuple([game.m2[i][j] for j in range(cols)] + [F(-1)]) for i in range(rows)
        ),
        b_ge=tuple(F(0) for _ in range(rows)),
        lower_bounds=tuple([F(0)] * cols + [None]),
    )
    solution = simplex_solve(lp)
    assert solution.status is LPStatus.OPTIMAL
    return solution.objective_value


@pytest.mark.parametrize("seed", range(8))
def test_threat_duality(seed: int) -> None:
    rng = random.Random(1000 + seed)
    game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    assert threat(game).value == _threat_dual_value(game)


def test_stackelberg_lp_pd(pd_game) -> None:
    solution = stackelberg_lp(pd_game)
    assert solution.value == F(13, 15)
    assert solution.alpha[ActionPair(1, 1)] == F(1, 3)
    assert solution.alpha[ActionPair(2, 1)] == F(2, 3)
    assert solution.alpha[ActionPair(1, 2)] == 0
    assert solution.alpha[ActionPair(2, 2)] == 0


def test_stackelberg_lp_inevitability(inevitability_game) -> None:
    solution = stackelberg_lp(inevitability_game)
    assert solution.value == 1
    assert solution.alpha[ActionPair(1, 1)] == 1


def test_stackelberg_lp_zero_game() -> None:
    game = validate_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    solution = stackelberg_lp(game)
    assert solution.value == 0
    assert sum(solution.alpha.values()) == 1
    assert all(w >= 0 for w in solution.alpha.values())


@pytest.mark.parametrize("seed", range(10))
def test_stackelberg_lp_feasibility_and_local_optimality(seed: int) -> None:
    """Moving epsilon mass between any two pairs never beats the optimum."""
    rng = random.Random(2000 + seed)
    game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    solution = stackelberg_lp(game)
    threat_value = threat(game).value
    pairs = list(game.pairs())
    follower = lambda alpha: sum(
        alpha[p] * game.follower_payoff(p) for p in pairs
    )
    leader = lambda alpha: sum(alpha[p] * game.leader_payoff(p) for p in pairs)
    assert sum(solution.alpha.values()) == 1
    assert all(w >= 0 for w in solution.alpha.values())
    assert follower(solution.alpha) >= threat_value
    assert leader(solution.alpha) == solution.value
    epsilon = F(1, 1000)
    for source in pairs:
        if solution.alpha[source] < epsilon:
            continue
        for target in pairs:
            if target == source:
                continue
            perturbed = dict(solution.alpha)
            perturbed[source] -= epsilon
            perturbed[target] += epsilon
            if follower(perturbed) >= threat_value:
                assert leader(perturbed) <= solution.value


def test_max_follower_pair_pd(pd_game) -> None:
    pair, value = max_follower_pair(pd_game)
    assert (pair.row, pair.col) == (1, 2)
    assert value == 1


def test_max_follower_pair_inevitability(inevitability_game) -> None:
    pair, value = max_follower_pair(inevitability_game)
    assert (pair.row, pair.col) == (1, 2)
    assert value == 1


def test_max_follower_pair_tie_break_by_leader() -> None:
    game = validate_game([[0, 1], ["1/2", 0]], [["1/4", "1/4"], ["1/4", "1/4"]])
    pair, value = max_follower_pair(game)
    assert value == F(1, 4)
    assert (pair.row, pair.col) == (1, 2)  # leader payoff 1 beats 1/2 and 0


def _negated(game):
    """The game whose follower matrix is -M1, so its threat value is -game_value."""
    return validate_game(game.m1, [[-v for v in row] for row in game.m1])


# The reference is the follower-side dual LP of the negated game, not `threat`,
# which `game_value` itself calls.
def test_game_value_matches_negated_threat(matching_pennies) -> None:
    assert game_value(matching_pennies) == 0
    assert game_value(matching_pennies) == -_threat_dual_value(_negated(matching_pennies))


@pytest.mark.parametrize("seed", range(6))
def test_game_value_duality_on_zero_sum(seed: int) -> None:
    from conftest import random_zero_sum_game

    rng = random.Random(3000 + seed)
    game = random_zero_sum_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    assert game_value(game) == -_threat_dual_value(_negated(game))


@pytest.mark.parametrize("seed", range(6))
def test_game_value_duality_on_general_sum(seed: int) -> None:
    rng = random.Random(3100 + seed)
    game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    assert game_value(game) == -_threat_dual_value(_negated(game))


@pytest.mark.parametrize("seed", range(6))
def test_stackelberg_lp_carries_its_threat(seed: int) -> None:
    rng = random.Random(3200 + seed)
    game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3))
    solution = stackelberg_lp(game)
    assert solution.threat == threat(game)
    assert solution.threat_value == solution.threat.value
