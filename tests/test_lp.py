"""Exact simplex, threat LP, commitment LP, and their certificates."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from repstack import (
    ActionPair,
    LinearProgram,
    LPStatus,
    MixedStrategy,
    game_value,
    simplex_solve,
    stackelberg_lp,
    threat,
    validate_game,
)
from repstack.lp import reply_values
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
    pair, value = pd_game.max_follower_pair
    assert (pair.row, pair.col) == (1, 2)
    assert value == 1


def test_max_follower_pair_inevitability(inevitability_game) -> None:
    pair, value = inevitability_game.max_follower_pair
    assert (pair.row, pair.col) == (1, 2)
    assert value == 1


def test_max_follower_pair_tie_break_by_leader() -> None:
    game = validate_game([[0, 1], ["1/2", 0]], [["1/4", "1/4"], ["1/4", "1/4"]])
    pair, value = game.max_follower_pair
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


def _random_number(rng: random.Random) -> int | Fraction:
    if rng.random() < 0.3:
        return rng.randint(-3, 3)
    return F(rng.randint(-6, 6), rng.randint(1, 6))


def _random_program(rng: random.Random) -> LinearProgram:
    """A small general program: free and shifted variables, equalities that
    may repeat (redundant rows), and any of the three outcomes."""
    n = rng.randint(1, 5)
    row = lambda: tuple(_random_number(rng) for _ in range(n))
    a_eq = [row() for _ in range(rng.randint(0, 2))]
    b_eq = [_random_number(rng) for _ in a_eq]
    if a_eq and rng.random() < 0.3:
        factor = rng.choice([F(-2), F(1), F(1, 3)])
        a_eq.append(tuple(factor * v for v in a_eq[0]))
        b_eq.append(factor * b_eq[0])
    a_ge = [row() for _ in range(rng.randint(0, 4))]
    b_ge = [_random_number(rng) for _ in a_ge]
    if rng.random() < 0.5:  # an upper bound of 3 on every variable
        a_ge += [tuple(-1 if k == j else 0 for k in range(n)) for j in range(n)]
        b_ge += [-3] * n
    lower = None
    if rng.random() < 0.7:
        lower = tuple(rng.choice([None, 0, _random_number(rng)]) for _ in range(n))
    return LinearProgram(row(), tuple(a_eq), tuple(b_eq), tuple(a_ge), tuple(b_ge), lower)


def _granular_game(rng: random.Random, rows: int, cols: int, granularity: int, zero_sum: bool):
    entry = lambda: F(rng.randint(-granularity, granularity), granularity)
    m1 = [[entry() for _ in range(cols)] for _ in range(rows)]
    m2 = [[-v for v in r] for r in m1] if zero_sum else [[entry() for _ in range(cols)] for _ in range(rows)]
    return validate_game(m1, m2)


# The literal programs of the tests above, captured as they call the solver.
LITERAL_PROGRAM_TESTS = (
    test_simplex_single_variable_bound,
    test_simplex_infeasible,
    test_simplex_unbounded,
    lambda: test_simplex_pd_commitment_lp_objective(None),
    test_simplex_free_variable,
    test_simplex_degenerate_cycling_program_terminates,
    test_simplex_kuhn_cycling_program_terminates,
    test_simplex_degenerate_redundant_rows,
)


def _recorded_programs(monkeypatch, run) -> list[LinearProgram]:
    """Every program `run()` hands to the solver, through the package or this module."""
    from repstack import lp

    programs: list[LinearProgram] = []
    solve = lp.simplex_solve

    def recording(program: LinearProgram):
        programs.append(program)
        return solve(program)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "simplex_solve", recording)
        patch.setitem(globals(), "simplex_solve", recording)
        run()
    return programs


def _game_programs(monkeypatch) -> list[LinearProgram]:
    """Per game: its threat program (solved once by `threat` and once inside
    `stackelberg_lp`), the commitment program, the threat program of the
    negated game (`game_value`'s) and the follower-side dual.

    A certified threat never calls the solver, and `stackelberg_lp` pivots
    its own integer rows, so the threat and commitment programs are built
    with `threat_program` and `commitment_program`; the dual program is the
    one the solver receives.
    """
    from conftest import commitment_program, threat_program

    rng = random.Random(5000)
    programs: list[LinearProgram] = []
    for granularity in (1, 2, 6, 60):
        for zero_sum in (False, True):
            for _ in range(6):
                game = _granular_game(rng, rng.randint(1, 4), rng.randint(1, 4), granularity, zero_sum)
                program = threat_program(game)
                commitment = commitment_program(game, threat(game).value)
                programs += [program, program, commitment]
                programs.append(threat_program(_negated(game)))
                programs += _recorded_programs(monkeypatch, lambda: _threat_dual_value(game))
    return programs


@pytest.mark.parametrize("source", ["literal", "random", "games"])
def test_simplex_matches_fraction_reference(source: str, monkeypatch) -> None:
    """Same status, vertex, objective and pivot counts as the Fraction tableau."""
    from conftest import fraction_simplex_solve

    if source == "literal":
        programs = _recorded_programs(monkeypatch, lambda: [t() for t in LITERAL_PROGRAM_TESTS])
        assert len(programs) == len(LITERAL_PROGRAM_TESTS)
    elif source == "random":
        rng = random.Random(6000)
        programs = [_random_program(rng) for _ in range(400)]
    else:
        programs = _game_programs(monkeypatch)
        # threat; threat and commitment; game value; the dual: 5 per game
        assert len(programs) == 4 * 2 * 6 * 5
    statuses = set()
    for program in programs:
        solution = simplex_solve(program)
        assert solution == fraction_simplex_solve(program), program
        assert all(type(v) is Fraction for v in solution.values or ())
        statuses.add(solution.status)
    if source == "random":
        assert statuses == set(LPStatus)


# Programs without constraints go through both simplex phases on an empty
# constraint block: phase 1 is optimal at once, and phase 2 is unbounded on
# any negative reduced cost and otherwise optimal at the lower bounds.
ZERO_CONSTRAINT_PROGRAMS = {
    "unbounded-free-variable": (
        LinearProgram((F(0), F(-1)), lower_bounds=(F(0), None)),
        LPStatus.UNBOUNDED,
    ),
    "unbounded-positive-cost": (LinearProgram((F(-1), F(1, 2))), LPStatus.UNBOUNDED),
    "optimal-int-bounds": (LinearProgram((-1, -2, 0), lower_bounds=(2, -3, 5)), LPStatus.OPTIMAL),
    "optimal-fraction-bounds": (
        LinearProgram((F(-1), F(-2, 3), F(0)), lower_bounds=(F(1, 2), F(-5, 4), F(7, 3))),
        LPStatus.OPTIMAL,
    ),
    "free-variable-zero-cost": (
        LinearProgram((F(-1), F(0)), lower_bounds=(F(1, 2), None)),
        LPStatus.OPTIMAL,
    ),
}


@pytest.mark.parametrize("name", ZERO_CONSTRAINT_PROGRAMS)
def test_zero_constraint_programs_match_fraction_reference(name: str) -> None:
    from conftest import fraction_simplex_solve

    program, status = ZERO_CONSTRAINT_PROGRAMS[name]
    solution = simplex_solve(program)
    assert solution == fraction_simplex_solve(program)
    assert (solution.status, solution.pivots) == (status, (0, 0))
    if status is LPStatus.OPTIMAL:
        assert solution.values == tuple(b or 0 for b in program.bounds())
        assert all(type(v) is Fraction for v in solution.values)


@pytest.mark.parametrize(
    "value", [0.5, True, 1.0], ids=["float", "bool", "integral-float"]
)
@pytest.mark.parametrize("field", ["objective", "a_eq", "b_eq", "a_ge", "b_ge", "lower_bounds"])
def test_linear_program_rejects_non_rational_data(field: str, value) -> None:
    """No float path: LinearProgram((0.5,), a_ge=((-1.0,),), b_ge=(-0.3,))
    used to run a float simplex and return x = 0.3."""
    from repstack import InputError

    data = {
        "objective": (F(1, 2),),
        "a_eq": ((F(1),),),
        "b_eq": (F(1, 5),),
        "a_ge": ((F(-1),),),
        "b_ge": (F(-3, 10),),
        "lower_bounds": (F(0),),
    }
    LinearProgram(**data)
    data[field] = ((value,),) if field.startswith("a_") else (value,)
    with pytest.raises(InputError):
        LinearProgram(**data)


def test_linear_program_accepts_ints() -> None:
    solution = simplex_solve(LinearProgram((1, 1), a_ge=((-1, -2),), b_ge=(-4,), lower_bounds=(1, None)))
    assert solution.status is LPStatus.UNBOUNDED
    solution = simplex_solve(LinearProgram((2,), a_ge=((-1,),), b_ge=(-3,), lower_bounds=(1,)))
    assert solution.values == (F(3),) and solution.objective_value == F(6)
    assert all(type(v) is Fraction for v in solution.values)
    solution = simplex_solve(LinearProgram((-1,), lower_bounds=(2,)))  # no constraints
    assert solution.values == (F(2),) and type(solution.values[0]) is Fraction


def test_simplex_reports_pivots_per_phase() -> None:
    # maximize -x subject to x <= 1: phase 1 brings x (the lowest column)
    # into the basis at x = 1, phase 2 swaps it for the slack.
    lp = LinearProgram(objective=(F(-1),), a_ge=((F(-1),),), b_ge=(F(-1),))
    solution = simplex_solve(lp)
    assert solution.values == (F(0),) and solution.pivots == (1, 1)
    # -x + y = 0 and x - y = 0: the artificials' reduced costs cancel, so
    # phase 1 is optimal at once; the drive-out pivots on the -1 of the first
    # row (counted in phase 1) and drops the second row as redundant.
    lp = LinearProgram(
        objective=(F(-1), F(-1)), a_eq=((F(-1), F(1)), (F(1), F(-1))), b_eq=(F(0), F(0))
    )
    solution = simplex_solve(lp)
    assert solution.values == (F(0), F(0)) and solution.pivots == (1, 0)
    # No constraints: no tableau, no pivots.
    assert simplex_solve(LinearProgram(objective=(F(-1),))).pivots == (0, 0)


def test_threat_30x30_within_three_seconds() -> None:
    import time

    rng = random.Random(7000)
    game = _granular_game(rng, 30, 30, 60, zero_sum=False)
    start = time.perf_counter()
    result = threat(game)  # raises unless max_j x.M2 e_j == value exactly
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"30x30 threat took {elapsed:.2f} s"
    assert sum(result.strategy.weights) == 1
    assert max(
        sum(w * game.m2[i][j] for i, w in enumerate(result.strategy.weights))
        for j in range(30)
    ) == result.value


# The standard form goes straight into the integer tableau: one original
# coefficient per standard column (negated in a free variable's second
# column), right-hand sides shifted by the nonzero lower bounds, and one scale
# for coefficients and shifted right-hand sides together.  These programs
# stress each of those steps against the Fraction tableau.
SHIFT_AND_SPLIT_PROGRAMS = {
    # x + y = 1 with x >= 1/3: the shifted right-hand side 2/3 has a
    # denominator that no coefficient and no input right-hand side has.
    "shifted-rhs-denominator": (
        LinearProgram((0, 1), a_eq=((1, 1),), b_eq=(1,), lower_bounds=(F(1, 3), 0)),
        (F(1, 3), F(2, 3)),
        F(2, 3),
    ),
    # x - 2y >= 1/5 and x <= 2, with x >= 1/2 and y >= 1/7.
    "shifted-ge-rows": (
        LinearProgram(
            (F(1, 2), 1),
            a_ge=((1, -2), (-1, 0)),
            b_ge=(F(1, 5), -2),
            lower_bounds=(F(1, 2), F(1, 7)),
        ),
        (F(2), F(9, 10)),
        F(19, 10),
    ),
    # Integers only, with nonzero integer bounds and a free variable.
    "int-only": (
        LinearProgram(
            (-1, 2, -3),
            a_eq=((1, 1, 1),),
            b_eq=(4,),
            a_ge=((0, -1, 0), (0, 0, 1)),
            b_ge=(-5, -2),
            lower_bounds=(-2, None, 1),
        ),
        (F(-2), F(5), F(1)),
        F(9),
    ),
    # A free variable with a Fraction cost sits at a negative value.
    "free-fraction-objective": (
        LinearProgram(
            (F(-2, 3), F(1, 7)),
            a_ge=((1, 0), (0, -1)),
            b_ge=(F(-5, 4), F(-1, 2)),
            lower_bounds=(None, None),
        ),
        (F(-5, 4), F(1, 2)),
        F(5, 6) + F(1, 14),
    ),
    # The optimum sits at the lower bounds: only the shift constant
    # sum_j c_j lb_j makes up the objective.
    "objective-constant": (
        LinearProgram((-1, F(-1, 3)), a_ge=((-1, -1),), b_ge=(-4,), lower_bounds=(F(5, 2), 1)),
        (F(5, 2), F(1)),
        F(-17, 6),
    ),
    # x >= 2 from its bound but x <= 3/2 from the row.
    "infeasible-shifted": (
        LinearProgram((1,), a_ge=((-1,),), b_ge=(F(-3, 2),), lower_bounds=(2,)),
        None,
        None,
    ),
    # x - y >= 1/2 with x >= -7/3 and y >= 1/4, maximizing x.
    "unbounded-shifted": (
        LinearProgram((1, 0), a_ge=((1, -1),), b_ge=(F(1, 2),), lower_bounds=(F(-7, 3), F(1, 4))),
        None,
        None,
    ),
}


@pytest.mark.parametrize("name", SHIFT_AND_SPLIT_PROGRAMS)
def test_shift_and_split_programs_match_fraction_reference(name: str) -> None:
    from conftest import fraction_simplex_solve

    program, values, objective_value = SHIFT_AND_SPLIT_PROGRAMS[name]
    solution = simplex_solve(program)
    assert solution == fraction_simplex_solve(program)
    assert (solution.values, solution.objective_value) == (values, objective_value)
    if name.startswith("infeasible"):
        assert solution.status is LPStatus.INFEASIBLE
    elif name.startswith("unbounded"):
        assert solution.status is LPStatus.UNBOUNDED
    else:
        assert solution.status is LPStatus.OPTIMAL
        assert all(type(v) is Fraction for v in solution.values)
        assert type(solution.objective_value) is Fraction


def _stress_program(rng: random.Random, kind: str) -> LinearProgram:
    """A random program of one stress family; see the test below."""
    small_int = lambda: rng.randint(-3, 3)
    odd_bound = lambda: F(rng.choice([-1, 1]) * rng.randint(1, 8), rng.choice([3, 5, 7]))
    if kind == "shifted-rhs":  # integer data, Fraction bounds with new denominators
        coeff, rhs, cost = small_int, small_int, small_int
        bound = lambda: rng.choice([0, odd_bound(), odd_bound()])
    elif kind == "int-only":
        coeff, rhs, cost = small_int, small_int, small_int
        bound = lambda: rng.choice([None, 0, small_int()])
    elif kind == "free-fraction-objective":
        coeff, rhs = (lambda: _random_number(rng)), (lambda: _random_number(rng))
        cost = lambda: F(rng.randint(-6, 6), rng.randint(2, 6))
        bound = lambda: rng.choice([None, None, 0])
    else:  # "objective-constant": nonzero bounds under nonzero costs
        coeff, rhs = (lambda: _random_number(rng)), (lambda: _random_number(rng))
        cost = lambda: rng.choice([-1, 1]) * F(rng.randint(1, 6), rng.randint(1, 6))
        bound = odd_bound
    n = rng.randint(1, 4)
    lower = tuple(bound() for _ in range(n))
    row = lambda: tuple(coeff() for _ in range(n))
    a_eq = [row() for _ in range(rng.randint(0, 2))]
    a_ge = [row() for _ in range(rng.randint(0, 3))]
    b_eq = [rhs() for _ in a_eq]
    b_ge = [rhs() for _ in a_ge]
    if rng.random() < 0.6:  # a box |x_j| <= 4 keeps most programs bounded
        for j in range(n):
            a_ge.append(tuple(-1 if k == j else 0 for k in range(n)))
            b_ge.append(-4)
            if lower[j] is None:
                a_ge.append(tuple(1 if k == j else 0 for k in range(n)))
                b_ge.append(-4)
    objective = tuple(cost() for _ in range(n))
    return LinearProgram(objective, tuple(a_eq), tuple(b_eq), tuple(a_ge), tuple(b_ge), lower)


def _shifted_rhs_needs_its_own_denominator(program: LinearProgram) -> bool:
    """Some shifted right-hand side has a denominator that the LCM of the
    coefficient and input right-hand-side denominators does not cover."""
    rows = program.a_eq + program.a_ge
    data = [v for row in rows for v in row] + list(program.b_eq + program.b_ge)
    scale = math.lcm(*(v.denominator for v in data))
    for row, b in zip(rows, program.b_eq + program.b_ge):
        shifted = b - sum((a * lb for a, lb in zip(row, program.bounds()) if lb), F(0))
        if scale % shifted.denominator:
            return True
    return False


@pytest.mark.parametrize(
    "kind", ["shifted-rhs", "int-only", "free-fraction-objective", "objective-constant"]
)
def test_stress_programs_match_fraction_reference(kind: str) -> None:
    """Status, values, objective and pivots per phase equal the Fraction
    tableau's on 250 random programs of each family, and each family really
    exercises what it is named after."""
    from conftest import fraction_simplex_solve

    rng = random.Random(f"stress:{kind}")
    statuses = set()
    exercised = 0
    for _ in range(250):
        program = _stress_program(rng, kind)
        solution = simplex_solve(program)
        assert solution == fraction_simplex_solve(program), program
        statuses.add(solution.status)
        if kind == "shifted-rhs":
            exercised += _shifted_rhs_needs_its_own_denominator(program)
        elif kind == "int-only":
            exercised += solution.status is LPStatus.OPTIMAL and solution.pivots[0] > 0
        elif kind == "free-fraction-objective":
            exercised += solution.status is LPStatus.OPTIMAL and any(
                lb is None and v < 0 for lb, v in zip(program.bounds(), solution.values)
            )
        else:
            exercised += solution.status is LPStatus.OPTIMAL and sum(
                c * lb for c, lb in zip(program.objective, program.bounds())
            ) != 0
    assert statuses == set(LPStatus)
    assert exercised >= 25


def _mixed_denominator_game():
    # M1 in thirds; M2 in halves and fifths, so the granularity (30) is not
    # M2's alone.  The threat is x* = (1/2, 1/2) with value 3/20.
    return validate_game(
        [["1/3", "-2/3"], [0, 1]], [["1/2", "-1/5"], ["-1/5", "1/2"]]
    )


@pytest.mark.parametrize("name", ["pd", "mixed-denominators"])
def test_threat_certificate_rejects_non_optimal_strategy(name: str, pd_game, monkeypatch) -> None:
    """A solver that returned a feasible but non-optimal leader strategy with
    the LP's value must trip the exact max_j x.M2 e_j == V check."""
    from repstack import lp

    game = pd_game if name == "pd" else _mixed_denominator_game()
    optimum = threat(game)
    if name == "mixed-denominators":
        assert (optimum.value, optimum.strategy.weights) == (F(3, 20), (F(1, 2), F(1, 2)))
    # Both paths below are live.
    assert lp._certified_threat(game.scaled_m2, game.granularity) is not None
    bland = lp._bland_threat
    alternatives = [
        tuple(F(int(i == k)) for i in range(game.rows)) for k in range(game.rows)
    ] + [(F(1, 2) + F(1, 7), F(1, 2) - F(1, 7))]
    alternatives = [x for x in alternatives if x != optimum.strategy.weights]
    assert alternatives
    for weights in alternatives:

        def non_optimal(*matrix):
            _, value = bland(*matrix)
            return list(weights), value

        # The fallback: `_bland_threat` returns the non-optimal point.
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_certified_threat", lambda *matrix: None)
            patch.setattr(lp, "_bland_threat", non_optimal)
            with pytest.raises(RuntimeError, match="inconsistent certificate"):
                threat(game)
        # The certified path returns it.
        with monkeypatch.context() as patch:
            patch.setattr(lp, "_certified_threat", lambda *matrix: (list(weights), optimum.value))
            with pytest.raises(RuntimeError, match="inconsistent certificate"):
                threat(game)


@pytest.mark.parametrize("seed", range(8))
def test_game_value_negated_game_equals_validated_game(seed: int, monkeypatch) -> None:
    """`game_value` builds no game: the negated matrix and scale it hands the
    threat solver must be `validate_game(m1, -m1)`'s integer follower matrix
    and granularity (the LCM of M1's denominators, not the input game's),
    and it returns minus that game's threat value."""
    from repstack import lp

    rng = random.Random(3300 + seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    m1 = [[F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6])) for _ in range(cols)] for _ in range(rows)]
    m2 = [[F(rng.randint(-5, 5), rng.choice([5, 7])) for _ in range(cols)] for _ in range(rows)]
    m1 = [[max(min(v, F(1)), F(-1)) for v in row] for row in m1]
    game = validate_game(m1, m2)
    seen = []
    real_threat = lp._threat
    monkeypatch.setattr(lp, "_threat", lambda *matrix: seen.append(matrix) or real_threat(*matrix))
    value = game_value(game)
    ((scaled, scale),) = seen
    expected = validate_game(game.m1, [[-v for v in row] for row in game.m1])
    assert [list(row) for row in scaled] == [list(row) for row in expected.scaled_m2]
    assert all(type(v) is int for row in scaled for v in row)
    assert scale == expected.granularity
    assert value == -threat(expected).value
    if any(v.denominator > 1 for row in game.m2 for v in row):
        assert scale != game.granularity


def _random_mix(rng: random.Random, n: int) -> MixedStrategy:
    """A mixed strategy over n actions, some weights zero when n > 1."""
    raw = [rng.choice([0, 0, 1, 2, 3, 5]) for _ in range(n)]
    raw[rng.randrange(n)] += 1
    return MixedStrategy(tuple(F(w, sum(raw)) for w in raw))



SHAPES = [(1, 1), (1, 4), (5, 1), (1, 7), (6, 1)] + [(None, None)] * 7


@pytest.mark.parametrize("seed, shape", enumerate(SHAPES))
def test_reply_values_equal_per_column_fraction_expectation(seed: int, shape) -> None:
    """Random games, 1 x k and k x 1 shapes included, against mixes with
    zero weights, pure mixes and the threat strategy, on both payoff
    matrices."""
    rng = random.Random(5500 + seed)
    rows, cols = shape if shape[0] else (rng.randint(2, 5), rng.randint(2, 5))
    game = random_game(rng, rows, cols, max_denominator=rng.choice([1, 6, 12]))
    mixes = [_random_mix(rng, rows), MixedStrategy.pure(rng.randint(1, rows), rows)]
    for x in mixes + [threat(game).strategy]:
        for scaled, matrix in ((game.scaled_m2, game.m2), (game.scaled_m1, game.m1)):
            ints, denominator = reply_values(scaled, game.granularity, x)
            expected = [
                sum((w * matrix[i][j] for i, w in enumerate(x.weights)), F(0)) for j in range(cols)
            ]
            assert [F(v, denominator) for v in ints] == expected
            assert all(type(v) is int for v in ints)


# Shapes for the fast-path differential: one row, one column, then
# rectangular games up to 12x12.
def _differential_shape(rng: random.Random, draw: int) -> tuple[int, int]:
    if draw % 6 == 0:
        return 1, rng.randint(1, 12)
    if draw % 6 == 1:
        return rng.randint(1, 12), 1
    return rng.randint(2, 12), rng.randint(2, 12)


def test_threat_matches_bland_vertex() -> None:
    """`threat` and `game_value` give the vertex that Bland's-rule simplex
    picks on the threat program, whether the fast path certifies it or
    `threat` falls back; both paths run."""
    from conftest import fraction_simplex_solve, threat_program
    from repstack.lp import _certified_threat

    rng = random.Random(8000)
    certified = fallbacks = 0
    for granularity in (1, 2, 6, 60):
        for draw in range(30):
            rows, cols = _differential_shape(rng, draw)
            game = _granular_game(rng, rows, cols, granularity, zero_sum=draw % 5 == 4)
            for target in (game, _negated(game)):
                reference = fraction_simplex_solve(threat_program(target))
                result = threat(target)
                assert result.strategy.weights == reference.values[:rows], target
                assert result.value == reference.values[rows], target
                if _certified_threat(target.scaled_m2, target.granularity) is None:
                    fallbacks += 1
                else:
                    certified += 1
            assert game_value(game) == -reference.values[rows], game
    # 181 certified and 59 fallbacks when this test was written.
    assert certified >= 160 and fallbacks >= 40, (certified, fallbacks)


def test_threat_falls_back_when_dantzig_gives_up(pd_game, monkeypatch) -> None:
    """A fast path that gives up on a degenerate run returns None, and
    `threat` answers through `_bland_threat` with the same vertex."""
    from repstack import lp

    expected = threat(pd_game)
    assert lp._certified_threat(pd_game.scaled_m2, pd_game.granularity) is not None
    monkeypatch.setattr(lp, "MAX_DEGENERATE_RUN", -1)  # the first pivot is past the bound
    assert lp._certified_threat(pd_game.scaled_m2, pd_game.granularity) is None
    assert threat(pd_game) == expected


def test_certified_threat_reads_the_optimal_face(monkeypatch) -> None:
    """A zero reduced cost at Dantzig's optimum stops the certificate only
    when the optimal face is more than one point.

    M2 = [[0, -1, 1], [0, 1, -1]] holds the follower to max(0, |x1 - x2|):
    x* = (1/2, 1/2) with V = 0 is the only optimum, but all three columns
    are tight there, so a nonbasic column has reduced cost 0.  The face is
    one point, and the fast path certifies Bland's vertex.  M2 =
    [[-1, 0], [-1, 0], [0, -1]] repeats its first row, so (1/2, 0, 1/2) and
    (0, 1/2, 1/2) are both optimal, and the fast path gives up."""
    from conftest import fraction_simplex_solve, threat_program
    from repstack import lp

    faces = []
    face_is_point = lp._face_is_point

    def recording(*args):
        faces.append(face_is_point(*args))
        return faces[-1]

    monkeypatch.setattr(lp, "_face_is_point", recording)
    unique = validate_game([[0] * 3] * 2, [[0, -1, 1], [0, 1, -1]])
    reference = fraction_simplex_solve(threat_program(unique))
    assert reference.values[:3] == (F(1, 2), F(1, 2), 0)
    certified = lp._certified_threat(unique.scaled_m2, unique.granularity)
    assert certified == (list(reference.values[:2]), reference.values[2])
    assert faces == [True]

    faces.clear()
    segment = validate_game([[0] * 2] * 3, [[-1, 0], [-1, 0], [0, -1]])
    assert lp._certified_threat(segment.scaled_m2, segment.granularity) is None
    assert faces == [False]
    reference = fraction_simplex_solve(threat_program(segment))
    result = threat(segment)
    assert (result.strategy.weights, result.value) == (reference.values[:3], F(-1, 2))
    for x in [(F(1, 2), 0, F(1, 2)), (0, F(1, 2), F(1, 2))]:
        replies, denominator = reply_values(segment.scaled_m2, segment.granularity, MixedStrategy(x))
        assert F(max(replies), denominator) == result.value


def _commitment_solve(monkeypatch, game):
    """`stackelberg_lp(game)` with the pivots of its commitment solve:
    (solution, (phase 1, phase 2) pivots, drive-out pivots)."""
    from repstack import lp

    runs = []
    two_phase, optimize = lp._two_phase, lp._optimize

    def recording(rows, costs, weights=None):
        optimized = []

        def counted(*args, **kwargs):
            result = optimize(*args, **kwargs)
            optimized.append(result[2])
            return result

        with monkeypatch.context() as patch:
            patch.setattr(lp, "_optimize", counted)
            result = two_phase(rows, costs, weights)
        pivots = result[4]
        runs.append((pivots, pivots[0] - optimized[0]))  # phase 1's own pivots first
        return result

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_two_phase", recording)
        solution = stackelberg_lp(game)
    # A threat that falls back solves its program first; the commitment is last.
    return (solution, *runs[-1])


def test_stackelberg_lp_matches_commitment_program(monkeypatch) -> None:
    """`stackelberg_lp` pivots the game's integer view to the alpha, value
    and pivot counts that Bland's-rule simplex gives on the commitment
    `LinearProgram`, on 1 x k, k x 1 and up to 12 x 12 games, zero-sum ones
    included; every branch of the solve runs."""
    from conftest import commitment_program, fraction_simplex_solve

    rng = random.Random(9000)
    seen = dict.fromkeys(
        ["negated row", "drive-out pivot", "one pair", "two pairs", "V's denominator not in A"], 0
    )
    for granularity in (1, 2, 6, 60):
        for draw in range(30):
            rows, cols = _differential_shape(rng, draw)
            game = _granular_game(rng, rows, cols, granularity, zero_sum=draw % 5 == 4)
            solution, pivots, drive_out = _commitment_solve(monkeypatch, game)
            value = threat(game).value
            reference = fraction_simplex_solve(commitment_program(game, value))
            assert list(solution.alpha) == list(game.pairs())
            assert tuple(solution.alpha.values()) == reference.values, game
            assert solution.value == reference.objective_value, game
            assert pivots == reference.pivots, game
            assert all(type(w) is Fraction for w in solution.alpha.values())
            support = sum(w != 0 for w in solution.alpha.values())
            seen["negated row"] += value < 0
            seen["drive-out pivot"] += drive_out > 0
            seen["one pair"] += support == 1
            seen["two pairs"] += support == 2
            seen["V's denominator not in A"] += granularity % value.denominator != 0
    # 54, 26, 60, 60 and 67 of the 120 games when this test was written.
    assert all(count >= 20 for count in seen.values()), seen


def _basic_values(result) -> dict[int, Fraction]:
    """A `_two_phase` result's basic variables and their values."""
    _, tableau, basis, denominator, _ = result
    return {var: F(row[-1], denominator) for var, row in zip(basis, tableau[1:])}


def _two_row_program(rng: random.Random, draw: int) -> tuple[list[list[int]], list[int]]:
    """Two integer rows over 2 to 5 columns and their costs: an independent
    second row, a multiple of the first (so one row is redundant) or a
    second row with a zero right-hand side, in turn.  The first row has a
    positive and a negative entry, so it is feasible on its own."""
    n = rng.randint(2, 5)
    first = [rng.randint(1, 3), rng.randint(-3, -1)] + [rng.randint(-3, 3) for _ in range(n - 1)]
    if draw % 3 == 0:
        second = [rng.randint(-6, 6) for _ in range(n + 1)]
    elif draw % 3 == 1:
        factor = rng.choice([-2, 1, 3])
        second = [factor * v for v in first]
    else:
        second = [rng.randint(-6, 6) for _ in range(n)] + [0]
    return [first, second], [rng.randint(-3, 3) for _ in range(n)]


def test_weighted_phase_one_matches_scaled_rows(monkeypatch) -> None:
    """`_two_phase(rows, costs, (L, 1))` takes the pivots of `_two_phase` on
    the same rows with the first one scaled by L: the same status, basis and
    pivot counts, and equal basic values as `Fraction`s.  It holds on the
    commitment LPs of the 120 games of
    `test_stackelberg_lp_matches_commitment_program`, whose final
    denominators are L times smaller, and on random two-row programs where a
    negated row, a drive-out pivot and a dropped row all run."""
    from repstack import lp

    calls = []
    two_phase = lp._two_phase

    def recording(rows, costs, weights=None):
        if weights is not None:
            calls.append(([list(row) for row in rows], list(costs), weights))
        return two_phase(rows, costs, weights)

    rng = random.Random(9000)
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_two_phase", recording)
        for granularity in (1, 2, 6, 60):
            for draw in range(30):
                rows, cols = _differential_shape(rng, draw)
                stackelberg_lp(_granular_game(rng, rows, cols, granularity, zero_sum=draw % 5 == 4))
    # The weight is L, the coefficient -L of the threat row's slack.
    assert len(calls) == 120
    assert all(weights == (-rows[1][-2], 1) for rows, _, weights in calls)
    calls = [(rows, costs, weights[0]) for rows, costs, weights in calls]
    games = len(calls)
    rng = random.Random(9200)
    for draw in range(300):
        rows, costs = _two_row_program(rng, draw)
        calls.append((rows, costs, rng.choice([2, 6, 60, 10**12])))

    seen = dict.fromkeys(["negated row", "drive-out pivot", "dropped row", "infeasible"], 0)
    optimized, optimize = [], lp._optimize

    def counted(*args, **kwargs):
        result = optimize(*args, **kwargs)
        optimized.append(result[2])
        return result

    monkeypatch.setattr(lp, "_optimize", counted)
    for index, (rows, costs, scale) in enumerate(calls):
        optimized.clear()
        weighted = lp._two_phase(rows, costs, (scale, 1))
        drive_out = weighted[4][0] - optimized[0]
        scaled = lp._two_phase([[scale * v for v in rows[0]], rows[1]], costs)
        status, _, basis, denominator, pivots = weighted
        assert (status, basis, pivots) == (scaled[0], scaled[2], scaled[4]), (rows, costs, scale)
        if status is LPStatus.INFEASIBLE:
            # Phase 1's artificial 1 is measured in units of 1/L.
            seen["infeasible"] += 1
            continue
        assert _basic_values(weighted) == _basic_values(scaled), (rows, costs, scale)
        if index < games:
            assert scaled[3] == scale * denominator, (rows, costs, scale)
        seen["negated row"] += any(row[-1] < 0 for row in rows)
        seen["drive-out pivot"] += drive_out > 0
        seen["dropped row"] += len(basis) < len(rows)
    # 185 negated rows, 38 drive-out pivots, 101 dropped rows and 59
    # infeasible programs when this test was written.
    assert all(count >= 20 for count in seen.values()), seen


def _negative_first_row(game):
    """The game with every entry of M2's first row made negative."""
    m2 = [list(row) for row in game.m2]
    m2[0] = [-abs(v) or F(-1) for v in m2[0]]
    return validate_game(game.m1, m2)


def test_threat_start_is_the_installed_tableau() -> None:
    """`_threat_start` writes out, entry for entry, the full tableau that the
    raw rows reach by pivoting in the start basis, with denominator 1,
    restricted to its nonbasic columns; w- is basic when M2's first row has a
    negative maximum."""
    from conftest import installed_threat_start
    from repstack.lp import _threat_start

    rng = random.Random(9100)
    through_w_minus = 0
    for granularity in (1, 2, 6, 60):
        for draw in range(24):
            rows, cols = _differential_shape(rng, draw)
            game = _granular_game(rng, rows, cols, granularity, zero_sum=draw % 5 == 4)
            if draw % 4 == 3:
                game = _negative_first_row(game)
            tableau, basis, denominator = installed_threat_start(game)
            assert denominator == 1
            nonbasic = [j for j in range(len(tableau[0]) - 1) if j not in basis]
            projected = [[row[j] for j in nonbasic] + row[-1:] for row in tableau]
            assert _threat_start(game.scaled_m2) == (projected, basis, nonbasic), game
            through_w_minus += basis.count(rows + 1)
    assert through_w_minus >= 20, through_w_minus  # 30 of 96 when this test was written


def _core_inputs(monkeypatch, programs) -> list[tuple[list[list[int]], list[int]]]:
    """The integer rows and costs that `simplex_solve` hands `_two_phase`."""
    from repstack import lp

    inputs = []
    two_phase = lp._two_phase

    def recording(rows, costs):
        inputs.append(([list(row) for row in rows], list(costs)))
        return two_phase(rows, costs)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_two_phase", recording)
        for program in programs:
            simplex_solve(program)
    return inputs


def test_compact_core_matches_full_tableau(monkeypatch) -> None:
    """`_two_phase` takes the pivots of the full-tableau core on the literal,
    random, stress, shift-and-split and game programs: the same status, pivot
    counts, basis, denominator and right-hand sides, and its tableau is the
    full one restricted to the nonbasic columns in increasing order.  The
    drive-out, its negative pivots and redundant-row dropping all run."""
    from conftest import full_two_phase
    from repstack import lp

    programs = _recorded_programs(monkeypatch, lambda: [t() for t in LITERAL_PROGRAM_TESTS])
    rng = random.Random(6000)
    programs += [_random_program(rng) for _ in range(400)]
    for kind in ["shifted-rhs", "int-only", "free-fraction-objective", "objective-constant"]:
        rng = random.Random(f"stress:{kind}")
        programs += [_stress_program(rng, kind) for _ in range(250)]
    programs += [program for program, _, _ in SHIFT_AND_SPLIT_PROGRAMS.values()]
    programs += _game_programs(monkeypatch)

    seen = dict.fromkeys(["drive-out pivot", "negative pivot", "dropped row"], 0)
    optimized, pivot, optimize = [], lp._pivot, lp._optimize

    def counted_optimize(*args, **kwargs):
        result = optimize(*args, **kwargs)
        optimized.append(result[2])
        return result

    def counted_pivot(tableau, basis, nonbasic, pivot_row, pivot_col, denominator):
        seen["negative pivot"] += tableau[pivot_row][pivot_col] < 0
        return pivot(tableau, basis, nonbasic, pivot_row, pivot_col, denominator)

    inputs = _core_inputs(monkeypatch, programs)
    monkeypatch.setattr(lp, "_optimize", counted_optimize)
    monkeypatch.setattr(lp, "_pivot", counted_pivot)
    for rows, costs in inputs:
        optimized.clear()
        status, tableau, basis, denominator, pivots = lp._two_phase(rows, costs)
        reference = full_two_phase(rows, costs)
        assert (status, basis, denominator, pivots) == (
            reference[0], reference[2], reference[3], reference[4]
        ), (rows, costs)
        full = reference[1]
        nonbasic = [j for j in range(len(full[0]) - 1) if j not in basis]
        assert tableau == [[row[j] for j in nonbasic] + row[-1:] for row in full], (rows, costs)
        seen["drive-out pivot"] += pivots[0] - optimized[0]
        seen["dropped row"] += status is not LPStatus.INFEASIBLE and len(basis) < len(rows)
    # 26 drive-out pivots (all 26 negative) and 39 dropped rows when this
    # test was written.
    assert seen["drive-out pivot"] >= 13 and seen["negative pivot"] >= 13, seen
    assert seen["dropped row"] >= 20, seen


def test_bland_threat_pivots_the_threat_program(monkeypatch) -> None:
    """`_bland_threat`'s integer rows are the rows `simplex_solve` builds for
    `threat_program`, times A/L (A the granularity, L the LCM of M2's
    denominators), and `_two_phase` takes the same pivots from both to the
    same basis and answer, on the 240 threat programs of
    `test_threat_matches_bland_vertex` and on 40 games whose M1 adds
    denominators that M2 lacks."""
    from conftest import threat_program
    from repstack import lp
    from repstack.lp import _bland_threat

    calls = []
    two_phase = lp._two_phase

    def recording(rows, costs):
        result = two_phase(rows, costs)
        calls.append((rows, costs, result))
        return result

    rng = random.Random(8000)
    targets = []
    for granularity in (1, 2, 6, 60):
        for draw in range(30):
            rows, cols = _differential_shape(rng, draw)
            game = _granular_game(rng, rows, cols, granularity, zero_sum=draw % 5 == 4)
            targets += [game, _negated(game)]
    # M1 in thirds and sevenths, M2 in halves and fifths, so that A > L.
    for draw in range(40):
        rows, cols = _differential_shape(rng, draw)
        m1 = [[F(rng.randint(-3, 3), 3 if draw % 2 else 7) for _ in range(cols)] for _ in range(rows)]
        m2 = [[F(rng.randint(-5, 5), rng.choice([2, 5])) / 5 for _ in range(cols)] for _ in range(rows)]
        targets.append(validate_game(m1, m2))

    monkeypatch.setattr(lp, "_two_phase", recording)
    rescaled = 0
    for target in targets:
        weights, value = _bland_threat(target.scaled_m2, target.granularity)
        solution = simplex_solve(threat_program(target))
        (own_rows, own_costs, own), (lp_rows, lp_costs, reference) = calls
        calls.clear()
        lcm = math.lcm(*(v.denominator for row in target.m2 for v in row))
        factor = target.granularity // lcm
        assert own_rows == [[factor * v for v in row] for row in lp_rows], target
        assert own_costs == lp_costs
        assert own[0] is reference[0] is LPStatus.OPTIMAL
        assert (own[2], own[4]) == (reference[2], reference[4]), target
        n = target.rows
        assert (weights, value) == (list(solution.values[:n]), solution.values[n]), target
        rescaled += factor > 1
    assert rescaled >= 20, rescaled  # 42 of 280 when this test was written
