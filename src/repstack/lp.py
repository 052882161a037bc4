"""Exact rational linear programming and the leader-commitment LPs.

The simplex solver is integer from reading the program to building its
answer.  Each coefficient goes straight into its standard-form column of an
integer tableau, multiplied by one common denominator (the LCM of the
denominators of the constraint block and of its right-hand sides), and the
tableau is pivoted fraction-free (Bareiss), so no pivot computes a gcd.  The
only `Fraction` arithmetic before the answer shifts the right-hand sides by
the nonzero lower bounds.  `Fraction`s are built at the end: one per original
variable from the final tableau, and the objective from its row 0.  Bland's
anti-cycling pivot rule makes it terminate on every input and return the
same optimal vertex for the same program every time.  On top of it sit the
two game LPs: the zero-sum threat computation, whose certificate
max_j x*.M2 e_j == V is checked in integers, and the commitment LP that
bounds what any leader strategy can extract from a best-responding follower.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import ActionPair, BimatrixGame, InputError, MixedStrategy

ZERO = Fraction(0)
ONE = Fraction(1)


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x  subject to  a_eq x = b_eq,  a_ge x >= b_ge.

    Each variable has a rational lower bound (0 unless overridden; None means
    the variable is free).  There are no implicit upper bounds.  Every
    coefficient, right-hand side and bound is an `int` or a `Fraction`;
    anything else (floats, bools) raises `InputError`.
    """

    objective: tuple[Fraction, ...]
    a_eq: tuple[tuple[Fraction, ...], ...] = ()
    b_eq: tuple[Fraction, ...] = ()
    a_ge: tuple[tuple[Fraction, ...], ...] = ()
    b_ge: tuple[Fraction, ...] = ()
    lower_bounds: tuple[Fraction | None, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.objective)
        if n == 0:
            raise InputError("linear program needs at least one variable")
        for rows, rhs, label in ((self.a_eq, self.b_eq, "eq"), (self.a_ge, self.b_ge, "ge")):
            if len(rows) != len(rhs):
                raise InputError(f"{label} constraint matrix and rhs disagree in length")
            for row in rows:
                if len(row) != n:
                    raise InputError(f"{label} constraint row has wrong width")
        if self.lower_bounds is not None and len(self.lower_bounds) != n:
            raise InputError("lower_bounds has wrong length")
        numbers = itertools.chain(
            self.objective,
            *self.a_eq,
            self.b_eq,
            *self.a_ge,
            self.b_ge,
            (b for b in self.lower_bounds or () if b is not None),
        )
        for value in numbers:
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise InputError(
                    f"linear program data must be int or Fraction, got {value!r}"
                )

    def bounds(self) -> tuple[Fraction | None, ...]:
        if self.lower_bounds is None:
            return tuple(ZERO for _ in self.objective)
        return self.lower_bounds


@dataclass(frozen=True)
class LPSolution:
    """Solver outcome; `values` and `objective_value` are set iff OPTIMAL.

    When OPTIMAL, the returned point satisfies every constraint exactly; there
    is no tolerance anywhere.  `pivots` counts the simplex pivots of phase 1
    (including those that drive artificials out of the basis) and of phase 2;
    it is (0, 0) when the program has no constraints.
    """

    status: LPStatus
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None
    pivots: tuple[int, int] = (0, 0)


def _pivot(
    tableau: list[list[int]], pivot_row: int, pivot_col: int, denominator: int
) -> int:
    """Integer-preserving (Bareiss) pivot; returns the new common denominator.

    The tableau holds `denominator` times the true rational tableau.  Every
    other row becomes (p*row - row[e]*pivot_row) / denominator, where p is the
    pivot, and the division is exact by Sylvester's identity.  A negative
    pivot (possible when driving out artificials) first negates the pivot
    row, which negates every row of the result and keeps the denominator
    positive, so signs in the tableau are the true tableau's signs.
    """
    row = tableau[pivot_row]
    if row[pivot_col] < 0:
        row = tableau[pivot_row] = [-v for v in row]
    p = row[pivot_col]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        coeff = other[pivot_col]
        if coeff:
            tableau[i] = [(p * a - coeff * b) // denominator for a, b in zip(other, row)]
        elif p != denominator:
            tableau[i] = [p * a // denominator for a in other]
    return p


def _bland_optimize(
    tableau: list[list[int]], basis: list[int], n_cols: int, denominator: int
) -> tuple[LPStatus, int, int]:
    """Run simplex iterations on a feasible tableau until optimal or unbounded.

    Row 0 holds reduced costs for maximization (entering while any is < 0);
    entering column is the lowest-index eligible one and the leaving row is
    the minimum-ratio row with the lowest basis variable index (Bland's rule,
    which guarantees termination on degenerate programs).  Ratios share the
    tableau's denominator, so they are compared by cross-multiplication.
    Returns the status, the final denominator and the number of pivots.
    """
    m = len(tableau) - 1
    pivots = 0
    while True:
        entering = -1
        for j in range(n_cols):
            if tableau[0][j] < 0:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL, denominator, pivots
        leaving = -1
        for i in range(1, m + 1):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving < 0:
                    leaving = i
                    continue
                ratio = tableau[i][-1] * tableau[leaving][entering]
                best_ratio = tableau[leaving][-1] * coeff
                if ratio < best_ratio or (
                    ratio == best_ratio and basis[i - 1] < basis[leaving - 1]
                ):
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED, denominator, pivots
        denominator = _pivot(tableau, leaving, entering, denominator)
        basis[leaving - 1] = entering
        pivots += 1


def _rebuild_cost_row(
    tableau: list[list[int]], basis: list[int], costs: Sequence[int], denominator: int
) -> None:
    """Set row 0 to denominator * (c_B B^-1 A - c) and the scaled basic objective.

    `costs` are integers over the tableau's columns; the constraint rows
    already hold denominator * B^-1 A, so the sum needs no division.
    """
    row0 = [-denominator * c for c in costs] + [0]
    for i, var in enumerate(basis, start=1):
        cb = costs[var]
        if cb:
            row0 = [a + cb * b for a, b in zip(row0, tableau[i])]
    tableau[0] = row0


def _scaled(values: Sequence[Fraction], scale: int) -> list[int]:
    """`scale` times `values`, as integers; `scale` is a common denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _standard_row(row: Sequence[Fraction], scale: int, free: Sequence[int]) -> list[int]:
    """`scale` times `row` over the standard columns, as integers.

    Every variable keeps its coefficient in its own column; a free variable
    `j` (listed in increasing order in `free`) also gets the negated
    coefficient in the column right after it.
    """
    out = _scaled(row, scale)
    for j in reversed(free):
        out.insert(j + 1, -out[j])
    return out


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Exact two-phase simplex with Bland's rule.

    Returns the canonical optimal basic solution for the program (fixed pivot
    rule, hence deterministic), or a solution object with INFEASIBLE /
    UNBOUNDED status.  The program's rows go straight into an integer
    tableau, scaled by the LCM of the denominators of the constraint block
    and its right-hand sides, and every pivot is fraction-free; the only
    `Fraction`s are the returned values and objective, built from the final
    tableau.
    """
    bounds = lp.bounds()

    # Standard form: every variable becomes nonnegative, shifted by its lower
    # bound or split into a difference of two nonnegative columns when free.
    # Only a nonzero lower bound shifts the right-hand sides.
    free = [j for j, lb in enumerate(bounds) if lb is None]
    shifts = [(j, lb) for j, lb in enumerate(bounds) if lb]
    rows = (*lp.a_eq, *lp.a_ge)
    rhs = (*lp.b_eq, *lp.b_ge)
    if shifts:
        rhs = tuple(b - sum(row[j] * lb for j, lb in shifts) for row, b in zip(rows, rhs))
    n_eq, m = len(lp.a_eq), len(rows)
    n_slacks = m - n_eq
    n_real = len(bounds) + len(free) + n_slacks

    # One common scale for the whole constraint block, right-hand sides
    # included.  Scaling rows separately would change the signs of phase-1
    # reduced costs, and with them Bland's choices; one scale keeps every
    # sign and ratio order, since the identity artificial columns then stand
    # for artificials scaled by L.
    scale = math.lcm(
        *(v.denominator for row in rows for v in row), *(b.denominator for b in rhs)
    )

    # Phase 1: artificial variable per row, minimize their sum.  A row whose
    # scaled right-hand side is negative is negated, artificial excepted.
    tableau: list[list[int]] = [[]]
    basis: list[int] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        slack = [0] * n_slacks
        if i >= n_eq:
            slack[i - n_eq] = -scale
        scaled = _standard_row(row, scale, free) + slack
        scaled.append(b.numerator * (scale // b.denominator))
        if scaled[-1] < 0:
            scaled = [-v for v in scaled]
        art = [0] * m
        art[i] = 1
        tableau.append(scaled[:-1] + art + scaled[-1:])
        basis.append(n_real + i)
    _rebuild_cost_row(tableau, basis, [0] * n_real + [-1] * m, 1)
    status, denominator, phase1_pivots = _bland_optimize(tableau, basis, n_real + m, 1)
    assert status is LPStatus.OPTIMAL  # phase 1 objective is bounded above by 0
    if tableau[0][-1] != 0:
        return LPSolution(LPStatus.INFEASIBLE, pivots=(phase1_pivots, 0))

    # Drive leftover artificial variables out of the basis; a row with no
    # real-column entry is redundant and gets dropped.
    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = next(
                (j for j in range(n_real) if tableau[i + 1][j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i + 1)
            else:
                denominator = _pivot(tableau, i + 1, pivot_col, denominator)
                basis[i] = pivot_col
                phase1_pivots += 1
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i - 1]

    # Phase 2 on real columns only, with the objective scaled to integers by
    # the LCM of its denominators.
    tableau = [row[:n_real] + [row[-1]] for row in tableau]
    cost_scale = math.lcm(*(c.denominator for c in lp.objective))
    costs = _standard_row(lp.objective, cost_scale, free) + [0] * n_slacks
    _rebuild_cost_row(tableau, basis, costs, denominator)
    status, denominator, phase2_pivots = _bland_optimize(
        tableau, basis, n_real, denominator
    )
    pivots = (phase1_pivots, phase2_pivots)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, pivots=pivots)

    # The right-hand sides hold denominator * B^-1 b for the scaled rows,
    # which is denominator * x: the row scale cancels against the basis.
    # Row 0's holds denominator * cost_scale times the standard objective,
    # which misses only the constant sum_j c_j lb_j of the shifts.
    scaled_x = [0] * n_real
    for var, row in zip(basis, tableau[1:]):
        scaled_x[var] = row[-1]
    values = []
    column = 0
    for lb in bounds:
        if lb is None:
            values.append(Fraction(scaled_x[column] - scaled_x[column + 1], denominator))
            column += 2
        else:
            value = Fraction(scaled_x[column], denominator)
            values.append(value + lb if lb else value)
            column += 1
    objective_value = Fraction(tableau[0][-1], denominator * cost_scale)
    if shifts:
        objective_value += sum(lp.objective[j] * lb for j, lb in shifts)
    return LPSolution(LPStatus.OPTIMAL, tuple(values), objective_value, pivots)


# ---------------------------------------------------------------------------
# Game LPs.


@dataclass(frozen=True)
class ThreatResult:
    """The follower's minimax value and a leader strategy that enforces it.

    `value` is the worst per-round payoff the leader can hold the follower to
    when the follower replies with a best pure action; `strategy` is a leader
    mixed strategy witnessing it (max_j strategy . M2 e_j == value, exactly).
    """

    value: Fraction
    strategy: MixedStrategy


def threat(game: BimatrixGame) -> ThreatResult:
    """Solve min over leader mixed x of max over follower columns of x.M2."""
    rows, cols = game.rows, game.cols
    # Variables: x_1..x_rows, v.  Maximize -v subject to
    # v - sum_i x_i M2[i][j] >= 0 for every column j, sum_i x_i = 1.
    n = rows + 1
    objective = tuple([ZERO] * rows + [Fraction(-1)])
    a_ge = tuple(
        tuple([-game.m2[i][j] for i in range(rows)] + [ONE]) for j in range(cols)
    )
    b_ge = tuple(ZERO for _ in range(cols))
    a_eq = (tuple([ONE] * rows + [ZERO]),)
    b_eq = (ONE,)
    lower = tuple([ZERO] * rows + [None])
    solution = simplex_solve(
        LinearProgram(objective, a_eq, b_eq, a_ge, b_ge, lower)
    )
    assert solution.status is LPStatus.OPTIMAL and solution.values is not None
    strategy = MixedStrategy(tuple(solution.values[:rows]))
    value = solution.values[rows]
    # Certificate in integers: with x* scaled by the LCM D of its denominators
    # and M2 by the granularity A, max_j x*.M2 e_j == value iff
    # max_j (D x*).(A M2) e_j == D * A * value.
    scale = math.lcm(*(w.denominator for w in strategy.weights))
    support = [
        (x, _scaled(game.m2[i], game.granularity))
        for i, x in enumerate(_scaled(strategy.weights, scale))
        if x
    ]
    best_reply = max(sum(x * row[j] for x, row in support) for j in range(cols))
    if best_reply * value.denominator != scale * game.granularity * value.numerator:
        raise RuntimeError("threat solver produced an inconsistent certificate")
    return ThreatResult(value=value, strategy=strategy)


def game_value(game: BimatrixGame) -> Fraction:
    """The leader's maximin value of M1: max over mixed x of min_j x.M1 e_j.

    For a zero-sum game this is the game value; it always equals the negated
    threat value of the game whose follower matrix is -M1.
    """
    negated = BimatrixGame(
        rows=game.rows,
        cols=game.cols,
        m1=game.m1,
        m2=tuple(tuple(-v for v in row) for row in game.m1),
        granularity=math.lcm(*(v.denominator for row in game.m1 for v in row)),
    )
    return -threat(negated).value


@dataclass(frozen=True)
class StackelbergSolution:
    """Optimal joint-pair distribution and its leader value.

    `alpha` maps every action pair of the game to its weight (possibly zero);
    `value` is the associated leader payoff, an exact upper bound on the
    per-round value of any leader commitment against a rational follower.
    `threat` is the threat solution whose value the follower is guaranteed.
    """

    alpha: dict[ActionPair, Fraction]
    value: Fraction
    threat: ThreatResult

    @property  # kept: perfbench/workloads.py reads it
    def threat_value(self) -> Fraction:
        return self.threat.value


def stackelberg_lp(game: BimatrixGame) -> StackelbergSolution:
    """Maximize leader payoff over pair distributions giving the follower
    at least the threat value.

    The distribution induced by the threat strategy and a follower best reply
    is always feasible, so the program is never infeasible; it is bounded by
    the maximum leader payoff.
    """
    threat_result = threat(game)
    all_pairs = list(game.pairs())
    objective = tuple(game.leader_payoff(p) for p in all_pairs)
    a_ge = (tuple(game.follower_payoff(p) for p in all_pairs),)
    b_ge = (threat_result.value,)
    a_eq = (tuple(ONE for _ in all_pairs),)
    b_eq = (ONE,)
    solution = simplex_solve(LinearProgram(objective, a_eq, b_eq, a_ge, b_ge))
    assert solution.status is LPStatus.OPTIMAL and solution.values is not None
    alpha = dict(zip(all_pairs, solution.values))
    assert solution.objective_value is not None
    return StackelbergSolution(
        alpha=alpha, value=solution.objective_value, threat=threat_result
    )


def max_follower_pair(game: BimatrixGame) -> tuple[ActionPair, Fraction]:
    """The pair with maximal follower payoff.

    Ties go to the pair with maximal leader payoff, then lexicographically by
    (row, col); the reward rounds appended by the constructions use this pair.
    """
    best = min(
        game.pairs(),
        key=lambda p: (-game.follower_payoff(p), -game.leader_payoff(p), p.row, p.col),
    )
    return best, game.follower_payoff(best)
