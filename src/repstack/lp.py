"""Exact rational linear programming and the leader-commitment LPs.

The simplex solver works entirely over `fractions.Fraction` with Bland's
anti-cycling pivot rule, so it terminates on every input and returns the same
optimal vertex for the same program every time.  On top of it sit the two
game LPs: the zero-sum threat computation and the commitment LP that bounds
what any leader strategy can extract from a best-responding follower.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import ActionPair, BimatrixGame, InputError, MixedStrategy, validate_game

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
    the variable is free).  There are no implicit upper bounds.
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

    def bounds(self) -> tuple[Fraction | None, ...]:
        if self.lower_bounds is None:
            return tuple(ZERO for _ in self.objective)
        return self.lower_bounds


@dataclass(frozen=True)
class LPSolution:
    """Solver outcome; `values` and `objective_value` are set iff OPTIMAL.

    When OPTIMAL, the returned point satisfies every constraint exactly; there
    is no tolerance anywhere.
    """

    status: LPStatus
    values: tuple[Fraction, ...] | None = None
    objective_value: Fraction | None = None


def _pivot(tableau: list[list[Fraction]], pivot_row: int, pivot_col: int) -> None:
    row = tableau[pivot_row]
    factor = row[pivot_col]
    tableau[pivot_row] = [v / factor for v in row]
    row = tableau[pivot_row]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        coeff = other[pivot_col]
        if coeff != 0:
            tableau[i] = [a - coeff * b for a, b in zip(other, row)]


def _bland_optimize(
    tableau: list[list[Fraction]], basis: list[int], n_cols: int
) -> LPStatus:
    """Run simplex iterations on a feasible tableau until optimal or unbounded.

    Row 0 holds reduced costs for maximization (entering while any is < 0);
    entering column is the lowest-index eligible one and the leaving row is
    the minimum-ratio row with the lowest basis variable index (Bland's rule,
    which guarantees termination on degenerate programs).
    """
    m = len(tableau) - 1
    while True:
        entering = -1
        for j in range(n_cols):
            if tableau[0][j] < 0:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL
        leaving = -1
        best_ratio: Fraction | None = None
        for i in range(1, m + 1):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i - 1] < basis[leaving - 1])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED
        _pivot(tableau, leaving, entering)
        basis[leaving - 1] = entering


def _rebuild_cost_row(
    tableau: list[list[Fraction]], basis: list[int], costs: Sequence[Fraction], n_cols: int
) -> None:
    """Set row 0 to reduced costs c_B B^-1 A - c and the basic objective value."""
    row0 = [-c for c in costs] + [ZERO] * (n_cols - len(costs)) + [ZERO]
    for i, var in enumerate(basis, start=1):
        cb = costs[var] if var < len(costs) else ZERO
        if cb != 0:
            row0 = [a + cb * b for a, b in zip(row0, tableau[i])]
    tableau[0] = row0


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Exact two-phase simplex with Bland's rule.

    Returns the canonical optimal basic solution for the program (fixed pivot
    rule, hence deterministic), or a solution object with INFEASIBLE /
    UNBOUNDED status.
    """
    n = len(lp.objective)
    bounds = lp.bounds()

    # Rewrite every variable as a nonnegative one: shifted by its lower bound,
    # or split into a difference of two nonnegatives when free.
    col_of: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (column, sign)
    shift: list[Fraction] = []
    n_std = 0
    for j, lb in enumerate(bounds):
        if lb is None:
            col_of[j] = [(n_std, 1), (n_std + 1, -1)]
            shift.append(ZERO)
            n_std += 2
        else:
            col_of[j] = [(n_std, 1)]
            shift.append(lb)
            n_std += 1

    def expand(row: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        """Map an original-variable row to standard columns; return rhs shift."""
        out = [ZERO] * n_std
        offset = ZERO
        for j, coeff in enumerate(row):
            if coeff == 0:
                continue
            for column, sign in col_of[j]:
                out[column] += sign * coeff
            offset += coeff * shift[j]
        return out, offset

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_slacks = len(lp.a_ge)
    for row, b in zip(lp.a_eq, lp.b_eq):
        expanded, offset = expand(row)
        rows.append(expanded + [ZERO] * n_slacks)
        rhs.append(b - offset)
    for k, (row, b) in enumerate(zip(lp.a_ge, lp.b_ge)):
        expanded, offset = expand(row)
        slack = [ZERO] * n_slacks
        slack[k] = Fraction(-1)
        rows.append(expanded + slack)
        rhs.append(b - offset)

    n_real = n_std + n_slacks
    m = len(rows)
    objective_std = [ZERO] * n_real
    obj_offset = ZERO
    expanded_obj, obj_offset = expand(lp.objective)
    objective_std[:n_std] = expanded_obj

    if m == 0:
        # No constraints: optimum is at the lower bounds unless some objective
        # coefficient points upward, in which case the program is unbounded.
        for j, c in enumerate(lp.objective):
            if c != 0 and bounds[j] is None:
                return LPSolution(LPStatus.UNBOUNDED)
            if c > 0:
                return LPSolution(LPStatus.UNBOUNDED)
        values = tuple(b if b is not None else ZERO for b in bounds)
        value = sum((c * v for c, v in zip(lp.objective, values)), ZERO)
        return LPSolution(LPStatus.OPTIMAL, values, value)

    # Phase 1: artificial variable per row, minimize their sum.
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    n_total = n_real + m
    tableau: list[list[Fraction]] = [[ZERO] * (n_total + 1)]
    basis: list[int] = []
    for i in range(m):
        art = [ZERO] * m
        art[i] = ONE
        tableau.append(rows[i] + art + [rhs[i]])
        basis.append(n_real + i)
    phase1_costs = [ZERO] * n_real + [Fraction(-1)] * m
    _rebuild_cost_row(tableau, basis, phase1_costs, n_total)
    status = _bland_optimize(tableau, basis, n_total)
    assert status is LPStatus.OPTIMAL  # phase 1 objective is bounded above by 0
    if tableau[0][-1] != 0:
        return LPSolution(LPStatus.INFEASIBLE)

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
                _pivot(tableau, i + 1, pivot_col)
                basis[i] = pivot_col
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i - 1]

    # Phase 2 on real columns only.
    tableau = [row[:n_real] + [row[-1]] for row in tableau]
    _rebuild_cost_row(tableau, basis, objective_std, n_real)
    status = _bland_optimize(tableau, basis, n_real)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED)

    std_values = [ZERO] * n_real
    for var, row in zip(basis, tableau[1:]):
        std_values[var] = row[-1]
    values = []
    for j in range(n):
        total = sum(
            (Fraction(sign) * std_values[column] for column, sign in col_of[j]), ZERO
        )
        values.append(total + shift[j])
    objective_value = sum((c * v for c, v in zip(lp.objective, values)), ZERO)
    return LPSolution(LPStatus.OPTIMAL, tuple(values), objective_value)


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
    best_reply = max(
        strategy.expected([game.m2[i][j] for i in range(rows)]) for j in range(cols)
    )
    if best_reply != value:
        raise RuntimeError("threat solver produced an inconsistent certificate")
    return ThreatResult(value=value, strategy=strategy)


def game_value(game: BimatrixGame) -> Fraction:
    """The leader's maximin value of M1: max over mixed x of min_j x.M1 e_j.

    For a zero-sum game this is the game value; it always equals the negated
    threat value of the game whose follower matrix is -M1.
    """
    negated = validate_game(game.m1, [[-v for v in row] for row in game.m1])
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

    @property
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
