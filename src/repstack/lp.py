"""Exact rational linear programming and the leader-commitment LPs.

The simplex solver is integer from reading the program to building its
answer.  `simplex_solve` is its `Fraction` front end for user programs: it
puts each coefficient straight into its standard-form column of an integer
row, multiplied by one common denominator (the LCM of the denominators of
the constraint block and of its right-hand sides), and builds the answer.
The only `Fraction` arithmetic before the answer shifts the right-hand sides
by the nonzero lower bounds.  `_two_phase` is the one integer core behind
it: phase 1, the artificial drive-out with redundant-row dropping, and phase
2, each pivot fraction-free (Bareiss), so no pivot computes a gcd.  Bland's
anti-cycling pivot rule makes it terminate on every input and return the
same optimal vertex for the same program every time.  On top of it sit the
two game LPs: the zero-sum threat computation, whose certificate
max_j x*.M2 e_j == V is checked in integers, and the commitment LP that
bounds what any leader strategy can extract from a best-responding follower.

The core's tableau is compact (a "dictionary"): each row holds only the
nonbasic columns, in increasing variable index, and the right-hand side.
The basic columns of the full tableau are unit vectors times the
denominator, so they carry nothing a pivot rule reads.  A pivot swaps the
entering and leaving variables: the entering column's position takes the
leaving variable's column (the sign-adjusted denominator in the pivot row,
the negated old entering entries elsewhere), which then moves to its sorted
place.  Every entering, ratio, tie-break and drive-out choice reads the
same numbers as on the full tableau and takes the same pivot.  The
artificials are the variables after the real ones: they start basic, so
they have no column until they leave, and phase 2 keeps a prefix.

No game LP builds a `LinearProgram`.  The commitment LP's integer rows come
straight from the game's integer view (granularity * M2, the threat value
and granularity * M1) and go through `_two_phase`, which takes the same
pivots to the same vertex as `simplex_solve` on the same program.

The threat LP has a fast path that answers with the same vertex.  Its
integer tableau is written out from granularity * M2 already in a start
basis that is feasible by construction (no artificials, no phase 1), and
optimized with Dantzig's entering rule.  The answer is used only when
every nonbasic reduced cost at the optimum is strictly positive (bar the
twin of the free value's basic half): then the optimum is unique, so it is
the vertex that Bland's rule reaches too.  Otherwise, or when Dantzig's rule
runs into a long degenerate run, the threat LP's standard-form integer rows
are written out from granularity * M2 and go through `_two_phase`, which
pivots them as `simplex_solve` would `_threat_program`.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import ActionPair, BimatrixGame, InputError, MixedStrategy, as_integers

ZERO = Fraction(0)
ONE = Fraction(1)

# Dantzig's rule gives up after this many pivots in a row that leave the
# objective unchanged; the threat LP then goes through `_bland_threat`.
MAX_DEGENERATE_RUN = 50


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
    tableau: list[list[int]],
    basis: list[int],
    nonbasic: list[int],
    pivot_row: int,
    pivot_col: int,
    denominator: int,
) -> int:
    """Integer-preserving (Bareiss) pivot; returns the new common denominator.

    The tableau holds `denominator` times the true rational tableau over the
    nonbasic columns, listed by variable in `nonbasic` in increasing order,
    and the right-hand side.  Column `pivot_col` enters the basis in place of
    `basis[pivot_row - 1]`.  Every other row becomes
    (p*row - row[e]*pivot_row) / denominator, where p is the pivot, and the
    division is exact by Sylvester's identity.  A negative pivot (possible
    when driving out artificials) first negates the pivot row, which negates
    every row of the result and keeps the denominator positive, so signs in
    the tableau are the true tableau's signs.  The entering column's position
    then holds the leaving variable's column: sign*denominator in the pivot
    row and -sign*row[e] elsewhere, the entries that a unit column reaches in
    the full tableau.  That column moves to its sorted position.
    """
    row = tableau[pivot_row]
    sign = 1
    if row[pivot_col] < 0:
        sign = -1
        row = tableau[pivot_row] = [-v for v in row]
    p = row[pivot_col]
    for i, other in enumerate(tableau):
        if i == pivot_row:
            continue
        coeff = other[pivot_col]
        if coeff:
            other = tableau[i] = [(p * a - coeff * b) // denominator for a, b in zip(other, row)]
            other[pivot_col] = -sign * coeff
        elif p != denominator:
            tableau[i] = [p * a // denominator for a in other]
    row[pivot_col] = sign * denominator
    leaving = basis[pivot_row - 1]
    basis[pivot_row - 1] = nonbasic.pop(pivot_col)
    to = bisect.bisect(nonbasic, leaving)
    nonbasic.insert(to, leaving)
    if to != pivot_col:
        for row in tableau:
            row.insert(to, row.pop(pivot_col))
    return p


def _optimize(
    tableau: list[list[int]],
    basis: list[int],
    nonbasic: list[int],
    denominator: int,
    dantzig: bool = False,
) -> tuple[LPStatus | None, int, int]:
    """Run simplex iterations on a feasible tableau until optimal or unbounded.

    Row 0 holds reduced costs for maximization (entering while any is < 0);
    a basic column's is 0, so the nonbasic columns are all there is to read.
    Bland's rule enters the lowest-index eligible column; with `dantzig` the
    most negative reduced cost enters, lowest index on a tie.  Either way the
    leaving row is the minimum-ratio row with the lowest basis variable index.
    Ratios share the tableau's denominator, so they are compared by
    cross-multiplication.  Bland's rule terminates on every program.
    Dantzig's can cycle, so it gives up (status None) once more than
    `MAX_DEGENERATE_RUN` pivots in a row leave the objective unchanged.
    Returns the status, the final denominator and the number of pivots.
    """
    m = len(tableau) - 1
    pivots = degenerate = 0
    while True:
        costs = tableau[0]
        if dantzig:
            lowest = min(costs[:-1])
            entering = costs.index(lowest) if lowest < 0 else -1
        else:
            entering = -1
            for j in range(len(costs) - 1):
                if costs[j] < 0:
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
        if dantzig:
            degenerate = degenerate + 1 if tableau[leaving][-1] == 0 else 0
            if degenerate > MAX_DEGENERATE_RUN:
                return None, denominator, pivots
        denominator = _pivot(tableau, basis, nonbasic, leaving, entering, denominator)
        pivots += 1


def _rebuild_cost_row(
    tableau: list[list[int]],
    basis: list[int],
    nonbasic: list[int],
    costs: Sequence[int],
    denominator: int,
) -> None:
    """Set row 0 to denominator * (c_B B^-1 A - c) and the scaled basic objective.

    `costs` are integers per variable; the constraint rows already hold
    denominator * B^-1 A over the nonbasic columns, so the sum needs no
    division.
    """
    row0 = [-denominator * costs[var] for var in nonbasic] + [0]
    for i, var in enumerate(basis, start=1):
        cb = costs[var]
        if cb:
            row0 = [a + cb * b for a, b in zip(row0, tableau[i])]
    tableau[0] = row0


def _standard_row(row: Sequence[Fraction], scale: int, free: Sequence[int]) -> list[int]:
    """`scale` times `row` over the standard columns, as integers.

    Every variable keeps its coefficient in its own column; a free variable
    `j` (listed in increasing order in `free`) also gets the negated
    coefficient in the column right after it.
    """
    out = as_integers(row, scale)
    for j in reversed(free):
        out.insert(j + 1, -out[j])
    return out


def _two_phase(
    rows: list[list[int]], costs: list[int]
) -> tuple[LPStatus, list[list[int]], list[int], int, tuple[int, int]]:
    """Two-phase Bland's-rule simplex over integer constraint rows.

    Each row holds a constraint over the real columns, right-hand side last;
    `costs` are the phase-2 costs to maximize.  A row with a negative
    right-hand side is negated, and each row starts with its own artificial
    variable basic (variables n_real + i), so the start tableau is the rows
    themselves and its phase-1 cost row is minus their sum.  Leftover
    artificials are driven out on the first real column with a nonzero
    entry; a row with none is redundant and dropped.  The artificials sort
    after the real variables, so phase 2 keeps a prefix of the columns.
    Returns the status, the final tableau (over the nonbasic columns in
    increasing order), its basis and denominator, and the (phase 1, phase 2)
    pivot counts.  Scaling every row by one positive integer, or the costs by
    another, keeps every sign and ratio order that Bland's rule reads (the
    artificials scale with the rows), so it takes the same pivots to the same
    vertex.
    """
    n_real, m = len(costs), len(rows)
    tableau = [[]] + [[-v for v in row] if row[-1] < 0 else list(row) for row in rows]
    basis = list(range(n_real, n_real + m))
    nonbasic = list(range(n_real))
    _rebuild_cost_row(tableau, basis, nonbasic, [0] * n_real + [-1] * m, 1)
    status, denominator, phase1_pivots = _optimize(tableau, basis, nonbasic, 1)
    assert status is LPStatus.OPTIMAL  # phase 1 objective is bounded above by 0
    if tableau[0][-1] != 0:
        return LPStatus.INFEASIBLE, tableau, basis, denominator, (phase1_pivots, 0)

    drop_rows: list[int] = []
    for i in range(m):
        if basis[i] >= n_real:
            row = tableau[i + 1]
            pivot_col = next(
                (j for j in range(bisect.bisect_left(nonbasic, n_real)) if row[j] != 0), None
            )
            if pivot_col is None:
                drop_rows.append(i + 1)
            else:
                denominator = _pivot(tableau, basis, nonbasic, i + 1, pivot_col, denominator)
                phase1_pivots += 1
    for i in sorted(drop_rows, reverse=True):
        del tableau[i]
        del basis[i - 1]

    reals = bisect.bisect_left(nonbasic, n_real)
    tableau = [row[:reals] + row[-1:] for row in tableau]
    del nonbasic[reals:]
    _rebuild_cost_row(tableau, basis, nonbasic, costs, denominator)
    status, denominator, phase2_pivots = _optimize(tableau, basis, nonbasic, denominator)
    return status, tableau, basis, denominator, (phase1_pivots, phase2_pivots)


def simplex_solve(lp: LinearProgram) -> LPSolution:
    """Exact two-phase simplex with Bland's rule.

    Returns the canonical optimal basic solution for the program (fixed pivot
    rule, hence deterministic), or a solution object with INFEASIBLE /
    UNBOUNDED status.  The program's rows go straight into integer rows,
    scaled by the LCM of the denominators of the constraint block and its
    right-hand sides, and `_two_phase` pivots them fraction-free; the only
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
    n_eq = len(lp.a_eq)
    n_slacks = len(rows) - n_eq

    # One common scale for the whole constraint block, right-hand sides
    # included: scaling rows separately would change the signs of phase-1
    # reduced costs, and with them Bland's choices.
    scale = math.lcm(
        *(v.denominator for row in rows for v in row), *(b.denominator for b in rhs)
    )
    scaled_rows = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        slack = [0] * n_slacks
        if i >= n_eq:
            slack[i - n_eq] = -scale
        scaled_rows.append(
            _standard_row(row, scale, free) + slack + as_integers((b,), scale)
        )
    # The objective is scaled to integers by the LCM of its denominators.
    cost_scale = math.lcm(*(c.denominator for c in lp.objective))
    costs = _standard_row(lp.objective, cost_scale, free) + [0] * n_slacks
    status, tableau, basis, denominator, pivots = _two_phase(scaled_rows, costs)
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status, pivots=pivots)

    # The right-hand sides hold denominator * B^-1 b for the scaled rows,
    # which is denominator * x: the row scale cancels against the basis.
    # Row 0's holds denominator * cost_scale times the standard objective,
    # which misses only the constant sum_j c_j lb_j of the shifts.
    scaled_x = [0] * len(costs)
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
    """Solve min over leader mixed x of max over follower columns of x.M2.

    The answer is the vertex that `simplex_solve` picks on `_threat_program`.
    `_certified_threat` reaches it from a feasible start when the optimum is
    unique; otherwise `_bland_threat` pivots the program's integer rows.
    """
    weights, value = _certified_threat(game) or _bland_threat(game)
    strategy = MixedStrategy(tuple(weights))
    # Certificate in integers: max_j x*.M2 e_j == value.
    replies, denominator = reply_values(game, strategy)
    if max(replies) * value.denominator != denominator * value.numerator:
        raise RuntimeError("threat solver produced an inconsistent certificate")
    return ThreatResult(value=value, strategy=strategy)


def _threat_program(game: BimatrixGame) -> LinearProgram:
    """The threat LP over x_1..x_rows and a free v.

    Only the tests build it: it is the reference whose Bland vertex
    `threat` must return.
    """
    rows, cols = game.rows, game.cols
    # Variables: x_1..x_rows, v.  Maximize -v subject to
    # v - sum_i x_i M2[i][j] >= 0 for every column j, sum_i x_i = 1.
    objective = tuple([ZERO] * rows + [Fraction(-1)])
    a_ge = tuple(
        tuple([-game.m2[i][j] for i in range(rows)] + [ONE]) for j in range(cols)
    )
    b_ge = tuple(ZERO for _ in range(cols))
    a_eq = (tuple([ONE] * rows + [ZERO]),)
    b_eq = (ONE,)
    lower = tuple([ZERO] * rows + [None])
    return LinearProgram(objective, a_eq, b_eq, a_ge, b_ge, lower)


def _bland_threat(game: BimatrixGame) -> tuple[list[Fraction], Fraction]:
    """(x*, v) of the threat LP by two-phase Bland's rule.

    The integer rows are `_threat_program`'s standard form over the columns
    x_1..x_rows, v+, v-, s_1..s_cols, written out from A*M2 with A the
    granularity: row 1 is A*sum_i x_i = A and row 1 + j is
    -x.(A*M2) e_j + A*v+ - A*v- - A*s_j = 0.  `simplex_solve` scales the
    same rows by the LCM of M2's denominators, which divides A, so
    `_two_phase` takes the same pivots to the same vertex.
    """
    rows, cols = game.rows, game.cols
    scale = game.granularity
    s = rows + 2  # s_1 is column s
    program = [[scale] * rows + [0] * (cols + 2) + [scale]]
    for j in range(cols):
        row = [-r[j] for r in game.scaled_m2] + [scale, -scale] + [0] * (cols + 1)
        row[s + j] = -scale
        program.append(row)
    costs = [0] * rows + [-1, 1] + [0] * cols
    status, tableau, basis, denominator, _ = _two_phase(program, costs)
    assert status is LPStatus.OPTIMAL  # x = e_1, v = max_j M2[1][j] is feasible
    values = [0] * (s + cols)
    for var, row in zip(basis, tableau[1:]):
        values[var] = row[-1]
    weights = [Fraction(values[i], denominator) for i in range(rows)]
    return weights, Fraction(values[rows] - values[rows + 1], denominator)


def _certified_threat(game: BimatrixGame) -> tuple[list[Fraction], Fraction] | None:
    """(x*, v) of the threat LP when its optimum is provably unique, else None.

    The integer tableau is over the columns x_1..x_rows, w+, w-,
    s_1..s_cols, where w = A*v = w+ - w- and s_j = A*(v - x.M2 e_j), A the
    granularity: row 1 is sum_i x_i = 1 and row 1 + j is
    -x.(A*M2) e_j + w+ - w- - s_j = 0.  The start basis needs no phase 1:
    x_1 = 1, w basic in the row of j* = argmax_j M2[1][j] (through w- when
    that entry is negative) and s_j = w - (A*M2)[1][j] >= 0 basic in every
    other row.  `_threat_start` writes that tableau out from A*M2.
    Dantzig's rule runs phase 2.  At its optimum, a strictly positive
    reduced cost on every nonbasic column except the twin of w's basic half
    (whose reduced cost is 0, and moving it leaves w unchanged) means no
    other feasible point is optimal; so the vertex is the one any pivot rule
    reaches, Bland's included.  Without that certificate, or when Dantzig's
    rule stalls on a long degenerate run, this returns None.
    """
    rows, cols = game.rows, game.cols
    w = rows  # w+ is column w, w- is column w + 1
    tableau, basis, nonbasic = _threat_start(game)
    status, denominator, _ = _optimize(tableau, basis, nonbasic, 1, dantzig=True)
    if status is not LPStatus.OPTIMAL:
        return None
    # The twin of w's basic half; if neither half is basic, the check below
    # fails on w-, whose reduced cost is then 0 like w+'s.
    twin = w + 1 if w in basis else w
    if any(cost <= 0 for var, cost in zip(nonbasic, tableau[0]) if var != twin):
        return None
    values = [0] * (rows + 2 + cols)
    for var, row in zip(basis, tableau[1:]):
        values[var] = row[-1]
    weights = [Fraction(values[i], denominator) for i in range(rows)]
    value = Fraction(values[w] - values[w + 1], denominator * game.granularity)
    return weights, value


def _threat_start(game: BimatrixGame) -> tuple[list[list[int]], list[int], list[int]]:
    """`_certified_threat`'s tableau in its start basis: (tableau, basis, nonbasic).

    The start basis has determinant +-1, so the tableau has denominator 1.
    With S = A*M2, t = j* and sigma = +1 when w+ is basic (-1 for w-), the
    nonbasic columns are x_2..x_rows, the twin of w's basic half and s_t.
    Substituting x_1 = 1 - sum_{i>1} x_i into every row and w from row t
    into the others gives, over the columns x_i:
    - row 0: S[i][t] - S[1][t], s_t at 1, right-hand side -S[1][t];
    - row 1: 1, right-hand side 1;
    - row t: sigma*(S[1][t] - S[i][t]), the twin at -1, s_t at -sigma,
      right-hand side sigma*S[1][t];
    - row j != t: S[i][j] - S[1][j] - S[i][t] + S[1][t], s_t at -1,
      right-hand side S[1][t] - S[1][j].
    The twin's entry is 0 in every other row.
    """
    rows, cols = game.rows, game.cols
    scaled = game.scaled_m2
    first = scaled[0]
    top = first.index(max(first))
    sign = 1 if first[top] >= 0 else -1
    shift = [row[top] - first[top] for row in scaled[1:]]
    tableau = [shift + [0, 1, -first[top]], [1] * (rows - 1) + [0, 0, 1]]
    for j in range(cols):
        if j == top:
            row = [-sign * d for d in shift] + [-1, -sign, sign * first[top]]
        else:
            row = [r[j] - first[j] - d for r, d in zip(scaled[1:], shift)]
            row += [0, -1, first[top] - first[j]]
        tableau.append(row)
    s = rows + 2  # s_1 is column s
    basis = [0] + [s + j for j in range(cols)]
    basis[1 + top] = rows if sign > 0 else rows + 1
    nonbasic = [*range(1, rows), rows + 1 if sign > 0 else rows, s + top]
    return tableau, basis, nonbasic


def reply_values(game: BimatrixGame, strategy: MixedStrategy) -> tuple[list[int], int]:
    """The follower's value x.M2 e_j of every column j against leader mix x.

    Returned as integers over one denominator D * A, with D the LCM of x's
    denominators and A the game's granularity: (D x).(A M2) e_j per column.
    """
    scale = math.lcm(*(w.denominator for w in strategy.weights))
    support = [
        (x, game.scaled_m2[i]) for i, x in enumerate(as_integers(strategy.weights, scale)) if x
    ]
    replies = [sum(x * row[j] for x, row in support) for j in range(game.cols)]
    return replies, scale * game.granularity


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
    the maximum leader payoff.  Its integer rows come straight from the
    game's integer view, over one weight per pair (row-major) and the
    slack of the threat row: sum_p alpha_p = 1 and
    sum_p M2(p) alpha_p - s = V, both scaled by L = lcm(A, den V), A the
    granularity, with the costs A*M1.  `_two_phase` pivots them as
    `simplex_solve` would the same program, and `Fraction`s are built only
    for the nonzero basic weights.
    """
    threat_result = threat(game)
    value = threat_result.value
    scale = math.lcm(game.granularity, value.denominator)
    factor = scale // game.granularity
    follower = [factor * v for row in game.scaled_m2 for v in row]
    n = len(follower)
    rows = [
        [scale] * n + [0, scale],
        follower + [-scale, *as_integers((value,), scale)],
    ]
    costs = [v for row in game.scaled_m1 for v in row] + [0]
    status, tableau, basis, denominator, _ = _two_phase(rows, costs)
    assert status is LPStatus.OPTIMAL
    alpha = dict.fromkeys(game.pairs(), ZERO)
    for var, row in zip(basis, tableau[1:]):
        if var < n and row[-1]:
            alpha[game.pair_table[var // game.cols][var % game.cols]] = Fraction(
                row[-1], denominator
            )
    return StackelbergSolution(
        alpha=alpha,
        value=Fraction(tableau[0][-1], denominator * game.granularity),
        threat=threat_result,
    )
