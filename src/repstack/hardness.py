"""Hardness instance generators and desk-scale audits.

`reduce_graph` turns a graph into the three-player game whose first-player
value separates graphs with a balanced vertex cover (cover of size at most
half the vertices) from graphs without one.  The audits check the two
constructive halves at desk scale: cover-derived strategies pin Player 3's
best reply to exactly 1, and a simplex-grid sweep lower-bounds how much more
Player 3 can always grab when no balanced cover exists.

`coloring_leader_gpa` builds the companion two-player instance in which a
follower best response encodes a minimum graph coloring, so computing best
responses to arbitrary (even simple) leader strategies embeds graph coloring.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    BimatrixGame,
    InputError,
    MixedStrategy,
    as_integers,
    format_rational,
    parse_integer_token,
    stable_json,
    validate_game,
)
from .gpa import GamePlayingAlgorithm, History


class GraphTooSmall(InputError):
    """The reduction needs at least 3 vertices (it divides by n - 2)."""


class InvalidCover(InputError):
    """The supplied vertex set is not a usable balanced vertex cover."""


class DimensionMismatch(InputError):
    """A mixed strategy does not match the game's strategy count."""


class BudgetExceeded(RuntimeError):
    """An exhaustive search was asked to exceed its configured budget."""


# The balanced-cover search tries about 2^(n-1) vertex subsets.
MAX_COVER_SEARCH_N = 20


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; vertices are 1..n, edges unordered pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InputError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InputError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError(f"duplicate edge ({u}, {v})")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)

    def covers(self, vertices: Sequence[int]) -> bool:
        chosen = set(vertices)
        return all(u in chosen or v in chosen for u, v in self.edges)


def graph_from_text(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then one "u v" line per edge."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise InputError("empty graph file")
    header = lines[0].split()
    if len(header) != 2:
        raise InputError('graph header must be "n m"')
    try:
        n, m = parse_integer_token(header[0]), parse_integer_token(header[1])
    except ValueError as exc:
        raise InputError(f"invalid graph header {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise InputError(f"header declares {m} edges but file has {len(lines) - 1}")
    edges = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f'line {i}: expected "u v"')
        try:
            edges.append((parse_integer_token(parts[0]), parse_integer_token(parts[1])))
        except ValueError as exc:
            raise InputError(f"line {i}: invalid edge {line!r}") from exc
    return Graph(n, tuple(edges))


def graph_to_text(graph: Graph) -> str:
    lines = [f"{graph.n} {graph.m}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ThreePlayerGame:
    """Payoff tensors of the reduction instance.

    Players 1 and 2 each pick a vertex (n strategies); Player 3's strategies
    are indexed so that index 0 is the safe action t0, indices 1..n are the
    vertex actions, and indices n+1..n+m are the edge actions in input order.
    Payoff accessors take 1-based vertices for players 1 and 2 and the
    0-based index above for Player 3.
    """

    graph: Graph
    mu1: tuple[tuple[tuple[Fraction, ...], ...], ...]
    mu2: tuple[tuple[tuple[Fraction, ...], ...], ...]
    mu3: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def strategy_counts(self) -> tuple[int, int, int]:
        n, m = self.graph.n, self.graph.m
        return (n, n, m + n + 1)

    def p3_label(self, index: int) -> str:
        n = self.graph.n
        if index == 0:
            return "t0"
        if 1 <= index <= n:
            return f"tv{index}"
        u, v = self.graph.edges[index - n - 1]
        return f"te{u}-{v}"

    def payoff1(self, r: int, s: int, t: int) -> Fraction:
        return self.mu1[r - 1][s - 1][t]

    def payoff2(self, r: int, s: int, t: int) -> Fraction:
        return self.mu2[r - 1][s - 1][t]

    def payoff3(self, r: int, s: int, t: int) -> Fraction:
        return self.mu3[r - 1][s - 1][t]

    def to_json(self) -> str:
        n, _, k = self.strategy_counts
        texts: dict[int, str] = {}
        return stable_json(
            {
                "strategy_counts": list(self.strategy_counts),
                "p3_actions": [self.p3_label(t) for t in range(k)],
                "mu1": _tensor_json(self.mu1, texts),
                "mu2": _tensor_json(self.mu2, texts),
                "mu3": _tensor_json(self.mu3, texts),
            }
        )


def _tensor_json(tensor: tuple[tuple[tuple[Fraction, ...], ...], ...], texts: dict[int, str]) -> list:
    """The tensor's entries as text, each distinct entry object formatted once.

    `texts` maps `id(entry)` to its text; `reduce_graph` shares three
    `Fraction`s across every entry.  The tensor keeps each entry alive, so
    an id names one object for as long as `texts` is in use.
    """

    def text(value: Fraction) -> str:
        key = id(value)
        out = texts.get(key)
        if out is None:
            out = texts[key] = format_rational(value)
        return out

    return [[[text(v) for v in cell] for cell in row] for row in tensor]


def reduce_graph(graph: Graph) -> ThreePlayerGame:
    """Build the three-player instance from a graph.

    Players 1 and 2 are paid 1 exactly when Player 3 plays the safe action
    t0 and 0 otherwise.  Player 3 gets 1 from t0; a vertex action t_v pays
    n/(n-2) unless it collides with either chosen vertex; an edge action t_e
    pays n/(n-2) unless Player 1's vertex is an endpoint of e.
    """
    n = graph.n
    if n < 3:
        raise GraphTooSmall(f"reduction needs n >= 3, got n = {n}")
    # Every entry is one of three shared, immutable values.
    zero, one, bonus = Fraction(0), Fraction(1), Fraction(n, n - 2)
    k = graph.m + n + 1
    # Players 1 and 2 get the same cell at every vertex pair.
    plane = ((one,) + (zero,) * (k - 1),) * n
    mu12 = (plane,) * n
    mu3 = []
    for r in range(1, n + 1):
        # Edge actions read Player 1's vertex alone.
        edge_payoffs = tuple(zero if r in edge else bonus for edge in graph.edges)
        plane3 = []
        for s in range(1, n + 1):
            vertex_payoffs = [bonus] * n
            vertex_payoffs[r - 1] = vertex_payoffs[s - 1] = zero
            plane3.append((one, *vertex_payoffs, *edge_payoffs))
        mu3.append(tuple(plane3))
    return ThreePlayerGame(graph, mu12, mu12, tuple(mu3))


def balanced_vertex_cover(graph: Graph) -> tuple[int, ...] | None:
    """Exhaustively search for a vertex cover of size at most floor(n/2).

    Returns the first cover in (size, lexicographic) order, or None when no
    balanced cover exists.  Graphs above `MAX_COVER_SEARCH_N` vertices raise
    `BudgetExceeded`.
    """
    if graph.n > MAX_COVER_SEARCH_N:
        raise BudgetExceeded(
            f"exhaustive cover search limited to n <= {MAX_COVER_SEARCH_N}, got n = {graph.n}"
        )
    vertices = range(1, graph.n + 1)
    for size in range(0, graph.n // 2 + 1):
        for subset in itertools.combinations(vertices, size):
            if graph.covers(subset):
                return subset
    return None


def cover_strategies(
    graph: Graph, cover: Sequence[int]
) -> tuple[MixedStrategy, MixedStrategy]:
    """Uniform strategies on a balanced cover and on its complement.

    Covers smaller than floor(n/2) are padded with the lowest-index
    non-cover vertices, which preserves the cover property.
    """
    chosen = sorted(set(cover))
    if len(chosen) != len(cover):
        raise InvalidCover("cover contains duplicate vertices")
    if any(not 1 <= v <= graph.n for v in chosen):
        raise InvalidCover("cover references a missing vertex")
    if not graph.covers(chosen):
        raise InvalidCover("the given set does not cover every edge")
    half = graph.n // 2
    if len(chosen) > half:
        raise InvalidCover(f"cover has {len(chosen)} vertices; at most {half} allowed")
    vertices = range(1, graph.n + 1)
    padded = set(chosen)
    for v in vertices:
        if len(padded) == half:
            break
        padded.add(v)

    def uniform_on(part: set[int]) -> MixedStrategy:
        return MixedStrategy(
            tuple(Fraction(1, len(part)) if v in part else Fraction(0) for v in vertices)
        )

    return uniform_on(padded), uniform_on(set(vertices) - padded)


def player3_audit(
    game3: ThreePlayerGame, p1: MixedStrategy, p2: MixedStrategy
) -> tuple[int, Fraction]:
    """Player 3's exact best reply to independent mixed strategies.

    Returns (action index, value); among equal-value actions the lowest index
    wins, so the safe action t0 (index 0) is preferred when it ties.
    """
    n, _, k = game3.strategy_counts
    if len(p1) != n or len(p2) != n:
        raise DimensionMismatch(
            f"strategies must range over {n} vertices, got {len(p1)} and {len(p2)}"
        )
    # Contracted in integers: each strategy's weights over the LCM of their
    # denominators, and the payoff cells they reach over the LCM of theirs.
    scale1 = math.lcm(*(w.denominator for w in p1.weights))
    scale2 = math.lcm(*(w.denominator for w in p2.weights))
    q1, q2 = as_integers(p1.weights, scale1), as_integers(p2.weights, scale2)
    weights, cells = zip(
        *((x * y, game3.mu3[r][s]) for r, x in enumerate(q1) if x for s, y in enumerate(q2) if y)
    )
    scale = math.lcm(*(v.denominator for cell in cells for v in cell))
    totals = [
        sum(map(operator.mul, weights, as_integers(column, scale))) for column in zip(*cells)
    ]
    # `max` keeps the first of equal totals: the lowest index.
    best_index = max(range(k), key=totals.__getitem__)
    return best_index, Fraction(totals[best_index], scale * scale1 * scale2)


def _grid_points(n: int, resolution: int) -> Iterator[tuple[int, ...]]:
    """All ways to write `resolution` as an ordered sum of n nonnegative ints."""
    if n == 1:
        yield (resolution,)
        return
    for head in range(resolution + 1):
        for tail in _grid_points(n - 1, resolution - head):
            yield (head,) + tail


def grid_audit_player3(
    game3: ThreePlayerGame, resolution: int, budget: int = 50_000_000
) -> Fraction:
    """Minimize Player 3's best-reply value over a simplex grid.

    Both players' strategies range over all weight vectors in multiples of
    1/resolution.  The result is an empirical floor: it certifies the bound
    at grid points only, not over the whole simplex.  The sweep runs in
    integers (payoffs over the LCM of their denominators) and builds one
    `Fraction` at the end.

    `budget` bounds the worst case, points^2 * k action evaluations, and is
    checked before the sweep starts.  The sweep itself prunes: a grid point
    stops scanning Player 3's actions at the first one that reaches the
    running minimum, since its best reply cannot then lower it, and that
    action is tried first at the next points.  So it usually evaluates far
    fewer actions, and returns the same exact minimum.  Each action's
    payoffs are scaled to integers once per call, and its row against a P2
    point (n dot products) is contracted only when the sweep first
    evaluates that action at that point; a point that lowers the minimum
    has evaluated, and so contracted, every action.
    """
    if resolution < 1:
        raise InputError("resolution must be at least 1")
    n, _, k = game3.strategy_counts
    points = math.comb(resolution + n - 1, n - 1)
    if points * points * k > budget:
        raise BudgetExceeded(
            f"grid audit needs {points * points * k} evaluations, budget is {budget}"
        )
    grid = list(_grid_points(n, resolution))
    # Integer payoffs over one common denominator; a grid weight q stands for
    # q/resolution, so every total below is (scale * resolution^2) times the
    # exact expected payoff and compares in the same order.
    # columns[t][r][s] is scale * mu3[r][s][t]: action t's payoffs against
    # Player 1's vertex r, one entry per Player 2 vertex s.
    scale = math.lcm(*(v.denominator for plane in game3.mu3 for cell in plane for v in cell))
    columns = list(
        zip(*([as_integers(column, scale) for column in zip(*plane)] for plane in game3.mu3))
    )
    # No total exceeds resolution^2 times the largest payoff, so this bounds
    # the minimum from above, and is the minimum if no scan below completes.
    worst = resolution * resolution * max(v for action in columns for c in action for v in c)
    # One action reaching `worst` shows a point cannot lower it; the action
    # that showed it last is tried first, at this p2 point and the next.
    order = list(range(k))
    for q2 in grid:
        # For fixed p2, action t's row holds its payoff against each p1
        # vertex; it is contracted only when a p1 point first evaluates t.
        rows: list[list[int] | None] = [None] * k
        front = rows[order[0]] = [sum(map(operator.mul, q2, c)) for c in columns[order[0]]]
        for q1 in grid:
            if sum(map(operator.mul, q1, front)) >= worst:
                continue
            for i in range(1, k):
                t = order[i]
                row = rows[t]
                if row is None:
                    row = rows[t] = [sum(map(operator.mul, q2, c)) for c in columns[t]]
                if sum(map(operator.mul, q1, row)) >= worst:
                    order.insert(0, order.pop(i))
                    front = row
                    break
            else:
                # Every action was evaluated here, so every row is built.
                worst = max(sum(map(operator.mul, q1, row)) for row in rows)
    return Fraction(worst, scale * resolution * resolution)


class ColoringLeaderGPA(GamePlayingAlgorithm):
    """Leader whose final-round mixing scores the follower's implied coloring.

    Rounds 1..T-1 play action 1.  At round T the follower's earlier columns
    are read as colors of vertices 1..T-1; the score g is the number of
    distinct colors used if they form a valid partial coloring, and n if the
    coloring is invalid or the follower ever played column n early.  The
    leader then plays action n with probability 1 - g/n and action 1
    otherwise, so the follower's value is maximized by encoding a minimum
    coloring.
    """

    kind = "coloring"

    def __init__(self, graph: Graph):
        if graph.n < 2:
            raise InputError("coloring construction needs at least 2 vertices")
        super().__init__(graph.n)
        self.graph = graph
        self.horizon = graph.n

    def coloring_score(self, history: History) -> int:
        n = self.graph.n
        colors: dict[int, int] = {}
        for vertex, pair in enumerate(history, start=1):
            if pair.col == n:
                return n
            colors[vertex] = pair.col
        for u, v in self.graph.edges:
            if u in colors and v in colors and colors[u] == colors[v]:
                return n
        return len(set(colors.values()))

    def strategy_at(self, t: int, history: History) -> MixedStrategy:
        if t >= self.horizon:
            raise InputError("history extends beyond the horizon")
        if t < self.horizon - 1:
            return MixedStrategy.pure(1, self.n_actions)
        score = self.coloring_score(history)
        n = self.n_actions
        p_top = 1 - Fraction(score, n)
        weights = [Fraction(0)] * n
        weights[0] = Fraction(score, n)
        weights[n - 1] += p_top
        return MixedStrategy(tuple(weights))


def coloring_leader_gpa(graph: Graph) -> tuple[ColoringLeaderGPA, BimatrixGame]:
    """The coloring leader plus its companion game (play for T = n rounds).

    The follower is paid 1 only on the joint action (n, n); the leader's
    payoffs are identically zero (they play no role in the construction).
    """
    n = graph.n
    zero = [[0] * n for _ in range(n)]
    m2 = [[0] * n for _ in range(n)]
    m2[n - 1][n - 1] = 1
    game = validate_game(zero, m2)
    return ColoringLeaderGPA(graph), game
