"""Hardness generators and audits: reduction, covers, grids, coloring."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from repstack import (
    BudgetExceeded,
    DimensionMismatch,
    Graph,
    GraphTooSmall,
    InvalidCover,
    MixedStrategy,
    balanced_vertex_cover,
    best_response,
    coloring_leader_gpa,
    cover_strategies,
    graph_from_text,
    graph_to_text,
    grid_audit_player3,
    player3_audit,
    reduce_graph,
)
from repstack.core import InputError
from conftest import round_strategy

F = Fraction

CYCLE4 = Graph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
K4 = Graph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
TRIANGLE = Graph(3, ((1, 2), (2, 3), (1, 3)))
PATH3 = Graph(3, ((1, 2), (2, 3)))
EDGELESS = Graph(4, ())


def test_graph_validation() -> None:
    with pytest.raises(InputError):
        Graph(3, ((1, 1),))
    with pytest.raises(InputError):
        Graph(3, ((1, 4),))
    with pytest.raises(InputError):
        Graph(3, ((1, 2), (2, 1)))


def test_graph_text_round_trip() -> None:
    text = graph_to_text(CYCLE4)
    assert graph_from_text(text) == CYCLE4
    with pytest.raises(InputError):
        graph_from_text("4 2\n1 2\n")  # declares 2 edges, has 1


def test_reduce_graph_shapes_and_values() -> None:
    game3 = reduce_graph(CYCLE4)
    assert game3.strategy_counts == (4, 4, 9)
    # Vertex action not colliding with either player's vertex pays n/(n-2).
    assert game3.payoff3(1, 2, 3) == F(4, 2)
    # Players 1 and 2 are paid only under the safe action t0.
    for r in range(1, 5):
        for s in range(1, 5):
            assert game3.payoff1(r, s, 0) == 1
            assert game3.payoff2(r, s, 0) == 1
            for t in range(1, 9):
                assert game3.payoff1(r, s, t) == 0
    assert game3.payoff3(1, 1, 0) == 1


def test_reduce_graph_collision_rule() -> None:
    game3 = reduce_graph(CYCLE4)
    n = CYCLE4.n
    for v in range(1, n + 1):
        for w in range(1, n + 1):
            assert game3.payoff3(v, w, v) == 0
            assert game3.payoff3(v, w, w) == 0


def test_reduce_graph_edge_rule_ignores_second_player() -> None:
    game3 = reduce_graph(CYCLE4)
    n = CYCLE4.n
    for index, (u, w) in enumerate(CYCLE4.edges):
        t = n + 1 + index
        for r in range(1, n + 1):
            expected = F(0) if r in (u, w) else F(4, 2)
            for s in range(1, n + 1):
                assert game3.payoff3(r, s, t) == expected


def test_reduce_graph_triangle_entries() -> None:
    game3 = reduce_graph(TRIANGLE)
    values = {
        game3.payoff3(r, s, t)
        for r in range(1, 4)
        for s in range(1, 4)
        for t in range(game3.strategy_counts[2])
    }
    assert values == {F(0), F(1), F(3)}


def test_reduce_graph_too_small() -> None:
    with pytest.raises(GraphTooSmall):
        reduce_graph(Graph(2, ((1, 2),)))


def test_balanced_vertex_cover_examples() -> None:
    assert balanced_vertex_cover(CYCLE4) == (1, 3)
    assert balanced_vertex_cover(K4) is None
    assert balanced_vertex_cover(EDGELESS) == ()


def test_balanced_vertex_cover_budget() -> None:
    with pytest.raises(BudgetExceeded):
        balanced_vertex_cover(Graph(25, ()))


def _bitmask_balanced_cover(graph: Graph) -> bool:
    """Independent re-implementation: scan all subsets as bitmasks."""
    best = None
    for mask in range(1 << graph.n):
        if all(
            mask & (1 << (u - 1)) or mask & (1 << (v - 1)) for u, v in graph.edges
        ):
            size = bin(mask).count("1")
            best = size if best is None else min(best, size)
    return best is not None and best <= graph.n // 2


@pytest.mark.parametrize("n,edge_prob_percent", [(4, 40), (5, 50), (6, 60), (7, 35)])
def test_balanced_vertex_cover_agrees_with_bitmask(n: int, edge_prob_percent: int) -> None:
    import random

    rng = random.Random(n * 100 + edge_prob_percent)
    for _ in range(10):
        edges = tuple(
            (u, v)
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if rng.randint(1, 100) <= edge_prob_percent
        )
        graph = Graph(n, edges)
        assert (balanced_vertex_cover(graph) is not None) == _bitmask_balanced_cover(
            graph
        )


def test_cover_strategies_cycle4() -> None:
    p1, p2 = cover_strategies(CYCLE4, (1, 3))
    assert p1.weights == (F(1, 2), F(0), F(1, 2), F(0))
    assert p2.weights == (F(0), F(1, 2), F(0), F(1, 2))


def test_cover_strategies_pads_small_covers() -> None:
    p1, p2 = cover_strategies(EDGELESS, ())
    assert p1.weights == (F(1, 2), F(1, 2), F(0), F(0))
    assert p2.weights == (F(0), F(0), F(1, 2), F(1, 2))
    assert all(w in (F(0), F(1, 2)) for w in p1.weights)


def test_cover_strategies_odd_vertex_count() -> None:
    graph = Graph(5, ((1, 2),))
    p1, p2 = cover_strategies(graph, (1,))
    assert p1.weights == (F(1, 2), F(1, 2), F(0), F(0), F(0))
    assert p2.weights == (F(0), F(0), F(1, 3), F(1, 3), F(1, 3))


def test_cover_strategies_rejects_non_cover() -> None:
    with pytest.raises(InvalidCover):
        cover_strategies(CYCLE4, (1, 2))  # misses edge (3, 4)
    with pytest.raises(InvalidCover):
        cover_strategies(CYCLE4, (1, 2, 3))  # too large for n/2 = 2


def test_player3_audit_on_cover_point() -> None:
    game3 = reduce_graph(CYCLE4)
    p1, p2 = cover_strategies(CYCLE4, (1, 3))
    action, value = player3_audit(game3, p1, p2)
    assert value == 1
    assert action == 0 and game3.p3_label(action) == "t0"


def test_player3_audit_point_masses() -> None:
    game3 = reduce_graph(CYCLE4)
    point = MixedStrategy.pure(1, 4)
    action, value = player3_audit(game3, point, point)
    assert value == F(4, 2)
    assert game3.p3_label(action).startswith("tv")


def test_player3_audit_edge_actions_ignore_second_player() -> None:
    game3 = reduce_graph(CYCLE4)
    p1 = MixedStrategy.pure(1, 4)
    values = []
    for p2_vertex in range(1, 5):
        p2 = MixedStrategy.pure(p2_vertex, 4)
        edge_values = [
            sum(
                p1.probability(r) * p2.probability(s) * game3.payoff3(r, s, t)
                for r in range(1, 5)
                for s in range(1, 5)
            )
            for t in range(5, 9)
        ]
        values.append(edge_values)
    assert all(v == values[0] for v in values)


def test_player3_audit_dimension_mismatch() -> None:
    game3 = reduce_graph(CYCLE4)
    with pytest.raises(DimensionMismatch):
        player3_audit(game3, MixedStrategy.pure(1, 3), MixedStrategy.pure(1, 4))


def test_grid_audit_resolution_one_is_pure() -> None:
    game3 = reduce_graph(TRIANGLE)
    worst = grid_audit_player3(game3, 1)
    # Independent computation: min over pure pairs of max over actions.
    expected = min(
        max(
            game3.payoff3(r, s, t) for t in range(game3.strategy_counts[2])
        )
        for r in range(1, 4)
        for s in range(1, 4)
    )
    assert worst == expected


def test_grid_audit_refines_monotonically() -> None:
    game3 = reduce_graph(TRIANGLE)
    coarse = grid_audit_player3(game3, 2)
    fine = grid_audit_player3(game3, 4)
    assert fine <= coarse


def test_grid_audit_contains_cover_point() -> None:
    game3 = reduce_graph(CYCLE4)
    worst = grid_audit_player3(game3, 2)
    assert worst <= 1  # the balanced-cover strategies sit on this grid


def test_grid_audit_matches_exhaustive_audit() -> None:
    game3 = reduce_graph(TRIANGLE)
    resolution = 2
    grid = [
        MixedStrategy((F(a, 2), F(b, 2), F(c, 2)))
        for a in range(3)
        for b in range(3 - a)
        for c in [2 - a - b]
    ]
    expected = min(
        player3_audit(game3, p1, p2)[1] for p1 in grid for p2 in grid
    )
    assert grid_audit_player3(game3, resolution) == expected


def test_grid_audit_budget() -> None:
    game3 = reduce_graph(K4)
    with pytest.raises(BudgetExceeded):
        grid_audit_player3(game3, 8, budget=100)


def test_grid_audit_k4_exceeds_threshold() -> None:
    game3 = reduce_graph(K4)
    worst = grid_audit_player3(game3, 8)
    assert worst > 1 + F(1, (4 - 2) * 4 ** (5 - 1))
    assert worst == F(9, 8)


def test_coloring_leader_on_path_graph() -> None:
    from repstack import ActionPair

    leader, game = coloring_leader_gpa(PATH3)
    assert game.rows == game.cols == 3
    assert game.m2[2][2] == 1
    result = best_response(leader, game, 3)
    # A path on three vertices is 2-colorable on its first two vertices, so
    # the follower secures leader-mix probability (1 - 2/3) on the last round.
    assert result.follower_value == F(1, 3)
    history = ()
    cols = []
    for t in range(3):
        cols.append(result.follower_policy[history])
        if t < 2:  # rounds before the last: leader plays pure action 1
            (row,) = round_strategy(leader, history).support()
            history = history + (ActionPair(row, cols[-1]),)
    assert len(set(cols[:2])) == 2  # the two colored vertices differ
    assert cols[2] == 3  # final round plays the top action


def test_coloring_leader_score_rules() -> None:
    from repstack import ActionPair

    leader, _ = coloring_leader_gpa(PATH3)
    # Playing the top action early counts as an invalid encoding.
    early_top = (ActionPair(1, 3), ActionPair(1, 1))
    assert leader.coloring_score(early_top) == 3
    strategy = round_strategy(leader, early_top)
    assert strategy.probability(3) == 0
    assert strategy.probability(1) == 1
    # An invalid coloring (same color across an edge) also scores n.
    invalid = (ActionPair(1, 1), ActionPair(1, 1))
    assert leader.coloring_score(invalid) == 3
    valid = (ActionPair(1, 1), ActionPair(1, 2))
    assert leader.coloring_score(valid) == 2
    strategy = round_strategy(leader, valid)
    assert strategy.probability(3) == F(1, 3)
    assert strategy.probability(1) == F(2, 3)


def test_three_player_game_json_is_stable() -> None:
    game3 = reduce_graph(CYCLE4)
    assert game3.to_json() == reduce_graph(CYCLE4).to_json()
    assert '"strategy_counts":[4,4,9]' in game3.to_json()


def _random_graph(rng, n: int) -> Graph:
    edges = tuple(
        (u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.5
    )
    return Graph(n, edges)


def test_grid_audit_matches_fraction_reference() -> None:
    """The integer sweep returns exactly the Fraction sweep's worst case."""
    import random

    from conftest import fraction_grid_audit_player3
    from repstack import ThreePlayerGame

    rng = random.Random(8000)
    cases = [
        (reduce_graph(_random_graph(rng, n)), resolution)
        for n, resolutions in ((3, (1, 2, 3, 5)), (4, (1, 2, 4)), (5, (1, 2, 3)), (6, (1, 2)))
        for resolution in resolutions
        for _ in range(2)
    ]
    # Arbitrary rationals and ints in mu3, not only the reduction's 0, 1, n/(n-2).
    n, k = 3, 4
    entry = lambda: rng.choice([rng.randint(-2, 2), F(rng.randint(-50, 50), rng.randint(1, 13))])
    mu3 = tuple(
        tuple(tuple(entry() for _ in range(k)) for _ in range(n)) for _ in range(n)
    )
    zeros = tuple(tuple(tuple(F(0) for _ in range(k)) for _ in range(n)) for _ in range(n))
    arbitrary = ThreePlayerGame(Graph(n, ()), zeros, zeros, mu3)
    cases += [(arbitrary, resolution) for resolution in (1, 2, 3, 4, 6)]
    for game3, resolution in cases:
        assert grid_audit_player3(game3, resolution) == fraction_grid_audit_player3(
            game3, resolution
        )


def _signed_game(n: int, entries) -> "ThreePlayerGame":
    """A three-player game on n vertices with Player 3's payoffs taken from
    `entries[r][s]` (one value per action, any sign).  The graph only fixes
    the action count k = n + m + 1, so it gets k - n - 1 edges."""
    from repstack import ThreePlayerGame

    mu3 = tuple(tuple(tuple(F(v) for v in entries[r][s]) for s in range(n)) for r in range(n))
    k = len(mu3[0][0])
    edges = tuple(itertools.combinations(range(1, n + 1), 2))[: k - n - 1]
    assert len(edges) == k - n - 1
    zeros = tuple(tuple(tuple(F(0) for _ in range(k)) for _ in range(n)) for _ in range(n))
    return ThreePlayerGame(Graph(n, edges), zeros, zeros, mu3)


def test_pruned_grid_sweep_matches_fraction_reference() -> None:
    """Pruning skips actions, never the minimum: the sweep equals the
    Fraction reference on signed rational payoffs and on reduction games."""
    import random

    from conftest import fraction_grid_audit_player3

    rng = random.Random(9000)
    entry = lambda: F(rng.randint(-40, 40), rng.randint(1, 9))
    games = []
    for n, k in ((2, 4), (3, 7), (4, 7)):
        # Generic payoffs: which action is the best reply changes across the grid.
        games.append(_signed_game(n, [[[entry() for _ in range(k)] for _ in range(n)] for _ in range(n)]))
        # Tied actions: each random action appears twice (after one constant
        # action when k is odd).
        base = [[[entry() for _ in range(k // 2)] for _ in range(n)] for _ in range(n)]
        games.append(_signed_game(n, [[[F(-1, 3)] * (k % 2) + cell + cell for cell in row] for row in base]))
        # Small integer payoffs: grid points' best replies often differ by
        # exactly one unit of the integer sweep.
        games.append(_signed_game(n, [[[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)] for _ in range(n)]))
    for game3 in games:
        assert len(game3.mu3[0][0]) == game3.strategy_counts[2]
        for resolution in range(1, 7 if game3.strategy_counts[0] < 4 else 5):
            assert grid_audit_player3(game3, resolution) == fraction_grid_audit_player3(
                game3, resolution
            ), (game3.mu3, resolution)
    # Balanced covers: Player 3's best reply is 1 at many grid points, so most
    # points tie with the running minimum.
    rng_graphs = random.Random(9001)
    covered = [CYCLE4, PATH3, EDGELESS]
    while len(covered) < 6:
        graph = _random_graph(rng_graphs, 5)
        if balanced_vertex_cover(graph) is not None:
            covered.append(graph)
    for graph in covered:
        game3 = reduce_graph(graph)
        for resolution in range(1, 5 if graph.n == 4 else 4):
            worst = grid_audit_player3(game3, resolution)
            assert worst == fraction_grid_audit_player3(game3, resolution)
            if graph.n % 2 == 0 and resolution % 2 == 0:
                assert worst <= 1  # the cover strategies sit on this grid


@pytest.mark.parametrize("resolution", range(1, 7))
def test_pruned_grid_sweep_minimum_at_the_last_point(resolution) -> None:
    """A minimum reached only at the sweep's last grid point (all weight on
    vertex 1 for both players) is still found, under a non-constant best reply."""
    from conftest import fraction_grid_audit_player3
    from repstack.hardness import _grid_points

    n = 3
    # With x = E[r + s] over 0-based vertices, action 0 pays 1/2 + 2x and
    # action 1 pays 3/2 + x: the best reply is action 1 below x = 1 and
    # action 0 above it, and the max of the two is lowest only at x = 0, the
    # last grid point.  Actions 2 and 3 never win.
    entries = [
        [[F(1, 2) + 2 * (r + s), F(3, 2) + r + s, F(-7, 3), F(-5, 2)] for s in range(n)]
        for r in range(n)
    ]
    game3 = _signed_game(n, entries)
    grid = [MixedStrategy(tuple(F(q, resolution) for q in point)) for point in _grid_points(n, resolution)]
    replies = [player3_audit(game3, p1, p2) for p2 in grid for p1 in grid]
    values = [value for _, value in replies]
    assert {action for action, _ in replies} == {0, 1}
    assert min(values) == values[-1] and values.count(values[-1]) == 1
    assert grid_audit_player3(game3, resolution) == values[-1]
    assert fraction_grid_audit_player3(game3, resolution) == values[-1]


def test_grid_audit_budget_is_points_squared_times_actions() -> None:
    game3 = reduce_graph(K4)  # resolution 2: 10 grid points, 11 actions
    assert grid_audit_player3(game3, 2, budget=10 * 10 * 11) == grid_audit_player3(game3, 2)
    with pytest.raises(BudgetExceeded, match="1100 evaluations, budget is 1099"):
        grid_audit_player3(game3, 2, budget=10 * 10 * 11 - 1)


def test_grid_audit_k4_resolution_16() -> None:
    import time

    game3 = reduce_graph(K4)
    start = time.perf_counter()
    worst = grid_audit_player3(game3, 16)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"K4 grid audit at resolution 16 took {elapsed:.2f} s"
    assert worst == F(9, 8)
