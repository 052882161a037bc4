"""Leader strategies as automata: the state-based oracle and simulator.

The oracle and the simulator run over (round, automaton state) instead of
history prefixes.  These tests hold them to the history-prefix reference in
`conftest.py` exactly, pin simulated transcripts, and check horizons far
beyond what a recursion over prefixes can reach.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest

from repstack import (
    ActionPair,
    HorizonTooShort,
    InputError,
    MixedStrategy,
    StateSpaceExceeded,
    best_response,
    build_deterministic_gpa,
    evaluate_prescription,
    multiplicative_weights,
    myopic_best_responder,
    on_path_transcript,
    prescription_follower,
    sample_prescription,
    simulate,
    threat,
    validate_game,
)
from repstack.gpa import (
    ConstantGPA,
    GamePlayingAlgorithm,
    GrimTriggerGPA,
    LookupTableGPA,
    PrescribedSequenceGPA,
    PrescriptionFollower,
    TwoPhaseDefectGPA,
)
from repstack.oracle import best_response_to_json
from conftest import (
    history_prefix_best_response,
    history_prefix_on_path,
    history_prefix_to_json,
    history_prefix_transcript,
    per_round_simulate,
    random_game,
)

F = Fraction

SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3), (1, 2), (1, 3), (2, 1), (3, 1), (1, 4), (4, 1))
DIFFERENTIAL_GAMES = 300
GAMES_PER_CASE = 30


def max_horizon(rows: int, cols: int) -> int:
    """The longest horizon in 2..7 whose history-prefix tree stays small."""
    horizon = 2
    while horizon < 7 and (rows * cols) ** horizon <= 256:
        horizon += 1
    return horizon


def random_mixed(rng: random.Random, n_actions: int, lowest: int = 0) -> MixedStrategy:
    weights = [F(rng.randint(lowest, 3)) for _ in range(n_actions)]
    if not any(weights):
        weights[rng.randrange(n_actions)] = F(1)
    total = sum(weights)
    return MixedStrategy(tuple(w / total for w in weights))


def random_table(rng: random.Random, rows: int, cols: int, horizon: int) -> dict:
    table = {}
    frontier = [()]
    for _ in range(horizon):
        next_frontier = []
        for history in frontier:
            table[history] = rng.randint(1, rows)
            for row in range(1, rows + 1):
                for col in range(1, cols + 1):
                    next_frontier.append(history + (ActionPair(row, col),))
        frontier = next_frontier
    return table


def differential_leaders(rng, game, horizon, seed) -> list[tuple[str, GamePlayingAlgorithm]]:
    leaders: list[tuple[str, GamePlayingAlgorithm]] = []
    try:
        leaders.append(("deterministic", build_deterministic_gpa(game, horizon)[0]))
    except HorizonTooShort:
        pass
    sampled = sample_prescription(game, horizon, seed).gpa
    leaders.append(("sampled", sampled))
    # Shuffled, the script can ask for a poor round early, so the follower
    # may leave it; a full-support threat then makes the punishment mix.
    script = list(sampled.prescription)
    rng.shuffle(script)
    punish = random_mixed(rng, game.rows, lowest=1)
    leaders.append(("shuffled", PrescribedSequenceGPA(game, script, punish)))
    cooperate = ActionPair(rng.randint(1, game.rows), rng.randint(1, game.cols))
    leaders.append(("grim", GrimTriggerGPA(game, cooperate, rng.randint(1, game.rows))))
    if game.rows >= 2 and game.cols >= 2:
        leaders.append(("two_phase", TwoPhaseDefectGPA(game, rng.randint(0, horizon))))
    leaders.append(("constant", ConstantGPA(random_mixed(rng, game.rows))))
    table = random_table(rng, game.rows, game.cols, horizon)
    leaders.append(("lookup", LookupTableGPA(table, game.rows)))
    return leaders


def leaves_script_under_mixed_threat(leader, policy) -> bool:
    """The follower departs from the script somewhere on path while the
    threat that punishes the departure is mixed."""
    if not isinstance(leader, PrescribedSequenceGPA) or len(leader.threat_strategy.support()) == 1:
        return False
    script = leader.prescription
    return any(
        col != script[len(history)].col
        and all(played.col == scripted.col for played, scripted in zip(history, script))
        for history, col in policy.items()
    )


@pytest.mark.parametrize("case", range(DIFFERENTIAL_GAMES // GAMES_PER_CASE))
def test_best_response_matches_history_prefix_reference(case: int) -> None:
    """Values, on-path policy, JSON bytes and on-path transcript all equal the
    recursion over history prefixes, on every leader kind and game shape."""
    kinds_seen = set()
    mixed_deviation = False
    for seed in range(case * GAMES_PER_CASE, (case + 1) * GAMES_PER_CASE):
        rng = random.Random(9000 + seed)
        rows, cols = SHAPES[seed % len(SHAPES)]
        game = random_game(rng, rows, cols)
        horizon = rng.randint(2, max_horizon(rows, cols))
        for kind, leader in differential_leaders(rng, game, horizon, seed):
            kinds_seen.add(kind)
            reference = history_prefix_best_response(leader, game, horizon)
            result = best_response(leader, game, horizon)
            context = f"seed {seed}, {rows}x{cols}, T={horizon}, {kind} leader"
            assert (result.follower_value, result.leader_value) == (
                reference.follower_value,
                reference.leader_value,
            ), context
            on_path = history_prefix_on_path(reference, leader, horizon)
            assert result.follower_policy == on_path, context
            assert best_response_to_json(result) == (
                history_prefix_to_json(reference, leader, horizon)
            ), context
            try:
                expected = history_prefix_transcript(reference, leader, game, horizon)
            except ValueError:  # the leader mixes on the reference's path
                with pytest.raises(InputError):
                    on_path_transcript(result, game)
            else:
                assert on_path_transcript(result, game) == expected, context
            mixed_deviation |= leaves_script_under_mixed_threat(leader, on_path)
    assert kinds_seen == {
        "deterministic", "sampled", "shuffled", "grim", "two_phase", "constant", "lookup"
    }
    assert mixed_deviation


def transcript_digest(transcript) -> str:
    text = ";".join(f"{p.row},{p.col}" for p in transcript.pairs)
    return hashlib.sha256(text.encode()).hexdigest()


PD = validate_game([["3/5", "0"], ["1", "1/5"]], [["3/5", "1"], ["0", "1/5"]])
MATCHING_PENNIES = validate_game([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
# The follower's payoffs are matching pennies, so the threat mixes both rows.
MIXED_THREAT = validate_game([[1, "1/2"], [0, "1/4"]], [[1, -1], [-1, 1]])


def pd_obedient():
    leader = sample_prescription(PD, 4097, seed=3).gpa
    return leader, prescription_follower(leader.prescription, PD.cols), PD, 4097, 5


def mw_versus_myopic():
    # In matching pennies the learner keeps mixing, so every round's float
    # weights decide the myopic reply and the draw.
    leader = multiplicative_weights(MATCHING_PENNIES, "leader", F(1, 20))
    follower = myopic_best_responder(MATCHING_PENNIES, leader)
    return leader, follower, MATCHING_PENNIES, 1000, 7


def mixed_threat_versus_myopic():
    # The myopic follower leaves the script in round 1, so every later round
    # draws the leader's row from the mixed threat.
    leader = PrescribedSequenceGPA(
        MIXED_THREAT, [ActionPair(1, 2)] * 300, threat(MIXED_THREAT).strategy
    )
    return leader, myopic_best_responder(MIXED_THREAT, leader), MIXED_THREAT, 300, 11


def constant_mixed_pair():
    leader = ConstantGPA(MixedStrategy((F(1, 3), F(2, 3))))
    follower = ConstantGPA(MixedStrategy((F(1, 4), F(3, 4))))
    return leader, follower, PD, 500, 13


# sha256 of "row,col;row,col;..." for each case, recorded from the
# history-based simulator before it ran over automaton states.
SIMULATE_DIGESTS = {
    pd_obedient: "ac6f037e2b23ad74a1057fb61511e59c0960eb5113e1c6a9889c0f3ddee8222d",
    mw_versus_myopic: "81bda134e8bd373fd8d2c04d01bff55f8bb75c020d37f0acb33786e99bb86284",
    mixed_threat_versus_myopic: "61a2d8364888accd2490c4c1668bce941672d609de45c0982e4550ed6c299065",
    constant_mixed_pair: "8f3a83c569024b031fec98d4556020cc54fe42cd883b4b645a1fd9a4b0063f50",
}


@pytest.mark.parametrize("case", SIMULATE_DIGESTS, ids=lambda case: case.__name__)
def test_simulate_transcripts_are_pinned(case) -> None:
    leader, follower, game, horizon, seed = case()
    transcript = simulate(leader, follower, game, horizon, seed)
    assert len(transcript) == horizon
    assert transcript_digest(transcript) == SIMULATE_DIGESTS[case]


def test_mixed_threat_case_draws_from_the_threat() -> None:
    leader, follower, game, horizon, seed = mixed_threat_versus_myopic()
    assert len(leader.threat_strategy.support()) > 1
    rows = {p.row for p in simulate(leader, follower, game, horizon, seed).pairs[1:]}
    assert rows == {1, 2}


def test_best_response_long_horizon_pd() -> None:
    """Two automaton states per round: T = 2000 fits a budget of 2T - 1
    states and finishes in well under the time a prefix recursion needs for
    T = 17."""
    horizon = 2000
    leader, _ = build_deterministic_gpa(PD, horizon)
    start = time.perf_counter()
    result = best_response(leader, PD, horizon, budget=2 * horizon - 1)
    elapsed = time.perf_counter() - start
    t = leader.obedient_transcript()
    _, follower_total = t.game.totals(t.counts)
    assert result.follower_value == follower_total
    assert on_path_transcript(result, PD).pairs == leader.prescription
    assert elapsed < 2.0


def test_state_budget_reports_how_far_it_got() -> None:
    leader, _ = build_deterministic_gpa(PD, 11)
    with pytest.raises(StateSpaceExceeded) as info:
        best_response(leader, PD, 11, budget=10)
    # Round 1 has one state, rounds 2..5 two each: the eleventh state is the
    # second of round 6.
    assert (info.value.budget, info.value.visited) == (10, 11)
    assert (info.value.horizon, info.value.round) == (11, 6)
    assert "T=11" in str(info.value) and "round 6" in str(info.value)


def test_base_strategy_defines_no_round_play() -> None:
    """`strategy_at` is the one per-round method, and the base class has none."""
    base = GamePlayingAlgorithm(2)
    with pytest.raises(NotImplementedError):
        base.strategy_at(0, ())


# ---------------------------------------------------------------------------
# Pure stretches: `simulate` appends a run at once when both players hold.


def simulate_leaders(rng, game, length, seed) -> list[tuple[str, GamePlayingAlgorithm]]:
    """Every leader kind, scripts `length` rounds long."""
    leaders: list[tuple[str, GamePlayingAlgorithm]] = []
    try:
        leaders.append(("deterministic", build_deterministic_gpa(game, length)[0]))
    except HorizonTooShort:
        pass
    sampled = sample_prescription(game, length, seed).gpa
    leaders.append(("sampled", sampled))
    script = list(sampled.prescription)
    rng.shuffle(script)
    pure = MixedStrategy.pure(rng.randint(1, game.rows), game.rows)
    leaders.append(("shuffled-pure", PrescribedSequenceGPA(game, script, pure)))
    mixed = random_mixed(rng, game.rows, lowest=1)
    leaders.append(("shuffled-mixed", PrescribedSequenceGPA(game, script, mixed)))
    cooperate = ActionPair(rng.randint(1, game.rows), rng.randint(1, game.cols))
    leaders.append(("grim", GrimTriggerGPA(game, cooperate, rng.randint(1, game.rows))))
    if game.rows >= 2 and game.cols >= 2:
        leaders.append(("two_phase", TwoPhaseDefectGPA(game, rng.randint(0, length))))
    leaders.append(("constant", ConstantGPA(random_mixed(rng, game.rows))))
    # The table covers three rounds, so longer plays end in MissingEntry.
    table = random_table(rng, game.rows, game.cols, 3)
    leaders.append(("lookup", LookupTableGPA(table, game.rows)))
    leaders.append(("mw", multiplicative_weights(game, "leader", F(1, 7))))
    return leaders


def simulate_outcome(simulator, *args):
    """The pairs played, or the type and message of the error raised."""
    try:
        return simulator(*args).pairs
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc)


@pytest.mark.parametrize("case", range(4))
def test_simulate_matches_the_per_round_reference(case: int) -> None:
    """Same pairs, or the same error and message, as one round at a time,
    for every leader kind against obedient, myopic, scripted and mixed
    followers."""
    kinds_seen = set()
    stretched = errors = 0
    for seed in range(case * 10, (case + 1) * 10):
        rng = random.Random(7000 + seed)
        rows, cols = SHAPES[seed % len(SHAPES)]
        game = random_game(rng, rows, cols)
        length = rng.randint(3, 12)
        for kind, leader in simulate_leaders(rng, game, length, seed):
            kinds_seen.add(kind)
            # A follower obeying a script of its own leaves the leader's
            # script, and its column runs end where the leader's runs do not.
            own_script = sorted(
                ActionPair(rng.randint(1, rows), rng.randint(1, cols)) for _ in range(length)
            )
            followers = [
                ("myopic", myopic_best_responder(game, leader)),
                ("constant", ConstantGPA(random_mixed(rng, cols))),
                ("scripted", prescription_follower(own_script, cols)),
            ]
            if isinstance(leader, PrescribedSequenceGPA):
                followers.append(("obedient", prescription_follower(leader.prescription, cols)))
            for follower_kind, follower in followers:
                for horizon in (1, 2, length, length + 3):
                    args = (leader, follower, game, horizon, seed)
                    expected = simulate_outcome(per_round_simulate, *args)
                    context = f"seed {seed}, {rows}x{cols}, T={horizon}, {kind} vs {follower_kind}"
                    assert simulate_outcome(simulate, *args) == expected, context
                    if isinstance(expected[0], type):
                        errors += 1
                    else:
                        stretched += len(set(expected)) < horizon
    assert kinds_seen == {
        "deterministic", "sampled", "shuffled-pure", "shuffled-mixed", "grim", "two_phase",
        "constant", "lookup", "mw",
    }
    assert stretched and errors


class CountingLeader(PrescribedSequenceGPA):
    """A prescribed leader that counts the rounds it is asked to play."""

    asked = 0

    def strategy_at(self, t, state):
        self.asked += 1
        return super().strategy_at(t, state)


@pytest.mark.parametrize("follower_kind", ["obedient", "myopic"])
def test_simulate_plays_a_script_once_per_run(follower_kind) -> None:
    """The work does not grow with T.  The obedient follower plays the three
    runs of a deterministic PD script in three rounds of work.  The myopic
    follower defects in round 1 and is punished for the rest: two rounds of
    work, in each of which it asks the leader too."""
    horizon = 10_000
    built, _ = build_deterministic_gpa(PD, horizon)
    leader = CountingLeader(PD, built.prescription, built.threat_strategy)
    assert len(leader.runs) == 3
    if follower_kind == "obedient":
        follower, asked = prescription_follower(leader.prescription, PD.cols), 3
        expected = leader.prescription
    else:
        follower, asked = myopic_best_responder(PD, leader), 4
        expected = (ActionPair(2, 2),) * horizon
    transcript = simulate(leader, follower, PD, horizon, 0)
    assert leader.asked == asked
    assert transcript.pairs == expected
    assert transcript == per_round_simulate(leader, follower, PD, horizon, 0)


def test_prescribed_holds_to_the_end_of_its_run_or_script() -> None:
    script = [ActionPair(1, 1)] * 3 + [ActionPair(2, 1)] * 2 + [ActionPair(2, 2)] * 4
    leader = PrescribedSequenceGPA(PD, script, MixedStrategy.pure(2, 2))
    assert [leader.hold(t, False) for t in range(9)] == [3, 2, 1, 2, 1, 4, 3, 2, 1]
    assert [leader.hold(t, True) for t in range(9)] == list(range(9, 0, -1))
    # The follower sees columns only: (1,1) and (2,1) form one column run.
    follower = PrescriptionFollower(script, PD.cols)
    assert [follower.hold(t, None) for t in range(9)] == [5, 4, 3, 2, 1, 4, 3, 2, 1]
    assert myopic_best_responder(PD, leader).hold(3, False) == 2
    assert GrimTriggerGPA(PD, ActionPair(1, 1), 2).hold(0, False) == 1


# ---------------------------------------------------------------------------
# The closed-form evaluator against the backward induction it replaces.


def differential_prescriptions(rng, game, horizon, seed):
    """Sorted, shuffled and sampled scripts under pure and mixed threats."""
    sampled = []
    if horizon >= 2:
        sampled = list(sample_prescription(game, horizon, seed).gpa.prescription)
    drawn = [
        ActionPair(rng.randint(1, game.rows), rng.randint(1, game.cols)) for _ in range(horizon)
    ]
    shuffled = list(sampled or drawn)
    rng.shuffle(shuffled)
    scripts = [("sorted", sorted(drawn)), ("shuffled", shuffled), ("drawn", drawn)]
    if sampled:
        scripts.append(("sampled", sampled))
    threats = [
        ("pure", MixedStrategy.pure(rng.randint(1, game.rows), game.rows)),
        ("mixed", random_mixed(rng, game.rows, lowest=1)),
        ("threat", threat(game).strategy),
    ]
    for (script_kind, script), (threat_kind, punish) in itertools.product(scripts, threats):
        leader = PrescribedSequenceGPA(game, script, punish)
        yield f"{script_kind} script, {threat_kind} threat", leader


@pytest.mark.parametrize("case", range(4))
def test_evaluate_prescription_matches_best_response(case: int) -> None:
    cases = 0
    for seed in range(case * 50, (case + 1) * 50):
        rng = random.Random(5000 + seed)
        game = random_game(rng, rng.randint(1, 4), rng.randint(1, 4))
        horizon = rng.randint(1, 9)
        for kind, leader in differential_prescriptions(rng, game, horizon, seed):
            result = best_response(leader, game, horizon)
            assert evaluate_prescription(leader, game) == (
                result.follower_value,
                result.leader_value,
            ), f"seed {seed}, {game.rows}x{game.cols}, T={horizon}, {kind}"
            cases += 1
    assert cases >= 50 * 9


def budget_outcome(evaluate) -> tuple[int, int, int, int] | None:
    try:
        evaluate()
    except StateSpaceExceeded as exc:
        return exc.budget, exc.visited, exc.horizon, exc.round
    return None


@pytest.mark.parametrize("shape", ["pd", "2x1"])
@pytest.mark.parametrize("horizon", [1, 2, 5, 11])
def test_evaluate_prescription_budget_matches_best_response(shape, horizon) -> None:
    """Every budget from 1 to 2T: the same four fields, or neither raises."""
    game = PD if shape == "pd" else validate_game([[1], [0]], [["1/2"], [1]])
    script = [ActionPair(1, 1)] * (horizon - 1) + [ActionPair(2, 1)]
    leader = PrescribedSequenceGPA(game, script, threat(game).strategy)
    raised = 0
    for budget in range(1, 2 * horizon + 1):
        expected = budget_outcome(lambda: best_response(leader, game, horizon, budget))
        actual = budget_outcome(lambda: evaluate_prescription(leader, game, budget))
        assert actual == expected, budget
        raised += expected is not None
    assert raised == (2 * horizon - 2 if shape == "pd" else horizon - 1)
