"""Command-line surface: outputs, exit codes, JSON stability."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repstack
from repstack.cli import MAX_C_EXPONENT, main

PD = '{"M1": [["3/5", "0"], ["1", "1/5"]], "M2": [["3/5", "1"], ["0", "1/5"]]}'
INEV = '{"M1": [[1, 0], [0, 0]], "M2": [["1/2", 1], [0, 0]]}'
TENSION = '{"M1": [["1/4", "3/4"], ["0", "1/2"]], "M2": [[1, 0], [0, 1]]}'
CYCLE4 = "4 4\n1 2\n2 3\n3 4\n4 1\n"
K4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"


@pytest.fixture
def pd_file(tmp_path: Path) -> str:
    path = tmp_path / "pd.json"
    path.write_text(PD)
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_threat_command(pd_file, capsys) -> None:
    code, out = run(capsys, "threat", pd_file)
    assert code == 0
    assert "V = 1/5" in out
    assert "x* = [0, 1]" in out


def test_threat_command_json(pd_file, capsys) -> None:
    code, out = run(capsys, "threat", pd_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"value": "1/5", "strategy": ["0", "1"]}


def test_threat_zero_game(tmp_path, capsys) -> None:
    path = tmp_path / "zero.json"
    path.write_text('{"M1": [[0]], "M2": [[0]]}')
    code, out = run(capsys, "threat", str(path))
    assert code == 0
    assert "V = 0" in out


def test_malformed_rational_names_cell(tmp_path, capsys) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"M1": [["3/0"]], "M2": [[0]]}')
    code = main(["threat", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "M1[1][1]" in err


def test_solve_command(pd_file, capsys) -> None:
    code, out = run(capsys, "solve", pd_file)
    assert code == 0
    assert "OPT_LP = 13/15" in out
    assert "alpha(1,1) = 1/3" in out
    assert "alpha(2,1) = 2/3" in out


def test_solve_inevitability(tmp_path, capsys) -> None:
    path = tmp_path / "inev.json"
    path.write_text(INEV)
    code, out = run(capsys, "solve", str(path))
    assert code == 0
    assert "OPT_LP = 1" in out


def test_build_and_evaluate_round_trip(pd_file, tmp_path, capsys) -> None:
    out_path = tmp_path / "gpa.json"
    code, out = run(capsys, "build", pd_file, "-T", "11", "-o", str(out_path))
    assert code == 0
    assert "N = 3, c = 3, r = 2" in out
    assert "2N/T = 6/11" in out
    assert "2r/T = 4/11" in out
    code, out = run(capsys, "evaluate", pd_file, str(out_path))
    assert code == 0
    assert "verdict = Obeys" in out
    assert "leader average = 39/55" in out
    assert "gap = 26/165" in out


def test_build_horizon_too_short(pd_file, capsys) -> None:
    code = main(["build", pd_file, "-T", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "N=3" in err


def test_build_sampled_is_reproducible(pd_file, tmp_path, capsys) -> None:
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, _ = run(capsys, "build", pd_file, "-T", "100", "--sampled", "--seed", "7", "-o", str(first))
    assert code == 0
    code, _ = run(capsys, "build", pd_file, "-T", "100", "--sampled", "--seed", "7", "-o", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "variant", [[], ["--sampled", "--seed", "7"]], ids=["deterministic", "sampled"]
)
def test_build_decodes_its_output_only_under_json(variant, pd_file, capsys, monkeypatch) -> None:
    """The text output prints the strategy's JSON as written; only `--json`
    decodes it into the payload.  Only the CLI's own `json` is patched, so
    the game file's decode is not counted."""
    from types import SimpleNamespace

    from repstack import cli

    decoded = []
    loads = json.loads
    monkeypatch.setattr(
        cli, "json", SimpleNamespace(loads=lambda text: decoded.append(text) or loads(text))
    )
    code, out = run(capsys, "build", pd_file, "-T", "11", *variant)
    assert code == 0 and decoded == []
    code, out = run(capsys, "build", pd_file, "-T", "11", *variant, "--json")
    assert code == 0 and len(decoded) == 1
    assert loads(out)["gpa"] == loads(decoded[0])


def test_evaluate_corrupted_gpa_exits_4(pd_file, tmp_path, capsys) -> None:
    out_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(out_path)]) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    data["prescription"] = list(reversed(data["prescription"]))
    out_path.write_text(json.dumps(data))
    code, out = run(capsys, "evaluate", pd_file, str(out_path))
    assert code == 4
    assert "DeviationProfitableAt(3)" in out


def test_evaluate_budget_exceeded_exits_3(pd_file, tmp_path, capsys) -> None:
    out_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(out_path)]) == 0
    capsys.readouterr()
    code = main(["evaluate", pd_file, str(out_path), "--budget", "10"])
    assert code == 3


def test_evaluate_budget_exceeded_names_the_horizon(pd_file, tmp_path, capsys) -> None:
    out_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", pd_file, str(out_path), "--budget", "10"]) == 3
    err = capsys.readouterr().err
    assert "T=11" in err
    assert "round 6" in err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_evaluate_budget_below_one_is_input_error(pd_file, tmp_path, capsys, budget) -> None:
    """The initial state always counts, so a budget below 1 can never pass."""
    out_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", pd_file, str(out_path), "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: state budget must be at least 1, got {budget}" in captured.err


def test_evaluate_single_column_long_horizon(tmp_path, capsys) -> None:
    """A horizon far past Python's recursion limit evaluates exactly."""
    game_path = tmp_path / "column.json"
    game_path.write_text('{"M1": [["1/2"], ["-1/2"]], "M2": [["1/4"], [1]]}')
    gpa_path = tmp_path / "gpa.json"
    assert main(["build", str(game_path), "-T", "1500", "-o", str(gpa_path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "evaluate", str(game_path), str(gpa_path))
    assert code == 0
    assert "verdict = Obeys" in out
    assert "follower average = 501/2000" in out


def test_evaluate_long_horizon_in_closed_form(pd_file, tmp_path, capsys) -> None:
    """Deterministic PD at T = 10^5: the evaluator works per run of the
    script, not per round."""
    gpa_path = tmp_path / "gpa.json"
    start = time.perf_counter()
    assert main(["build", pd_file, "-T", "100000", "-o", str(gpa_path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "evaluate", pd_file, str(gpa_path), "--json")
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["follower_average"]) == ("Obeys", "25001/125000")
    assert elapsed < 2.0


def test_evaluate_a_million_rounds_within_the_default_budget(pd_file, tmp_path, capsys) -> None:
    """Deterministic PD at T = 10^6 builds and evaluates under the default
    budget: the evaluator counts 2T - 1 = 1,999,999 states."""
    gpa_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "1000000", "-o", str(gpa_path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "evaluate", pd_file, str(gpa_path))
    assert code == 0
    assert "verdict = Obeys" in out


@pytest.mark.parametrize("follower", ["obedient", "myopic"])
def test_simulate_past_the_end_of_a_script(pd_file, tmp_path, capsys, follower) -> None:
    gpa_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(gpa_path)]) == 0
    capsys.readouterr()
    code = main(["simulate", pd_file, str(gpa_path), "-T", "12", "--follower", follower])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: history extends beyond the horizon\n"


def test_simulate_obedient(pd_file, tmp_path, capsys) -> None:
    out_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(out_path)]) == 0
    capsys.readouterr()
    code, out = run(capsys, "simulate", pd_file, str(out_path), "--seed", "5")
    assert code == 0
    assert out.startswith("transcript = (2,1)")
    assert "leader average = 39/55" in out


def test_simulate_myopic_follower(pd_file, tmp_path, capsys) -> None:
    gpa_path = tmp_path / "grim.json"
    gpa_path.write_text('{"kind":"grim_trigger","cooperate":[1,1],"punish_row":2}')
    code, out = run(
        capsys, "simulate", pd_file, str(gpa_path), "-T", "4", "--follower", "myopic"
    )
    assert code == 0
    # myopic reply to the cooperating leader defects at once and triggers
    assert "transcript = (1,2) (2,2) (2,2) (2,2)" in out


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_simulate_rejects_horizon_below_one(pd_file, tmp_path, capsys, horizon) -> None:
    gpa_path = tmp_path / "grim.json"
    gpa_path.write_text('{"kind":"grim_trigger","cooperate":[1,1],"punish_row":2}')
    code = main(["simulate", pd_file, str(gpa_path), "-T", horizon, "--follower", "myopic"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: horizon must be at least 1\n"


@pytest.mark.parametrize(
    "strategy, actions",
    [
        ('{"kind":"mw","side":"follower","learning_rate":"1/10"}', 3),
        ('{"kind":"lookup","n_actions":5,"table":{"":5}}', 5),
        ('{"kind":"lookup","n_actions":3,"table":{"":3}}', 3),
    ],
)
def test_simulate_rejects_a_strategy_sized_for_another_game(
    tmp_path, capsys, strategy, actions
) -> None:
    game_path = tmp_path / "game.json"
    game_path.write_text('{"M1": [[1, 0, 0], [0, 1, 0]], "M2": [[0, 1, "1/3"], [1, 0, "1/2"]]}')
    gpa_path = tmp_path / "strategy.json"
    gpa_path.write_text(strategy)
    code = main(["simulate", str(game_path), str(gpa_path), "-T", "3", "--follower", "myopic"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: the leader strategy has {actions} actions, but the game has 2 leader actions\n"
    )

def test_regret_command(tmp_path, capsys) -> None:
    game_path = tmp_path / "game.json"
    game_path.write_text(TENSION)
    transcript_path = tmp_path / "transcript.json"
    transcript_path.write_text(json.dumps({"pairs": [[2, 2]] * 16}))
    code, out = run(capsys, "regret", str(game_path), str(transcript_path), "--side", "leader")
    assert code == 0
    assert "per-round regret = 1/4" in out
    assert "best fixed action = 1" in out


def test_regret_json_bytes(pd_file, tmp_path, capsys) -> None:
    """Bytes recorded when the report serialized itself."""
    transcript_path = tmp_path / "transcript.json"
    transcript_path.write_text('{"pairs": [[1, 1]]}')
    code, out = run(capsys, "regret", pd_file, str(transcript_path), "--json")
    assert code == 0
    assert out == '{"best_fixed_action":2,"realized_total":"3/5","total_regret":"2/5"}\n'


def test_threat_refuses_an_underscored_denominator(tmp_path, capsys) -> None:
    path = tmp_path / "game.json"
    path.write_text('{"M1": [["1/1_0"]], "M2": [["0"]]}')
    assert main(["threat", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: M1[1][1]: invalid rational '1/1_0'\n")


def test_reduce_command(tmp_path, capsys) -> None:
    graph_path = tmp_path / "c4.txt"
    graph_path.write_text(CYCLE4)
    out_path = tmp_path / "game3.json"
    code, out = run(capsys, "reduce", str(graph_path), "-o", str(out_path))
    assert code == 0
    assert "player 3: 9 strategies" in out
    payload = json.loads(out_path.read_text())
    assert payload["strategy_counts"] == [4, 4, 9]
    assert payload["p3_actions"][0] == "t0"


def _random_graph_text(n: int, seed: int) -> str:
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("graph", ["cycle4.txt", "k4.txt", "random-8"])
def test_reduce_json_prints_the_game_json(graph: str, tmp_path, capsys) -> None:
    """`reduce --json` prints `to_json()` byte for byte, then a newline, and
    every tensor entry is that entry's own `format_rational` text."""
    if graph == "random-8":
        path = tmp_path / "g8.txt"
        path.write_text(_random_graph_text(8, seed=88))
    else:
        path = Path(__file__).resolve().parent.parent / "data" / graph
    game3 = repstack.reduce_graph(repstack.graph_from_text(path.read_text()))
    code, out = run(capsys, "reduce", str(path), "--json")
    assert code == 0
    assert out == game3.to_json() + "\n"
    payload = json.loads(out)
    for name in ("mu1", "mu2", "mu3"):
        tensor = getattr(game3, name)
        texts = [[[repstack.format_rational(v) for v in cell] for cell in row] for row in tensor]
        assert payload[name] == texts, name


@pytest.mark.parametrize("command", ["build", "simulate", "reduce"])
def test_unwritable_output_is_input_error(pd_file, tmp_path, capsys, command) -> None:
    gpa_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(gpa_path)]) == 0
    graph_path = tmp_path / "c4.txt"
    graph_path.write_text(CYCLE4)
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "out.json")
    argv = {
        "build": ["build", pd_file, "-T", "11", "-o", missing],
        "simulate": ["simulate", pd_file, str(gpa_path), "-o", missing],
        "reduce": ["reduce", str(graph_path), "-o", missing],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {missing}: ")


def test_audit_vc_cycle4(tmp_path, capsys) -> None:
    graph_path = tmp_path / "c4.txt"
    graph_path.write_text(CYCLE4)
    code, out = run(capsys, "audit-vc", str(graph_path))
    assert code == 0
    assert "balanced vertex cover: {1, 3}" in out
    assert "t0 with value 1" in out


def test_audit_vc_k4_grid(tmp_path, capsys) -> None:
    graph_path = tmp_path / "k4.txt"
    graph_path.write_text(K4)
    code, out = run(capsys, "audit-vc", str(graph_path), "--resolution", "8", "--c-exponent", "5")
    assert code == 0
    assert "no balanced vertex cover" in out
    assert "grid worst case (resolution 8) = 9/8" in out
    assert "holds at every grid point" in out


def test_audit_vc_k4_exponent_zero_threshold(tmp_path, capsys) -> None:
    graph_path = tmp_path / "k4.txt"
    graph_path.write_text(K4)
    code, out = run(capsys, "audit-vc", str(graph_path), "--resolution", "2", "--c-exponent", "0")
    assert code == 4
    assert "threshold 1 + 1/((n-2) n^(c-1)) = 3\n" in out
    assert "grid certificate: FAILS" in out


def test_audit_vc_refuses_a_large_graph_before_reducing_it(tmp_path, capsys) -> None:
    """The cover search's size limit is checked before the n^2 (n+m+1)
    reduction is built, so n = 200 exits 3 at once."""
    graph_path = tmp_path / "edgeless.txt"
    graph_path.write_text("200 0\n")
    start = time.perf_counter()
    code = main(["audit-vc", str(graph_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: exhaustive cover search limited to n <= 20, got n = 200\n"
    assert elapsed < 0.5


@pytest.mark.parametrize("resolution", ["0", "-3"])
@pytest.mark.parametrize("graph", [CYCLE4, K4], ids=["cycle4", "k4"])
def test_audit_vc_rejects_resolution_below_one(tmp_path, capsys, graph, resolution) -> None:
    """A balanced cover (cycle4) never reaches the grid, yet the resolution
    is still checked: both paths exit 2 and print no report."""
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(graph)
    code = main(["audit-vc", str(graph_path), "--resolution", resolution])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "resolution must be at least 1" in captured.err


@pytest.mark.parametrize("exponent", [str(MAX_C_EXPONENT + 1), "-1"])
@pytest.mark.parametrize("graph", [CYCLE4, K4], ids=["cycle4", "k4"])
def test_audit_vc_rejects_c_exponent_out_of_range(
    tmp_path, capsys, monkeypatch, graph, exponent
) -> None:
    """The exponent is checked before the cover search, so neither path
    reaches the threshold's power: both exit 2 with the range named."""
    from repstack import hardness

    def no_search(graph):
        raise AssertionError("cover search ran before the exponent check")

    monkeypatch.setattr(hardness, "balanced_vertex_cover", no_search)
    graph_path = tmp_path / "graph.txt"
    graph_path.write_text(graph)
    code = main(["audit-vc", str(graph_path), "--c-exponent", exponent])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --c-exponent must be in 0..{MAX_C_EXPONENT}, got {exponent}\n"


def test_audit_vc_k4_at_the_c_exponent_limit(tmp_path, capsys) -> None:
    """At the limit the threshold has about 600 digits and still prints."""
    from fractions import Fraction

    graph_path = tmp_path / "k4.txt"
    graph_path.write_text(K4)
    code, out = run(
        capsys, "audit-vc", str(graph_path), "--resolution", "1", "--c-exponent", str(MAX_C_EXPONENT)
    )
    threshold = 1 + Fraction(1, 2 * 4 ** (MAX_C_EXPONENT - 1))
    assert code == 0
    assert "grid worst case (resolution 1) = 2\n" in out
    assert f"threshold 1 + 1/((n-2) n^(c-1)) = {threshold}\n" in out
    assert len(str(threshold.denominator)) > 600
    assert "holds at every grid point" in out


@pytest.mark.parametrize(
    "command, strategy",
    [
        ("evaluate", '{"kind":"prescribed"}'),
        ("evaluate", '{"kind":"prescribed","prescription":[[1]],"threat":["0","1"]}'),
        ("evaluate", '{"kind":"prescribed","prescription":[[1,"a"]],"threat":["0","1"]}'),
        ("evaluate", '{"kind":"prescribed","prescription":[[1,1.5]],"threat":["0","1"]}'),
        ("evaluate", '{"kind":"prescribed","prescription":5,"threat":["0","1"]}'),
        ("evaluate", '{"kind":"grim_trigger","cooperate":[1,1]}'),
        ("simulate", '{"kind":"grim_trigger","cooperate":[1,1]}'),
        ("simulate", '{"kind":"lookup","n_actions":2,"table":[]}'),
    ],
)
def test_malformed_strategy_file_exits_2(pd_file, tmp_path, capsys, command, strategy) -> None:
    gpa_path = tmp_path / "gpa.json"
    gpa_path.write_text(strategy)
    horizon = ["-T", "3"] if command == "simulate" else []
    assert main([command, pd_file, str(gpa_path), *horizon]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "strategy, key",
    [
        ('{"kind":"prescribed","prescription":[[1,1]],"threat":"01"}', "threat"),
        ('{"kind":"prescribed","prescription":[[1,1]],"threat":{"0":1,"1":0}}', "threat"),
        ('{"kind":"prescribed","prescription":"ab","threat":["0","1"]}', "prescription"),
    ],
)
def test_prescribed_file_needs_list_values(pd_file, tmp_path, capsys, strategy, key) -> None:
    """A string or object is not read as the list of its characters or keys."""
    gpa_path = tmp_path / "gpa.json"
    gpa_path.write_text(strategy)
    assert main(["evaluate", pd_file, str(gpa_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key!r} must be a JSON list")


# Exit code and stderr recorded when every entry was parsed on its own.
@pytest.mark.parametrize(
    "prescription, err",
    [
        ("[[1,1],[1,true]]", "error: expected an integer, got True\n"),
        ("[[1,1],[1,1.0]]", "error: expected an integer, got 1.0\n"),
        ("[[1,1],[1]]", "error: expected a [row, col] pair, got [1]\n"),
        ('[[1,1],"ab"]', "error: expected a [row, col] pair, got 'ab'\n"),
        ("[[1,1],[1,2,3]]", "error: expected a [row, col] pair, got [1, 2, 3]\n"),
        ("[[1,1],5]", "error: expected a [row, col] pair, got 5\n"),
        ("[5,5]", "error: expected a [row, col] pair, got 5\n"),
    ],
)
def test_malformed_prescription_entry_message(pd_file, tmp_path, capsys, prescription, err) -> None:
    gpa_path = tmp_path / "gpa.json"
    gpa_path.write_text(f'{{"kind":"prescribed","prescription":{prescription},"threat":["0","1"]}}')
    assert main(["evaluate", pd_file, str(gpa_path)]) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("game", ['{"M1": 5, "M2": 5}', '{"M1": [5], "M2": [5]}'])
def test_malformed_game_file_exits_2(tmp_path, capsys, game) -> None:
    path = tmp_path / "game.json"
    path.write_text(game)
    assert main(["threat", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("transcript", ['{"pairs": 5}', '{"pairs": [[true, 1], [2, 2]]}'])
def test_malformed_transcript_file_exits_2(pd_file, tmp_path, capsys, transcript) -> None:
    path = tmp_path / "transcript.json"
    path.write_text(transcript)
    assert main(["regret", pd_file, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_json_outputs_are_byte_stable(pd_file, capsys) -> None:
    _, first = run(capsys, "solve", pd_file, "--json")
    _, second = run(capsys, "solve", pd_file, "--json")
    assert first == second


def test_json_and_table_agree(pd_file, capsys) -> None:
    _, table = run(capsys, "solve", pd_file)
    _, raw = run(capsys, "solve", pd_file, "--json")
    payload = json.loads(raw)
    assert f"OPT_LP = {payload['opt']}" in table
    for key, weight in payload["alpha"].items():
        assert f"alpha({key}) = {weight}" in table


def test_missing_file_is_input_error(capsys) -> None:
    code = main(["threat", "/nonexistent/game.json"])
    assert code == 2


# Each command's input files, a valid body for each, and a body for each that
# holds a 5,000-digit integer (past Python's digit limit where it has one,
# and out of range where it has none).
HOSTILE_READS = {
    "threat": ("game",),
    "solve": ("game",),
    "build": ("game",),
    "evaluate": ("game", "strategy"),
    "simulate": ("game", "strategy"),
    "regret": ("game", "transcript"),
    "audit-vc": ("graph",),
    "reduce": ("graph",),
}
HOSTILE_ARGS = {"build": ("-T", "5"), "simulate": ("-T", "1", "--follower", "myopic")}
VALID_FILES = {
    "game": PD,
    "strategy": '{"kind":"prescribed","prescription":[[1,1],[1,1]],"threat":["0","1"]}',
    "transcript": '{"pairs": [[1, 1], [2, 2]]}',
    "graph": CYCLE4,
}
HUGE = "1" * 5000
HUGE_INTEGER = {
    "game": f'{{"M1": [[{HUGE}]], "M2": [[0]]}}',
    "strategy": f'{{"kind":"prescribed","prescription":[[1,{HUGE}]],"threat":["0","1"]}}',
    "transcript": f'{{"pairs": [[1, {HUGE}]]}}',
}
DEEP = "[" * 100_000 + "]" * 100_000


def _lookup(key: str) -> str:
    return json.dumps({"kind": "lookup", "n_actions": 2, "table": {"": 1, key: 2}})


def _hostile_cases():
    for command, kinds in HOSTILE_READS.items():
        for kind in kinds:
            if kind in HUGE_INTEGER:
                body = HUGE_INTEGER[kind].encode()
                yield pytest.param(command, kind, body, id=f"{command}-{kind}-digits")
                yield pytest.param(command, kind, DEEP.encode(), id=f"{command}-{kind}-nesting")
            body = b"\xff" + VALID_FILES[kind].encode()
            yield pytest.param(command, kind, body, id=f"{command}-{kind}-utf8")
    graphs = {
        "header-arabic-indic": "\u0664 4\n1 2\n2 3\n3 4\n4 1\n",
        "edge-arabic-indic": "4 4\n1 2\n2 3\n3 4\n4 \u0661\n",
        "header-underscore": "1_0 4\n1 2\n2 3\n3 4\n4 1\n",
    }
    for name, graph in graphs.items():
        yield pytest.param("audit-vc", "graph", graph.encode(), id=f"audit-vc-{name}")
    keys = {"arabic-indic": "1,\u0664", "underscore": "1,1_0", "space": "1, 1"}
    for name, key in keys.items():
        yield pytest.param("simulate", "strategy", _lookup(key).encode(), id=f"lookup-key-{name}")


@pytest.mark.parametrize("command, kind, body", _hostile_cases())
def test_hostile_input_exits_2(tmp_path, capsys, command, kind, body) -> None:
    """Digits past the limit, deep nesting, invalid UTF-8 and non-ASCII or
    `_`-separated integer tokens in any file a command reads: exit 2 with one
    `error:` line, no traceback."""
    paths = []
    for name in HOSTILE_READS[command]:
        path = tmp_path / name
        path.write_bytes(body if name == kind else VALID_FILES[name].encode())
        paths.append(str(path))
    code = main([command, *paths, *HOSTILE_ARGS.get(command, ())])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_quietly(pd_file, flags) -> None:
    """`repstack build ... | head -c 10`: the reader leaves after 10 bytes of
    a 1.2 MB report, and the command ends with its own exit code, no traceback."""
    env = dict(os.environ)
    package_root = str(Path(repstack.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repstack.cli", "build", pd_file, "-T", "200000", *flags]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    head = process.stdout.read(10)
    process.stdout.close()
    _, err = process.communicate(timeout=60)
    assert len(head) == 10
    assert b"Traceback" not in err, err.decode()
    assert process.returncode == 0


def test_one_parser_carries_nothing_between_calls(pd_file, tmp_path, capsys) -> None:
    """`main` reuses one parser per process.  A sequence of calls whose flags
    differ, with an argparse error in the middle, prints the same stdout and
    exits with the same code as a fresh process per command."""
    gpa_path = tmp_path / "gpa.json"
    assert main(["build", pd_file, "-T", "11", "-o", str(gpa_path)]) == 0
    capsys.readouterr()
    sequence = [
        ["build", pd_file, "-T", "11", "--sampled", "--seed", "5", "--json"],
        ["build", pd_file, "-T", "11"],
        ["evaluate", pd_file, str(gpa_path), "--budget", "10"],
        ["build", pd_file, "--sampled"],  # -T is required: argparse exits 2
        ["evaluate", pd_file, str(gpa_path)],
        ["audit-vc", pd_file, "--resolution", "0", "--json"],
        ["threat", pd_file],
    ]
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        in_process.append((code, capsys.readouterr().out.encode()))
    assert [code for code, _ in in_process] == [0, 0, 3, 2, 0, 2, 0]

    env = dict(os.environ)
    package_root = str(Path(repstack.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    for argv, (code, out) in zip(sequence, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "repstack.cli", *argv], capture_output=True, env=env, timeout=60
        )
        assert (fresh.returncode, fresh.stdout) == (code, out), argv
