"""Command-line surface: outputs, exit codes, JSON stability."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repstack.cli import main

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


def test_regret_command(tmp_path, capsys) -> None:
    game_path = tmp_path / "game.json"
    game_path.write_text(TENSION)
    transcript_path = tmp_path / "transcript.json"
    transcript_path.write_text(json.dumps({"pairs": [[2, 2]] * 16}))
    code, out = run(capsys, "regret", str(game_path), str(transcript_path), "--side", "leader")
    assert code == 0
    assert "per-round regret = 1/4" in out
    assert "best fixed action = 1" in out


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


@pytest.mark.parametrize("game", ['{"M1": 5, "M2": 5}', '{"M1": [5], "M2": [5]}'])
def test_malformed_game_file_exits_2(tmp_path, capsys, game) -> None:
    path = tmp_path / "game.json"
    path.write_text(game)
    assert main(["threat", str(path)]) == 2
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
