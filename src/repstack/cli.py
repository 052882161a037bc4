"""Command-line surface.

Subcommands: threat | solve | build | evaluate | simulate | regret | reduce |
audit-vc.  Every solver quantity is printed as an exact rational; decimals
appear only for the advisory sampled-construction bound, which contains a
square root and is marked with "~".  `--json` switches any command to a
byte-stable machine-readable report.

Exit codes: 0 success, 2 input error, 3 budget exceeded, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import core, gpa, hardness, oracle
from .core import BimatrixGame, InputError, format_rational
from .lp import stackelberg_lp, threat

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_VERIFICATION = 4

# audit-vc's threshold 1 + 1/((n-2) n^(c-1)) has about c * log10(n) digits;
# at n = 20 and c = 1000 that is about 1,300, within Python's int-to-str limit.
MAX_C_EXPONENT = 1000


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_game(path: str) -> BimatrixGame:
    return core.game_from_json(_read_text(path))


def _load_graph(path: str) -> hardness.Graph:
    return hardness.graph_from_text(_read_text(path))


def _emit(args: argparse.Namespace, payload: dict, table_lines: list[str]) -> None:
    try:
        if args.json:
            print(core.stable_json(payload))
        else:
            for line in table_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`repstack ... | head`).  Point stdout
        # at devnull so the flush at exit cannot fail again; the command keeps
        # its exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_threat(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    result = threat(game)
    payload = {
        "value": format_rational(result.value),
        "strategy": [format_rational(w) for w in result.strategy.weights],
    }
    lines = [
        f"V = {format_rational(result.value)}",
        f"x* = [{', '.join(payload['strategy'])}]",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    solution = stackelberg_lp(game)
    support = {
        f"{p.row},{p.col}": format_rational(w)
        for p, w in solution.alpha.items()
        if w > 0
    }
    payload = {
        "opt": format_rational(solution.value),
        "threat_value": format_rational(solution.threat.value),
        "alpha": support,
    }
    lines = [f"OPT_LP = {format_rational(solution.value)}"]
    lines.extend(f"alpha({pair}) = {weight}" for pair, weight in support.items())
    _emit(args, payload, lines)
    return EXIT_OK


def _sampled_bound_text(granularity: int, horizon: int) -> str:
    bound = 4 * (10 * granularity) ** 0.5 / horizon**0.25
    return f"~{bound:.6f}"


def cmd_build(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    horizon = args.horizon
    if args.sampled:
        construction = gpa.sample_prescription(game, horizon, args.seed)
        built = construction.gpa
        payload = {
            "variant": "sampled",
            "T": horizon,
            "seed": args.seed,
            "swaps": construction.swaps,
            "bound": _sampled_bound_text(game.granularity, horizon),
        }
        lines = [
            f"variant = sampled, T = {horizon}, seed = {args.seed}",
            f"swaps = {construction.swaps}",
            f"guaranteed bound 4*sqrt(10A)/T^0.25 {_sampled_bound_text(game.granularity, horizon)} (approximate)",
        ]
    else:
        built, params = gpa.build_deterministic_gpa(game, horizon)
        bound = Fraction(2 * params.cycle_length, horizon)
        refined = Fraction(2 * params.reward_rounds, horizon)
        payload = {
            "variant": "deterministic",
            "T": horizon,
            "N": params.cycle_length,
            "c": params.cycles,
            "r": params.reward_rounds,
            "bound": format_rational(bound),
            "bound_refined": format_rational(refined),
        }
        lines = [
            f"variant = deterministic, T = {horizon}",
            f"N = {params.cycle_length}, c = {params.cycles}, r = {params.reward_rounds}",
            f"guaranteed bound 2N/T = {format_rational(bound)}"
            f" (refined 2r/T = {format_rational(refined)})",
        ]
    text = gpa.gpa_to_json(built)
    if args.json:
        payload["gpa"] = json.loads(text)
    if args.output:
        _write_text(args.output, text)
        lines.append(f"wrote strategy to {args.output}")
    else:
        lines.append(text)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    loaded = gpa.gpa_from_json(_read_text(args.gpa), game)
    if not isinstance(loaded, gpa.PrescribedSequenceGPA):
        raise InputError("evaluate expects a prescribed-sequence strategy file")
    horizon = loaded.horizon
    verdict = oracle.verify_prescription(loaded, game)
    follower_total, leader_total = oracle.evaluate_prescription(loaded, game, args.budget)
    solution = stackelberg_lp(game)
    leader_avg = leader_total / horizon
    follower_avg = follower_total / horizon
    gap = solution.value - leader_avg
    verdict_text = (
        "Obeys"
        if isinstance(verdict, oracle.Obeys)
        else f"DeviationProfitableAt({verdict.round})"
    )
    payload = {
        "T": horizon,
        "verdict": verdict_text,
        "leader_average": format_rational(leader_avg),
        "follower_average": format_rational(follower_avg),
        "opt": format_rational(solution.value),
        "gap": format_rational(gap),
    }
    lines = [
        f"verdict = {verdict_text}",
        f"leader average = {format_rational(leader_avg)}",
        f"follower average = {format_rational(follower_avg)}",
        f"OPT_LP = {format_rational(solution.value)}",
        f"gap = {format_rational(gap)}",
    ]
    _emit(args, payload, lines)
    if not isinstance(verdict, oracle.Obeys):
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    leader = gpa.gpa_from_json(_read_text(args.gpa), game)
    if args.horizon is not None:
        horizon = args.horizon
    elif isinstance(leader, gpa.PrescribedSequenceGPA):
        horizon = leader.horizon
    else:
        raise InputError("-T is required for strategies without a fixed length")
    if args.follower == "obedient":
        if not isinstance(leader, gpa.PrescribedSequenceGPA):
            raise InputError("obedient follower needs a prescribed-sequence strategy")
        follower = gpa.PrescriptionFollower(leader.prescription, game.cols)
    else:
        follower = gpa.MyopicBestResponder(game, leader)
    transcript = oracle.simulate(leader, follower, game, horizon, args.seed)
    leader_avg, follower_avg = core.average_payoffs(transcript)
    payload = {
        "pairs": transcript.pairs,
        "leader_average": format_rational(leader_avg),
        "follower_average": format_rational(follower_avg),
    }
    lines = [
        "transcript = " + " ".join(f"({p.row},{p.col})" for p in transcript.pairs),
        f"leader average = {format_rational(leader_avg)}",
        f"follower average = {format_rational(follower_avg)}",
    ]
    if args.output:
        _write_text(args.output, core.transcript_to_json(transcript))
        lines.append(f"wrote transcript to {args.output}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_regret(args: argparse.Namespace) -> int:
    game = _load_game(args.game)
    transcript = core.transcript_from_json(_read_text(args.transcript), game)
    report = oracle.external_regret(transcript, game, args.side)
    per_round = report.total_regret / len(transcript)
    payload = {
        "total_regret": format_rational(report.total_regret),
        "best_fixed_action": report.best_fixed_action,
        "realized_total": format_rational(report.realized_total),
    }
    lines = [
        f"total regret = {format_rational(report.total_regret)}",
        f"per-round regret = {format_rational(per_round)}",
        f"best fixed action = {report.best_fixed_action}",
        f"realized total = {format_rational(report.realized_total)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    game3 = hardness.reduce_graph(graph)
    text = game3.to_json()
    if args.output:
        _write_text(args.output, text)
    counts = game3.strategy_counts
    payload = json.loads(text) if args.json else {}
    lines = [
        f"players 1 and 2: {counts[0]} strategies each; player 3: {counts[2]} strategies",
    ]
    if args.output:
        lines.append(f"wrote three-player game to {args.output}")
    else:
        lines.append(text)
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_audit_vc(args: argparse.Namespace) -> int:
    if args.resolution < 1:
        raise InputError("resolution must be at least 1")
    if not 0 <= args.c_exponent <= MAX_C_EXPONENT:
        raise InputError(f"--c-exponent must be in 0..{MAX_C_EXPONENT}, got {args.c_exponent}")
    graph = _load_graph(args.graph)
    cover = hardness.balanced_vertex_cover(graph)
    game3 = hardness.reduce_graph(graph)
    if cover is not None:
        p1, p2 = hardness.cover_strategies(graph, cover)
        action, value = hardness.player3_audit(game3, p1, p2)
        payload = {
            "balanced_cover": list(cover),
            "p3_best_action": game3.p3_label(action),
            "p3_best_value": format_rational(value),
        }
        lines = [
            f"balanced vertex cover: {{{', '.join(str(v) for v in cover)}}}",
            f"player 3 best reply to cover strategies: {game3.p3_label(action)}"
            f" with value {format_rational(value)}",
        ]
        _emit(args, payload, lines)
        if value != 1 or action != 0:
            return EXIT_VERIFICATION
        return EXIT_OK
    threshold = 1 + 1 / (Fraction(graph.n - 2) * Fraction(graph.n) ** (args.c_exponent - 1))
    worst = hardness.grid_audit_player3(game3, args.resolution)
    certified = worst > threshold
    payload = {
        "balanced_cover": None,
        "resolution": args.resolution,
        "c_exponent": args.c_exponent,
        "grid_worst_case": format_rational(worst),
        "threshold": format_rational(threshold),
        "certified_on_grid": certified,
    }
    lines = [
        "no balanced vertex cover exists",
        f"grid worst case (resolution {args.resolution}) = {format_rational(worst)}",
        f"threshold 1 + 1/((n-2) n^(c-1)) = {format_rational(threshold)}",
        "grid certificate: " + ("holds at every grid point" if certified else "FAILS"),
    ]
    _emit(args, payload, lines)
    return EXIT_OK if certified else EXIT_VERIFICATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; each `parse_args` call starts afresh."""
    parser = argparse.ArgumentParser(
        prog="repstack",
        description="Exact solver toolkit for leader commitments in finite-horizon repeated games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("threat", help="follower minimax value and threat strategy")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_threat)

    p = sub.add_parser("solve", help="commitment LP: optimal pair distribution")
    p.add_argument("game")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("build", help="construct a prescribed-sequence strategy")
    p.add_argument("game")
    p.add_argument("-T", "--horizon", type=int, required=True)
    p.add_argument("--sampled", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", help="write the strategy JSON here")
    add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("evaluate", help="verify and oracle-evaluate a strategy file")
    p.add_argument("game")
    p.add_argument("gpa")
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_STATE_BUDGET)
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("simulate", help="play a strategy against a follower")
    p.add_argument("game")
    p.add_argument("gpa")
    p.add_argument("-T", "--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--follower", choices=("obedient", "myopic"), default="obedient")
    p.add_argument("-o", "--output", help="write the transcript JSON here")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("regret", help="external regret of one side of a transcript")
    p.add_argument("game")
    p.add_argument("transcript")
    p.add_argument("--side", choices=("leader", "follower"), default="leader")
    add_common(p)
    p.set_defaults(func=cmd_regret)

    p = sub.add_parser("reduce", help="graph to three-player hardness instance")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="write the game JSON here")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("audit-vc", help="audit the reduction on a graph")
    p.add_argument("graph")
    p.add_argument("--resolution", type=int, default=8)
    p.add_argument("--c-exponent", type=int, default=5)
    add_common(p)
    p.set_defaults(func=cmd_audit_vc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except oracle.StateSpaceExceeded as exc:
        print(f"error: {exc}; reduce T or raise --budget", file=sys.stderr)
        return EXIT_BUDGET
    except hardness.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
