"""The source rules of ROADMAP aim 2, checked over `src/repstack/*.py`.

Each rule names the nodes it forbids and the scopes allowed to hold them.  A
scope is a module (`core`), a class (`gpa.MultiplicativeWeightsGPA`) or a
function (`cli.cmd_build`), and allowing one allows everything inside it.
A violation reads `module:line in scope`, the innermost scope of the node.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repstack"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def walk(node: ast.AST, scopes: tuple[str, ...]):
    """Yield every node under `node` with the scopes enclosing it, outermost
    first; a class or function is inside its own scope."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scopes += (f"{scopes[-1]}.{node.name}",)
    yield node, scopes
    for child in ast.iter_child_nodes(node):
        yield from walk(child, scopes)


def _imported(node: ast.AST) -> list[str]:
    """The top-level packages an absolute import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.partition(".")[0]]
    return []


def _callee(node: ast.AST) -> str | None:
    """The name a call calls: `f` for both `f(...)` and `x.f(...)`."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _calls_builtin(node: ast.AST, name: str) -> bool:
    """`name(...)`, called by its bare name."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _scales(node: ast.AST) -> bool:
    """`x.numerator * (scale // x.denominator)`, in either order."""

    def scaled(factor: ast.AST, quotient: ast.AST) -> bool:
        return (
            getattr(factor, "attr", None) == "numerator"
            and isinstance(quotient, ast.BinOp)
            and isinstance(quotient.op, ast.FloorDiv)
            and getattr(quotient.right, "attr", None) == "denominator"
        )

    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    return scaled(node.left, node.right) or scaled(node.right, node.left)


# name: (forbidden-node predicate, allowed scopes)
RULES = {
    "stdlib imports only": (
        lambda node: any(name not in sys.stdlib_module_names for name in _imported(node)),
        set(),
    ),
    "one JSON decoder": (
        # core.decode_json maps every decoding failure to InputError; cmd_build
        # and cmd_reduce re-read the JSON the program itself just wrote.
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "loads"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json",
        {"core.decode_json", "cli.cmd_build", "cli.cmd_reduce"},
    ),
    "one draw hash": (lambda node: "hashlib" in _imported(node), {"_rng"}),
    "floats in their quarantine": (
        # The multiplicative-weights learner and the code that plays it are
        # float by contract; so is the CLI's advisory sampled bound.
        lambda node: _calls_builtin(node, "float")
        or (isinstance(node, ast.Constant) and isinstance(node.value, float)),
        {"gpa.MultiplicativeWeightsGPA", "gpa.MyopicBestResponder.strategy_at",
         "oracle._sample_action", "cli._sampled_bound_text"},
    ),
    "pairs from the pair table": (
        # core builds the table and parses pairs from files; the other two
        # scopes build pairs with no game at hand.
        lambda node: _callee(node) == "ActionPair",
        {"core", "gpa._history_from_key", "oracle.BestResponseResult.follower_policy"},
    ),
    # The reference threat and commitment programs live in tests/conftest.py.
    "no LinearProgram": (lambda node: _callee(node) == "LinearProgram", set()),
    "games built only in core": (lambda node: _callee(node) == "BimatrixGame", {"core"}),
    "game LPs reach the integer core directly": (
        lambda node: _callee(node) in {"simplex_solve", "threat_program"},
        set(),
    ),
    "one as_integers": (_scales, {"core.as_integers"}),
    "one integer-token reader": (
        lambda node: _calls_builtin(node, "int"),
        {"core.parse_rational", "core.parse_integer_token", "gpa._read_written_prescription"},
    ),
}


def violations(rule: str, trees: dict[str, ast.Module]) -> list[str]:
    forbidden, allowed = RULES[rule]
    return [
        f"{module}:{node.lineno} in {scopes[-1]}"
        for module, tree in trees.items()
        for node, scopes in walk(tree, (module,))
        if forbidden(node) and not allowed.intersection(scopes)
    ]


def constructor_only_wrappers(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level functions that only return `Class(...)` of their own
    parameters, in order, for any class of the package.  A name kept for
    callers outside src/ is an alias of its class (`name = Class`)."""
    classes = {node.name for tree in trees.values() for node in tree.body if isinstance(node, ast.ClassDef)}
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            call = body[0].value
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            passed = [arg.id for arg in call.args if isinstance(arg, ast.Name)] + [
                kw.arg for kw in call.keywords if isinstance(kw.value, ast.Name) and kw.value.id == kw.arg
            ]
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            every_argument = len(passed) == len(call.args) + len(call.keywords)
            if call.func.id in classes and every_argument and passed == params:
                found.append(f"{module}:{node.lineno} in {module}.{node.name}")
    return found


# One violation per rule, planted as a last line where nothing allows it,
# and the scope it is reported in.
PLANTED = {
    "stdlib imports only": ("lp", "import os, numpy.linalg", "lp"),
    "one JSON decoder": ("cli", "def cmd_solve(text): return json.loads(text)", "cli.cmd_solve"),
    "one draw hash": ("oracle", "from hashlib import blake2b", "oracle"),
    "floats in their quarantine": ("gpa", "class MyopicBestResponder: x = 0.5", "gpa.MyopicBestResponder"),
    "pairs from the pair table": ("oracle", "def f(i, j): return core.ActionPair(i, j)", "oracle.f"),
    "no LinearProgram": ("lp", "def threat(game): return LinearProgram(game)", "lp.threat"),
    "games built only in core": ("hardness", "game = BimatrixGame(m1, m2)", "hardness"),
    "game LPs reach the integer core directly": ("lp", "value = lp.simplex_solve(program)", "lp"),
    "one as_integers": ("gpa", "def f(x, n): return (n // x.denominator) * x.numerator", "gpa.f"),
    "one integer-token reader": ("core", "def parse_pair(text): return int(text)", "core.parse_pair"),
}


def planted(module: str, line: str) -> tuple[dict[str, ast.Module], str]:
    """The package with `line` appended to `module`, and where it lands."""
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    return {**TREES, module: ast.parse(source + line)}, f"{module}:{source.count(chr(10)) + 1}"


@pytest.mark.parametrize("rule", RULES)
def test_source_keeps_rule(rule: str) -> None:
    assert violations(rule, TREES) == []


@pytest.mark.parametrize("rule", RULES)
def test_rule_flags_planted_violation(rule: str) -> None:
    module, line, scope = PLANTED[rule]
    trees, where = planted(module, line)
    assert violations(rule, trees) == [f"{where} in {scope}"]


@pytest.mark.parametrize("rule", RULES)
def test_no_allowance_is_stale(rule: str) -> None:
    """Each allowed scope exists and holds a node its rule forbids, so an
    exemption that a refactor made unnecessary fails until it is removed."""
    forbidden, allowed = RULES[rule]
    walked = (item for module, tree in TREES.items() for item in walk(tree, (module,)))
    assert allowed - {scope for node, scopes in walked if forbidden(node) for scope in scopes} == set()


def test_source_defines_no_constructor_only_wrappers() -> None:
    assert constructor_only_wrappers(TREES) == []


def test_constructor_only_wrapper_is_flagged() -> None:
    trees, where = planted("gpa", 'def pair(row, col):\n    """A pair."""\n    return ActionPair(row, col=col)\n')
    assert constructor_only_wrappers(trees) == [f"{where} in gpa.pair"]
