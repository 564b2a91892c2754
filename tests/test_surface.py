"""Lint of the package surface: every keyword default is set by some caller, and some
caller sets it to something other than the default.

A defaulted parameter that no call passes is a constant in disguise: it
adds an option that no test or program exercises.  So is one that every
call passes as the same literal as its default: an option that selects
nothing.  The scan is by name, over the syntax trees of ``src``, ``tests``,
``perfbench`` and ``scripts``: a call ``f(...)`` or ``obj.f(...)`` counts
for every function or method named ``f`` in ``src/seqmeas``.  A parameter
is set when some such call passes it by keyword, reaches its position, or
unpacks ``*args`` or ``**kwargs`` where it could land.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "perfbench", "scripts")


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted_parameters():
    """(location, function name, parameter name, positional index or None, default node) of every
    default."""
    for path, tree in _trees("src/seqmeas"):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            for k, default in zip(range(first, len(positional)), args.defaults):
                yield where, node.name, positional[k].arg, k - bound, default
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, node.name, arg.arg, None, default


def _calls():
    """Function name -> list of (positional count, keyword names, call node); unpacking counts
    as all."""
    calls = defaultdict(list)
    for _, tree in _trees(*CALLER_DIRS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            n_positional = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) \
                else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls[name].append((n_positional, keywords, node))
    return calls


def test_every_keyword_default_is_set_by_some_caller():
    calls = _calls()
    unset = [
        f"{where} {func}({param})"
        for where, func, param, index, _ in _defaulted_parameters()
        if not any(param in keywords or None in keywords
                   or (index is not None and n_positional > index)
                   for n_positional, keywords, _ in calls[func])
    ]
    assert unset == [], "defaulted parameters that no call sets:\n" + "\n".join(unset)


def _passed_value(call: ast.Call, param: str, index: int | None):
    """The node ``call`` passes as ``param``, or the unpacking that could pass it; None if neither."""
    for kw in call.keywords:
        if kw.arg in (param, None):
            return kw.value
    for k, arg in enumerate(call.args if index is not None else ()):
        if isinstance(arg, ast.Starred) or k == index:
            return arg
    return None


def test_no_keyword_default_is_only_ever_passed_as_itself():
    """A default that every passing call spells as the same literal selects nothing."""
    calls = _calls()
    constant = []
    for where, func, param, index, default in _defaulted_parameters():
        passed = [v for v in (_passed_value(node, param, index) for *_, node in calls[func]) if v is not None]
        if passed and isinstance(default, ast.Constant) and all(
                isinstance(v, ast.Constant) and v.value == default.value for v in passed):
            constant.append(f"{where} {func}({param}={default.value!r})")
    assert constant == [], "defaulted parameters every caller sets to the default:\n" + "\n".join(constant)


def test_only_the_cli_formats_artifact_cells():
    """The 17-digit CSV cell format lives in the one artifact writer, so no module grows a second."""
    formatting = [str(path.relative_to(ROOT)) for path in sorted((ROOT / "src").rglob("*.py"))
                  if ".17g" in path.read_text()]
    assert formatting == ["src/seqmeas/cli.py"]
