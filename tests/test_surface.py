"""Lint of the package surface: every public function and class has a program caller; every
keyword default is set by some program caller, and some program caller sets it to something
other than the default; every CLI option is read by the CLI.

A public function or class that only tests reach serves no command: it is test code kept in
the package.  It has a caller when some program file loads its name, as a variable or an
attribute, outside its own definition and outside ``seqmeas/__init__.py`` (a re-export is not a
use).  A string in ``perfbench`` that equals the name counts too: a benchmark layer patches the
function by that name.  Docstrings and comments do not count.

A defaulted parameter that no program call passes is a constant in disguise: it
adds an option that no run of the program exercises, even when tests set it.  So
is one that every call passes as the same literal as its default: an option that
selects nothing.  The scan is by name, over the syntax trees of the program's
callers, ``src``, ``perfbench`` and ``scripts`` (not ``tests``): a call ``f(...)``
or ``obj.f(...)`` counts for every function or method named ``f`` in
``src/seqmeas``.  A parameter is set when some such call passes it by keyword,
reaches its position, or unpacks ``*args`` or ``**kwargs`` where it could land.
"""

from __future__ import annotations

import argparse
import ast
from collections import defaultdict
from pathlib import Path

from seqmeas import cli

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "perfbench", "scripts")


def _trees(*dirs: str):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _loaded_names():
    """Name -> the (file, enclosing top-level definition) pairs of the program that load it."""
    loads = defaultdict(set)
    for path, tree in _trees(*CALLER_DIRS):
        where = path.relative_to(ROOT)
        if where == Path("src/seqmeas/__init__.py"):
            continue
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        strings = where.parts[0] == "perfbench"
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                elif strings and isinstance(node, ast.Constant) and id(node) not in docstrings:
                    name = node.value
                else:
                    continue
                loads[name].add((where, getattr(statement, "name", None)))
    return loads


def test_every_public_function_and_class_has_a_program_caller():
    loads = _loaded_names()
    unused = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _trees("src/seqmeas") for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not loads[node.name] - {(path.relative_to(ROOT), node.name)}
    ]
    assert unused == [], "public functions and classes that no program code uses:\n" + "\n".join(unused)


def test_a_benchmark_layer_name_is_a_caller_and_a_docstring_is_not():
    """check_assumption2 is named in three quantum docstrings, but only perfbench's layer table
    loads it."""
    assert _loaded_names()["check_assumption2"] == {(Path("perfbench/spans.py"), None)}


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


def _dests(parser: argparse.ArgumentParser):
    """(command, dest) of every settable value of ``parser`` and of each of its subparsers."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                yield from ((command, dest) for _, dest in _dests(sub))
        elif action.default is not argparse.SUPPRESS:
            yield parser.prog, action.dest


def _names_read_from_args(tree: ast.AST) -> set[str]:
    """Every ``args.<name>``, and every string that ``getattr(args, x)`` reads, ``x`` a literal or
    the target of a loop or comprehension over literals."""
    read, loops = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        for loop in getattr(node, "generators", [node] if isinstance(node, ast.For) else []):
            if isinstance(loop.target, ast.Name) and isinstance(loop.iter, (ast.Tuple, ast.List)):
                loops.setdefault(loop.target.id, []).extend(e.value for e in loop.iter.elts
                                                             if isinstance(e, ast.Constant))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "args"):
            name = node.args[1]
            read.update([name.value] if isinstance(name, ast.Constant) else loops.get(getattr(name, "id", None), []))
    return read


def test_every_cli_option_is_read_by_the_cli():
    """An option whose value no command reads selects nothing: a dead flag."""
    read = _names_read_from_args(ast.parse((ROOT / "src/seqmeas/cli.py").read_text()))
    dead = [f"{command} {dest}" for command, dest in _dests(cli.build_parser()) if dest not in read]
    assert dead == [], "CLI options that cli.py never reads:\n" + "\n".join(dead)
