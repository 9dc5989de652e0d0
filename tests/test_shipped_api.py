"""Every function, class and method in the package has a caller in it.

Library API that only its own unit tests call is code nothing ships.  This
scan parses ``src/hermipir`` and fails on a top-level def or class, or a
non-dunder method, whose name no other code in the package references:
no load of the name and no attribute of that name outside its own body.
Oracles that tests compare against live in the tests instead.  The
allowlist names the exceptions, each with its reason.  The scan matches
bare names, not qualified ones: a method that shares its name with a
method of another class, or with any other name the package reads, is
never flagged, even when nothing calls it.

A second scan fails on a defaulted parameter that no call in the package
or in ``perfbench/`` sets, by keyword or by position: a knob that every
caller leaves at its default is a second code path nothing runs.  Calls
are matched by name, and a call to a class counts as a call to its
``__init__``.  ``KNOBS_ALLOWED`` names the exceptions, each with its reason.

A third scan fails on a parameter of a def in the package that its body
never names: an input nothing reads.  ``UNREAD_ALLOWED`` names the
exceptions, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hermipir"

BENCHMARK_PIN = "patched by name in perfbench/tracing.py"
PAPER_THEOREM = "a comparison theorem of the paper, checked in tests/test_acceptance.py"

ALLOWED = {
    "atlas.elliptic_beats_rational": PAPER_THEOREM,
    "atlas.hermitian_beats_elliptic": PAPER_THEOREM,
    "atlas.hermitian_beats_hyperelliptic": PAPER_THEOREM,
    "atlas.genus_one_formulas_agree": PAPER_THEOREM,
    "atlas.ComparisonReport.agreement": PAPER_THEOREM,
    "curve.CurveFunction.evaluate": BENCHMARK_PIN,
    "linalg.solve_prefix": BENCHMARK_PIN,
    "linalg.select_full_rank_rows": BENCHMARK_PIN,
    "linalg.ColumnSpace": BENCHMARK_PIN,
    "linalg.ColumnSpace.contains": BENCHMARK_PIN,
    "scheme.SchemeInstance.server_answer": BENCHMARK_PIN,
    "transport.send_frame": BENCHMARK_PIN,
    "transport.recv_frame": BENCHMARK_PIN,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each top-level def and class and of each
    non-dunder method."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}", sub


def _references(tree: ast.AST) -> Counter:
    """How often each name, or attribute of that name, is read in `tree`."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
    return out


def _unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualified, node in _definitions(module, tree):
            name = qualified.rsplit(".", 1)[1]
            if everywhere[name] == _references(node)[name]:
                out.append(qualified)
    return out


def test_every_definition_has_a_caller_in_the_package():
    unexpected = [name for name in _unreferenced() if name not in ALLOWED]
    assert not unexpected, f"defined in src/hermipir but referenced only outside it: {unexpected}"


def test_allowlist_entries_are_still_needed():
    stale = sorted(set(ALLOWED) - set(_unreferenced()))
    assert not stale, f"allowlisted names that now have a caller or are gone: {stale}"


KNOBS_ALLOWED: dict[str, str] = {}


def _functions():
    """(qualified prefix, enclosing node, def node) of each def in the
    package; the prefix names the class of a method."""
    for path in sorted(PACKAGE.glob("*.py")):
        parents = {}
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = parents[node]
                prefix = f"{path.stem}.{owner.name}." if isinstance(owner, ast.ClassDef) else f"{path.stem}."
                yield prefix, owner, node


def _defaulted_parameters():
    """(qualified name, callee name, positional index or None, parameter
    name) of each defaulted parameter of a def in the package; the callee
    name of an ``__init__`` is its class, and a method's positional index
    does not count ``self``."""
    for prefix, owner, node in _functions():
        method = isinstance(owner, ast.ClassDef) and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        callee = owner.name if method and node.name == "__init__" else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            name = positional[index].arg
            yield f"{prefix}{node.name}({name})", callee, index - method, name
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{prefix}{node.name}({arg.arg})", callee, None, arg.arg


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the package and in perfbench/, by callee name."""
    out: dict[str, list[ast.Call]] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, index: int | None, name: str) -> bool:
    if index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)):
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def _unset_knobs() -> list[str]:
    calls = _calls()
    return [qualified for qualified, callee, index, name in _defaulted_parameters()
            if not any(_sets(call, index, name) for call in calls.get(callee, []))]


def test_every_defaulted_parameter_is_set_by_a_caller():
    unexpected = [name for name in _unset_knobs() if name not in KNOBS_ALLOWED]
    assert not unexpected, f"defaulted parameters that no call in src/hermipir or perfbench/ sets: {unexpected}"


def test_knob_allowlist_entries_are_still_needed():
    stale = sorted(set(KNOBS_ALLOWED) - set(_unset_knobs()))
    assert not stale, f"allowlisted parameters that a call now sets or that are gone: {stale}"


UNREAD_ALLOWED = {
    "transport.WorkerPool.__exit__(exc)": "the context-manager protocol passes it",
    "transport.WorkerPool.__exit__(tb)": "the context-manager protocol passes it",
}


def _unread_parameters() -> list[str]:
    out = []
    for prefix, _, node in _functions():
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        named = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [f"{prefix}{node.name}({a.arg})" for a in params if a.arg not in named]
    return out


def test_every_parameter_is_named_in_its_body():
    unexpected = [name for name in _unread_parameters() if name not in UNREAD_ALLOWED]
    assert not unexpected, f"parameters that their def in src/hermipir never names: {unexpected}"


def test_unread_allowlist_entries_are_still_needed():
    stale = sorted(set(UNREAD_ALLOWED) - set(_unread_parameters()))
    assert not stale, f"allowlisted parameters that are now named or gone: {stale}"
