"""Every function, class and method in the package has a caller in it.

Library API that only its own unit tests call is code nothing ships.  This
scan parses ``src/hermipir`` and fails on a top-level def or class, or a
non-dunder method, whose name no other code in the package references:
no load of the name and no attribute of that name outside its own body.
Oracles that tests compare against live in the tests instead.  The
allowlist names the exceptions, each with its reason.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermipir"

BENCHMARK_PIN = "patched by name in perfbench/tracing.py"
PAPER_THEOREM = "a comparison theorem of the paper, checked in tests/test_acceptance.py"

ALLOWED = {
    "atlas.elliptic_beats_rational": PAPER_THEOREM,
    "atlas.hermitian_beats_elliptic": PAPER_THEOREM,
    "atlas.hermitian_beats_hyperelliptic": PAPER_THEOREM,
    "atlas.genus_one_formulas_agree": PAPER_THEOREM,
    "curve.CurveFunction.evaluate": BENCHMARK_PIN,
    "linalg.solve_prefix": BENCHMARK_PIN,
    "linalg.select_full_rank_rows": BENCHMARK_PIN,
    "linalg.ColumnSpace": BENCHMARK_PIN,
    "linalg.ColumnSpace.contains": BENCHMARK_PIN,
    "scheme.SchemeInstance.server_answer": BENCHMARK_PIN,
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
