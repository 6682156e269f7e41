"""Checks on the test suite itself."""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))
SOURCE_MODULES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "puremit").glob("*.py")
    if path.name != "__init__.py"
)


def _top_level_names(tree: ast.Module):
    """(name, line) for each function, class and plain-name assignment at
    module level, in order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


@pytest.mark.parametrize("path", TEST_MODULES + SOURCE_MODULES, ids=lambda p: p.name)
def test_no_test_module_defines_a_name_twice(path):
    # a second definition silently replaces the first, so pytest would
    # collect only one of two same-named tests, and a source module would
    # keep only the second of two same-named functions
    seen = {}
    twice = []
    for name, line in _top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
        if name in seen:
            twice.append(f"{name} (lines {seen[name]} and {line})")
        seen.setdefault(name, line)
    assert not twice, f"{path.name} defines twice: {', '.join(twice)}"


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_no_source_module_imports_an_unused_name(path):
    # the package __init__ imports to re-export; every other module should
    # use each name it imports, so code moved between modules leaves no
    # stale import behind
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    # an attribute chain such as np.linalg.eigh starts with the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported.items() if name not in used]
    assert not unused, f"{path.name} never uses {', '.join(sorted(unused))}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCE_MODULES if p.name != "observables.py"], ids=lambda p: p.name
)
def test_only_observables_reads_pauli_strings_as_permutations(path):
    # how a Pauli string is read against a product of matrices is decided
    # in puremit.observables alone; other modules go through its readers
    tree = ast.parse(path.read_text(encoding="utf-8"))
    named = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "pauli_permutation")
        or (isinstance(node, ast.Attribute) and node.attr == "pauli_permutation")
        or (isinstance(node, ast.alias) and node.name == "pauli_permutation")
    ]
    assert not named, f"{path.name} names pauli_permutation on lines {named}"


def _is_name(node, name: str) -> bool:
    """Whether ``node`` reads or imports ``name``, bare or as an attribute."""
    if isinstance(node, ast.Name):
        return node.id == name and not isinstance(node.ctx, ast.Store)
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.alias) and node.name == name
    )


def _guarded_lines(tree: ast.Module):
    """Lines that read DENOMINATOR_FLOOR or raise VanishingDenominatorError
    outside the function ``checked_ratio``."""
    inside = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "checked_ratio"
        for node in ast.walk(fn)
    }
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        raised = isinstance(node, ast.Raise) and node.exc is not None and any(
            _is_name(n, "VanishingDenominatorError") for n in ast.walk(node.exc)
        )
        if raised or _is_name(node, "DENOMINATOR_FLOOR"):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_only_checked_ratio_guards_a_denominator(path):
    # whether an exact ratio exists is decided in schemes.checked_ratio
    # alone, which NaN and infinities fail; every other ratio goes through it
    lines = list(_guarded_lines(ast.parse(path.read_text(encoding="utf-8"))))
    assert not lines, f"{path.name} guards a denominator itself on lines {lines}"
