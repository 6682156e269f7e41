"""Checks on the test suite itself."""

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))


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


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_test_module_defines_a_name_twice(path):
    # a second definition silently replaces the first, so pytest would
    # collect only one of two same-named tests
    seen = {}
    twice = []
    for name, line in _top_level_names(ast.parse(path.read_text(encoding="utf-8"))):
        if name in seen:
            twice.append(f"{name} (lines {seen[name]} and {line})")
        seen.setdefault(name, line)
    assert not twice, f"{path.name} defines twice: {', '.join(twice)}"
