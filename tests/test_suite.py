"""Checks on the test suite itself."""

import argparse
import ast
from pathlib import Path

import pytest

from puremit.cli import build_parser
from puremit.config import _KNOWN

TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))
SOURCE_ROOT = Path(__file__).parent.parent / "src" / "puremit"
SOURCE_MODULES = sorted(path for path in SOURCE_ROOT.glob("*.py") if path.name != "__init__.py")


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


_MEMOS = {"cache", "lru_cache", "cached_property"}
# the one memo the package keeps: the CLI's argument parser, built on the
# first call of a process; it holds no result of an experiment
_ALLOWED_MEMOS = {("cli.py", "_parser")}


def _memo_lines(path: Path):
    """Lines that name a functools memo in a source module, outside the
    decorators of the functions in _ALLOWED_MEMOS."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and (path.name, fn.name) in _ALLOWED_MEMOS
        for decorator in fn.decorator_list
        for node in ast.walk(decorator)
    }
    # the names functools is bound to, and the memos imported from it
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "functools"
    }
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        imported = isinstance(node, ast.ImportFrom) and node.module == "functools" and any(
            alias.name in _MEMOS for alias in node.names
        )
        read = (
            isinstance(node, ast.Attribute)
            and node.attr in _MEMOS
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
        if imported or read:
            yield node.lineno


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_no_source_module_memoizes_across_calls(path):
    # a memo keyed on a gate, a noise model, an observable or a value
    # would carry work from one experiment into the next, so a repeated
    # study would time a different program than a single run
    lines = list(_memo_lines(path))
    assert not lines, f"{path.name} names a functools memo on lines {lines}"


def test_the_memo_guard_sees_a_memo(tmp_path):
    # the guard flags each way of naming a memo, and the allowed parser
    # memo only where it is allowed
    src = tmp_path / "cli.py"
    src.write_text(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, reduce\n"
        "@functools.cache\n"
        "def _parser():\n"
        "    pass\n"
        "@ft.lru_cache(maxsize=None)\n"
        "def steps(gate):\n"
        "    pass\n"
        "class Obs:\n"
        "    @functools.cached_property\n"
        "    def perms(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    assert sorted(_memo_lines(src)) == [3, 7, 11]
    other = tmp_path / "channels.py"
    other.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    assert sorted(_memo_lines(other)) == [3, 4, 7, 11]


def _sublist_einsum_lines(path: Path):
    """Lines that call einsum in its operand/sublist form, with a first
    argument that is not a subscripts string."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_name(node.func, "einsum"):
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                yield node.lineno


@pytest.mark.parametrize(
    "path", [p for p in SOURCE_MODULES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_only_linalg_calls_einsum_on_sublists(path):
    # a partial trace here is an einsum over the [2] * 2n tensor with each
    # traced column labelled as its row, which takes the sublist form;
    # linalg.partial_trace is the one such trace and linalg._add_embedded
    # its embedding back, so no other module traces qubits out itself
    lines = list(_sublist_einsum_lines(path))
    assert not lines, f"{path.name} calls einsum on sublists on lines {lines}"


def test_the_einsum_guard_sees_a_sublist_call(tmp_path):
    src = tmp_path / "channels.py"
    src.write_text(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "a = np.einsum('ij,ji->', x, y)\n"
        "b = np.einsum(t, [0, 1, 0, 2], [1, 2])\n"
        "c = einsum(t, labels, kept)\n",
        encoding="utf-8",
    )
    assert sorted(_sublist_einsum_lines(src)) == [4, 5]


def _config_keys_named(source: str, function: str) -> list:
    """The string constants in ``function`` that are config keys, compared
    case-insensitively, as the config parser reads keys (``M`` is ``m``)."""
    tree = ast.parse(source)
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function)
    return sorted(
        node.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.lower() in _KNOWN
    )


def test_cmd_sweep_names_no_config_key():
    # a sweep point is the config with the swept key's line replaced and
    # parsed again, so any key sweeps and the sweep names none of its own
    source = (SOURCE_ROOT / "cli.py").read_text(encoding="utf-8")
    assert _config_keys_named(source, "cmd_sweep") == []
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sweep = commands.choices["sweep"]
    (parameter,) = [a for a in sweep._actions if "--parameter" in a.option_strings]
    assert parameter.choices is None


def test_the_sweep_key_guard_sees_a_key():
    source = (
        "def cmd_sweep(args):\n"
        "    if args.parameter == 'M':\n"
        "        return 'copies'\n"
        "    if args.parameter == 'noise.strength':\n"
        "        return f'{args.parameter} = strength'\n"
    )
    assert _config_keys_named(source, "cmd_sweep") == ["M", "noise.strength"]
