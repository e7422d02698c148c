"""Checks on the package source and its documentation."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import layerseal

PROJECT = Path(__file__).resolve().parents[1]


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check that matters must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((PROJECT / "src" / "layerseal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_checks_survive_optimised_mode():
    # The same property by behaviour: under ``python -O`` a corrupt
    # signature is still refused, and a constructed seal still checked.
    code = (
        "from layerseal import InvariantViolation, compute_signature, construct_seal, expand_plan\n"
        "from layerseal import is_seal, message_transmit\n"
        "from layerseal.signature import Signature, _check\n"
        "from progsets import gather_phase\n"
        "sig = compute_signature(message_transmit(1, 2, 2))\n"
        "try:\n"
        "    _check(Signature(2, sig.exits, sig.sends, {(1, 2): (1, 0)}))\n"
        "except InvariantViolation:\n"
        "    print('refused')\n"
        "p = gather_phase(5)\n"
        "print(is_seal(p, expand_plan(construct_seal(p), 5)))\n"
    )
    path = os.pathsep.join((str(Path(layerseal.__file__).resolve().parents[1]), str(PROJECT / "tests")))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert done.stdout == "refused\nTrue\n", done.stderr


def test_library_does_not_import_dataclasses():
    # Importing ``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and
    # ``tokenize``, and every dataclass compiles generated code at import:
    # together more than the analysis of a typical CLI call.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((PROJECT / "src" / "layerseal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_library_does_not_import_typing():
    # Annotations are never evaluated, and in an interpreter whose ``site``
    # loads nothing, ``typing`` with ``contextlib`` costs a call about 4 ms.
    found = [
        path.name
        for path in sorted((PROJECT / "src" / "layerseal").glob("*.py"))
        if any(name.split(".")[0] == "typing" for name in _imported(path))
    ]
    assert found == []


def _imported(path: Path) -> list[str]:
    """Every name a module imports, dotted after its module's name."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
    return imported


# A possessive quantifier (``*+``, ``++``, ``?+``, ``}+``) or an atomic
# group: Python 3.10, which ``requires-python`` admits, refuses both.
_NEW_IN_3_11 = re.compile(r"[*+?}]\+|\(\?>")
_TAKE_A_PATTERN = {"compile", "search", "match", "fullmatch", "split", "findall", "finditer", "sub", "subn"}


def _pattern_text(node: ast.expr, named: dict[str, ast.expr]) -> str:
    """The text of a pattern built from string literals, module-level names
    bound to them, and ``+``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id in named:
        return _pattern_text(named[node.id], named)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _pattern_text(node.left, named) + _pattern_text(node.right, named)
    raise AssertionError(f"line {node.lineno}: a pattern not built from literals")


def test_regular_expressions_run_on_python_3_10():
    assert all(map(_NEW_IN_3_11.search, ("a*+", "[0-9]++", "x?+", "a{2}+", "(?>ab)")))
    patterns = {}
    for path in sorted((PROJECT / "src" / "layerseal").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {
            target.id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "re"
                and node.func.attr in _TAKE_A_PATTERN
            ):
                patterns[f"{path.name}:{node.lineno}"] = _pattern_text(node.args[0], named)
    assert len(patterns) >= 4
    assert [at for at, pattern in patterns.items() if _NEW_IN_3_11.search(pattern)] == []


def test_oracle_imports_neither_signature_nor_sealing():
    # The oracle is the ground truth the signatures and seals are checked
    # against, so it must share no code with them.
    imported = _imported(PROJECT / "src" / "layerseal" / "oracle.py")
    found = [name for name in imported if {"signature", "sealing"} & set(name.split("."))]
    assert found == []


def test_only_the_reviewed_entries_outlive_a_call():
    # A module-level name that a function rebinds keeps state from one call
    # to the next. The one such entry is the memo of ``model.found``,
    # matched by identity and bounded to two programs; another needs its own
    # tests of that contract before it joins this list.
    declared = {
        f"{path.stem}.{name}"
        for path in sorted((PROJECT / "src" / "layerseal").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
        for name in node.names
    }
    assert declared == {"model._found"}


def test_the_analyses_import_their_siblings_at_the_top():
    # The analyses bind what they call from each other when they load, so
    # no query pays for an import statement. The one import in a function
    # body is the listings', which a signature runs only for display.
    found = []
    for stem in ("model", "graph", "signature", "sealing", "plan", "oracle", "parser"):
        tree = ast.parse((PROJECT / "src" / "layerseal" / f"{stem}.py").read_text(encoding="utf-8"))
        found += [
            f"{stem}.{func.name}:{node.module}"
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level
        ]
    assert found == ["signature.nodes:listing", "signature.edges:listing"]


def test_oracle_counts_candidates_in_one_place():
    # The candidate matchings that a budget caps are counted by ``_world``
    # alone: every other count of the oracle would be a second formula.
    path = PROJECT / "src" / "layerseal" / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "perm" or getattr(node.func, "attr", None) == "perm")
    ]
    imported = [name.rsplit(".", 1)[-1] for name in _imported(path)]
    assert callers == ["_world"]
    assert "factorial" not in imported and "prod" not in imported


def test_oracle_reference_shares_no_code_with_the_oracle():
    # The reference in ``tests/oracle_reference.py`` checks the oracle's
    # search, so it may take public types and errors from the package but
    # nothing from the oracle's module and no private name.
    imported = _imported(PROJECT / "tests" / "oracle_reference.py")
    found = [
        name
        for name in imported
        if name.split(".")[0] == "layerseal"
        and any(part == "oracle" or part.startswith("_") for part in name.split("."))
    ]
    assert imported and found == []


def test_parser_reference_shares_no_code_with_the_package():
    # The parser in ``tests/parser_reference.py`` checks ``parse``, so it
    # imports nothing from the package: not even its error kinds.
    imported = _imported(PROJECT / "tests" / "parser_reference.py")
    found = [name for name in imported if name.split(".")[0] in ("layerseal", "")]
    assert imported and found == []


def test_readme_python_example_runs():
    readme = (PROJECT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_resolves():
    # A name left in ``__all__`` after its definition is gone fails here,
    # the package's names through its lazy ``__getattr__``.
    modules = [layerseal] + [
        importlib.import_module(f"layerseal.{path.stem}")
        for path in sorted((PROJECT / "src" / "layerseal").glob("*.py"))
        if not path.stem.startswith("_")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_package_name_is_its_home_modules():
    # The package's export table names each public name's home submodule:
    # a name that drifts from that module's ``__all__`` or definition fails.
    drifted = []
    for name, home in layerseal._HOME.items():
        module = importlib.import_module(f"layerseal.{home}")
        if name not in module.__all__ or getattr(layerseal, name) is not getattr(module, name):
            drifted.append(f"{home}.{name}")
    assert drifted == []


def test_src_line_count_skips_blanks_comments_and_docstrings(tmp_path):
    # CI reports each module's lines and code lines with this script.
    (tmp_path / "m.py").write_text(
        '"""Module\n\ndocstring."""\n\n# comment\nx = f(\n    1,  # one\n    # alone\n    2,\n)\n\n\n'
        'def g():\n    """Docstring."""\n    return """a\nb"""\n'
    )
    done = subprocess.run(
        [sys.executable, str(PROJECT / "tools" / "src_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    # Code: ``x = f(`` through ``)`` bar the lone comment, ``def g():`` and
    # the two lines of the return.
    assert done.stdout.splitlines()[-2:] == ["| m.py | 16 | 7 |", "| **total** | **16** | **7** |"], done
