"""Lint: every function and method in ``src/qhsplit`` is used by ``src/`` itself.

A name that only the tests call is code that no criterion, CLI path or
paper claim needs.  The check works on the AST: a module-level function
must be named (as a name or an attribute) somewhere in ``src/``, and a
method other than a dunder must be referenced as an attribute there.  The
benchmark wraps some callables by name from outside, so a name that
``perfbench/*.py`` mentions, as a dotted string or as an attribute, is
exempt.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _used(trees):
    """(names, attributes) referenced anywhere in the trees."""
    names, attributes = set(), set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _benchmark_names():
    names = set()
    for _, tree in _trees(sorted((ROOT / "perfbench").glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and DOTTED.fullmatch(node.value)):
                names.update(node.value.split("."))
    return names


def test_no_src_name_is_used_only_outside_src():
    trees = _trees(sorted((ROOT / "src" / "qhsplit").glob("*.py")))
    names, attributes = _used(trees)
    exempt = _benchmark_names()
    unused = []
    for path, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if node.name not in names | attributes | exempt:
                    unused.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not re.fullmatch(r"__\w+__", item.name)
                            and item.name not in attributes | exempt):
                        unused.append(f"{node.name}.{item.name}")
    assert unused == []
