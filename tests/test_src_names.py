"""Lint of the names in ``src/qhsplit``, on the AST.

Every function and method is used by ``src/`` itself: a name that only the
tests call is code that no criterion, CLI path or paper claim needs.  A
module-level function must be named (as a name or an attribute) somewhere in
``src/``, and a method other than a dunder must be referenced as an attribute
there.  The benchmark's tracer wraps some callables by name from outside, so
the names it wraps or probes (the attributes in ``METHODS`` and the keys of
``PROBES`` in ``perfbench/tracer.py``) are exempt.

No module imports another module's underscore name: a private name stays
inside the module that defines it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "qhsplit").glob("*.py"))


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


def _traced_names():
    """The attributes in the tracer's ``METHODS`` and the names its ``PROBES`` key."""
    (_, tree), = _trees([ROOT / "perfbench" / "tracer.py"])
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    names = {attr for _, _, attrs, _ in ast.literal_eval(values["METHODS"]) for attr in attrs}
    names.update(ast.literal_eval(key).rsplit(".", 1)[-1] for key in values["PROBES"].keys)
    return names


def test_no_src_name_is_used_only_outside_src():
    trees = _trees(SRC)
    names, attributes = _used(trees)
    exempt = _traced_names()
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


def test_no_module_imports_a_private_name_of_another():
    imported = []
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [f"{path.stem}: {node.module}.{alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []
