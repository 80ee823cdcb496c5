"""Every function, class and method in src/hide has a caller, and every
module-level import in src/hide is read by its module.

A name counts as used when it appears as a name, an attribute or an
imported name anywhere in src/hide, in tests/test_acceptance.py or under
perfbench/. The rest of the test suite does not count: a helper that
only unit tests call is code the program never runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hide"

# adam_step is the reference update the vectorized Adam tests compare
# Adam.step against, so only the unit tests call it
EXEMPT = {"adam_step"}


def _trees(paths):
    return [(p, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in paths]


def _definitions(path, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, f"{path.relative_to(ROOT)}:{item.lineno}"


def _used_names(trees):
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def test_every_definition_in_src_is_used_outside_unit_tests():
    src = _trees(sorted(SRC.rglob("*.py")))
    callers = _trees([ROOT / "tests" / "test_acceptance.py",
                      *sorted((ROOT / "perfbench").rglob("*.py"))])
    used = _used_names(src + callers)
    unused = sorted(f"{where} {name}" for path, tree in src
                    for name, where in _definitions(path, tree)
                    if name not in used and name not in EXEMPT)
    assert not unused, "defined in src/hide but never used:\n" + "\n".join(unused)


def _imported_names(tree):
    """(bound name, line) of each module-level import; `from __future__` skipped."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno


def _exported_names(tree):
    """The string entries of a module-level `__all__` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def _unused_imports(tree):
    """(name, line) of each module-level import the module never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= _exported_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in read]


def test_every_import_in_src_is_used_by_its_module():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in _trees(sorted(SRC.rglob("*.py")))
              for name, line in _unused_imports(tree)]
    assert not unused, "imported in src/hide but never used:\n" + "\n".join(unused)


def test_an_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport json as js\nfrom typing import Dict, List\n"
                     "__all__ = ['Dict']\n"
                     "def f() -> List[int]:\n    return os.getcwd()\n")
    assert _unused_imports(tree) == [("js", 3)]
