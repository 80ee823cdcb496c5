"""Every function, class and method in src/hide has a caller.

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
