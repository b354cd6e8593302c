"""No library code that only the tests call.

Every public top-level function and class of `src/su2reduce` must be
named somewhere in the package or the benchmark harness, as a `Name` or
as the attribute of an `Attribute`. The check functions listed in
`checks.COMMANDS` are looked up by name at run time, so they count as
used.
"""

import ast
from pathlib import Path

from su2reduce import checks

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "su2reduce").glob("*.py"))
HARNESS = sorted((ROOT / "benchmarks").glob("*.py"))


def public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def used_names(tree):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_used_outside_the_tests():
    assert SOURCES and HARNESS
    defined, used = {}, set()
    for path in SOURCES + HARNESS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= used_names(tree)
        if path in SOURCES:
            defined.update(dict.fromkeys(public_definitions(tree), path.name))
    used |= {name for names in checks.COMMANDS.values() for name in names}
    unused = sorted(f"{defined[name]}: {name}" for name in defined.keys() - used)
    assert not unused, "public definitions that only the tests use: " + ", ".join(unused)
