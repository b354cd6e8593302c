"""No library code that only the tests call.

Every public top-level function and class of `src/su2reduce` must be
named somewhere in the package or the benchmark harness, as a `Name` or
as the attribute of an `Attribute`. The check functions listed in
`checks.COMMANDS` are looked up by name at run time, so they count as
used. Every public method, property and dataclass field of a class there
must be read in the same files, as a loaded attribute or as the
attribute-name argument of `getattr` or `hasattr`. Any other string, such
as a report key that happens to spell a member's name, does not count.
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


def public_members(tree):
    """(class, member) for the public methods, properties and annotated
    fields of every class in the module."""
    return {(cls.name, name) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for name in (member_name(node) for node in cls.body)
            if name and not name.startswith("_")}


def member_name(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def read_names(tree):
    return {name for name in map(read_name, ast.walk(tree)) if name}


def read_name(node):
    """The member a loaded attribute or a getattr/hasattr call reads, if any."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
        return node.args[1].value
    return None


def parsed():
    assert SOURCES and HARNESS
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in SOURCES + HARNESS}


def test_every_public_definition_is_used_outside_the_tests():
    defined, used = {}, set()
    for path, tree in parsed().items():
        used |= used_names(tree)
        if path in SOURCES:
            defined.update(dict.fromkeys(public_definitions(tree), path.name))
    used |= {name for names in checks.COMMANDS.values() for name in names}
    unused = sorted(f"{defined[name]}: {name}" for name in defined.keys() - used)
    assert not unused, "public definitions that only the tests use: " + ", ".join(unused)


def test_every_public_class_member_is_read_outside_the_tests():
    members, read = {}, set()
    for path, tree in parsed().items():
        read |= read_names(tree)
        if path in SOURCES:
            members.update(dict.fromkeys(public_members(tree), path.name))
    assert members
    unread = sorted(f"{members[key]}: {'.'.join(key)}" for key in members if key[1] not in read)
    assert not unread, "class members that only the tests read: " + ", ".join(unread)


def test_member_scan_counts_loads_and_strings_but_not_stores():
    # the scan behind the check above, on a module small enough to read:
    # a member counts as read when it is loaded or named to getattr or
    # hasattr; an assignment to it, a string that only spells its name (a
    # report key), a private member or a plain class constant does not count
    tree = ast.parse(
        "class Trace:\n"
        "    steps: int\n"
        "    final: float\n"
        "    label: str\n"
        "    _cache: dict\n"
        "    LIMIT = 3\n"
        "    def summary(self): return getattr(self, 'label')\n"
        "    @property\n"
        "    def last(self): return self.steps\n"
        "def use(t):\n"
        "    t.final = 0.0\n"
        "    return {'last': t.summary()}\n"
    )
    assert public_members(tree) == {("Trace", name)
                                    for name in ("steps", "final", "label", "summary", "last")}
    read = read_names(tree)
    assert {"steps", "label", "summary"} <= read
    assert not {"final", "last"} & read
