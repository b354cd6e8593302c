"""No library code that only the tests call.

Every public top-level function and class of `src/su2reduce` must be
named somewhere in the package or the benchmark harness, as a `Name` or
as the attribute of an `Attribute`. The check functions listed in
`checks.COMMANDS` are looked up by name at run time, so they count as
used. Every public method, property and dataclass field of a class there
must be read in the same files, as a loaded attribute or as the
attribute-name argument of `getattr` or `hasattr`. Any other string, such
as a report key that happens to spell a member's name, does not count.
And no module of `src/su2reduce` reads another module's private name: what
one module shares with another is public. A private module (`_draws`) is
the package's own, so its public names are read like any module's. And
every name the benchmark's tracer looks up exists: each module of its
`LAYERS` is an attribute of the package, each of its `STUDIES` a public
function of `checks`.
"""

import ast
import inspect
from pathlib import Path

import su2reduce
from su2reduce import checks, cli  # noqa: F401  (the traced child imports cli too)

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


def private_reads(tree):
    """The private names of other package modules that tree reads: `module._name`
    of a module it imports by `from . import module`, and `from .module import _name`."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
    modules = {alias.asname or alias.name for node in imports if node.module is None for alias in node.names}
    return ({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and private(node.attr)}
            | {f"{node.module}.{alias.name}" for node in imports if node.module
               for alias in node.names if private(alias.name)})


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


def test_no_module_reads_another_modules_private_name():
    reads = sorted(f"{path.name}: {name}" for path, tree in parsed().items() if path in SOURCES
                   for name in private_reads(tree))
    assert not reads, "private names read from another module: " + ", ".join(reads)


def test_the_tracer_names_only_layers_and_studies_that_exist():
    # Tracer.install takes each layer by getattr(su2reduce, name) and marks each study
    # among the public functions of checks: a layer module or a study renamed away would
    # crash, or silently drop from, every traced benchmark run
    tree = parsed()[ROOT / "benchmarks" / "tracer.py"]
    names = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("LAYERS", "STUDIES")}
    assert names.get("LAYERS") and names.get("STUDIES")
    missing = [m for m in names["LAYERS"] if not inspect.ismodule(getattr(su2reduce, m, None))]
    assert not missing, "tracer layers that are no module of the package: " + ", ".join(missing)
    public = {name for name, obj in vars(checks).items() if not name.startswith("_")
              and inspect.isfunction(obj) and obj.__module__ == checks.__name__}
    unknown = sorted(set(names["STUDIES"]) - public)
    assert not unknown, "tracer studies that are no public function of checks: " + ", ".join(unknown)


def test_private_read_scan_flags_module_attributes_and_imports():
    # a private attribute of an imported package module, and a private name imported
    # from one, are flagged; the module's own private names, an attribute of
    # anything else, a dunder and a private module imported whole are not
    tree = ast.parse(
        "from . import lattice, _draws as dr\n"
        "from .config import _number, load_config\n"
        "def _own(x): return x._cache\n"
        "def use(g): return lattice._difference(g), dr.Generator(0), lattice.__name__, _own(g)\n"
    )
    assert private_reads(tree) == {"lattice._difference", "config._number"}


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
