"""Every public name, class member and parameter default of the package is used inside it.

A function, class, constant, method, property or dataclass field that only
tests reach ships no behaviour.  So each public name defined at the top of a
module under src/nonconv must be read somewhere in src/nonconv, as a name or
an attribute, and each public member of a class defined there must be read
somewhere in src/nonconv as an attribute, outside the class's own
``__post_init__``: a field that is only validated ships no behaviour either.
Likewise a defaulted parameter that no call in the package passes is a knob
only tests turn: each must be passed by some call in src/nonconv.  And no
module imports scipy, at the top or inside a function.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nonconv"

# public names kept without a caller in the package, each with its reason
ALLOWED = {
    "sample_paths": "perfbench/tracer.py binds it by name to count path draws",
    "batch_sums": (
        "perfbench/tracer.py binds it by name to count terms; it is the one-N case of block_sums"
    ),
    "neighborhood": (
        "perfbench/tracer.py binds it by name; it is the per-point oracle of neighborhood_sizes"
    ),
    "replicate_sums": (
        "perfbench/tracer.py binds it by name to count terms; it is the one-N case of sums_over_grid"
    ),
}

# class members kept without a reader in the package, each with its reason
_IN_MANIFEST = "write_manifest writes it to manifest.json through dataclasses.asdict"
ALLOWED_MEMBERS = {
    f"RunManifest.{name}": _IN_MANIFEST
    for name in ("config_hash", "sampling", "version", "wall_clock_s")
}


# defaulted parameters, as function.parameter, kept although no call in the
# package passes them, each with its reason
ALLOWED_UNPASSED = {
    "main.argv": "the entry point: the console script passes nothing, tests and perfbench argv",
    "sample_paths.first_replicate": (
        "sample_paths stays for perfbench/tracer.py and mirrors sample_state_paths"
    ),
    "batch_sums.first_replicate": (
        "batch_sums stays for perfbench/tracer.py and mirrors sample_state_paths"
    ),
}
# also kept: the parameters of the CATALOG makers, which arrive as
# [observable] keys through maker(arity, dim=dim, **sec), and the cache and
# workers parameters of the SUITES checks, which run_suite fills by
# introspection
SUITE_FILLED = ("cache", "workers")


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _members(tree):
    """(class, member) for the methods, properties and annotated fields of top-level classes."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id


def _read(tree, attributes_only=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif not attributes_only and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id


def _unread_members(trees):
    """class.member for the members of top-level classes that no attribute read reaches.

    Reads inside the class's own ``__post_init__`` do not count.
    """
    reads = Counter(name for tree in trees.values() for name in _read(tree, attributes_only=True))
    own = Counter(
        f"{cls.name}.{name}"
        for tree in trees.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        for name in _read(node, attributes_only=True)
    )
    return {
        f"{cls}.{name}"
        for tree in trees.values()
        for cls, name in _members(tree)
        if reads[name] <= own[f"{cls}.{name}"]
    }


def test_every_public_name_has_a_caller():
    trees = _trees()
    read = {name for tree in trees.values() for name in _read(tree)}
    defined = {(module, name) for module, tree in trees.items() for name in _defined(tree)}
    unread = sorted(
        f"{module}.{name}"
        for module, name in defined
        if not name.startswith("_") and name not in read and name not in ALLOWED
    )
    assert unread == []
    assert set(ALLOWED) <= {name for _, name in defined}


def test_every_public_member_has_a_reader():
    trees = _trees()
    members = {f"{cls}.{name}" for tree in trees.values() for cls, name in _members(tree)}
    unread = sorted(
        member
        for member in _unread_members(trees)
        if not member.split(".")[1].startswith("_") and member not in ALLOWED_MEMBERS
    )
    assert unread == []
    assert set(ALLOWED_MEMBERS) <= members


def test_allow_lists_hold_only_unread_names():
    # a name that gains a reader leaves its allow-list
    trees = _trees()
    read = {name for tree in trees.values() for name in _read(tree)}
    assert sorted(name for name in ALLOWED if name in read) == []
    assert sorted(set(ALLOWED_MEMBERS) - _unread_members(trees)) == []


def _defaulted(tree):
    """(function, parameter, position or None) of every defaulted parameter of every function."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        positional = node.args.posonlyargs + node.args.args
        offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(node.args.defaults)
        for index in range(first, len(positional)):
            yield node.name, positional[index].arg, index - offset
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passed(trees):
    """(callee simple name, parameter name or position) of every argument any call passes."""
    out = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                out.add((name, index))
            out.update((name, kw.arg) for kw in node.keywords if kw.arg is not None)
    return out


def _names_in(tree, target):
    """Every name read inside the value of the top-level assignment to ``target``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == target for t in node.targets
        ):
            return {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    raise AssertionError(f"no top-level {target}")


def _exempt(trees):
    """function.parameter for the CATALOG makers and the SUITES checks' filled parameters."""
    makers = _names_in(trees["observables"], "CATALOG")
    checks = _names_in(trees["verification"], "SUITES")
    return {
        f"{fn}.{param}"
        for tree in trees.values()
        for fn, param, _ in _defaulted(tree)
        if fn in makers or (fn in checks and param in SUITE_FILLED)
    }


def test_every_defaulted_parameter_is_passed():
    trees = _trees()
    passed = _passed(trees)
    defaulted = {
        (f"{fn}.{param}", (fn, param) in passed or (fn, index) in passed)
        for tree in trees.values()
        for fn, param, index in _defaulted(tree)
        if not param.startswith("_")
    }
    allowed = set(ALLOWED_UNPASSED) | _exempt(trees)
    unpassed = sorted(name for name, used in defaulted if not used and name not in allowed)
    assert unpassed == []
    # an allowed parameter that some call starts to pass leaves the allow-list
    assert sorted(name for name, used in defaulted if used and name in allowed) == []
    assert set(ALLOWED_UNPASSED) <= {name for name, _ in defaulted}


def _imported(tree):
    """The absolute module names of every import statement, function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency: a lazy import in a path the tests
    # rarely run would bring scipy back unseen
    imports = {(module, name) for module, tree in _trees().items() for name in _imported(tree)}
    assert sorted(f"{m}: {n}" for m, n in imports if n.split(".")[0] == "scipy") == []
    assert ("special", "numpy") in imports
