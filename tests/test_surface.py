"""Every public module-level name of the package has a caller inside it.

A function, class or constant that only tests reach ships no behaviour, so
each public name defined at the top of a module under src/nonconv must be
read somewhere in src/nonconv, as a name or an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nonconv"

# public names kept without a caller in the package, each with its reason
ALLOWED = {
    "sample_paths": "perfbench/tracer.py binds it by name to count path draws",
    "beta_exact_doubling": "exact oracle the tests hold beta_approx against",
    # kept with their tests until a later change removes them (ROADMAP item 4)
    "AssumptionParams": "regime-to-gamma rule; the config reads gamma directly",
    "chernoff_lambda_star": "tuning point of the Chernoff derivation",
    "gorc_lambda": "cluster pricing factor of the cumulant method",
    "rho": "dilation distance the neighborhood is defined by",
    "rho_tilde": "general-family separation distance",
    "rho_set": "dilation distance between index sets",
    "conditional_law": "exact conditional law of chain states",
}


def _defined(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def _read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = {name for tree in trees.values() for name in _read(tree)}
    defined = {(module, name) for module, tree in trees.items() for name in _defined(tree)}
    unread = sorted(
        f"{module}.{name}"
        for module, name in defined
        if not name.startswith("_") and name not in read and name not in ALLOWED
    )
    assert unread == []
    assert set(ALLOWED) <= {name for _, name in defined}
