"""Every definition in `src/wpptoric` is reached from code that runs.

The scan starts from each module's top-level statements other than
imports (`cli.COMMANDS` names every command handler, and the
`__main__` guard names `cli.main`).  A top-level function or class, or
a method of such a class, is reached once a reached body names it, by
a bare name or an attribute; a reached class reaches its dunder
methods, which Python calls for it.  A definition that only tests or
other unreached definitions name belongs in `tests/`, as the oracle of
what it checks, or nowhere.  Names are matched without resolving
scopes, so a name shared by two definitions reaches both.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wpptoric"

# name -> why it stays in the package without a caller
ALLOWED = {
    "h_vb_refined": "the refined rank-2 series, kept for the fixed-K-class count (ROADMAP item 7)",
    "refined_key": "the key h_vb_refined groups by; it goes or stays with h_vb_refined",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(nodes):
    """Every bare name and attribute named anywhere in the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(module-level names, {qualified name: (name, names its body names)})."""
    roots, defs = set(), {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = (node.name, _names([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                # the class body proper: bases, decorators, attributes, dunders
                own = [m for m in node.body if m not in methods or _is_dunder(m.name)]
                defs[f"{module}.{node.name}"] = (
                    node.name, _names(own + node.bases + node.decorator_list))
                for m in methods:
                    if not _is_dunder(m.name):
                        defs[f"{module}.{node.name}.{m.name}"] = (m.name, _names([m]))
            else:
                roots |= _names([node])
    return roots, defs


def unreached():
    """Qualified names of the definitions no reached code names, sorted."""
    named, defs = _definitions()
    reached = set()
    grew = True
    while grew:
        grew = False
        for qual, (name, body) in defs.items():
            if qual not in reached and name in named:
                reached.add(qual)
                named |= body
                grew = True
    return sorted(set(defs) - reached)


def test_every_definition_is_reached():
    names = unreached()
    stray = [q for q in names if q.rsplit(".", 1)[-1] not in ALLOWED]
    assert stray == [], "defined in src but reached by no command: " + ", ".join(stray)
    # an allowlisted definition that gained a caller, or went, is a stale entry
    assert sorted(q.rsplit(".", 1)[-1] for q in names) == sorted(ALLOWED)
