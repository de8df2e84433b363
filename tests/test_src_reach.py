"""Every definition in `src/wpptoric` is reached from code that runs.

The scan starts from each module's top-level statements other than
imports (`cli.COMMANDS` names every command handler, and the
`__main__` guard names `cli.main`).  A top-level function or class is
reached once a reached body names it by a bare name, and a method of
such a class once a reached body names it as an attribute (`x.name`);
so an option read as `args.name` reaches no function `name`.  A reached
class reaches its dunder methods, which Python calls for it.  A
definition that only tests or other unreached definitions name belongs
in `tests/`, as the oracle of what it checks, or nowhere.  Names are
matched without resolving scopes, so a name shared by two definitions
of one kind reaches both.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wpptoric"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(nodes):
    """Every name in the nodes: ("bare", id) of a bare name, ("attr", attr) of an attribute."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(("bare", sub.id))
            elif isinstance(sub, ast.Attribute):
                out.add(("attr", sub.attr))
    return out


def _definitions(sources):
    """(module-level names, {qualified name: (its name, names its body names)}).

    `sources` maps a module name to its text.  A top-level definition is
    named ("bare", name), a method ("attr", name).
    """
    roots, defs = set(), {}
    for module, text in sorted(sources.items()):
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = (("bare", node.name), _names([node]))
            elif isinstance(node, ast.ClassDef):
                methods = [m for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
                # the class body proper: bases, decorators, attributes, dunders
                own = [m for m in node.body if m not in methods or _is_dunder(m.name)]
                defs[f"{module}.{node.name}"] = (
                    ("bare", node.name), _names(own + node.bases + node.decorator_list))
                for m in methods:
                    if not _is_dunder(m.name):
                        defs[f"{module}.{node.name}.{m.name}"] = (("attr", m.name), _names([m]))
            else:
                roots |= _names([node])
    return roots, defs


def unreached(sources=None):
    """Qualified names of the definitions no reached code names, sorted.

    `sources` maps module names to their text; by default the modules
    of `src/wpptoric`.
    """
    if sources is None:
        sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    named, defs = _definitions(sources)
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


def test_an_option_attribute_reaches_no_function():
    # an option read as `args.specialize` does not keep a stray top-level
    # `def specialize` alive; a call by its bare name does
    source = """
def specialize(series):
    return series

def run(args):
    return args.specialize

COMMANDS = {"run": run}
"""
    assert unreached({"cli": source}) == ["cli.specialize"]
    called = source.replace("return args.specialize", "return specialize(args.specialize)")
    assert unreached({"cli": called}) == []


def test_every_definition_is_reached():
    names = unreached()
    assert names == [], "defined in src but reached by no command: " + ", ".join(names)
