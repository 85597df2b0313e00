"""Every entry point of the package is on a road some command takes.

Each module-level function, class or assigned name of ``src/heterotest``
and each method that is not a dunder must be referenced from package code
other than its own definition: by name, as an attribute, or in an import.
``__init__``'s export table lists names as strings, so it references
nothing.  An entry point that only tests reach belongs with the tests.

Two kinds of name are exempt: those ``perfbench/tracer.py`` wraps, which
must keep resolving while the tracer names them, and the
``dft.replay_*_witness`` functions, the replayable witnesses README
documents.

Likewise an error carries only its message, except the two whose payload
the command line prints, and every name a module imports is used in that
module.
"""

import ast
import pathlib
import runpy

import heterotest

PACKAGE = pathlib.Path(heterotest.__file__).resolve().parent
TRACER = PACKAGE.parent.parent / "perfbench" / "tracer.py"
WITNESS_REPLAYS = {
    "dft.replay_determinism_witness",
    "dft.replay_completeness_witness",
    "dft.replay_distinguishability_witness",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned(node):
    """The names a module-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


def _definitions(trees):
    """(dotted name, definition node) of every module-level function,
    class or assigned name and every non-dunder method, by module."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for name in _assigned(node):
                    if not _dunder(name):
                        yield f"{module}.{name}", node
                continue
            if not isinstance(node, kinds) or _dunder(node.name):
                continue
            yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, kinds[:2]) and not _dunder(method.name):
                        yield f"{module}.{node.name}.{method.name}", method


def _references(tree):
    """(referenced name, node) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def unreferenced(trees):
    """The dotted names of the definitions nothing outside them references."""
    used = {}
    for tree in trees.values():
        for name, node in _references(tree):
            used.setdefault(name, []).append(node)
    out = []
    for dotted, definition in _definitions(trees):
        inside = {id(node) for node in ast.walk(definition)}
        if all(id(node) in inside for node in used.get(dotted.rpartition(".")[2], ())):
            out.append(dotted)
    return out


def test_every_entry_point_is_referenced_from_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    tracer = runpy.run_path(str(TRACER))
    traced = {f"{module}.{qualname}" for module, qualname in tracer["SPANS"] + tracer["COUNTED"]}
    assert [name for name in unreferenced(trees)
            if name not in traced | WITNESS_REPLAYS] == []


def unused_imports(tree):
    """The names ``tree`` imports and never reads, ``__future__`` aside."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_every_import_is_used():
    unused = {path.name: unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_errors_carry_only_their_message():
    """An error the command line prints as its message keeps no payload:
    only the two whose payload ``cli.main`` prints define ``__init__``."""
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    constructed = [node.name for node in tree.body if isinstance(node, ast.ClassDef)
                   and any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                           for item in node.body)]
    extra = [name for name in constructed if name not in ("InvalidModel", "DftFailure")]
    assert not extra, f"errors that define __init__: {extra}"
