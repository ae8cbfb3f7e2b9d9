"""Nothing in src/udisc goes unused.

Read with ast: every name a module imports is used in that module, and
every module-level name with a single leading underscore is referenced
somewhere in src/udisc besides its definition. Public names are out of
scope: the acceptance tests, the demos and the benchmark use them.
"""
import ast
from pathlib import Path

import pytest

import udisc

SRC = Path(udisc.__file__).parent
MODULES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def imported(tree):
    """(name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                yield (a.asname or a.name).split(".")[0], node.lineno


def used(tree):
    """Every name a module reads: a Name, or the root of an Attribute."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def private_definitions(tree):
    """(name, node) for each module-level def, class or assignment whose
    name has a single leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def walk(node, skip):
    # ast.walk without the subtree skip, so a name's own definition, and a
    # recursive call inside it, are not references
    if node is not skip:
        yield node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, skip)


def references(name, skip):
    """How often src/udisc reads name outside its definition skip: as a
    Name, an attribute, an imported name or a string such as a getattr
    argument."""
    count = 0
    for tree in MODULES.values():
        for node in walk(tree, skip):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                count += 1
            elif isinstance(node, ast.Attribute) and node.attr == name:
                count += 1
            elif isinstance(node, ast.alias) and node.name == name:
                count += 1
            elif isinstance(node, ast.Constant) and node.value == name:
                count += 1
    return count


def test_modules_are_found():
    assert {"arith", "brauer", "cli", "deduce", "hermforms", "quadfield", "symbols"} <= set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    names = used(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in imported(tree) if name not in names]
    assert unused == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_referenced(module):
    unused = [name for name, node in private_definitions(MODULES[module])
              if references(name, node) == 0]
    assert unused == []
