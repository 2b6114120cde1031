"""Source hygiene: no private helper without a caller."""

import ast
import collections
import pathlib

import pccu

SOURCES = sorted(pathlib.Path(pccu.__file__).parent.glob("*.py"))


def _references(node):
    """Count of each name that node's subtree reads as a Name or an
    Attribute."""
    names = collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
    return names


def _private_definitions(tree):
    """The module-level functions and classes and the methods of tree whose
    name starts with one underscore."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if (isinstance(item, defs) and item.name.startswith("_")
                    and not item.name.startswith("__")):
                yield item


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    everywhere = sum(map(_references, trees.values()), collections.Counter())
    unused = [f"{name}:{node.lineno} {node.name}"
              for name, tree in trees.items()
              for node in _private_definitions(tree)
              if everywhere[node.name] == _references(node)[node.name]]
    assert not unused, f"private helpers that nothing calls: {unused}"
