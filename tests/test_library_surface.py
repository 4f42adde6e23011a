"""Guard on the size of the library: every function, class and method
defined in ``src/curlest`` is used by the library itself.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside the definition's own body.  The match is by
bare name, so a method is used when any attribute of that name is read;
import statements and strings do not count.  Test hooks and test-only
oracles belong in ``tests/_helpers.py``; the public entry points that no
library code calls are listed in ``ENTRY_POINTS`` with the reason they stay.
Dunder methods are called by the runtime and are exempt.
"""

import ast
from collections import Counter
from pathlib import Path

import curlest

SRC = Path(curlest.__file__).resolve().parent

ENTRY_POINTS = {
    "interpolate_nedelec": "README API: edge-element interpolation of an "
                           "analytic field",
    "write_mesh_text": "mesh text I/O, the interchange format's writer",
    "read_mesh_text": "mesh text I/O, the interchange format's reader",
    "dump": "EstimatorResult.dump writes the diagnostics as JSON",
}


def _used_names(tree) -> Counter:
    """Names and attributes read in tree, with multiplicity."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree):
    """(qualified name, node) of every function, class and method."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def unused_definitions() -> list[str]:
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    used = sum((_used_names(t) for t in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in ENTRY_POINTS:
                continue
            if used[name] - _used_names(node)[name] <= 0:
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_library_definition_is_used():
    assert unused_definitions() == []


def test_entry_points_exist():
    """Each exempted name is still defined, so the list cannot go stale."""
    defined = {node.name for p in SRC.glob("*.py")
               for _, node in _definitions(ast.parse(p.read_text()))}
    assert set(ENTRY_POINTS) <= defined
