"""Guard on the size of the library: every function, class and method
defined in ``src/curlest`` is used by the library itself, and every piece
of state it stores is read somewhere.

A definition counts as used when its name appears as a name or an attribute
anywhere in the package outside the definition's own body.  The match is by
bare name, so a method is used when any attribute of that name is read;
import statements and strings do not count.  Test hooks and test-only
oracles belong in ``tests/_helpers.py``; the public entry points that no
library code calls are listed in ``ENTRY_POINTS`` with the reason they stay.
Dunder methods are called by the runtime and are exempt.  Because the
match is by bare name, a method name may be defined by one class only,
unless ``SHARED_METHODS`` lists it with the classes the library calls it
on; a test-only method that shares a name with a used one would otherwise
pass unseen.

A stored attribute is a dataclass field or a ``self.<name>`` assignment in
``src/curlest``.  It counts as read when an attribute of that name is loaded,
or a string equal to it appears (``getattr`` with a key), anywhere in the
package or the benchmark; a read in the tests does not count.  The state
that only tests read is listed in ``TEST_READ_STATE`` with the reason it
stays, and each entry must still be stored, unread by the package and the
benchmark, and read by a test.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import curlest

SRC = Path(curlest.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
READERS = (SRC, Path(__file__).resolve().parents[1] / "perfbench")

ENTRY_POINTS = {
    "interpolate_nedelec": "public edge-element interpolation of an analytic "
                           "field; tests build in-space solutions with it",
    "write_mesh_text": "mesh text I/O, the interchange format's writer",
    "read_mesh_text": "mesh text I/O, the interchange format's reader",
    "assemble_mass": "the Nedelec mass matrix, a test oracle since the "
                     "gauged solve dropped the shift; the benchmark's "
                     "tracer wraps it by name",
    "check_edge_compatibility": "the edge cycle sums, a test oracle since "
                                "step 3's patch residual certifies them; "
                                "the benchmark's tracer wraps it by name",
}

# stored state that only tests read, each with the reason it stays
TEST_READ_STATE = {
    "bench.py: ProblemSpec.exact_u": "the problem's manufactured potential",
    "equilibrate.py: EdgeCompatibility.max_abs":
        "the output of the edge-sum oracle, which the benchmark's tracer keeps",
    "equilibrate.py: EdgeCompatibility.variation":
        "the output of the edge-sum oracle, which the benchmark's tracer keeps",
    "equilibrate.py: ElementCorrection.resid":
        "the per-tet terms of the row's oscillation",
    "equilibrate.py: FaceMultiplier.div_norm": "the strict step-2 check's values",
    "errors.py: self.node": "the registry id that a NodeError carries",
    "residual.py: ResidualResult.face_sq": "the face terms of mu_h",
    "residual.py: ResidualResult.vol_T": "the volume terms of mu_h",
}

# method names defined by more than one class, each with the classes that
# define it; the library calls the method on every one of them
SHARED_METHODS = {
    "eval": {"BrokenPolyField", "FaceMultiplier"},
    "n_faces": {"FaceMultiplier", "Mesh"},
}


def _src_trees() -> dict:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


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
    trees = _src_trees()
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


def shared_methods(trees: dict) -> dict:
    """Method name -> the classes that define it, for every non-dunder
    name that more than one class in trees defines."""
    owners = defaultdict(set)
    for tree in trees.values():
        for qualname, node in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and not (
                            stmt.name.startswith("__") and stmt.name.endswith("__")):
                        owners[stmt.name].add(qualname)
    return {name: cls for name, cls in owners.items() if len(cls) > 1}


def test_shared_method_names_are_listed():
    assert shared_methods(_src_trees()) == SHARED_METHODS


def test_second_method_definition_is_flagged():
    # negative control: a class that defines a method name some library
    # class already defines makes that name shared; a dunder does not
    trees = _src_trees()
    trees["extra.py"] = ast.parse(
        "class Extra:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def ref_coords(self):\n"
        "        return None\n")
    assert shared_methods(trees) == {
        **SHARED_METHODS, "ref_coords": {"LagrangeNodeSet", "Extra"}}


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _stored_attributes(tree):
    """(qualified name, attribute) of every dataclass field and every
    ``self.<name>`` assignment target."""
    for qualname, node in _definitions(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield f"{qualname}.{stmt.target.id}", stmt.target.id
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield f"self.{node.attr}", node.attr


def _read_attributes(tree) -> set:
    """Attributes loaded in tree, and the strings that could name one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_attributes(stored_trees: dict, reader_trees) -> list[str]:
    read = set().union(*(_read_attributes(t) for t in reader_trees))
    return sorted({f"{module}: {qualname}"
                   for module, tree in stored_trees.items()
                   for qualname, name in _stored_attributes(tree)
                   if name not in read})


def _parse_all(dirs) -> list:
    return [ast.parse(p.read_text(), str(p)) for d in dirs for p in sorted(d.glob("*.py"))]


def test_every_stored_attribute_is_read():
    unread = unread_attributes(_src_trees(), _parse_all(READERS))
    assert [a for a in unread if a not in TEST_READ_STATE] == []


def test_test_read_state_is_current():
    # each listed attribute is still stored, still unread by the package and
    # the benchmark, and read by some test
    stored = _src_trees()
    assert set(TEST_READ_STATE) <= {
        f"{module}: {qualname}" for module, tree in stored.items()
        for qualname, _ in _stored_attributes(tree)}
    assert set(TEST_READ_STATE) <= set(unread_attributes(stored, _parse_all(READERS)))
    assert unread_attributes(stored, _parse_all(READERS + (TESTS,))) == []


def test_unread_attribute_is_flagged():
    # negative control: a dataclass field and a self attribute that nothing
    # reads are reported, a field that a method reads is not
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    kept: int\n"
        "    lost: int\n"
        "    def size(self):\n"
        "        self.cache = self.kept\n"
        "        return self.kept\n")
    assert unread_attributes({"box.py": tree}, [tree]) == [
        "box.py: Box.lost", "box.py: self.cache"]
