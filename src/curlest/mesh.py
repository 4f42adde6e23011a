"""Conforming tetrahedral meshes with oriented topology.

Orientation conventions used everywhere downstream:
  * every tet lists its vertex ids in ascending order, so each tet is the
    reference tet in one vertex order, and its faces and edges list theirs
    ascending too (the UFC convention of Rognes, Kirby & Logg, SIAM J. Sci.
    Comput. 31, 2009).  det J of a tet's affine map then takes either
    sign: |det J| is the measure of every integral, and only the covariant
    and Piola maps read its sign;
  * for an internal face, the plus side T+ is the adjacent tet with the
    smaller index and the face normal points out of T+;
  * an edge tangent points from the lower to the higher vertex id.
The choice is arbitrary but must be fixed; all jump formulas consume it
consistently, and vertex renumbering only permutes the conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import ClosureOverflow, DegenerateTet, NonConforming
from .polyspace import TET_EDGES, TET_FACES

VOLUME_EPS = 1e-12          # relative to diameter^3
BOUNDARY = -1
_EDGE_A, _EDGE_B = np.array(TET_EDGES).T
# the local positions in a tet of the vertices and of the edges (a, b),
# (a, c), (b, c) of its local face i, whose vertices a < b < c are ascending
_FACE_VERTICES = np.array(TET_FACES)
_FACE_EDGES = np.array([[TET_EDGES.index((f[i], f[j])) for i, j in ((0, 1), (0, 2), (1, 2))]
                        for f in TET_FACES])
_ROUND_CAP = 64


def _diameters(v):
    """Longest edge of each tet from its (T, 4, 3) vertex coordinates."""
    return np.linalg.norm(v[:, _EDGE_A] - v[:, _EDGE_B], axis=-1).max(axis=1)


class _Geometry:
    """Per-element affine map data of the tets with vertex coordinates v
    (T, 4, 3), cached on the mesh.  ``build_mesh`` makes it for its
    degeneracy check, so J^-1 waits for its first read."""

    def __init__(self, v: np.ndarray):
        self.v0 = v[:, 0, :]
        self.J = np.stack([v[:, i, :] - v[:, 0, :] for i in (1, 2, 3)], axis=2)
        det = np.linalg.det(self.J)
        self.absdet = np.abs(det)     # the measure of every integral
        self.sign = np.sign(det)      # read by the covariant and Piola maps

    @cached_property
    def Jinv(self) -> np.ndarray:
        return np.linalg.inv(self.J)

    def map_points(self, tets, ref_pts):
        """Physical coords of reference points for each listed tet, (t, q, 3):
        a view of a component-major (3, t, q) array, so ``reshape(-1, 3)``
        gives the (t q, 3) points, grouped tet by tet, without a copy and
        with each coordinate a contiguous column."""
        Jc = self.J.transpose(1, 0, 2)[:, tets]              # (3, t, 3): row c of J
        x = (Jc.reshape(-1, 3) @ np.asarray(ref_pts).T).reshape(3, Jc.shape[1], -1)
        x += self.v0.T[:, tets, None]
        return x.transpose(1, 2, 0)


@dataclass
class Mesh:
    vertices: np.ndarray          # (V, 3)
    tets: np.ndarray              # (T, 4) ascending vertex ids
    subdomain_tag: np.ndarray     # (T,)
    refinement_level: np.ndarray  # (T,)
    parent: np.ndarray | None     # (T,) tet id in the mesh this was refined from
    faces: np.ndarray             # (F, 3) ascending vertex ids
    face_tets: np.ndarray         # (F, 2) [T+, T- or BOUNDARY]
    tet_faces: np.ndarray         # (T, 4) face id opposite local vertex i
    edges: np.ndarray             # (E, 2) ascending vertex ids
    tet_edges: np.ndarray         # (T, 6) in TET_EDGES order
    face_edges: np.ndarray        # (F, 3)
    face_local: np.ndarray        # (F, 2) local face index in [T+, T-], -1: no tet
    boundary_face: np.ndarray = None
    boundary_edge: np.ndarray = None
    boundary_vertex: np.ndarray = None
    _geom: _Geometry = field(default=None, repr=False, compare=False)
    _face_areas: np.ndarray = field(default=None, repr=False, compare=False)
    _face_diameters: np.ndarray = field(default=None, repr=False, compare=False)
    _tet_diameters: np.ndarray = field(default=None, repr=False, compare=False)
    _face_normals: np.ndarray = field(default=None, repr=False, compare=False)
    _internal_faces: np.ndarray = field(default=None, repr=False, compare=False)
    _internal_edges: np.ndarray = field(default=None, repr=False, compare=False)

    # -- derived quantities -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_tets(self) -> int:
        return len(self.tets)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def geom(self) -> _Geometry:
        if self._geom is None:
            self._geom = _Geometry(self.vertices[self.tets])
        return self._geom

    def tet_diameters(self) -> np.ndarray:
        if self._tet_diameters is None:
            self._tet_diameters = _diameters(self.vertices[self.tets])
        return self._tet_diameters

    def face_areas(self) -> np.ndarray:
        if self._face_areas is None:
            v = self.vertices[self.faces]
            self._face_areas = 0.5 * np.linalg.norm(
                np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1)
        return self._face_areas

    def face_diameters(self) -> np.ndarray:
        if self._face_diameters is None:
            v = self.vertices[self.faces]
            d = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
            d = np.maximum(d, np.linalg.norm(v[:, 2] - v[:, 0], axis=1))
            self._face_diameters = np.maximum(
                d, np.linalg.norm(v[:, 2] - v[:, 1], axis=1))
        return self._face_diameters

    def h_max(self) -> float:
        return float(self.tet_diameters().max())

    def h_min_edge(self) -> float:
        v = self.vertices
        return float(np.linalg.norm(v[self.edges[:, 0]] - v[self.edges[:, 1]],
                                    axis=1).min())

    def face_signs(self) -> np.ndarray:
        """(F,) +1 where (b - a) x (c - a) of a face's ascending vertices
        a < b < c points out of its plus tet, -1 where it points in."""
        # over its ascending vertices, local face 0 or 2 points out of
        # a positively oriented tet, 1 or 3 into it
        return (np.array([1.0, -1.0, 1.0, -1.0])[self.face_local[:, 0]]
                * self.geom().sign[self.face_tets[:, 0]])

    def face_normals(self) -> np.ndarray:
        """Unit normals pointing out of the plus-side tets, (F, 3)."""
        if self._face_normals is None:
            v = self.vertices[self.faces]
            n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
            n /= np.linalg.norm(n, axis=1)[:, None]
            n *= self.face_signs()[:, None]
            self._face_normals = n
        return self._face_normals

    def internal_faces(self) -> np.ndarray:
        if self._internal_faces is None:
            self._internal_faces = np.nonzero(~self.boundary_face)[0]
        return self._internal_faces

    def internal_edges(self) -> np.ndarray:
        if self._internal_edges is None:
            self._internal_edges = np.nonzero(~self.boundary_edge)[0]
        return self._internal_edges


def _dedupe(keys):
    """Distinct rows of the 2-d array keys, numbered by first occurrence.

    Returns (distinct rows, id of every row of keys).  Rows of
    non-negative integers below n (vertex ids) are packed into one int64
    key, sum of row[i] n^(w-1-i), whose order is the rows' lexicographic
    order, so a 1-d unique replaces the slower row-wise one.
    """
    n = int(keys.max()) + 1 if keys.dtype.kind in "iu" and keys.size else 0
    if n and keys.min() >= 0 and n ** keys.shape[1] < 2 ** 63:
        packed = np.zeros(len(keys), dtype=np.int64)
        for col in keys.T:
            packed = packed * n + col
        _, first, inverse = np.unique(packed, return_index=True,
                                      return_inverse=True)
        uniq = keys[first]
    else:
        uniq, first, inverse = np.unique(keys, axis=0, return_index=True,
                                         return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], rank[inverse.reshape(-1)]


def _check_links(name, n, tet_entities, face_entities, table, face_tets, face_local,
                 boundary_face, internal):
    """Raise NonConforming unless the tets around every entity of one kind
    (``name``: edge or vertex) are joined through its internal faces.

    Graph nodes are the (tet, local entity) incidences; every internal face
    links the two incidences of each of its entities, at the local
    positions that row ``face_local`` of ``table`` (4, k) gives in each
    tet.  The link of an edge is a chain or a cycle, and that of a vertex a
    disk or a sphere, only if the entity's incidences form one component.
    ``internal`` lists the internal faces.
    """
    w = tet_entities.shape[1]
    ends = w * face_tets[internal][:, :, None] + table[face_local[internal]]  # (Fi, 2, k)
    size = tet_entities.size
    graph = sp.coo_matrix(
        (np.ones(ends[:, 0].size), (ends[:, 0].ravel(), ends[:, 1].ravel())),
        shape=(size, size))
    n_comp, label = connected_components(graph, directed=False)
    comp_entity = np.empty(n_comp, dtype=np.int64)
    comp_entity[label] = tet_entities.ravel()
    comps = np.bincount(comp_entity, minlength=n)
    bad = np.nonzero(comps != 1)[0]
    if len(bad):
        e = int(bad[0])
        nb = int((face_entities[boundary_face] == e).sum())
        raise NonConforming(
            f"{name} {e}: {nb} boundary faces on link, {comps[e]} components")


def build_mesh(vertices, tets, subdomain_tags=None, *, refinement_levels=None,
               parents=None) -> Mesh:
    """Assemble the full topology from vertex coordinates and tet tuples.

    Every tet is stored with its vertex ids ascending.  Faces and edges are
    numbered in order of first occurrence in the tet list.  Raises
    NonConforming for invalid complexes and non-finite coordinates, and
    DegenerateTet for (near-)flat cells.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float).reshape(-1, 3))
    tets = np.asarray(tets, dtype=np.int64).reshape(-1, 4)
    nv, nt = len(vertices), len(tets)
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonConforming(f"vertex {i} has non-finite coordinates "
                            f"{vertices[i].tolist()}")
    if tets.min(initial=0) < 0 or tets.max(initial=-1) >= nv:
        raise NonConforming("tet references an invalid vertex id")
    ordered = np.sort(tets, axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if repeats.any():
        raise NonConforming(f"tet {int(repeats.argmax())} repeats a vertex")

    tets = ordered
    v = vertices[tets]
    geom = _Geometry(v)
    diam = _diameters(v)
    bad = geom.absdet / 6.0 <= VOLUME_EPS * diam ** 3
    if bad.any():
        raise DegenerateTet(f"tets {np.nonzero(bad)[0][:10].tolist()} are degenerate")

    used = np.zeros(nv, dtype=bool)
    used[tets.ravel()] = True
    if not used.all():
        raise NonConforming(
            f"dangling vertices: {np.nonzero(~used)[0][:10].tolist()}")

    faces, face_of = _dedupe(tets[:, TET_FACES].reshape(-1, 3))
    tet_faces = face_of.reshape(nt, 4)
    count = np.bincount(face_of, minlength=len(faces))
    if (count > 2).any():
        raise NonConforming(f"face {tuple(faces[count.argmax()].tolist())} "
                            "shared by more than two tets")
    # rows (tet, local face) grouped by face, in tet order within each face
    rows = np.argsort(face_of, kind="stable")
    start = np.cumsum(count) - count
    two = count == 2
    face_tets = np.full((len(faces), 2), BOUNDARY, dtype=np.int64)
    face_local = np.full((len(faces), 2), BOUNDARY, dtype=np.int64)
    face_tets[:, 0], face_local[:, 0] = np.divmod(rows[start], 4)
    face_tets[two, 1], face_local[two, 1] = np.divmod(rows[start[two] + 1], 4)

    edges, edge_of = _dedupe(tets[:, TET_EDGES].reshape(-1, 2))
    tet_edges = edge_of.reshape(nt, 6)
    # (a, b), (a, c), (b, c) of each ascending face, read in its plus tet
    face_edges = tet_edges[face_tets[:, :1], _FACE_EDGES[face_local[:, 0]]]

    boundary_face = face_tets[:, 1] == BOUNDARY
    boundary_edge = np.zeros(len(edges), dtype=bool)
    boundary_edge[face_edges[boundary_face]] = True
    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[faces[boundary_face].ravel()] = True
    internal = np.nonzero(~boundary_face)[0]
    # edges first, so that a split edge link is reported as the edge's
    _check_links("edge", len(edges), tet_edges, face_edges, _FACE_EDGES,
                 face_tets, face_local, boundary_face, internal)
    _check_links("vertex", nv, tets, faces, _FACE_VERTICES,
                 face_tets, face_local, boundary_face, internal)

    if subdomain_tags is None:
        subdomain_tags = np.zeros(nt, dtype=np.int64)
    else:
        subdomain_tags = np.asarray(subdomain_tags, dtype=np.int64).reshape(nt)
    if refinement_levels is None:
        refinement_levels = np.zeros(nt, dtype=np.int64)
    return Mesh(
        vertices=vertices, tets=tets, subdomain_tag=subdomain_tags,
        refinement_level=np.asarray(refinement_levels, dtype=np.int64),
        parent=None if parents is None else np.asarray(parents, dtype=np.int64),
        faces=faces, face_tets=face_tets, tet_faces=tet_faces,
        edges=edges, tet_edges=tet_edges, face_edges=face_edges,
        face_local=face_local, boundary_face=boundary_face, boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex, _geom=geom, _tet_diameters=diam,
        _internal_faces=internal, _internal_edges=np.nonzero(~boundary_edge)[0])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# vertex paths from a cube's lowest corner to its highest, one per
# permutation of the axes: the six tets of the Kuhn split
_KUHN_PATHS = np.array([
    np.vstack([np.zeros(3, np.int64), np.eye(3, dtype=np.int64)[list(perm)]]).cumsum(axis=0)
    for perm in itertools.permutations((0, 1, 2))])


def _box_kuhn(n, origin_num, tag_fn=None):
    """Kuhn/Freudenthal mesh of an axis-aligned unit box.

    origin_num is the integer (numerator) coordinate of the box in units of
    1/n; vertex coordinates are computed as exact rationals over n so that
    adjacent boxes share bitwise-identical vertices.
    """
    lattice = np.indices((n + 1,) * 3).reshape(3, -1).T      # (i, j, k) rows
    verts = (lattice + np.asarray(origin_num)) / n
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    corners = np.indices((n,) * 3).reshape(3, -1).T @ stride
    tets = (corners[:, None, None] + _KUHN_PATHS @ stride).reshape(-1, 4)
    if tag_fn is None:
        tags = np.zeros(len(tets), dtype=np.int64)
    else:
        centroids = verts[tets].mean(axis=1)
        tags = np.array([tag_fn(c) for c in centroids], dtype=np.int64)
    return verts, tets, tags


def unit_cube_mesh(n: int, tag_fn=None) -> Mesh:
    """Kuhn split of (0,1)^3 into 6 n^3 tets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    verts, tets, tags = _box_kuhn(n, (0, 0, 0), tag_fn)
    return build_mesh(verts, tets, tags)


def l_brick_mesh(n: int) -> Mesh:
    """Three unit cubes forming the L-brick; the quadrant x>0, y<0 is removed.

    Blocks are meshed on the same 1/n lattice and glued through exact
    coordinate identity, so the union is conforming by construction (the Kuhn
    split triangulates shared box faces identically on both sides).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = [_box_kuhn(n, origin) for origin in ((-n, -n, 0), (-n, 0, 0), (0, 0, 0))]
    offsets = np.cumsum([0] + [len(v) for v, _, _ in blocks[:-1]])
    verts, vid = _dedupe(np.vstack([v for v, _, _ in blocks]))
    tets = vid[np.vstack([t + off for (_, t, _), off in zip(blocks, offsets)])]
    return build_mesh(verts, tets)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _longest_edges(vertices, tets):
    """Ascending end points (T, 6, 2) of every tet's edges and the local index
    of its longest edge; ties go to the smallest (low id, high id) pair."""
    ends = np.sort(tets[:, TET_EDGES], axis=2)
    length = np.linalg.norm(vertices[ends[..., 0]] - vertices[ends[..., 1]], axis=-1)
    key = ends[..., 0] * len(vertices) + ends[..., 1]
    key[length < length.max(axis=1, keepdims=True)] = np.iinfo(np.int64).max
    return ends, key.argmin(axis=1)


def refine(mesh: Mesh, marked) -> Mesh:
    """Longest-edge bisection of the marked tets with conformity closure.

    Every marked tet is bisected at least once; neighbors are bisected as
    needed until no hanging vertices remain.  Subdomain tags and levels are
    inherited; ``parent`` maps every new tet to its ancestor in ``mesh``.
    """
    marked = np.unique(np.fromiter(marked, dtype=np.int64))
    if len(marked) and (marked[0] < 0 or marked[-1] >= mesh.n_tets):
        raise ValueError("marked set contains invalid tet ids")

    verts, tets = mesh.vertices, mesh.tets
    tags, levels = mesh.subdomain_tag, mesh.refinement_level
    parents = np.arange(mesh.n_tets)
    ends, longest = _longest_edges(verts, tets[marked])
    # marked edges as (low, high) vertex pairs and their midpoint ids (-1:
    # not split yet); they carry over between rounds
    mark_ends = ends[np.arange(len(marked)), longest]
    mark_mid = np.full(len(marked), -1)

    for _ in range(_ROUND_CAP):
        nv, nt = len(verts), len(tets)
        ends, longest = _longest_edges(verts, tets)
        keys, eid = np.unique(ends[..., 0] * nv + ends[..., 1], return_inverse=True)
        eid = eid.reshape(nt, 6)
        lid = eid[np.arange(nt), longest]
        at = np.searchsorted(keys, mark_ends[:, 0] * nv + mark_ends[:, 1])
        is_marked = np.zeros(len(keys), dtype=bool)
        is_marked[at] = True
        mid = np.full(len(keys), -1)
        mid[at] = mark_mid
        # closure: a tet touching a marked edge must have its longest edge
        # marked; the mark set only grows, so the sweeps terminate
        while True:
            grown = is_marked.copy()
            grown[lid[is_marked[eid].any(axis=1)]] = True
            if (grown == is_marked).all():
                break
            is_marked = grown

        split = np.nonzero(is_marked[lid])[0]
        cut = lid[split]
        _, first = np.unique(cut, return_index=True)
        fresh = cut[np.sort(first)]
        fresh = fresh[mid[fresh] < 0]          # in order of the first splitting tet
        mid[fresh] = nv + np.arange(len(fresh))
        verts = np.vstack([verts, 0.5 * (verts[keys[fresh] // nv]
                                         + verts[keys[fresh] % nv])])

        # children replace the high (child a) or the low (child b) end of the
        # longest edge by its midpoint, in place of their parent
        child_a = split + np.arange(len(split))
        copies = np.ones(nt, dtype=np.int64)
        copies[split] = 2
        src = np.repeat(np.arange(nt), copies)
        new_tets = tets[src]
        la, lb = _EDGE_A[longest[split]], _EDGE_B[longest[split]]
        low_first = tets[split, la] < tets[split, lb]
        at_low, at_high = np.where(low_first, la, lb), np.where(low_first, lb, la)
        new_tets[child_a, at_high] = mid[cut]
        new_tets[child_a + 1, at_low] = mid[cut]
        levels = levels[src] + (copies[src] - 1)
        tets, tags, parents = new_tets, tags[src], parents[src]

        # marks live on while some tet keeps the edge: one not split at it
        alive = np.zeros(len(keys), dtype=bool)
        alive[eid[eid != lid[:, None]]] = True
        carry = np.nonzero(is_marked & alive)[0]
        if not len(carry):
            break
        mark_ends = np.stack([keys[carry] // nv, keys[carry] % nv], axis=1)
        mark_mid = mid[carry]
    else:
        raise ClosureOverflow("bisection rounds exceeded the iteration cap")

    return build_mesh(verts, tets, tags, refinement_levels=levels, parents=parents)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_vtk(mesh: Mesh, path, cell_data: dict | None = None) -> None:
    """Legacy ASCII VTK export with optional per-tet scalar fields."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncurlest mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for p in mesh.vertices:
            fh.write(f"{p[0]} {p[1]} {p[2]}\n")
        fh.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        cells = mesh.tets.copy()            # VTK lists a tetra positively oriented
        neg = mesh.geom().sign < 0
        cells[neg] = cells[neg][:, [0, 1, 3, 2]]
        for tet in cells:
            fh.write(f"4 {tet[0]} {tet[1]} {tet[2]} {tet[3]}\n")
        fh.write(f"CELL_TYPES {mesh.n_tets}\n")
        fh.write("\n".join(["10"] * mesh.n_tets) + "\n")
        data = {"subdomain": mesh.subdomain_tag,
                "level": mesh.refinement_level}
        if cell_data:
            data.update(cell_data)
        fh.write(f"CELL_DATA {mesh.n_tets}\n")
        for name, arr in data.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for x in np.asarray(arr, dtype=float):
                fh.write(f"{x}\n")
