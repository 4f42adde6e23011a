"""Conforming tetrahedral meshes with oriented topology.

Orientation conventions used everywhere downstream:
  * for an internal face, the plus side T+ is the adjacent tet with the
    smaller index and the face normal points out of T+;
  * an edge tangent points from the lower to the higher vertex id.
The choice is arbitrary but must be fixed; all jump formulas consume it
consistently, and vertex renumbering only permutes the conventions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ClosureOverflow, DegenerateTet, NonConforming, NotAdjacent

LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

VOLUME_EPS = 1e-12          # relative to diameter^3
BOUNDARY = -1
_CLOSURE_CAP = 64


class _Geometry:
    """Per-element affine map data, computed lazily and cached on the mesh."""

    def __init__(self, mesh: "Mesh"):
        v = mesh.vertices[mesh.tets]              # (T, 4, 3)
        self.v0 = v[:, 0, :]
        self.J = np.stack([v[:, i, :] - v[:, 0, :] for i in (1, 2, 3)], axis=2)
        self.detJ = np.linalg.det(self.J)
        self.Jinv = np.linalg.inv(self.J)
        self.vol = self.detJ / 6.0

    def map_points(self, tets, ref_pts):
        """Physical coords of reference points for each listed tet."""
        return self.v0[tets][:, None, :] + np.einsum(
            "tab,qb->tqa", self.J[tets], ref_pts)

    def ref_coords(self, t, pts):
        """Reference coordinates of physical points inside tet t."""
        return (np.asarray(pts) - self.v0[t]) @ self.Jinv[t].T


@dataclass
class Mesh:
    vertices: np.ndarray          # (V, 3)
    tets: np.ndarray              # (T, 4) positively oriented
    subdomain_tag: np.ndarray     # (T,)
    refinement_level: np.ndarray  # (T,)
    parent: np.ndarray | None     # (T,) tet id in the mesh this was refined from
    faces: np.ndarray             # (F, 3) ascending vertex ids
    face_tets: np.ndarray         # (F, 2) [T+, T- or BOUNDARY]
    tet_faces: np.ndarray         # (T, 4) face id opposite local vertex i
    edges: np.ndarray             # (E, 2) ascending vertex ids
    tet_edges: np.ndarray         # (T, 6) in LOCAL_EDGES order
    face_edges: np.ndarray        # (F, 3)
    edge_faces: list = field(repr=False, default=None)
    edge_tets: list = field(repr=False, default=None)
    boundary_face: np.ndarray = None
    boundary_edge: np.ndarray = None
    boundary_vertex: np.ndarray = None
    _geom: _Geometry = field(default=None, repr=False, compare=False)
    _vertex_tets: list = field(default=None, repr=False, compare=False)
    _face_areas: np.ndarray = field(default=None, repr=False, compare=False)
    _face_diameters: np.ndarray = field(default=None, repr=False, compare=False)
    _tet_diameters: np.ndarray = field(default=None, repr=False, compare=False)
    _face_normals: np.ndarray = field(default=None, repr=False, compare=False)

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
            self._geom = _Geometry(self)
        return self._geom

    def vertex_tets(self) -> list:
        if self._vertex_tets is None:
            adj = [[] for _ in range(self.n_vertices)]
            for t, tet in enumerate(self.tets):
                for v in tet:
                    adj[v].append(t)
            self._vertex_tets = [np.array(a, dtype=np.int64) for a in adj]
        return self._vertex_tets

    def tet_volumes(self) -> np.ndarray:
        return self.geom().vol

    def tet_diameters(self) -> np.ndarray:
        if self._tet_diameters is None:
            v = self.vertices[self.tets]
            d = np.zeros(self.n_tets)
            for a in range(4):
                for b in range(a + 1, 4):
                    d = np.maximum(d, np.linalg.norm(v[:, a] - v[:, b], axis=1))
            self._tet_diameters = d
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

    def face_normals(self) -> np.ndarray:
        """Unit normals pointing out of the plus-side tets, (F, 3)."""
        if self._face_normals is None:
            v = self.vertices[self.faces]
            n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
            n /= np.linalg.norm(n, axis=1)[:, None]
            centroid_f = v.mean(axis=1)
            centroid_t = self.vertices[self.tets[self.face_tets[:, 0]]].mean(axis=1)
            flip = np.einsum("fa,fa->f", n, centroid_f - centroid_t) < 0.0
            n[flip] = -n[flip]
            self._face_normals = n
        return self._face_normals

    def face_normal(self, f: int) -> np.ndarray:
        """Unit normal pointing out of the plus-side tet."""
        return self.face_normals()[f]

    def edge_tangent(self, e) -> np.ndarray:
        """Unit tangent of edge e, (3,); (len(e), 3) for an index array."""
        ab = self.edges[e]
        t = self.vertices[ab[..., 1]] - self.vertices[ab[..., 0]]
        return t / np.linalg.norm(t, axis=-1, keepdims=True)

    def internal_faces(self) -> np.ndarray:
        return np.nonzero(~self.boundary_face)[0]

    def internal_edges(self) -> np.ndarray:
        return np.nonzero(~self.boundary_edge)[0]


@dataclass(frozen=True)
class FaceFrame:
    """Right-handed orthonormal frame of a face: t1 x t2 = n."""
    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray


def _edge_link(mesh: "Mesh", e: int):
    """Order the faces/tets around an edge.

    Returns (tets_in_order, closed).  Raises NonConforming when the link is
    not a single chain/cycle (non-manifold edge).
    """
    faces = list(mesh.edge_faces[e])
    tets = list(mesh.edge_tets[e])
    if not faces:
        raise NonConforming(f"edge {e} has no adjacent faces")
    face_set = set(faces)
    # tet -> its (<=2) adjacent faces containing e
    tet_faces = {t: [f for f in mesh.tet_faces[t] if f in face_set] for t in tets}
    if any(len(fs) != 2 for fs in tet_faces.values()):
        raise NonConforming(f"edge {e}: tet without exactly two faces on the edge")
    bfaces = [f for f in faces if mesh.face_tets[f, 1] == BOUNDARY]
    closed = len(bfaces) == 0
    if closed:
        start_tet = tets[0]
        start_face = tet_faces[start_tet][0]
    else:
        if len(bfaces) != 2:
            raise NonConforming(f"edge {e}: {len(bfaces)} boundary faces on link")
        start_face = bfaces[0]
        start_tet = mesh.face_tets[start_face, 0]
    order = [start_tet]
    prev_face = start_face
    cur = start_tet
    for _ in range(len(tets)):
        nxt_face = [f for f in tet_faces[cur] if f != prev_face]
        if not nxt_face:
            break
        nxt_face = nxt_face[0]
        a, b = mesh.face_tets[nxt_face]
        nxt = b if a == cur else a
        if nxt == BOUNDARY:
            break
        if nxt in order:
            if closed and nxt == start_tet and len(order) == len(tets):
                return order, True
            raise NonConforming(f"edge {e}: link revisits tet {nxt}")
        order.append(nxt)
        prev_face, cur = nxt_face, nxt
    if len(order) != len(tets):
        raise NonConforming(f"edge {e}: link does not cover all adjacent tets")
    return order, closed


def edge_link(mesh: Mesh, e: int):
    """Public wrapper: ordered tets around edge e and whether the loop closes."""
    return _edge_link(mesh, e)


def build_mesh(vertices, tets, subdomain_tags=None, *, refinement_levels=None,
               parents=None, check_links: bool = True) -> Mesh:
    """Assemble the full topology from vertex coordinates and tet tuples.

    Tets are reordered to positive orientation.  Raises NonConforming for
    invalid complexes and DegenerateTet for (near-)flat cells.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float).reshape(-1, 3))
    tets = np.asarray(tets, dtype=np.int64).reshape(-1, 4)
    nv, nt = len(vertices), len(tets)
    if tets.min(initial=0) < 0 or tets.max(initial=-1) >= nv:
        raise NonConforming("tet references an invalid vertex id")
    for t, tet in enumerate(tets):
        if len(set(tet)) != 4:
            raise NonConforming(f"tet {t} repeats a vertex")

    tets = tets.copy()
    v = vertices[tets]
    vol6 = np.linalg.det(np.stack([v[:, i] - v[:, 0] for i in (1, 2, 3)], axis=2))
    flip = vol6 < 0.0
    tets[flip] = tets[flip][:, [0, 1, 3, 2]]
    v = vertices[tets]
    vol6 = np.abs(vol6)
    diam3 = np.zeros(nt)
    for a in range(4):
        for b in range(a + 1, 4):
            diam3 = np.maximum(diam3, np.linalg.norm(v[:, a] - v[:, b], axis=1))
    diam3 = diam3 ** 3
    bad = vol6 / 6.0 <= VOLUME_EPS * diam3
    if bad.any():
        raise DegenerateTet(f"tets {np.nonzero(bad)[0][:10].tolist()} are degenerate")

    used = np.zeros(nv, dtype=bool)
    used[tets.ravel()] = True
    if not used.all():
        raise NonConforming(
            f"dangling vertices: {np.nonzero(~used)[0][:10].tolist()}")

    face_ids: dict[tuple, int] = {}
    face_list: list[tuple] = []
    face_adj: list[list[int]] = []
    tet_faces = np.empty((nt, 4), dtype=np.int64)
    for t, tet in enumerate(tets):
        for i, loc in enumerate(LOCAL_FACES):
            key = tuple(sorted(int(tet[l]) for l in loc))
            f = face_ids.get(key)
            if f is None:
                f = len(face_list)
                face_ids[key] = f
                face_list.append(key)
                face_adj.append([])
            if len(face_adj[f]) >= 2:
                raise NonConforming(f"face {key} shared by more than two tets")
            face_adj[f].append(t)
            tet_faces[t, i] = f
    faces = np.array(face_list, dtype=np.int64)
    face_tets = np.full((len(faces), 2), BOUNDARY, dtype=np.int64)
    for f, adj in enumerate(face_adj):
        adj = sorted(adj)
        face_tets[f, 0] = adj[0]
        if len(adj) == 2:
            face_tets[f, 1] = adj[1]

    edge_ids: dict[tuple, int] = {}
    edge_list: list[tuple] = []
    tet_edges = np.empty((nt, 6), dtype=np.int64)
    for t, tet in enumerate(tets):
        for i, (a, b) in enumerate(LOCAL_EDGES):
            key = (int(tet[a]), int(tet[b]))
            key = key if key[0] < key[1] else (key[1], key[0])
            e = edge_ids.get(key)
            if e is None:
                e = len(edge_list)
                edge_ids[key] = e
                edge_list.append(key)
            tet_edges[t, i] = e
    edges = np.array(edge_list, dtype=np.int64)

    face_edges = np.empty((len(faces), 3), dtype=np.int64)
    for f, (a, b, c) in enumerate(faces):
        face_edges[f] = [edge_ids[(a, b)], edge_ids[(a, c)], edge_ids[(b, c)]]

    ne = len(edges)
    edge_faces = [[] for _ in range(ne)]
    for f in range(len(faces)):
        for e in face_edges[f]:
            edge_faces[e].append(f)
    edge_tets = [[] for _ in range(ne)]
    for t in range(nt):
        for e in tet_edges[t]:
            edge_tets[e].append(t)

    boundary_face = face_tets[:, 1] == BOUNDARY
    boundary_edge = np.zeros(ne, dtype=bool)
    for f in np.nonzero(boundary_face)[0]:
        boundary_edge[face_edges[f]] = True
    boundary_vertex = np.zeros(nv, dtype=bool)
    boundary_vertex[faces[boundary_face].ravel()] = True

    if subdomain_tags is None:
        subdomain_tags = np.zeros(nt, dtype=np.int64)
    else:
        subdomain_tags = np.asarray(subdomain_tags, dtype=np.int64).reshape(nt)
    if refinement_levels is None:
        refinement_levels = np.zeros(nt, dtype=np.int64)
    mesh = Mesh(
        vertices=vertices, tets=tets, subdomain_tag=subdomain_tags,
        refinement_level=np.asarray(refinement_levels, dtype=np.int64),
        parent=None if parents is None else np.asarray(parents, dtype=np.int64),
        faces=faces, face_tets=face_tets, tet_faces=tet_faces,
        edges=edges, tet_edges=tet_edges, face_edges=face_edges,
        edge_faces=[np.array(a, dtype=np.int64) for a in edge_faces],
        edge_tets=[np.array(a, dtype=np.int64) for a in edge_tets],
        boundary_face=boundary_face, boundary_edge=boundary_edge,
        boundary_vertex=boundary_vertex)

    if check_links:
        for e in range(ne):
            _, closed = _edge_link(mesh, e)
            if closed == boundary_edge[e]:
                raise NonConforming(
                    f"edge {e}: link {'closed' if closed else 'open'} vs boundary flag")
    return mesh


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _lattice_coord(base_num: int, i: int, n: int) -> float:
    # (base_num + i)/n with integer numerator: identical bits wherever two
    # blocks generate the same lattice point.
    return (base_num + i) / n


def _box_kuhn(n, origin_num, tag_fn=None):
    """Kuhn/Freudenthal mesh of an axis-aligned unit box.

    origin_num is the integer (numerator) coordinate of the box in units of
    1/n; vertex coordinates are computed as exact rationals over n so that
    adjacent boxes share bitwise-identical vertices.
    """
    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    verts = np.empty(((n + 1) ** 3, 3))
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                verts[vid(i, j, k)] = (
                    _lattice_coord(origin_num[0], i, n),
                    _lattice_coord(origin_num[1], j, n),
                    _lattice_coord(origin_num[2], k, n))
    tets = []
    perms = list(itertools.permutations((0, 1, 2)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corner = np.array((i, j, k))
                for perm in perms:
                    p = corner.copy()
                    ids = [vid(*p)]
                    for ax in perm:
                        p = p.copy()
                        p[ax] += 1
                        ids.append(vid(*p))
                    tets.append(ids)
    tets = np.asarray(tets, dtype=np.int64)
    if tag_fn is None:
        tags = np.zeros(len(tets), dtype=np.int64)
    else:
        centroids = verts[tets].mean(axis=1)
        tags = np.array([tag_fn(c) for c in centroids], dtype=np.int64)
    return verts, tets, tags


def unit_cube_mesh(n: int, tag_fn=None) -> Mesh:
    """Kuhn split of (0,1)^3 into 6 n^3 positively oriented tets."""
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
    blocks = [(-n, -n, 0), (-n, 0, 0), (0, 0, 0)]
    all_verts: list[np.ndarray] = []
    all_tets: list[np.ndarray] = []
    vid_of: dict[bytes, int] = {}
    for origin in blocks:
        verts, tets, _ = _box_kuhn(n, origin)
        remap = np.empty(len(verts), dtype=np.int64)
        for i, p in enumerate(verts):
            key = p.tobytes()
            g = vid_of.get(key)
            if g is None:
                g = len(all_verts)
                vid_of[key] = g
                all_verts.append(p)
            remap[i] = g
        all_tets.append(remap[tets])
    return build_mesh(np.array(all_verts), np.vstack(all_tets))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def _longest_edge(verts, tet):
    best = None
    for a, b in LOCAL_EDGES:
        va, vb = tet[a], tet[b]
        key = (va, vb) if va < vb else (vb, va)
        ln = float(np.linalg.norm(verts[key[0]] - verts[key[1]]))
        if best is None or ln > best[0] or (ln == best[0] and key < best[1]):
            best = (ln, key)
    return best[1]


def refine(mesh: Mesh, marked) -> Mesh:
    """Longest-edge bisection of the marked tets with conformity closure.

    Every marked tet is bisected at least once; neighbors are bisected as
    needed until no hanging vertices remain.  Subdomain tags and levels are
    inherited; ``parent`` maps every new tet to its ancestor in ``mesh``.
    """
    marked = set(int(t) for t in marked)
    if not marked:
        return build_mesh(mesh.vertices.copy(), mesh.tets.copy(),
                          mesh.subdomain_tag.copy(),
                          refinement_levels=mesh.refinement_level.copy(),
                          parents=np.arange(mesh.n_tets))
    if marked - set(range(mesh.n_tets)):
        raise ValueError("marked set contains invalid tet ids")

    verts = [v for v in mesh.vertices]
    tets = [tuple(int(x) for x in tet) for tet in mesh.tets]
    tags = list(mesh.subdomain_tag)
    levels = list(mesh.refinement_level)
    parents = list(range(mesh.n_tets))

    varr = mesh.vertices
    marked_edges = set(_longest_edge(varr, tets[t]) for t in marked)
    midpoint: dict[tuple, int] = {}

    for round_no in range(_CLOSURE_CAP):
        varray = np.asarray(verts)
        # closure: any tet touching a marked edge must have its own longest
        # edge marked before it may split
        changed = True
        guard = 0
        while changed:
            changed = False
            guard += 1
            if guard > _CLOSURE_CAP:
                raise ClosureOverflow("closure marking did not stabilize")
            for tet in tets:
                touch = False
                for a, b in LOCAL_EDGES:
                    key = (tet[a], tet[b]) if tet[a] < tet[b] else (tet[b], tet[a])
                    if key in marked_edges:
                        touch = True
                        break
                if touch:
                    le = _longest_edge(varray, tet)
                    if le not in marked_edges:
                        marked_edges.add(le)
                        changed = True
        # split every tet whose longest edge is marked
        new_tets, new_tags, new_levels, new_parents = [], [], [], []
        any_split = False
        for tet, tag, lvl, par in zip(tets, tags, levels, parents):
            le = _longest_edge(varray, tet)
            if le in marked_edges:
                any_split = True
                m = midpoint.get(le)
                if m is None:
                    m = len(verts)
                    verts.append(0.5 * (varray[le[0]] + varray[le[1]]))
                    midpoint[le] = m
                ia = tet.index(le[0])
                ib = tet.index(le[1])
                child_a = list(tet)
                child_a[ib] = m
                child_b = list(tet)
                child_b[ia] = m
                new_tets.extend([tuple(child_a), tuple(child_b)])
                new_tags.extend([tag, tag])
                new_levels.extend([lvl + 1, lvl + 1])
                new_parents.extend([par, par])
            else:
                new_tets.append(tet)
                new_tags.append(tag)
                new_levels.append(lvl)
                new_parents.append(par)
        tets, tags, levels, parents = new_tets, new_tags, new_levels, new_parents
        # drop edge marks that no longer occur in any tet
        live = set()
        for tet in tets:
            for a, b in LOCAL_EDGES:
                key = (tet[a], tet[b]) if tet[a] < tet[b] else (tet[b], tet[a])
                if key in marked_edges:
                    live.add(key)
        marked_edges = live
        if not marked_edges:
            break
        if not any_split:
            raise ClosureOverflow("marked edges remain but nothing splits")
    else:
        raise ClosureOverflow("bisection rounds exceeded the iteration cap")

    return build_mesh(np.asarray(verts), np.asarray(tets, dtype=np.int64),
                      np.asarray(tags), refinement_levels=np.asarray(levels),
                      parents=np.asarray(parents))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

def face_frame(mesh: Mesh, f) -> FaceFrame:
    """Deterministic orthonormal face frame: t1 along the lowest-id face edge,
    t2 = n x t1.  For an index array of faces the vectors are (len(f), 3)."""
    n = mesh.face_normals()[f]
    t1 = mesh.edge_tangent(mesh.face_edges[f].min(axis=-1))
    t2 = np.cross(n, t1)
    t2 /= np.linalg.norm(t2, axis=-1, keepdims=True)
    return FaceFrame(t1=t1, t2=t2, n=n)


def edge_face_normals(mesh: Mesh, e, f):
    """In-plane outward normal of the face boundary along edge e, and the
    edge-frame normal tangent x in-plane normal; e and f may be matching
    index arrays of (edge, face) incidences, giving (len(e), 3) each."""
    e, f = np.asarray(e), np.asarray(f)
    adjacent = (mesh.face_edges[f] == e[..., None]).any(axis=-1)
    if not adjacent.all():
        bad = np.argmin(adjacent.ravel())
        raise NotAdjacent(f"face {f.ravel()[bad]} is not adjacent to edge "
                          f"{e.ravel()[bad]}")
    ab = mesh.edges[e]
    opp = mesh.faces[f].sum(axis=-1) - ab[..., 0] - ab[..., 1]
    t = mesh.edge_tangent(e)
    w = mesh.vertices[opp] - mesh.vertices[ab[..., 0]]
    m = w - np.sum(w * t, axis=-1, keepdims=True) * t
    n_ef = -m / np.linalg.norm(m, axis=-1, keepdims=True)
    n_fe = np.cross(t, n_ef)
    return n_ef, n_fe


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def write_mesh_text(mesh: Mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices} {mesh.n_tets}\n")
        for p in mesh.vertices:
            fh.write(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for tet, tag in zip(mesh.tets, mesh.subdomain_tag):
            fh.write(f"{tet[0]} {tet[1]} {tet[2]} {tet[3]} {tag}\n")


def read_mesh_text(path) -> Mesh:
    """Read the plain-text interchange format and validate conformity."""
    with open(path) as fh:
        tokens = fh.read().split()
    it = iter(tokens)
    nv, nt = int(next(it)), int(next(it))
    verts = np.array([[float(next(it)) for _ in range(3)] for _ in range(nv)])
    rows = [[int(next(it)) for _ in range(5)] for _ in range(nt)]
    rows = np.asarray(rows, dtype=np.int64)
    return build_mesh(verts, rows[:, :4], rows[:, 4])


def write_vtk(mesh: Mesh, path, cell_data: dict | None = None) -> None:
    """Legacy ASCII VTK export with optional per-tet scalar fields."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\ncurlest mesh\nASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for p in mesh.vertices:
            fh.write(f"{p[0]} {p[1]} {p[2]}\n")
        fh.write(f"CELLS {mesh.n_tets} {5 * mesh.n_tets}\n")
        for tet in mesh.tets:
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
