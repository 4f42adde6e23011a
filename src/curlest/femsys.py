"""Global finite element spaces, assembly, and the gauged linear solve.

Every tet lists its vertices in ascending global-id order (``build_mesh``),
so it is the reference tet in one vertex order, and two tets that share an
edge or face apply identical moment functionals: the assembled field is
tangentially continuous.  The reference tables of a degree are all in the
dof basis of the reference tet, in which the canonical dofs of a field are
its coefficients; ``polyspace.reference_space`` returns that basis.
The local basis of tet t is that basis, mapped covariantly, times S_t^-1,
with S_t the element map: the identity on edge dofs, diagonal on face dofs
and kron(I, vol6 J^-T) on interior dofs.  So no element dof matrix is
formed: the functionals are applied on the reference tet only, to fields
pulled back from all tets at once, and ``DofMap.apply_map`` is the one
place that applies S_t, forward or inverse, on the local columns that
``_local_columns`` derives from the entity layout.  The Nedelec dofs and
the Lagrange nodes are numbered alike, entity by entity
(``_EntityLayout``), and matrices are summed straight into the free-dof
CSR pattern of the dof map.  The discrete gradient, S_t C on one owner tet
per dof with C the reference dofs of the scalar-basis gradients
(``_mapped_gradients``), is built on first use; only the gradient
correction of a load that is not consistent to roundoff reads it.  The
singular curl-curl system is solved, with no shift and no iteration, in
the tree-cotree gauge that ``DofMap.gauge`` picks by one rule for all k.

Integrals against current data or an analytic field use one tet rule per
degree (``_data_exactness``), face integrals of degree-p traces the exact
2p triangle rule (``_face_rule``).  A face rule sits on the reference tet
as one of its 4 faces (``Mesh.face_local``), so a one-sided trace is one
product with a cached table (``face_traces``) and no face point is mapped.
Broken fields are per-element polynomial coefficient blocks over reference
coordinates with physical components, which keeps curls, gradients and
jumps exact.

The kernels are shaped for BLAS: the curl-curl blocks of all tets are one
(T, 9) @ (9, n n) product and two applications of S_t^-1, the load one
(T, q 3) @ (q 3, n) product, H_h one (T, n) @ (n, 3 m) product, and a
broken field is evaluated by one (T comp, m) @ (m, q) product.  Tet-rule
points are mapped component-major (``_Geometry.map_points``), a per-entity
weighted squared norm is one matrix-vector product (``sq_norms``), and
each stage evaluates each tet-rule quantity once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order

from . import _poly
from . import polyspace as ps
from .errors import NoConvergence, ProjectionSolveFailure, UnsupportedDegree
from .mesh import Mesh

log = logging.getLogger("curlest")


def _data_exactness(degree: int) -> int:
    """Exactness 2p+4 of the tet rules that integrate fields of degree p
    against current data or an analytic reference field; it is exact on
    products of two degree-p fields and on projected (degree-p) currents."""
    return 2 * degree + 4


def sq_norms(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-entity weighted squared norms sum_q w_q |x[..., q, :]|^2 of x
    (..., q, c), the values of a field at the points of a rule with weights
    w.  x is squared in place, so the caller hands over an array it owns
    and no longer reads.  x is C-ordered, or the (q, c) transpose of a
    C-ordered (..., c, q) array such as ``BrokenPolyField.eval`` returns;
    the weights are laid out in that memory order, so the sum is one
    matrix-vector product over the flat rows and no temporary is made."""
    np.square(x, out=x)
    *lead, q, c = x.shape
    if x.flags.c_contiguous:
        return x.reshape(*lead, q * c) @ np.repeat(w, c)
    return x.swapaxes(-1, -2).reshape(*lead, q * c) @ np.tile(w, c)


# ---------------------------------------------------------------------------
# material and current data
# ---------------------------------------------------------------------------

@dataclass
class MaterialField:
    """Piecewise-constant permeability: a scalar for the whole mesh, or one
    value per subdomain tag, which must then name every tag of the mesh."""
    values: dict | float

    def __post_init__(self):
        if np.isscalar(self.values):
            self.values = float(self.values)
        values = self.values if isinstance(self.values, dict) else {0: self.values}
        if not values:
            raise ValueError("permeability map is empty")
        for tag, v in values.items():
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError("permeability values must be positive and "
                                 f"finite; tag {tag} has {v}")

    def per_tet(self, mesh: Mesh) -> np.ndarray:
        if not isinstance(self.values, dict):
            return np.full(mesh.n_tets, self.values)
        keys = np.array(sorted(self.values))
        tags = mesh.subdomain_tag
        at = np.minimum(np.searchsorted(keys, tags), len(keys) - 1)
        missing = keys[at] != tags
        if missing.any():
            raise ValueError(f"subdomain tag {tags[np.argmax(missing)]} has no "
                             "permeability value")
        return np.array([self.values[k] for k in keys])[at]


@dataclass
class BrokenPolyField:
    """Element-wise polynomial field: physical components as polynomials in
    the reference coordinates of each tet."""
    mesh: Mesh
    degree: int
    coeffs: np.ndarray  # (T, ncomp, n_monomials)

    @property
    def ncomp(self) -> int:
        return self.coeffs.shape[1]

    def eval(self, tets, ref_pts) -> np.ndarray:
        """Values on the listed tets at shared reference points: (t, q, comp),
        a view of one (t * comp, q) product."""
        v = _poly.vandermonde(3, self.degree, ref_pts)
        c = self.coeffs[tets]
        out = c.reshape(-1, c.shape[2]) @ v.T
        return out.reshape(c.shape[:2] + (-1,)).transpose(0, 2, 1)

    def eval_points(self, tets, pts) -> np.ndarray:
        """Values at physical points, pts (n, q, 3) with the q points of row
        i inside tets[i]: (n, q, comp), one small product per row."""
        geom = self.mesh.geom()
        tets = np.asarray(tets)
        ref = ((pts - geom.v0[tets][:, None, :])
               @ geom.Jinv[tets].transpose(0, 2, 1))
        v = _poly.vandermonde(3, self.degree, ref).reshape(pts.shape[:2] + (-1,))
        return v @ self.coeffs[tets].transpose(0, 2, 1)

    def partials(self) -> np.ndarray:
        """Coefficients of the physical partial derivatives, (T, 3, comp, n):
        entry [t, b, c] is d_b F_c.  The reference derivatives of all
        components are one product with the stacked derivative matrices;
        the chain rule is one batched J^-T product."""
        nt, nc, n = self.coeffs.shape
        dref = self.coeffs.reshape(-1, n) @ _poly.diff_columns(3, self.degree)
        dref = dref.reshape(nt, nc, 3, n).transpose(0, 2, 1, 3).reshape(nt, 3, -1)
        out = self.mesh.geom().Jinv.transpose(0, 2, 1) @ dref
        return out.reshape(nt, 3, nc, n)

    def curl(self) -> "BrokenPolyField":
        g = self.partials()
        out = np.stack([g[:, 1, 2] - g[:, 2, 1], g[:, 2, 0] - g[:, 0, 2],
                        g[:, 0, 1] - g[:, 1, 0]], axis=1)
        return BrokenPolyField(self.mesh, self.degree, out)

    def grad(self) -> "BrokenPolyField":
        return BrokenPolyField(self.mesh, self.degree, self.partials()[:, :, 0])

    def div(self) -> "BrokenPolyField":
        g = self.partials()
        out = g[:, 0, 0] + g[:, 1, 1] + g[:, 2, 2]
        return BrokenPolyField(self.mesh, self.degree, out[:, None, :])

    def padded_to(self, degree: int) -> "BrokenPolyField":
        if degree == self.degree:
            return self
        if degree < self.degree:
            raise ValueError("can only pad to a higher degree")
        nm = _poly.n_monomials(3, degree)
        out = np.zeros((self.coeffs.shape[0], self.ncomp, nm))
        out[:, :, : self.coeffs.shape[2]] = self.coeffs
        return BrokenPolyField(self.mesh, degree, out)

    def plus(self, other: "BrokenPolyField") -> "BrokenPolyField":
        deg = max(self.degree, other.degree)
        a = self.padded_to(deg)
        b = other.padded_to(deg)
        return BrokenPolyField(self.mesh, deg, a.coeffs + b.coeffs)

    def scale(self, factor) -> "BrokenPolyField":
        factor = np.asarray(factor, dtype=float)
        if factor.ndim == 1:
            factor = factor[:, None, None]
        return BrokenPolyField(self.mesh, self.degree, self.coeffs * factor)

    def mu_norms(self, mu_per_tet=None) -> np.ndarray:
        """Per-tet norms sqrt(mu int |f|^2), exact."""
        rule = ps.quadrature("tet", 2 * self.degree)
        vals = self.eval(np.arange(self.mesh.n_tets), rule.points)
        sq = sq_norms(vals, rule.weights) * self.mesh.geom().absdet
        if mu_per_tet is not None:
            sq = sq * np.asarray(mu_per_tet)
        return np.sqrt(np.maximum(sq, 0.0))

    def norm(self, mu_per_tet=None) -> float:
        return float(np.sqrt((self.mu_norms(mu_per_tet) ** 2).sum()))


@dataclass
class CurrentDensity:
    """Divergence-free current data: analytic callback or broken polynomial."""
    func: object = None
    field: BrokenPolyField | None = None

    @property
    def is_polynomial(self) -> bool:
        return self.field is not None

    def eval_elements(self, mesh: Mesh, tets, ref_pts) -> np.ndarray:
        """(t, q, 3) values on the listed tets."""
        if self.field is not None:
            return self.field.eval(tets, ref_pts)
        if self.func is None:
            raise ValueError("current density has neither a callback nor a field")
        pts = mesh.geom().map_points(tets, np.asarray(ref_pts))
        return np.asarray(self.func(pts.reshape(-1, 3))).reshape(len(tets), -1, 3)


# ---------------------------------------------------------------------------
# the entity layout of the Nedelec dofs and the Lagrange nodes; node registry
# ---------------------------------------------------------------------------

_TET_ENTITIES = np.array([4, 6, 4, 1])   # vertices, edges, faces, cells per tet


def _local_columns(width, kind: int) -> slice:
    """The columns of a tet's ids of one kind among its local ids in a
    layout of these widths, which run kind by kind, entity by entity."""
    size = np.asarray(width) * _TET_ENTITIES
    return slice(int(size[:kind].sum()), int(size[:kind + 1].sum()))


class _EntityLayout:
    """Entity-major numbering with ``width[d]`` ids on every entity of kind d
    (the polyspace NODE_* codes): kinds in turn, entities in id order, each
    entity's ids contiguous.  Entity e of kind d is entry base[d] + e of
    ``first`` (its first id), ``count``, ``fixed`` (its boundary flag) and
    ``tet_entities`` (T, 15: each tet's vertices, edges, faces and itself)."""

    def __init__(self, mesh: Mesh, width):
        self.width = np.asarray(width)
        n = [mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_tets]
        self.base = np.cumsum([0] + n[:3])
        self.count = np.repeat(self.width, n)
        self.first = np.cumsum(self.count) - self.count
        self.fixed = np.concatenate([mesh.boundary_vertex, mesh.boundary_edge,
                                     mesh.boundary_face, np.zeros(n[3], dtype=bool)])
        self.boundary = np.repeat(self.fixed, self.count)      # per id
        self.tet_entities = np.concatenate(
            [mesh.tets, mesh.tet_edges + self.base[1], mesh.tet_faces + self.base[2],
             np.arange(n[3])[:, None] + self.base[3]], axis=1)

    def ids(self, kind: int, entities) -> np.ndarray:
        """(..., width[kind]) the ids of the given entities of one kind."""
        return self.first[self.base[kind] + entities][..., None] + np.arange(self.width[kind])

    def locate(self, ids):
        """(kind, entity) of the given ids."""
        g = np.searchsorted(self.first, ids, side="right") - 1
        kind = np.searchsorted(self.base, g, side="right") - 1
        return kind, g - self.base[kind]


@lru_cache(maxsize=None)
def _lagrange_layout(degree: int):
    """Degree-k Lagrange nodes per vertex, edge, face and tet, and each
    local node's offset in its entity: its place among that entity's nodes
    in ``lagrange_nodes`` order."""
    nodes = ps.lagrange_nodes(degree)
    group = nodes.kind * 6 + nodes.entity
    offset = np.array([np.sum(group[:i] == g) for i, g in enumerate(group)])
    width = np.bincount(nodes.kind[nodes.entity == 0], minlength=4)
    for table in (width, offset):
        table.setflags(write=False)
    return width, offset


@dataclass
class NodeRegistry:
    degree: int
    kind: np.ndarray          # (N,) polyspace NODE_* codes
    entity: np.ndarray        # (N,) global vertex/edge/face/tet id
    boundary: np.ndarray      # (N,) bool; the other nodes are the free scalar dofs
    tet_nodes: np.ndarray     # (T, nloc) global node id per local node

    @property
    def n_nodes(self) -> int:
        return len(self.kind)

    def node_name(self, g: int) -> str:
        """The entity that carries node ``g``, e.g. "vertex 12"."""
        return f"{ps.NODE_NAMES[self.kind[g]]} {self.entity[g]}"


def build_node_registry(mesh: Mesh, degree: int) -> NodeRegistry:
    """Number the degree-k Lagrange nodes in the entity layout, as the dof
    map numbers the Nedelec dofs: vertex v is node v, then come k-1 nodes
    per edge, (k-1)(k-2)/2 per face and (k-1)(k-2)(k-3)/6 per tet, each
    entity's in ``lagrange_nodes`` order of their weights on its vertices,
    which every tet lists in ascending global-id order."""
    nodes = ps.lagrange_nodes(degree)
    width, offset = _lagrange_layout(degree)
    lay = _EntityLayout(mesh, width)
    col = (np.cumsum(_TET_ENTITIES) - _TET_ENTITIES)[nodes.kind] + nodes.entity
    tet_nodes = lay.first[lay.tet_entities[:, col]] + offset
    return NodeRegistry(degree, *lay.locate(np.arange(len(lay.boundary))),
                        lay.boundary, tet_nodes)


# ---------------------------------------------------------------------------
# the dof map: one per mesh level
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """The degree-k Nedelec space of a mesh with homogeneous tangential
    boundary values, and what is built once per mesh: the non-identity
    parts of the element maps S_t, which only ``apply_map`` applies, the
    degree-k Lagrange node registry and the CSR pattern of the free x free
    block.  ``slot[t, i, j]`` is the position in that pattern of entry
    (i, j) of element t's block, or ``len(indices)`` when the entry touches
    a boundary dof, so a sparse matrix is its element blocks summed by one
    ``np.add.at`` (``_assemble_free``).  The discrete gradient ``G`` between
    the free dofs of the two spaces and the gauge are built on first read."""
    mesh: Mesh
    degree: int
    layout: _EntityLayout       # the dofs by edge, face and cell
    cell_dofs: np.ndarray       # (T, nloc)
    free: np.ndarray            # ids of the interior dofs, ascending
    face_scale: np.ndarray      # (T, 4, 2) S_t per local face and direction
    cell_map: np.ndarray        # (T, 3, 3) J^T / vol6
    registry: NodeRegistry      # degree-k Lagrange nodes
    indptr: np.ndarray          # (n_free + 1,) free x free CSR pattern:
    indices: np.ndarray         # (nnz,) canonical: sorted rows, no duplicates
    slot: np.ndarray            # (T, nloc, nloc) CSR position per local entry

    @property
    def n_dofs(self) -> int:
        return len(self.layout.boundary)

    @property
    def n_free(self) -> int:
        return len(self.free)

    def apply_map(self, x: np.ndarray, inverse: bool = False,
                  transpose: bool = False) -> None:
        """x <- x S_t^T in place, or x S_t^-1 with ``inverse``; x S_t or
        x S_t^-T with ``transpose``.  x is (T, ..., nloc), the local dofs of
        tet t on its last axis, and may be a strided view.  The face columns
        run monomial-major, direction-minor and take ``face_scale``; the
        interior ones run monomial-major, component-minor and take one
        (..., m, 3) @ (3, 3) product, with vol6 J^-1 or ``cell_map``."""
        T, mid, w = len(x), (1,) * (x.ndim - 2), self.layout.width
        if w[ps.NODE_FACE]:
            faces = x[..., _local_columns(w, ps.NODE_FACE)]
            r = np.repeat(self.face_scale, w[ps.NODE_FACE] // 2, axis=1)
            r = r.reshape((T,) + mid + faces.shape[-1:])
            faces[...] = faces / r if inverse else faces * r
        if w[ps.NODE_CELL]:
            geom = self.mesh.geom()
            M = self.cell_map if inverse else geom.absdet[:, None, None] * geom.Jinv
            M = M.transpose(0, 2, 1) if transpose else M
            cells = x[..., _local_columns(w, ps.NODE_CELL)]
            cells[...] = (cells.reshape(x.shape[:-1] + (w[ps.NODE_CELL] // 3, 3))
                          @ M.reshape((T,) + mid + (3, 3))).reshape(cells.shape)

    @cached_property
    def G(self) -> sp.csc_matrix:
        """(n_free, free registry nodes) discrete gradient."""
        return discrete_gradient(self)

    @cached_property
    def gauge(self) -> np.ndarray:
        """The tree-cotree gauge: free-dof indices R, one per free Lagrange
        node, such that G[R, :] is square and nonsingular.  Fixing u[R] = 0
        removes the gradients from the free space, so the curl-curl block on
        the other free dofs is positive definite.

        R is picked entity by entity, without G, in the order vertices,
        edges, faces, cells; a dof sees only the nodes on the closure of its
        entity, so in that order G[R, :] is block lower triangular:
        - vertices: the lowest (constant) moment of every edge of a spanning
          forest of the interior vertices with all boundary vertices merged
          into one root.  A vertex hat's gradient has moment +-1 on the
          edges at its vertex, so this block is the forest's incidence
          matrix;
        - each free edge, face and cell: one moment per Lagrange node of its
          own, the ``_pivoted_rows`` of the block of its moments and those
          nodes' gradients (Schoberl & Zaglmayr, COMPEL 24, 2005).  S_t is
          the identity on edge rows and rescales face rows, so one pick on
          the reference tet serves all edges or faces; it mixes cell rows,
          so each cell picks from its mapped block."""
        mesh, lay = self.mesh, self.layout
        inner = ~mesh.boundary_vertex
        n = int(inner.sum())                     # graph nodes; n is the root
        node = np.where(inner, np.cumsum(inner) - 1, n)
        edges = np.nonzero(~mesh.boundary_edge)[0]
        lo, hi = np.sort(node[mesh.edges[edges]], axis=1).T
        # root-root edges are loops; the edges from one vertex to the
        # boundary are one (vertex, root) pair, kept once
        link = lo != hi
        keys, first = np.unique((lo * (n + 1) + hi)[link], return_index=True)
        pair_edge = edges[link][first]
        a, b = np.divmod(keys, n + 1)
        graph = sp.csr_matrix((np.ones(len(keys)), (a, b)), shape=(n + 1, n + 1))
        _, pred = breadth_first_order(graph, n, directed=False,
                                      return_predecessors=True)
        v = np.arange(n)
        tree = pair_edge[np.searchsorted(keys, np.minimum(v, pred[:n]) * (n + 1)
                                         + np.maximum(v, pred[:n]))]
        dofs = [lay.ids(ps.NODE_EDGE, tree)[:, 0]]
        nodes, C = ps.lagrange_nodes(self.degree), _ref_tables(self.degree).C
        for kind, free in ((ps.NODE_EDGE, edges),
                           (ps.NODE_FACE, np.nonzero(~mesh.boundary_face)[0]),
                           (ps.NODE_CELL, np.arange(mesh.n_tets))):
            own = (nodes.kind == kind) & (nodes.entity == 0)
            if not own.any():           # no node of its own: no dof to fix
                continue
            at = _local_columns(lay.width, kind).start + np.arange(lay.width[kind])
            block = (C[at][:, own] if kind != ps.NODE_CELL else
                     _mapped_gradients(self, own)[..., at].transpose(0, 2, 1))
            dofs.append((lay.first[lay.base[kind] + free][:, None]
                         + _pivoted_rows(block)).ravel())
        return np.searchsorted(self.free, np.concatenate(dofs))

    @cached_property
    def ungauged(self) -> np.ndarray:
        """The free-dof indices outside the gauge, ascending."""
        keep = np.ones(self.n_free, dtype=bool)
        keep[self.gauge] = False
        return np.nonzero(keep)[0]

    def dof_entity(self, dof: int) -> str:
        """The edge, face or tet that carries global dof ``dof``."""
        kind, entity = self.layout.locate(dof)
        return f"{ps.NODE_NAMES[kind]} {entity}"


@dataclass
class FieldCoefficients:
    dofmap: DofMap
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dofmap.n_dofs,):
            raise ValueError("coefficient vector length does not match dof map")


def build_dofmap(mesh: Mesh, degree: int) -> DofMap:
    """Number the Nedelec dofs in the entity layout (edge, face, then
    interior blocks, each entity's dofs contiguous), take the per-tet
    scalings of the element maps once, and build the free-dof sparsity
    pattern."""
    if not 1 <= degree <= ps.MAX_DEGREE:
        raise UnsupportedDegree(f"Nedelec degree {degree} outside 1..{ps.MAX_DEGREE}")
    k = degree
    lay = _EntityLayout(mesh, _nedelec_width(k))
    ent = lay.tet_entities[:, np.repeat(lay.width, _TET_ENTITIES) > 0]  # with dofs
    le = np.repeat(np.arange(ent.shape[1]), lay.count[ent[0]])  # entity of local dof
    off = np.arange(len(le)) - np.searchsorted(le, le)        # offset in the entity
    # J^T / vol6, C-contiguous: the inverse map's products round by layout
    geom = mesh.geom()
    cell_map = np.ascontiguousarray(geom.J.transpose(0, 2, 1)) / geom.absdet[:, None, None]
    return DofMap(mesh, k, lay, lay.first[ent][:, le] + off,
                  np.nonzero(~lay.boundary)[0], _face_scale(mesh), cell_map,
                  build_node_registry(mesh, k),
                  *_free_pattern(ent, lay.count, ~lay.fixed, le, off))


def _nedelec_width(k: int) -> tuple:
    """Degree-k Nedelec dofs per vertex, edge, face and tet."""
    return (0, k, k * (k - 1), k * (k - 1) * (k - 2) // 2)


def _face_scale(mesh: Mesh) -> np.ndarray:
    """S_t on the face rows, (T, 4, 2): the ratio of area2 / |e_d| on the
    tet to that on the reference tet for every local face and in-plane
    direction d; it scales each of the face's monomials alike."""
    lv = np.array(ps.TET_FACES)
    v = np.concatenate([mesh.vertices[mesh.tets], ps.TET_VERTS[None]])
    e = v[:, lv[:, 1:]] - v[:, lv[:, :1]]      # face frames; the reference tet's last
    area2 = np.linalg.norm(np.cross(e[:, :, 0], e[:, :, 1]), axis=-1)
    r = area2[..., None] / np.linalg.norm(e, axis=-1)
    return r[:-1] / r[-1]


def _free_pattern(ent, width, free, le, off):
    """indptr, indices and slot of the free x free block (see DofMap), from
    the dof-carrying entities ``ent`` (T, E) of the tets, the widths and
    free flags of all entities of the layout, and each local dof's column
    ``le`` in ``ent`` and offset ``off`` in its entity.

    Every dof block belongs to one edge, face or cell, and a boundary
    entity's dofs are all fixed, so the pattern is built on entities: the
    (entity, entity) pairs of all tets are deduplicated once, and each pair
    expands to the block of its row entity's rows and column entity's
    columns.  Rows of one entity share their column list."""
    n_ent = len(width)
    first = np.cumsum(width * free) - width * free           # first free dof

    # the (row entity, column entity) pairs among free entities, sorted;
    # each row entity's column list is its pairs' column blocks in order
    ok = free[ent][:, :, None] & free[ent][:, None, :]
    keys = (ent[:, :, None] * n_ent + ent[:, None, :])[ok]
    pairs, inverse = np.unique(keys, return_inverse=True)
    pa, pb = np.divmod(pairs, n_ent)
    wb = width[pb]
    seg = np.cumsum(wb) - wb                 # pair's start in the column lists
    rows, rstart = np.unique(pa, return_index=True)
    count = np.diff(np.append(rstart, len(pa)))              # pairs per row entity
    rlen = np.diff(np.append(seg[rstart], wb.sum()))         # its row length
    rwidth = width[rows]
    size = rwidth * rlen
    nnz = int(size.sum())
    # slot values reach 2 nnz before the clip below
    itype = np.int32 if 2 * nnz < 2 ** 31 else np.int64

    row_len = np.repeat(rlen, rwidth)
    indptr = np.zeros(len(row_len) + 1, dtype=itype)
    np.cumsum(row_len, out=indptr[1:])
    cols = (np.repeat(first[pb] - seg, wb) + np.arange(wb.sum())).astype(itype)
    # every row of an entity reads the entity's column list
    shift = (np.repeat(seg[rstart], rwidth) - indptr[:-1]).astype(itype)
    indices = cols[np.repeat(shift, row_len) + np.arange(nnz, dtype=itype)]

    # slot = pair start + row offset * row length + column offset, clipped to
    # the dump slot nnz on entries of boundary entities
    pstart = np.full(ok.shape, nnz, dtype=itype)
    pstart[ok] = (np.repeat(np.cumsum(size) - size - seg[rstart], count) + seg)[inverse]
    rlen_ent = np.zeros(n_ent, dtype=itype)
    rlen_ent[rows] = rlen
    off = off.astype(itype)
    # one take over the flattened pairs, so slot comes out C-contiguous and
    # ravels without a copy
    T, E = ent.shape
    slot = np.take(pstart.reshape(T, -1), (le[:, None] * E + le).ravel(),
                   axis=1).reshape(T, len(le), len(le))
    slot += (off * rlen_ent[ent][:, le])[:, :, None]
    slot += off
    np.minimum(slot, nnz, out=slot)
    return indptr, indices, slot


# ---------------------------------------------------------------------------
# element-level machinery
# ---------------------------------------------------------------------------

class _RefTables:
    """The reference tables of the degree, all in the dof basis of the
    reference tet, in which the canonical dofs of a field are its
    coefficients.  ``coeffs`` (n, 3, m) holds the monomial coefficients of
    that basis as ``reference_space`` returns them, corrected there.  The
    other tables derive from them: the curl coefficients ``dof_curls`` (n,
    3 m) and, at the data rule of the degree, the curls, the weighted values
    ``wvals`` (q 3, n) and the value pairs VV (9, n n).  The curl pairs CC
    (9, n n), of degree 2k - 2, take the rule exact for that degree, whose
    fewer points round less: the estimator amplifies the rounding of CC.
    So an element's blocks, its load and its H_h only need the inverse
    element map (``DofMap.apply_map``); VV serves only ``assemble_mass``.
    C (n, n_lag) holds the dofs of the scalar-basis gradients.

    The rest serves estimator step 1, one reference problem in the metric
    of each tet.  G holds the dofs of the gradients of the non-constant
    monomials, which span the kernel of the curl-curl block on every tet;
    TVG pairs them with the basis values.  Z is an orthonormal basis of the
    fields orthogonal to them on the reference tet (the null space of TVG's
    identity-metric trace): a complement of the kernel that another tet's
    metric tilts only a little, so projecting off its gradient part loses
    few digits to cancellation.  ZCCZ, the curl-curl table on Z, TVG and
    TVGG = TVG G are (9, .) tables; wcurlZ maps the weighted reference
    current to the load on Z."""

    def __init__(self, degree: int):
        self.rule = ps.quadrature("tet", _data_exactness(degree))
        w, v = self.rule.weights, _poly.vandermonde(3, degree, self.rule.points)
        space = ps.reference_space(ps.NEDELEC1_TET, degree)
        self.coeffs = space.coeffs
        ccoef, n = space.curl_coeffs(), space.dim
        self.dof_curls = ccoef.reshape(n, -1)
        vals = np.einsum("qm,icm->qci", v, self.coeffs)
        self.curls = np.einsum("qm,iam->qai", v, ccoef)
        self.wvals = (w[:, None, None] * vals).reshape(-1, n)
        cc = ps.quadrature("tet", 2 * degree - 2)
        c = np.einsum("qm,iam->qai", _poly.vandermonde(3, degree, cc.points), ccoef)
        self.CC = _pairs(cc.weights, c, c).reshape(9, n * n)
        self.VV = _pairs(w, vals, vals).reshape(9, n * n)
        gradc = ps.reference_space(ps.P_SCALAR_TET, degree).grad_coeffs()
        self.C = ps.reference_dofs(ps.NEDELEC1_TET, degree, gradc)

        D = _poly.diff_stack(3, degree)
        grads = np.einsum("qm,bmn->qbn", v, D)[:, :, 1:]
        self.G = ps.reference_dofs(ps.NEDELEC1_TET, degree, D.transpose(2, 0, 1)[1:])
        nB = self.G.shape[1]
        TVG = _pairs(w, vals, grads).transpose(0, 1, 3, 2).reshape(9, nB, n)
        self.Z = np.linalg.svd(TVG[[0, 4, 8]].sum(axis=0))[2][nB:].T
        self.ZCCZ = (self.Z.T @ self.CC.reshape(9, n, n) @ self.Z).reshape(9, -1)
        self.TVG = TVG.reshape(9, -1)
        self.TVGG = (TVG @ self.G).reshape(9, -1)
        self.wcurlZ = (w[:, None, None] * self.curls).reshape(-1, n) @ self.Z


def _pairs(w, f, g) -> np.ndarray:
    """The weighted pairs sum_q w_q f[q, a, i] g[q, b, j] of two tables of
    values at the rule points, (3, 3, nf, ng), as one matrix product."""
    q, _, nf = f.shape
    out = (w[:, None, None] * f).reshape(q, -1).T @ g.reshape(q, -1)
    return out.reshape(3, nf, 3, -1).transpose(0, 2, 1, 3)


_ref_tables = lru_cache(maxsize=None)(_RefTables)


def _element_blocks(dofmap: DofMap, K: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(T, n, n) element blocks S_t^-T (K_t : pairs) S_t^-1 in the local
    dofs, from per-tet metrics K (T, 9) and a (9, n n) pairs table in the
    dof basis of the reference tet: one (T, 9) @ (9, n n) product, then the
    column and the row scalings in place."""
    n = dofmap.cell_dofs.shape[1]
    blocks = (K @ pairs).reshape(len(K), n, n)
    dofmap.apply_map(blocks, inverse=True)
    dofmap.apply_map(blocks.transpose(0, 2, 1), inverse=True)
    return blocks


def _assemble_free(dofmap: DofMap, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum element blocks (T, n, n) in the local dofs into the dof map's
    free x free pattern.  ``np.add.at`` adds them in the order of ``slot``,
    as a ``np.bincount`` would, but reads the int32 slots without an int64
    copy of them; the entries that touch a boundary dof all land in the
    dump slot past the pattern."""
    nnz = len(dofmap.indices)
    data = np.zeros(nnz + 1)
    np.add.at(data, dofmap.slot.ravel(), blocks.ravel())
    return sp.csr_matrix((data[:nnz], dofmap.indices, dofmap.indptr),
                         shape=(dofmap.n_free, dofmap.n_free))


def assemble_curlcurl(mesh: Mesh, dofmap: DofMap,
                      mu: MaterialField) -> sp.csr_matrix:
    """Stiffness (mu^-1 curl u, curl w) over the free dofs."""
    geom = mesh.geom()
    K = (geom.J.transpose(0, 2, 1) @ geom.J).reshape(-1, 9)
    K /= (geom.absdet * mu.per_tet(mesh))[:, None]
    return _assemble_free(dofmap, _element_blocks(dofmap, K, _ref_tables(dofmap.degree).CC))


def assemble_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    """Mass (u, w) over the free dofs.  No run needs it since the solve is
    gauged; it stays as a test oracle and for the benchmark's tracer."""
    geom = mesh.geom()
    K = np.linalg.inv(geom.J.transpose(0, 2, 1) @ geom.J).reshape(-1, 9)
    K *= geom.absdet[:, None]
    return _assemble_free(dofmap, _element_blocks(dofmap, K, _ref_tables(dofmap.degree).VV))


@dataclass(frozen=True)
class Load:
    """A load vector and the scalar load it puts on the free Lagrange nodes.

    ``scalar`` is G^T values[free]: entry p is (j, grad psi_p), which
    vanishes for a current that is divergence free and integrated exactly.
    ``bound`` is the rounding error that its assembly may commit (see
    ``assemble_rhs``).  ``values`` is read-only because ``consistent``
    describes these values: ``adapt.solve_level`` solves a consistent
    load's ``values`` uncorrected, and a load changed after assembly is a
    new plain vector, whose gradient part nobody has bounded, so it gets
    the full correction."""
    values: np.ndarray   # (n_dofs,) (j, w) over all dofs
    scalar: np.ndarray   # (free registry nodes,)
    bound: np.ndarray    # (free registry nodes,)

    @property
    def gradient_ratio(self) -> float:
        """The largest |scalar| / bound over the free nodes; 0 without any."""
        ratio = np.divide(np.abs(self.scalar), self.bound,
                          out=np.zeros_like(self.bound), where=self.bound > 0)
        return float(ratio.max(initial=0.0))

    @property
    def consistent(self) -> bool:
        """Whether the scalar load is within its rounding bound everywhere."""
        return self.gradient_ratio <= 1.0


def assemble_rhs(mesh: Mesh, dofmap: DofMap, j: CurrentDensity) -> Load:
    """Load vector (j, w) over all dofs, with its scalar load and that
    load's rounding bound; the solve reads the free entries.

    Each tet's load in the dof basis of the reference tet, b_ref, is one
    product with the weighted values; S_t^-T (``DofMap.apply_map``) turns
    it into the element load.  With C the reference dofs of the scalar-basis
    gradients, which are their coefficients in that basis, the local block
    of G is S_t C, and S_t^T maps the element load back to b_ref, so tet t
    adds C^T b_ref[t] to the scalar load of its nodes.  On a free node no
    boundary dof contributes: the gradient of psi_p has no tangential trace
    on a boundary entity.  So G itself is not needed."""
    k = dofmap.degree
    tab = _ref_tables(k)
    geom = mesh.geom()
    rule = tab.rule
    jvals = j.eval_elements(mesh, np.arange(mesh.n_tets), rule.points)
    jhat = jvals @ geom.Jinv.transpose(0, 2, 1)             # J^-1 j
    jhat = jhat.reshape(len(jhat), -1)
    det = geom.absdet[:, None]
    b_ref = det * (jhat @ tab.wvals)

    reg = dofmap.registry
    C = tab.C
    nodes, free = reg.tet_nodes.ravel(), ~reg.boundary
    scalar = np.bincount(nodes, (b_ref @ C).ravel(), minlength=reg.n_nodes)[free]
    size = (det * (np.abs(jhat) @ np.abs(tab.wvals))) @ np.abs(C)
    size = np.bincount(nodes, size.ravel(), minlength=reg.n_nodes)[free]
    # A computed sum whose terms each pass through at most n roundings on
    # their way to the result errs by at most n u times the sum of the
    # terms' magnitudes, to first order (Higham, Accuracy and Stability of
    # Numerical Algorithms, sec. 3.1).  A term of the scalar load of node p
    # is rounded by three products (with wvals, det J and C) and by the
    # additions of three nested sums: 3q - 1 over the quadrature's q points
    # and 3 components, n_ned - 1 over the product with C and valence - 1
    # over the tets that hold p.  That makes n = 3q + n_ned + valence, and
    # ``size`` is the sum of the magnitudes.  The tables wvals and C count
    # as exact; their own rounding adds a few u per term, well inside n.
    valence = np.bincount(nodes, minlength=reg.n_nodes)[free]
    n = tab.wvals.shape[0] + C.shape[0] + valence
    dofmap.apply_map(b_ref, inverse=True)                   # the element loads
    values = np.bincount(dofmap.cell_dofs.ravel(), weights=b_ref.ravel(),
                         minlength=dofmap.n_dofs)
    values.setflags(write=False)
    return Load(values, scalar, n * (np.finfo(float).eps / 2) * size)


def _pulled_back(mesh: Mesh, func, M: np.ndarray):
    """field_eval of the reference functionals for an analytic field pulled
    back from every tet: at reference points, the values f(F_t(x)) @ M_t
    with all tets on the field axis, (q, 3, T).  ``func`` is evaluated as
    analytic current data are, at the points of ``_Geometry.map_points``."""
    f, tets = CurrentDensity(func=func), np.arange(mesh.n_tets)
    return lambda ref_pts: (f.eval_elements(mesh, tets, ref_pts) @ M).transpose(1, 2, 0)


def interpolate_nedelec(mesh: Mesh, dofmap: DofMap, func) -> FieldCoefficients:
    """Canonical dof interpolation of an analytic field: the reference
    functionals of its covariant pull-back J^T f on all tets, mapped by
    S_t (``DofMap.apply_map``).  Shared dofs receive identical values from
    both sides by construction."""
    k, geom = dofmap.degree, mesh.geom()
    d = ps.nedelec_dof_matrix(ps.TET_VERTS, k, _pulled_back(mesh, func, geom.J)).T
    dofmap.apply_map(d)
    vals = np.zeros(dofmap.n_dofs)
    vals[dofmap.cell_dofs] = d
    return FieldCoefficients(dofmap, vals)


def compute_Hh(mesh: Mesh, dofmap: DofMap, u: FieldCoefficients,
               mu: MaterialField) -> BrokenPolyField:
    """H_h = mu^-1 curl u_h as a broken polynomial: the coefficients of u_h
    on tet t in the dof basis of the reference tet are S_t^-1 u_loc, so the
    reference curl is one scaling of u_loc and one product with the curl
    table of that basis."""
    k = dofmap.degree
    geom = mesh.geom()
    x = u.values[dofmap.cell_dofs]
    dofmap.apply_map(x, inverse=True, transpose=True)
    cc = (x @ _ref_tables(k).dof_curls).reshape(mesh.n_tets, 3, -1)
    out = (geom.J @ cc) / (geom.sign * geom.absdet * mu.per_tet(mesh))[:, None, None]
    return BrokenPolyField(mesh, k, out)


# ---------------------------------------------------------------------------
# discrete gradient and right-hand-side correction
# ---------------------------------------------------------------------------

def _mapped_gradients(dofmap: DofMap, nodes=slice(None)) -> np.ndarray:
    """(T, n_lag, nloc) the transposed local blocks S_t C of the gradients
    of the scalar basis, or of the given nodes' only.  The reference dofs C
    are the gradients' coefficients in the dof basis of the reference tet,
    and gradients map covariantly, so ``DofMap.apply_map`` maps the tiled
    reference block."""
    C = _ref_tables(dofmap.degree).C[:, nodes]
    x = np.tile(C.T, (len(dofmap.cell_dofs), 1, 1))
    dofmap.apply_map(x)
    return x


def discrete_gradient(dofmap: DofMap) -> sp.csc_matrix:
    """Coefficient map G with grad(psi) = field(G psi), from the free nodes
    of the dof map's registry to its free Nedelec dofs.

    The row of a dof is read from the first tet that holds it, as column i
    of that tet's ``_mapped_gradients``: a dof sees only the gradients of
    the nodes on the closure of its edge, face or cell, and every tet that
    holds the dof holds those nodes."""
    reg = dofmap.registry
    _, first = np.unique(dofmap.cell_dofs, return_index=True)
    t, i = np.divmod(first[~dofmap.layout.boundary], dofmap.cell_dofs.shape[1])
    rows = _mapped_gradients(dofmap)[t, :, i]                 # (n_free, n_lag)
    nodes = reg.tet_nodes[t]
    free = ~reg.boundary
    keep = free[nodes]
    col = np.cumsum(free) - 1                                 # free node index
    return sp.csc_matrix((rows[keep], (np.nonzero(keep)[0], col[nodes[keep]])),
                         shape=(len(t), int(free.sum())))


def _pivoted_rows(B: np.ndarray) -> np.ndarray:
    """(..., n) ascending indices of n rows of each (m, n) block B, picked
    by greedy column-pivoted QR of B^T: each step takes the row of largest
    norm, the first within 1e-8 of it so that a tie in exact arithmetic is
    not broken by roundoff, and projects its direction off the others."""
    picks = np.zeros(B.shape[:-2] + B.shape[-1:], dtype=int)
    for j in range(B.shape[-1]):
        size = np.linalg.norm(B, axis=-1)
        i = picks[..., j] = np.argmax(size >= (1.0 - 1e-8) * size.max(-1, keepdims=True), -1)
        q = np.take_along_axis(B, i[..., None, None], axis=-2)
        q = q / np.linalg.norm(q, axis=-1, keepdims=True)
        B = B - (B @ q.swapaxes(-1, -2)) * q
    return np.sort(picks, axis=-1)


def _factor_spd(K: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of a symmetric positive definite matrix in SuperLU's
    symmetric mode: minimum-degree ordering of the structure of K + K^T and
    diagonal pivots, so the fill follows the symmetric graph.  Without
    pivoting, a near-singular pivot shows up as a non-finite solve rather
    than as an exception."""
    return spla.splu(sp.csc_matrix(K), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def gradient_correction(dofmap: DofMap, rhs: np.ndarray) -> np.ndarray:
    """Project the load vector onto the complement of the discrete gradients.

    Returns r' = r - G q with q solving (G^T G) q = G^T r over the interior
    scalar dofs, so G^T r' = 0 and the singular system stays consistent in
    the presence of quadrature error.  It always projects; whether a load
    needs it is decided by the caller (``adapt.solve_level`` skips a
    ``Load`` that is ``consistent``).
    """
    Gf = dofmap.G
    if Gf.shape[1] == 0:
        return rhs.copy()
    r = rhs[dofmap.free]
    try:
        q = _factor_spd(Gf.T @ Gf).solve(Gf.T @ r)
    except RuntimeError as exc:
        raise ProjectionSolveFailure(str(exc))
    if not np.all(np.isfinite(q)):
        raise ProjectionSolveFailure("projection solve produced non-finite values")
    out = rhs.copy()
    out[dofmap.free] = r - Gf @ q
    return out


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

RESIDUAL_TOL = 1e-10   # relative residual of the free rows that a solve must reach


def solve_magnetostatic(A: sp.csr_matrix, rhs: np.ndarray,
                        dofmap: DofMap) -> tuple[FieldCoefficients, float]:
    """Solve the singular, consistent curl-curl system A u = rhs[free] in
    the tree-cotree gauge and scatter to full dofs.

    The returned coefficients are one gauge representative; only the curl
    is used downstream.  With R = ``dofmap.gauge`` and C the other free
    dofs, u[R] = 0 and A[C, C] u[C] = b[C] is solved by one symmetric-mode
    factorisation of the positive definite block.  A gauge that does not fix
    one dof per free Lagrange node raises NoConvergence before any factoring:
    a consistent load can pass the residual check on a singular block.  The
    residual is checked on all free rows: a load with a gradient part
    (G^T b != 0) has no solution and fails it on the rows in R, which
    raises NoConvergence.  Returns the coefficients and the relative
    residual |b - A u| / |b| of the free rows, 0 for a zero load.
    """
    b = rhs[dofmap.free]
    full = np.zeros(dofmap.n_dofs)
    bnorm = np.linalg.norm(b)
    n_gauge = len(dofmap.gauge)
    n_nodes = int((~dofmap.registry.boundary).sum())
    if n_gauge != n_nodes:
        raise NoConvergence(f"the gauge fixes {n_gauge} dofs for {n_nodes} free "
                            "Lagrange nodes; it must fix one per node")
    if A.shape[0] == 0 or bnorm == 0.0:
        return FieldCoefficients(dofmap, full), 0.0
    C = dofmap.ungauged
    try:
        lu = _factor_spd(A[C][:, C])
    except RuntimeError as exc:
        raise NoConvergence(f"gauged system: {exc}") from exc
    u = np.zeros(A.shape[0])
    u[C] = lu.solve(b[C])
    if not np.all(np.isfinite(u)):
        raise NoConvergence("the gauged solve gave non-finite values; is the "
                            "gauged block singular?")
    r = b - A @ u
    rel = float(np.linalg.norm(r) / bnorm)
    log.debug("gauged solve of %d dofs: gauge %d dofs, factor nnz %d, "
              "relative residual %.2e", A.shape[0], n_gauge, lu.nnz, rel)
    if not rel <= RESIDUAL_TOL:
        i = int(np.argmax(np.abs(r)))
        d = int(dofmap.free[i])
        raise NoConvergence(
            f"relative residual {rel:.2e} of the gauged solve exceeds "
            f"{RESIDUAL_TOL:.0e}; largest at free dof {i} (dof {d}, "
            f"{dofmap.dof_entity(d)}); was the load gradient-corrected?")
    full[dofmap.free] = u
    return FieldCoefficients(dofmap, full), rel


# ---------------------------------------------------------------------------
# current projection
# ---------------------------------------------------------------------------

def project_current(mesh: Mesh, j_func, degree: int) -> CurrentDensity:
    """Element-wise div-conforming interpolation of an analytic current:
    the reference functionals of its Piola pull-back det J J^-1 j on all
    tets, which are its coefficients in the corrected basis of
    ``reference_space``, and the Piola map back.

    Face moments follow the ascending vertex ids, so normal fluxes match
    across internal faces and the interpolant is H(div)-conforming.
    """
    geom = mesh.geom()
    det = (geom.sign * geom.absdet)[:, None, None]
    # det J J^-T, C-contiguous: a batched product with a strided one is slower
    M = det * np.ascontiguousarray(geom.Jinv.transpose(0, 2, 1))
    b = ps.rt_dof_matrix(ps.TET_VERTS, degree, _pulled_back(mesh, j_func, M),
                         exactness=_data_exactness(degree))
    cref = np.einsum("it,icm->tcm", b, ps.reference_space(ps.RT_TET, degree).coeffs)
    field = BrokenPolyField(mesh, degree, (geom.J @ cref) / det)
    return CurrentDensity(func=j_func, field=field)


# ---------------------------------------------------------------------------
# face jump utilities and norms
# ---------------------------------------------------------------------------

def _face_rule(degree: int) -> ps.QuadratureRule:
    """The exact 2p triangle rule of the traces of a degree-p field: every
    face integral of one trace or of two traces' product."""
    return ps.quadrature("tri", 2 * degree)


@lru_cache(maxsize=None)
def _face_trace_tables(degree: int) -> np.ndarray:
    """(4, q, n_monomials) Vandermonde of the points of ``_face_rule`` on
    the reference faces: row i holds local face i (``Mesh.face_local``),
    the rule's coordinates being the face's affine coordinates, which run
    along b - a and c - a over its vertices a < b < c."""
    s = _face_rule(degree).points
    bary = np.column_stack([1.0 - s[:, 0] - s[:, 1], s])
    out = np.stack([_poly.vandermonde(3, degree, bary @ ps.TET_VERTS[list(f)])
                    for f in ps.TET_FACES])
    out.setflags(write=False)
    return out


def face_traces(mesh: Mesh, field: BrokenPolyField, faces: np.ndarray,
                side: int) -> np.ndarray:
    """Values of the field on the plus (side 0) or minus (side 1) tet of
    each listed face at the points of its degree's ``_face_rule``,
    (len(faces), q, comp): the local index of the face in the tet picks its
    row of ``_face_trace_tables``, so no point is mapped."""
    tab = _face_trace_tables(field.degree)[mesh.face_local[faces, side]]
    return tab @ field.coeffs[mesh.face_tets[faces, side]].transpose(0, 2, 1)


def face_jump_values(mesh: Mesh, field: BrokenPolyField, faces: np.ndarray) -> np.ndarray:
    """F+ - F- at the face rule points of an index array of internal faces,
    (len(faces), q, comp)."""
    return face_traces(mesh, field, faces, 0) - face_traces(mesh, field, faces, 1)


def tangential_jump_values(mesh: Mesh, field: BrokenPolyField,
                           faces: np.ndarray) -> np.ndarray:
    """n x (F+ - F-) at the face rule points; shapes as face_jump_values."""
    n = mesh.face_normals()[faces]
    return np.cross(n[:, None, :], face_jump_values(mesh, field, faces))


def tangential_jump_norms(mesh: Mesh, field: BrokenPolyField) -> np.ndarray:
    """L2 norms of the tangential jump on every internal face (0 on boundary),
    exact."""
    internal = mesh.internal_faces()
    jump = tangential_jump_values(mesh, field, internal)
    out = np.zeros(mesh.n_faces)
    out[internal] = np.sqrt(2.0 * mesh.face_areas()[internal]
                            * sq_norms(jump, _face_rule(field.degree).weights))
    return out


def l2_error_against(mesh: Mesh, mu: MaterialField, field: BrokenPolyField,
                     exact) -> float:
    """Energy norm ||mu^(1/2)(exact - field)|| with an analytic reference;
    ``exact`` gets the (T*q, 3) quadrature points grouped tet by tet."""
    rule = ps.quadrature("tet", _data_exactness(field.degree))
    geom = mesh.geom()
    tets = np.arange(mesh.n_tets)
    vals = field.eval(tets, rule.points)
    pts = geom.map_points(tets, rule.points)
    diff = np.asarray(exact(pts.reshape(-1, 3))).reshape(vals.shape) - vals
    sq = sq_norms(diff, rule.weights) * geom.absdet * mu.per_tet(mesh)
    return float(np.sqrt(sq.sum()))
