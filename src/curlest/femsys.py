"""Global finite element spaces, assembly, and the gauge-free linear solve.

The curl-conforming space is assembled from per-element dof matrices: the
canonical moment functionals are parameterized by global vertex ids, so two
elements sharing an edge or face apply identical functionals and tangential
continuity of the assembled field is automatic.  The dof matrices V_t of all
elements come as one stack (``polyspace.nedelec_element_matrices``), built
once per dof map: assembly, H_h and field expansion are stacked products with
the V_t^-1 it keeps, and its discrete gradient is built from V_t.  Broken
fields are carried around as per-element polynomial coefficient blocks over
reference coordinates with physical components, which keeps curls,
gradients, and jumps exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _poly
from . import polyspace as ps
from .errors import NoConvergence, OrphanNode, ProjectionSolveFailure, UnsupportedDegree
from .mesh import Mesh

log = logging.getLogger("curlest")

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0

MAX_DEGREE = 3  # end-to-end supported range for global spaces


# ---------------------------------------------------------------------------
# material and current data
# ---------------------------------------------------------------------------

@dataclass
class MaterialField:
    """Piecewise-constant permeability, one value per subdomain tag."""
    values: dict | float

    def __post_init__(self):
        if np.isscalar(self.values):
            self.values = {0: float(self.values)}
        if any(v <= 0.0 for v in self.values.values()):
            raise ValueError("permeability values must be positive")

    @property
    def mu_min(self) -> float:
        return min(self.values.values())

    @property
    def mu_max(self) -> float:
        return max(self.values.values())

    def per_tet(self, mesh: Mesh) -> np.ndarray:
        if len(self.values) == 1:
            return np.full(mesh.n_tets, next(iter(self.values.values())))
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
        """Values on the listed tets at shared reference points: (t, q, comp)."""
        v = _poly.vandermonde(3, self.degree, ref_pts)
        return np.einsum("qm,tcm->tqc", v, self.coeffs[tets])

    def eval_one(self, t: int, ref_pts) -> np.ndarray:
        return self.eval([t], ref_pts)[0]

    def eval_points(self, tets, pts) -> np.ndarray:
        """Values at physical points inside the listed tets: (n, comp) for
        pts (n, 3) with point i in tets[i], (n, q, comp) for pts (n, q, 3)
        with the q points of row i in tets[i]."""
        geom = self.mesh.geom()
        tets = np.asarray(tets)
        pts = np.asarray(pts)
        rows = pts if pts.ndim == 3 else pts[:, None, :]
        ref = ((rows - geom.v0[tets][:, None, :])
               @ geom.Jinv[tets].transpose(0, 2, 1))
        v = _poly.vandermonde(3, self.degree, ref)
        v = v.reshape(rows.shape[:2] + v.shape[-1:])
        out = v @ self.coeffs[tets].transpose(0, 2, 1)
        return out if pts.ndim == 3 else out[:, 0]

    def curl(self) -> "BrokenPolyField":
        D = _poly.diff_stack(3, self.degree)
        Jinv = self.mesh.geom().Jinv
        out = np.einsum("abc,tmb,mij,tcj->tai", _EPS3, Jinv, D, self.coeffs,
                        optimize=True)
        return BrokenPolyField(self.mesh, self.degree, out)

    def grad(self) -> "BrokenPolyField":
        D = _poly.diff_stack(3, self.degree)
        Jinv = self.mesh.geom().Jinv
        out = np.einsum("tmb,mij,tj->tbi", Jinv, D, self.coeffs[:, 0, :],
                        optimize=True)
        return BrokenPolyField(self.mesh, self.degree, out)

    def div(self) -> "BrokenPolyField":
        D = _poly.diff_stack(3, self.degree)
        Jinv = self.mesh.geom().Jinv
        out = np.einsum("tmb,mij,tbj->ti", Jinv, D, self.coeffs, optimize=True)
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

    def mu_norms(self, mu_per_tet=None, exactness: int | None = None) -> np.ndarray:
        """Per-tet norms sqrt(mu int |f|^2)."""
        ex = 2 * self.degree if exactness is None else exactness
        rule = ps.quadrature("tet", min(ex, ps.MAX_QUAD_EXACTNESS))
        vals = self.eval(np.arange(self.mesh.n_tets), rule.points)
        det = self.mesh.geom().detJ
        sq = np.einsum("q,tqc->t", rule.weights, vals ** 2) * det
        if mu_per_tet is not None:
            sq = sq * np.asarray(mu_per_tet)
        return np.sqrt(np.maximum(sq, 0.0))

    def norm(self, mu_per_tet=None, exactness: int | None = None) -> float:
        return float(np.sqrt((self.mu_norms(mu_per_tet, exactness) ** 2).sum()))


@dataclass
class CurrentDensity:
    """Divergence-free current data: analytic callback or broken polynomial."""
    func: object = None
    field: BrokenPolyField | None = None
    label: str = ""

    @property
    def is_polynomial(self) -> bool:
        return self.field is not None

    def eval_phys(self, pts: np.ndarray) -> np.ndarray:
        if self.func is None:
            raise ValueError("analytic callback not available")
        return np.asarray(self.func(np.asarray(pts, dtype=float)))

    def eval_elements(self, mesh: Mesh, tets, ref_pts, phys_pts=None) -> np.ndarray:
        """(t, q, 3) values on the listed tets."""
        if self.field is not None:
            return self.field.eval(tets, ref_pts)
        if phys_pts is None:
            phys_pts = mesh.geom().map_points(tets, np.asarray(ref_pts))
        flat = self.eval_phys(phys_pts.reshape(-1, 3))
        return flat.reshape(len(tets), -1, 3)

    def validate(self, mesh: Mesh, tol: float = 1e-10) -> dict:
        """Divergence and normal-flux-jump checks for polynomial data."""
        if self.field is None:
            raise ValueError("validate requires piecewise-polynomial data")
        scale = max(self.field.norm(), 1e-30)
        div_norms = self.field.div().mu_norms()
        jump = normal_jump_norms(mesh, self.field)
        return {
            "max_div": float(div_norms.max(initial=0.0)),
            "max_flux_jump": float(jump.max(initial=0.0)),
            "scale": scale,
            "ok": bool(div_norms.max(initial=0.0) <= tol * scale
                       and jump.max(initial=0.0) <= tol * scale),
        }


# ---------------------------------------------------------------------------
# node registry: the numbering of the conforming scalar space, shared by the
# discrete gradient and the nodal reconstruction
# ---------------------------------------------------------------------------

@dataclass
class NodeRegistry:
    degree: int
    points: np.ndarray        # (N, 3)
    kind: np.ndarray          # (N,) polyspace NODE_* codes
    entity: np.ndarray        # (N,) global vertex/edge/face/tet id
    boundary: np.ndarray      # (N,) bool; the other nodes are the free scalar dofs
    tet_nodes: np.ndarray     # (T, nloc) global node id per local node
    incident: np.ndarray      # occurrences t * nloc + loc by node, ascending
    incident_ptr: np.ndarray  # (N+1,) CSR offsets into incident

    @property
    def n_nodes(self) -> int:
        return len(self.points)


def build_node_registry(mesh: Mesh, degree: int) -> NodeRegistry:
    """Deduplicate the per-element Lagrange nodes into a global registry.

    A node is named by topology: its support vertices' global ids in
    ascending order paired with its barycentric multi-index, packed as
    gid * (degree + 1) + weight with zero-weight slots last.  Nodes are
    numbered in order of first occurrence over (tet, local node).
    Coordinates are accumulated in ascending global-vertex-id order with
    exact rational weights, so coincident nodes from different elements
    agree bitwise.
    """
    nodes = ps.lagrange_nodes(degree)
    nt, nloc = mesh.n_tets, nodes.n_nodes
    order = np.argsort(mesh.tets, axis=1)
    gids = np.take_along_axis(mesh.tets, order, axis=1)         # (T, 4)
    w = nodes.multi[:, order].transpose(1, 0, 2)                 # (T, nloc, 4)
    codes = np.where(w > 0, gids[:, None, :] * (degree + 1) + w,
                     np.iinfo(np.int64).max)
    _, first, inverse = np.unique(np.sort(codes, axis=2).reshape(-1, 4),
                                  axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    tet_nodes = rank[inverse.ravel()].reshape(nt, nloc)
    first = np.sort(first)                 # first occurrence of each node

    # per occurrence: column of the (vertex | edge | face | tet) table
    col = np.array([0, 4, 10, 14])[nodes.kind] + nodes.entity
    cells = np.arange(nt)[:, None]
    ent = np.concatenate([mesh.tets, mesh.tet_edges, mesh.tet_faces, cells],
                         axis=1)[:, col].ravel()
    kind_occ = np.tile(nodes.kind, nt)
    kind, entity = kind_occ[first], ent[first]
    flat = tet_nodes.ravel()
    bad = (kind_occ != kind[flat]) | (ent != entity[flat])
    if bad.any():
        i = int(np.argmax(bad))
        g = int(flat[i])
        raise OrphanNode(
            f"node {g}: tet {i // nloc} local node {i % nloc} resolves to "
            f"({kind_occ[i]},{ent[i]}) vs ({kind[g]},{entity[g]})",
            node=g, kind=int(kind[g]), entity=int(entity[g]))
    boundary = np.concatenate(
        [mesh.boundary_vertex[mesh.tets], mesh.boundary_edge[mesh.tet_edges],
         mesh.boundary_face[mesh.tet_faces], np.zeros((nt, 1), dtype=bool)],
        axis=1)[:, col].ravel()[first]

    vv = mesh.vertices[gids[first // nloc]]
    wf = w.reshape(-1, 4)[first] / float(degree)
    # fixed-order accumulation => bitwise identical coordinates
    pos = wf[:, 0:1] * vv[:, 0] + wf[:, 1:2] * vv[:, 1]
    pos += wf[:, 2:3] * vv[:, 2]
    pos += wf[:, 3:4] * vv[:, 3]
    pos = pos + 0.0  # normalize signed zeros

    ptr = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=len(first)))])
    return NodeRegistry(degree, pos, kind, entity, boundary, tet_nodes,
                        np.argsort(flat, kind="stable"), ptr)


# ---------------------------------------------------------------------------
# the dof map: one per mesh level
# ---------------------------------------------------------------------------

@dataclass
class DofMap:
    """The degree-k Nedelec space of a mesh with homogeneous tangential
    boundary values, and what is built once from its element dof matrices:
    their inverses, the degree-k Lagrange node registry and the discrete
    gradient between the free dofs of the two spaces."""
    mesh: Mesh
    degree: int
    n_dofs: int
    cell_dofs: np.ndarray       # (T, nloc)
    boundary_mask: np.ndarray   # (n_dofs,) bool
    free: np.ndarray            # ids of the interior dofs, ascending
    Vinv: np.ndarray            # (T, nloc, nloc) inverse element dof matrices
    registry: NodeRegistry      # degree-k Lagrange nodes
    G: sp.csc_matrix            # (n_free, free registry nodes) discrete gradient

    @property
    def n_free(self) -> int:
        return len(self.free)


@dataclass
class FieldCoefficients:
    dofmap: DofMap
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.dofmap.n_dofs,):
            raise ValueError("coefficient vector length does not match dof map")


def build_dofmap(mesh: Mesh, degree: int) -> DofMap:
    """Number the Nedelec dofs (edge, face, then interior blocks, each
    entity's dofs contiguous) and build the element dof matrices once."""
    if not 1 <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(f"Nedelec degree {degree} outside 1..{MAX_DEGREE}")
    k = degree
    ne, nf = k, k * (k - 1)
    nc = k * (k - 1) * (k - 2) // 2
    n_edge = mesh.n_edges * ne
    n_face = mesh.n_faces * nf
    n_dofs = n_edge + n_face + mesh.n_tets * nc

    def blocks(ids, width, offset):
        return (offset + ids[:, :, None] * width
                + np.arange(width)).reshape(len(ids), -1)

    cell_dofs = np.concatenate(
        [blocks(mesh.tet_edges, ne, 0), blocks(mesh.tet_faces, nf, n_edge),
         blocks(np.arange(mesh.n_tets)[:, None], nc, n_edge + n_face)],
        axis=1)
    mask = np.concatenate([np.repeat(mesh.boundary_edge, ne),
                           np.repeat(mesh.boundary_face, nf),
                           np.zeros(mesh.n_tets * nc, dtype=bool)])
    V = ps.nedelec_element_matrices(mesh.vertices[mesh.tets], mesh.tets, k)
    reg = build_node_registry(mesh, k)
    return DofMap(mesh, k, n_dofs, cell_dofs, mask, np.nonzero(~mask)[0],
                  np.linalg.inv(V), reg, discrete_gradient(V, cell_dofs, mask, reg))


# ---------------------------------------------------------------------------
# element-level machinery
# ---------------------------------------------------------------------------

def _local_coefficients(dofmap: DofMap, u: FieldCoefficients) -> np.ndarray:
    """(T, n) reference-basis coefficients V_t^-1 u_loc of every element."""
    return np.einsum("tij,tj->ti", dofmap.Vinv, u.values[dofmap.cell_dofs])


class _RefTables:
    """Reference basis tables at a tet quadrature rule, shared per degree;
    TVG pairs the basis values with the gradients of the non-constant
    monomials (the gradient orthogonality of estimator step 1)."""

    def __init__(self, degree: int, exactness: int):
        self.rule = ps.quadrature("tet", min(exactness, ps.MAX_QUAD_EXACTNESS))
        space = ps.reference_space(ps.NEDELEC1_TET, degree)
        v = _poly.vandermonde(3, degree, self.rule.points)
        self.vals = np.einsum("qm,icm->qci", v, space.coeffs)       # (q,3,n)
        self.curls = np.einsum("qm,iam->qai", v, space.curl_coeffs())
        w = self.rule.weights
        self.TCC = np.einsum("q,qai,qbj->abij", w, self.curls, self.curls)
        self.TVV = np.einsum("q,qai,qbj->abij", w, self.vals, self.vals)
        grads = np.einsum("qm,bmn->qbn", v, _poly.diff_stack(3, degree))[:, :, 1:]
        self.TVG = np.einsum("q,qai,qbl->abil", w, self.vals, grads)


_ref_tables = lru_cache(maxsize=None)(_RefTables)


def _scatter(blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray,
             shape) -> sp.csr_matrix:
    """Sum element blocks (T, n, m) into a sparse matrix; entry (i, j) of
    block t lands at (rows[t, i], cols[t, j])."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], blocks.shape).ravel()
    return sp.coo_matrix((blocks.ravel(), (r, c)), shape=shape).tocsr()


def _assemble_free(dofmap: DofMap, A_gen: np.ndarray) -> sp.csr_matrix:
    """Map reference-basis element matrices to V^-T A_gen V^-1, sum them and
    keep the free rows and columns."""
    Vinv = dofmap.Vinv
    A_loc = Vinv.transpose(0, 2, 1) @ A_gen @ Vinv
    A = _scatter(A_loc, dofmap.cell_dofs, dofmap.cell_dofs,
                 (dofmap.n_dofs, dofmap.n_dofs))
    free = dofmap.free
    return A[free][:, free].tocsr()


def assemble_curlcurl(mesh: Mesh, dofmap: DofMap,
                      mu: MaterialField) -> sp.csr_matrix:
    """Stiffness (mu^-1 curl u, curl w) over the free dofs."""
    k = dofmap.degree
    tab = _ref_tables(k, 2 * k + 2)
    geom = mesh.geom()
    JtJ = geom.J.transpose(0, 2, 1) @ geom.J
    A_gen = np.einsum("tab,abij->tij", JtJ, tab.TCC)
    A_gen /= (geom.detJ * mu.per_tet(mesh))[:, None, None]
    return _assemble_free(dofmap, A_gen)


def assemble_mass(mesh: Mesh, dofmap: DofMap) -> sp.csr_matrix:
    k = dofmap.degree
    tab = _ref_tables(k, 2 * k + 2)
    geom = mesh.geom()
    K = np.linalg.inv(geom.J.transpose(0, 2, 1) @ geom.J)
    M_gen = np.einsum("tab,abij->tij", K, tab.TVV)
    M_gen *= geom.detJ[:, None, None]
    return _assemble_free(dofmap, M_gen)


def assemble_rhs(mesh: Mesh, dofmap: DofMap, j: CurrentDensity,
                 exactness: int | None = None) -> np.ndarray:
    """Load vector (j, w) over all dofs; the solve reads the free entries."""
    k = dofmap.degree
    if exactness is None:
        exactness = 2 * k + 2 if j.is_polynomial else 2 * k + 4
    tab = _ref_tables(k, exactness)
    geom = mesh.geom()
    rule = tab.rule
    jvals = j.eval_elements(mesh, np.arange(mesh.n_tets), rule.points)
    jhat = np.einsum("tbc,tqc->tqb", geom.Jinv, jvals)    # J^-1 j
    b_gen = geom.detJ[:, None] * np.einsum("q,qbi,tqb->ti", rule.weights,
                                           tab.vals, jhat)
    b_loc = np.einsum("tji,tj->ti", dofmap.Vinv, b_gen)
    return np.bincount(dofmap.cell_dofs.ravel(), weights=b_loc.ravel(),
                       minlength=dofmap.n_dofs)


def _stacked_eval(func):
    """field_eval of the stacked dof functionals for a function of (N, 3) points."""
    return lambda pts: np.asarray(func(pts.reshape(-1, 3))).reshape(pts.shape)[..., None]


def interpolate_nedelec(mesh: Mesh, dofmap: DofMap, func) -> FieldCoefficients:
    """Canonical dof interpolation of an analytic field; shared dofs receive
    identical values from both sides by construction."""
    vals = np.zeros(dofmap.n_dofs)
    vals[dofmap.cell_dofs] = ps.nedelec_dof_matrix(
        mesh.vertices[mesh.tets], mesh.tets, dofmap.degree,
        _stacked_eval(func))[:, :, 0]
    return FieldCoefficients(dofmap, vals)


def nedelec_field_to_poly(mesh: Mesh, dofmap: DofMap,
                          u: FieldCoefficients) -> BrokenPolyField:
    """Expand assembled coefficients into the broken polynomial representation."""
    k = dofmap.degree
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    cref = np.einsum("ti,icm->tcm", _local_coefficients(dofmap, u), space.coeffs)
    out = np.einsum("tbc,tbm->tcm", mesh.geom().Jinv, cref)   # J^-T cref
    return BrokenPolyField(mesh, k, out)


def compute_Hh(mesh: Mesh, dofmap: DofMap, u: FieldCoefficients,
               mu: MaterialField) -> BrokenPolyField:
    """H_h = mu^-1 curl u_h as a broken polynomial."""
    k = dofmap.degree
    ccoef = ps.reference_space(ps.NEDELEC1_TET, k).curl_coeffs()
    geom = mesh.geom()
    cc = np.einsum("ti,iam->tam", _local_coefficients(dofmap, u), ccoef)
    out = (geom.J @ cc) / (geom.detJ * mu.per_tet(mesh))[:, None, None]
    return BrokenPolyField(mesh, k, out)


# ---------------------------------------------------------------------------
# discrete gradient and right-hand-side correction
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reference_gradient_dofs(degree: int) -> np.ndarray:
    """(n_ned, n_lag) reference Nedelec dofs of the scalar-basis gradients."""
    gradc = ps.reference_space(ps.P_SCALAR_TET, degree).grad_coeffs()

    def field_eval(pts):
        return np.einsum("qm,ibm->qbi", _poly.vandermonde(3, degree, pts), gradc)

    C = ps.nedelec_dof_matrix(ps.TET_VERTS, np.arange(4), degree, field_eval)
    C.setflags(write=False)
    return C


def discrete_gradient(V: np.ndarray, cell_dofs: np.ndarray,
                      boundary_mask: np.ndarray, reg: NodeRegistry) -> sp.csc_matrix:
    """Coefficient map G with grad(psi) = field(G psi), from the interior
    nodes of ``reg`` to the interior Nedelec dofs of ``cell_dofs``.

    Gradients map covariantly, so the local block is V_t C with V_t the
    element dof matrices and C the reference dofs of the scalar-basis
    gradients."""
    locG = V @ _reference_gradient_dofs(reg.degree)
    shape = (len(boundary_mask), reg.n_nodes)
    G = _scatter(locG, cell_dofs, reg.tet_nodes, shape)
    cnt = _scatter(np.ones_like(locG), cell_dofs, reg.tet_nodes, shape)
    G.data /= cnt.data  # duplicates from shared entities are equal; average
    return G[np.nonzero(~boundary_mask)[0]][:, np.nonzero(~reg.boundary)[0]].tocsc()


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
    the presence of quadrature error.
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

REFINE_TOL = 1e-10   # relative residual against A that refinement reaches


def solve_magnetostatic(A: sp.csr_matrix, rhs: np.ndarray, dofmap: DofMap,
                        mass: sp.csr_matrix) -> FieldCoefficients:
    """Solve the (singular, consistent) reduced system and scatter to full dofs.

    The returned coefficients are one gauge representative; only the curl is
    used downstream.  Symmetric-mode factorization of A + eps * mass plus
    iterative refinement measured against the unshifted matrix; a singular
    shifted system raises NoConvergence.
    """
    b = rhs[dofmap.free]
    n = A.shape[0]
    full = np.zeros(dofmap.n_dofs)
    if n == 0 or np.linalg.norm(b) == 0.0:
        return FieldCoefficients(dofmap, full)
    bnorm = np.linalg.norm(b)
    eps = 1e-10 * (A.diagonal().sum() / n)
    try:
        lu = _factor_spd(A + eps * mass)
    except RuntimeError as exc:
        raise NoConvergence(f"shifted system: {exc}") from exc
    u = np.zeros(n)
    for step in range(50):
        r = b - A @ u
        rnorm = np.linalg.norm(r)
        if rnorm <= REFINE_TOL * bnorm:
            break
        du = lu.solve(r)
        if not np.all(np.isfinite(du)):
            raise NoConvergence(f"refinement step {step + 1} gave a non-finite "
                                "correction; is the shifted system singular?")
        u = u + du
    else:
        raise NoConvergence("iterative refinement stalled; "
                            "was the right-hand side gradient-corrected?")
    log.debug("direct solve of %d dofs: %d refinement steps, relative "
              "residual %.2e, factor nnz %d", n, step, rnorm / bnorm, lu.nnz)
    full[dofmap.free] = u
    return FieldCoefficients(dofmap, full)


# ---------------------------------------------------------------------------
# current projection
# ---------------------------------------------------------------------------

def project_current(mesh: Mesh, j_func, degree: int) -> CurrentDensity:
    """Element-wise div-conforming interpolation of an analytic current.

    Face moments follow the global-id orientation, so normal fluxes match
    across internal faces and the interpolant is H(div)-conforming.
    """
    space = ps.reference_space(ps.RT_TET, degree)
    geom = mesh.geom()
    verts = mesh.vertices[mesh.tets]
    V = ps.rt_element_matrices(verts, mesh.tets, degree)
    b = ps.rt_dof_matrix(verts, mesh.tets, degree, _stacked_eval(j_func),
                         exactness=2 * degree + 4)
    c = np.linalg.solve(V, b)[:, :, 0]
    cref = np.einsum("ti,icm->tcm", c, space.coeffs)
    field = BrokenPolyField(mesh, degree, (geom.J @ cref) / geom.detJ[:, None, None])
    return CurrentDensity(func=j_func, field=field, label="projected")


# ---------------------------------------------------------------------------
# face jump utilities and norms
# ---------------------------------------------------------------------------

def face_rule_points(mesh: Mesh, f, rule) -> np.ndarray:
    """Physical quadrature points of face f, identical from both sides:
    (q, 3) for one face, (len(f), q, 3) for an index array."""
    v = mesh.vertices[mesh.faces[f]]
    va = v[..., None, 0, :]
    e1 = v[..., None, 1, :] - va
    e2 = v[..., None, 2, :] - va
    return va + rule.points[:, 0:1] * e1 + rule.points[:, 1:2] * e2


def face_jump_values(mesh: Mesh, field: BrokenPolyField, f,
                     rule) -> np.ndarray:
    """F+ - F- at the face rule points: (q, comp) for one internal face,
    (len(f), q, comp) for an index array of internal faces."""
    faces = np.atleast_1d(f)
    pts = face_rule_points(mesh, faces, rule)
    jump = field.eval_points(mesh.face_tets[faces, 0], pts)
    jump -= field.eval_points(mesh.face_tets[faces, 1], pts)
    return jump if np.ndim(f) else jump[0]


def tangential_jump_values(mesh: Mesh, field: BrokenPolyField, f,
                           rule) -> np.ndarray:
    """n x (F+ - F-) at the face rule points; shapes as face_jump_values."""
    n = mesh.face_normals()[f]
    return np.cross(n[..., None, :], face_jump_values(mesh, field, f, rule))


def tangential_jump_norms(mesh: Mesh, field: BrokenPolyField,
                          exactness: int | None = None) -> np.ndarray:
    """L2 norms of the tangential jump on every internal face (0 on boundary)."""
    ex = 2 * field.degree if exactness is None else exactness
    rule = ps.quadrature("tri", min(max(ex, 2), ps.MAX_QUAD_EXACTNESS))
    internal = mesh.internal_faces()
    jump = tangential_jump_values(mesh, field, internal, rule)
    out = np.zeros(mesh.n_faces)
    out[internal] = np.sqrt(2.0 * mesh.face_areas()[internal] * np.einsum(
        "q,fqc->f", rule.weights, jump ** 2))
    return out


def normal_jump_norms(mesh: Mesh, field: BrokenPolyField,
                      exactness: int | None = None) -> np.ndarray:
    """L2 norms of the normal jump on every internal face (0 on boundary)."""
    ex = 2 * field.degree if exactness is None else exactness
    rule = ps.quadrature("tri", min(max(ex, 2), ps.MAX_QUAD_EXACTNESS))
    internal = mesh.internal_faces()
    jump = face_jump_values(mesh, field, internal, rule)
    dv = np.einsum("fqc,fc->fq", jump, mesh.face_normals()[internal])
    out = np.zeros(mesh.n_faces)
    out[internal] = np.sqrt(2.0 * mesh.face_areas()[internal] * np.einsum(
        "q,fq->f", rule.weights, dv ** 2))
    return out


class QuadratureSample:
    """A broken field at the quadrature points of its mesh, with the weights
    and per-tet factors of the energy norm; built once, it is compared with
    any number of other fields."""

    def __init__(self, mesh: Mesh, mu: MaterialField, field: BrokenPolyField,
                 exactness: int):
        self.rule = ps.quadrature("tet", min(exactness, ps.MAX_QUAD_EXACTNESS))
        geom = mesh.geom()
        tets = np.arange(mesh.n_tets)
        self.mu_t = mu.per_tet(mesh)
        self.detJ = geom.detJ
        self.vals = field.eval(tets, self.rule.points)
        self.pts = geom.map_points(tets, self.rule.points)

    def sq_error_per_tet(self, exact) -> np.ndarray:
        """Per-tet mu int |exact - field|^2; ``exact`` gets the (T*q, 3)
        quadrature points grouped tet by tet."""
        ex_vals = np.asarray(exact(self.pts.reshape(-1, 3))).reshape(self.vals.shape)
        diff = ex_vals - self.vals
        return (np.einsum("q,tqc->t", self.rule.weights, diff ** 2)
                * self.detJ * self.mu_t)

    def l2_error(self, exact) -> float:
        return float(np.sqrt(self.sq_error_per_tet(exact).sum()))


def l2_error_against(mesh: Mesh, mu: MaterialField, field: BrokenPolyField,
                     exact, exactness: int) -> float:
    """Energy norm ||mu^(1/2)(exact - field)|| with an analytic reference."""
    return QuadratureSample(mesh, mu, field, exactness).l2_error(exact)


def l2_error_per_tet(mesh: Mesh, mu: MaterialField, field: BrokenPolyField,
                     exact, exactness: int) -> np.ndarray:
    return np.sqrt(np.maximum(
        QuadratureSample(mesh, mu, field, exactness).sq_error_per_tet(exact), 0.0))
