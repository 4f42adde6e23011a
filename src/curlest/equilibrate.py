"""Equilibrated error estimator built from purely local problems.

Pipeline (per estimator run):
  step 1  per tet: a curl-conforming local field whose curl matches the
          residual current, orthogonal to gradients in the weighted inner
          product; every tet's problem is one reference problem in its
          metric, solved on a reference complement of the gradients, then
          projected: two stacked SPD solves;
  step 2  per internal face: a scalar multiplier whose surface curl matches
          the tangential jump of the corrected field, whose one-sided
          traces are read from reference tables, one per local face of a
          tet (``Mesh.face_local``);
  step 3  per Lagrange node on an internal face: jump-consistent potential
          values from its tiny least-squares system, one batched dense
          solve per system size; the worst residual certifies the edge
          cycle condition;
  step 4  the elementwise energy norm of the corrected field.

Step 2 writes each multiplier, a polynomial of degree k' on its face, in the
face's affine coordinates, those of the face rule, and matches its surface
curl to the tangential jump in the L2 least-squares sense at the exact 2k'
rule; every face's normal equations on the non-constant monomials are one
product of its inverse metric with a cached reference table, and the zero
mean fixes the constant.  The tangential traces span the in-plane
div-conforming space of the face, whose divergence-free subspace is exactly
the surface curl of the scalar face space, so step 2 is solvable whenever
the face data is compatible; the tests check that exact sequence on the
reference triangle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _poly
from . import polyspace as ps
from .errors import (DataIncompatible, FaceIncompatible, FaceSolveSingular,
                     InconsistentPatch, LocalSolveSingular, OrphanNode)
from .femsys import (BrokenPolyField, CurrentDensity, MaterialField,
                     NodeRegistry, face_traces,
                     sq_norms, tangential_jump_norms,
                     _data_exactness, _face_rule, _ref_tables)
# not called here: the benchmark's tracer wraps equilibrate.build_node_registry
# by name, so the name stays importable from this module
from .femsys import build_node_registry  # noqa: F401
from .mesh import Mesh

log = logging.getLogger("curlest")

STRICT_TOL = 1e-8       # relative tolerance of the strict checks of steps 1-3
EQUILIBRIUM_TOL = 1e-9  # relative residuals that verify_equilibrium accepts


# ---------------------------------------------------------------------------
# step 1: element corrections
# ---------------------------------------------------------------------------

@dataclass
class ElementCorrection:
    """Per-tet curl-conforming correction and the residual-current norms
    that a level reports.  Its orthogonality to the gradients, B h = 0, is
    the equation of step 1's own SPD gradient solve, so it is not stored."""
    Hhat: BrokenPolyField          # the local correction field
    resid: np.ndarray              # (T,) L2 norm of curl(Hhat) - j_delta
    oscillation: float             # sqrt(sum resid^2): the global norm of the
                                   # unequilibrated part of the residual current
    jdelta_norm: np.ndarray        # (T,) L2 norm of j_delta = j - curl H_h; also the
                                   # residual estimator's volume term
    degree: int


def _solve_stack(S: np.ndarray, b: np.ndarray, ids: np.ndarray, error,
                 entity: str, system: str) -> np.ndarray:
    """``np.linalg.solve`` over a stack of small systems S (n, m, m), b
    (n, m, 1), one per entity ids[i].  A failure raises ``error`` naming the
    worst entity: the one with the smallest reciprocal condition number when
    a system is singular, the first non-finite solution value otherwise."""
    try:
        sol = np.linalg.solve(S, b)
    except np.linalg.LinAlgError:
        sv = np.linalg.svd(S, compute_uv=False)
        rcond = np.divide(sv[:, -1], sv[:, 0], out=np.zeros(len(sv)),
                          where=sv[:, 0] > 0)
        i = int(np.argmin(rcond))
        raise error(f"{entity} {ids[i]}: singular {system} system, reciprocal "
                    f"condition {rcond[i]:.3e}", int(ids[i]), float(rcond[i]))
    finite = np.isfinite(sol[:, :, 0])
    if not finite.all():
        i, m = np.unravel_index(np.argmin(finite), finite.shape)
        v = float(sol[i, m, 0])
        raise error(f"{entity} {ids[i]}: {system} solve produced non-finite "
                    f"values ({v} in {int((~finite.all(axis=1)).sum())} "
                    f"{entity}s)", int(ids[i]), v)
    return sol


def step1_element_corrections(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
                              Hh: BrokenPolyField, kp: int, *,
                              strict_a2: bool = False) -> ElementCorrection:
    """Solve the element problems for the local correction as two stacked
    SPD solves.

    Each tet asks for h with A h = r, the curl match tested against the
    curls of the local basis, and B h = 0, orthogonality to the gradients.
    h holds coefficients in the dof basis of the reference tet, that of
    every ``_RefTables`` table, so the dofs G of the gradients of the
    monomials are their coefficients: they span the kernel of A and are
    the same on every tet.  Z, an orthonormal basis of the
    fields orthogonal to them on the reference tet, spans a complement of
    that kernel (``_RefTables``), so the problem splits: A_Z y = Z^T r on
    Z, then (B G) lam = B Z y removes the gradient part that the tet's
    metric adds, h = Z y - G lam.  In exact arithmetic this is the solution
    of the saddle system [A B^T; B 0].  A_Z, the curl-curl block on Z, and
    B G, the scalar stiffness of the monomials times mu, are positive
    definite.  Every block is one (T, 9) product with a reference table in
    the metric J^T J or its inverse, times the measure |det J|; the curls
    map by J / det J, so the load r takes the sign of det J.
    """
    if kp < Hh.degree:
        raise ValueError("auxiliary degree must be >= the field degree")
    tab = _ref_tables(kp)
    w = tab.rule.weights
    nT, (nR, nZ), nB = mesh.n_tets, tab.Z.shape, tab.G.shape[1]

    geom = mesh.geom()
    J, det, sign = geom.J, geom.absdet, geom.sign
    JtJ = (J.transpose(0, 2, 1) @ J).reshape(nT, 9)
    JtJ_inv = (geom.Jinv @ geom.Jinv.transpose(0, 2, 1)).reshape(nT, 9)
    jh = Hh.curl()
    all_tets = np.arange(nT)
    jd = (j.eval_elements(mesh, all_tets, tab.rule.points)
          - jh.eval(all_tets, tab.rule.points))             # (T, q, 3)

    A_Z = (JtJ @ tab.ZCCZ).reshape(nT, nZ, nZ) / det[:, None, None]
    r_Z = sign[:, None] * ((jd @ J).reshape(nT, -1) @ tab.wcurlZ)
    y = _solve_stack(A_Z, r_Z[:, :, None], all_tets, LocalSolveSingular, "tet", "curl")
    h = y[:, :, 0] @ tab.Z.T
    scale = (mu.per_tet(mesh) * det)[:, None, None]
    B = scale * (JtJ_inv @ tab.TVG).reshape(nT, nB, nR)
    BG = scale * (JtJ_inv @ tab.TVGG).reshape(nT, nB, nB)
    lam = _solve_stack(BG, B @ h[:, :, None], all_tets, LocalSolveSingular, "tet",
                       "gradient")
    h -= lam[:, :, 0] @ tab.G.T

    hhat = geom.Jinv.transpose(0, 2, 1) @ (h @ tab.coeffs.reshape(nR, -1)).reshape(nT, 3, -1)
    cv = ((h @ tab.curls.reshape(-1, nR).T).reshape(nT, -1, 3)
          @ (J.transpose(0, 2, 1) / (sign * det)[:, None, None]))
    cv -= jd
    resid = np.sqrt(np.maximum(det * sq_norms(cv, w), 0.0))
    jd_norm = np.sqrt(np.maximum(det * sq_norms(jd, w), 0.0))

    if strict_a2:
        if not j.is_polynomial:
            raise DataIncompatible("strict mode requires piecewise-polynomial data")
        # div(j - curl H_h) = div j: the residual current's divergence is
        # that of the projected data
        scale = max(float(j.field.mu_norms().max(initial=0.0)), 1e-30) / mesh.h_min_edge()
        ratio = j.field.div().mu_norms() / scale
        t = int(np.argmax(ratio))
        if ratio[t] > STRICT_TOL:
            raise DataIncompatible(
                f"{int((ratio > STRICT_TOL).sum())} elements violate the "
                f"divergence compatibility; worst tet {t}: div_norm*h_min/"
                f"jscale = {ratio[t]:.3e} > tol {STRICT_TOL:.1e}",
                t, float(ratio[t]))

    return ElementCorrection(BrokenPolyField(mesh, kp, hhat), resid=resid,
                             oscillation=float(np.sqrt((resid ** 2).sum())),
                             jdelta_norm=jd_norm, degree=kp)


# ---------------------------------------------------------------------------
# step 2: face multipliers
# ---------------------------------------------------------------------------

class _FaceTables:
    """Reference tables of steps 2 and 3 at degree k'.  A multiplier is a
    polynomial in its face's affine coordinates (s, t), x = a + s (b - a) +
    t (c - a) over its ascending vertices, those of the face rule in
    ``face_traces``, the exact 2k' rule ``rule``: every step-2 integral has
    degree at most 2k'.  With E = (b - a, c - a) and g = E E^T its surface
    gradient is E^T g^-1 D c, D the (s, t) derivatives of the monomials, so
    each face's blocks are tables in g^-1.  The constant has no gradient,
    so the derivative tables cover the non-constant monomials only: the
    derivative pairs DD (4, (nP-1)^2) and the weighted derivatives wD (q 2,
    nP-1) at the rule points.  V holds the values of all nP monomials there
    and ``mean`` their integrals, w V.  ``nodes`` (nc, nP) holds the
    values at the degree-k' Lagrange nodes of the face's closure (vertices
    a, b, c, edges ab, ac, bc, then the face, each entity's in the
    registry's order), and row i of ``local`` (4, nc) their local indices
    in a tet where the face is local face i."""

    def __init__(self, kp: int):
        self.rule = _face_rule(kp)
        w = self.rule.weights
        self.V = _poly.vandermonde(2, kp, self.rule.points)
        D = np.einsum("qm,amn->qan", self.V, _poly.diff_stack(2, kp))[:, :, 1:]
        self.wD = (w[:, None, None] * D).reshape(-1, D.shape[2])
        self.DD = np.einsum("q,qai,qbj->abij", w, D, D).reshape(4, -1)
        self.mean = w @ self.V

        lag = ps.lagrange_nodes(kp)
        on = np.nonzero(lag.multi[:, 0] == 0)[0]      # the face opposite vertex 0
        on = on[np.argsort(lag.kind[on] * 6 + lag.entity[on], kind="stable")]
        self.nodes = _poly.vandermonde(2, kp, lag.multi[on, 2:] / kp)
        self.local = np.zeros((4, len(on)), dtype=np.int64)
        for i, f in enumerate(ps.TET_FACES):
            m4 = np.zeros_like(lag.multi[on])
            m4[:, list(f)] = lag.multi[on, 1:]
            self.local[i] = (lag.multi == m4[:, None]).all(axis=2).argmax(axis=1)


_face_tables = lru_cache(maxsize=None)(_FaceTables)


@dataclass
class FaceMultiplier:
    """Zero-mean face polynomials whose surface gradient matches minus the
    tangential jump of the corrected field, stored as monomial coefficients
    in each face's affine coordinates (``_FaceTables``); the zero mean
    holds by construction."""
    degree: int
    internal_faces: np.ndarray   # (Fi,) face ids, ascending
    lam: np.ndarray              # (Fi, nP) monomial coeffs in (s, t)
    lam_scale: float             # max |lambda| at the 2k' face rule points; scales tolerances
    trace_scale: float | None    # max L2 norm of a face trace of the corrected
                                 # field; strict mode only, None otherwise

    @property
    def n_faces(self) -> int:
        return len(self.internal_faces)


def _face_multiplier_solve(mesh: Mesh, faces: np.ndarray, jump: np.ndarray, kp: int):
    """Surface-gradient solves on the listed faces as one batch: min
    |grad_f lambda + [F]_t| with (lambda, 1)_f = 0, that is, the surface
    curl of lambda matched to n x [F] in L2, from the jump [F] (Fi, q, 3) at
    the face rule points.  E [F] are the covariant components of its
    tangential part, so the load is -s sum_q w D^T g^-1 E [F], and a
    tangential field v is E^T g^-1 (E v), whose norm needs no frame and no
    normal.  The normal equations of the non-constant monomials are SPD;
    the zero mean then fixes the constant.  Returns the coefficients (Fi,
    nP) and the largest |lambda| at the face rule points.
    """
    tab = _face_tables(kp)
    nF, q, n = len(faces), len(tab.rule.weights), tab.wD.shape[1]
    v = mesh.vertices[mesh.faces[faces]]
    E = v[:, 1:] - v[:, :1]                                         # (Fi, 2, 3)
    ginv = np.linalg.inv(E @ E.transpose(0, 2, 1))
    s = 2.0 * mesh.face_areas()[faces]
    data = jump @ E.transpose(0, 2, 1)                              # E [F], (Fi, q, 2)
    S = ((s[:, None] * ginv.reshape(nF, 4)) @ tab.DD).reshape(nF, n, n)
    b = -s[:, None] * ((data @ ginv).reshape(nF, 2 * q) @ tab.wD)
    c = _solve_stack(S, b[:, :, None], faces, FaceSolveSingular, "face",
                     "multiplier")[:, :, 0]
    sol = np.column_stack([-(c @ tab.mean[1:]) / tab.mean[0], c])
    lam_scale = float(np.abs(sol @ tab.V.T).max(initial=0.0))
    return sol, lam_scale


def step2_face_multipliers(mesh: Mesh, Hh: BrokenPolyField,
                           correction: ElementCorrection, kp: int, *,
                           strict: bool = False) -> FaceMultiplier:
    """Solve the surface-curl problems of all internal faces as one batch.

    The solves read the jumps of the corrected field F = H_h + Hhat.  In
    strict mode step 2 also forms the largest face norm of the traces of F,
    the scale of step 3's strict check, which does not vanish with the
    error as the jumps do.  The strict check of this step traces curl F
    too: the in-plane divergence of the tangential jump is div_f(n x [F]) =
    -n . [curl F], exact, so compatible data reports machine zero, and it
    is scaled by the largest face norm of curl F, the data j up to step 1's
    residual."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    internal = mesh.internal_faces()
    plus = face_traces(mesh, total, internal, 0)                     # (Fi, q, 3)
    jumps = plus - face_traces(mesh, total, internal, 1)
    lam, lam_scale = _face_multiplier_solve(mesh, internal, jumps, kp)
    trace_scale = None
    if strict:
        w = _face_tables(kp).rule.weights
        area2 = 2.0 * mesh.face_areas()[internal]
        trace_scale = float(np.sqrt((area2 * sq_norms(plus, w)).max(initial=0.0)))
        curl = total.curl()
        cplus = face_traces(mesh, curl, internal, 0)
        ndiv = ((cplus - face_traces(mesh, curl, internal, 1))
                @ mesh.face_normals()[internal][:, :, None])         # (Fi, q, 1)
        div_norm = np.sqrt(area2 * sq_norms(ndiv, w))
        jscale = np.sqrt((area2 * sq_norms(cplus, w)).max(initial=0.0))
        ratio = div_norm / max(float(jscale), 1e-30)
        bad = ratio > STRICT_TOL
        if bad.any():
            i = int(np.argmax(ratio))
            raise FaceIncompatible(
                f"{int(bad.sum())} faces violate the in-plane divergence "
                f"condition; worst face {internal[i]}: div_norm/jscale = "
                f"{ratio[i]:.3e} > tol {STRICT_TOL:.1e}",
                face=int(internal[i]), value=float(ratio[i]))
    return FaceMultiplier(kp, internal, lam, lam_scale, trace_scale)


# ---------------------------------------------------------------------------
# edge cycle sums: a test oracle; step 3's patch residual certifies them
# ---------------------------------------------------------------------------

@dataclass
class EdgeCompatibility:
    # one entry per interior edge, in mesh.internal_edges() order
    max_abs: np.ndarray    # max |r_e| over the sample points
    variation: np.ndarray  # max r_e - min r_e
    lam_scale: float


def check_edge_compatibility(mesh: Mesh, fm: FaceMultiplier) -> EdgeCompatibility:
    """Evaluate the signed multiplier sums around every interior edge.

    For compatible data the sum is exactly zero; the variation along the edge
    and the absolute size are reported separately so constancy and zero mean
    can be checked independently.  Every face around an interior edge is
    internal, so the (edge, face) incidences come from the internal faces'
    edges; each edge sums its faces in ascending face order.  An edge runs
    from its lower to its higher vertex, so its points x = a + s (b - a) sit
    at (s, 0), (0, s) or (1 - s, s) in the affine coordinates of a face
    a < b < c, as it is the face's edge ab, ac or bc (``Mesh.face_edges``).
    A face's term is signed by n_f . (t x n_ef), t the edge's tangent and
    n_ef the face's in-plane normal out of it at the edge: with n = (b - a)
    x (c - a), t x n_ef is -n/|n| on ab and bc, which run along the turn a
    -> b -> c, and n/|n| on ac, so the sign is (-1, 1, -1)[edge] times the
    face's ``Mesh.face_signs``.
    """
    interior = mesh.internal_edges()
    s = ps.quadrature("segment", 2 * fm.degree + 4).points[:, 0]
    zero = np.zeros_like(s)
    st = np.stack([np.column_stack(c) for c in ((s, zero), (zero, s), (1.0 - s, s))])
    V = _poly.vandermonde(2, fm.degree, st).reshape(3, len(s), -1)   # (3, ns, nP)
    idx = np.repeat(np.arange(fm.n_faces), 3)
    local = np.tile(np.arange(3), fm.n_faces)               # the edge's index in its face
    e = mesh.face_edges[fm.internal_faces].ravel()
    keep = ~mesh.boundary_edge[e]
    order = np.argsort(e[keep], kind="stable")
    idx, local, e = idx[keep][order], local[keep][order], e[keep][order]
    f = fm.internal_faces[idx]
    sign = np.array([-1.0, 1.0, -1.0])[local] * mesh.face_signs()[f]
    row = np.full(mesh.n_edges, -1, dtype=np.int64)
    row[interior] = np.arange(len(interior))
    r = np.zeros((len(interior), len(s)))
    np.add.at(r, row[e], sign[:, None] * (V[local] @ fm.lam[idx][:, :, None])[:, :, 0])
    max_abs = np.abs(r).max(axis=1, initial=0.0)
    variation = r.max(axis=1) - r.min(axis=1)
    return EdgeCompatibility(max_abs, variation, fm.lam_scale)


# ---------------------------------------------------------------------------
# step 3: nodal reconstruction
# ---------------------------------------------------------------------------

def solve_node_patches(pairs: np.ndarray, values: np.ndarray, system: np.ndarray):
    """Least-squares solve of many small nodal difference systems, batched by
    system size.

    Row r asks x[pairs[r, 0]] - x[pairs[r, 1]] = values[r] and belongs to
    system ``system[r]``; the unknowns are 0..n-1, each in some row, and
    each system adds the zero-mean row of its unknowns.  A system's normal
    matrix is L + 11^T, the graph Laplacian of its difference rows plus the
    zero-mean row, which is symmetric positive definite when the rows
    connect its unknowns.  The systems are numbered by size and their
    unknowns by system, so every normal matrix is one dense block of a flat
    array that a single ``np.bincount`` fills, as it does the right-hand
    sides, and each size class is one batched dense solve.  The continuous
    theory makes the systems consistent, so the residuals are a pure
    compatibility diagnostic.  Returns x (n,) and the residual norm of every
    system id 0..max(system): the rows' squared residuals plus (sum x)^2
    over its unknowns, 0 for ids with no row.
    """
    n = int(pairs.max()) + 1
    n_sys = int(system.max()) + 1
    system_of = np.empty(n, dtype=np.int64)
    system_of[pairs] = system[:, None]
    size = np.bincount(system_of, minlength=n_sys)
    rank = np.empty(n_sys, dtype=np.int64)              # systems numbered by size
    rank[np.argsort(size, kind="stable")] = np.arange(n_sys)
    size = np.sort(size)
    first = np.concatenate([[0], np.cumsum(size)])      # of each system's unknowns
    block = np.concatenate([[0], np.cumsum(size * size)])   # of its normal matrix
    pos = np.empty(n, dtype=np.int64)                   # unknowns numbered by system
    pos[np.argsort(rank[system_of], kind="stable")] = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    s = rank[system]
    la, lb, w = pos[a] - first[s], pos[b] - first[s], size[s]
    entry = block[s] + np.stack([la * w + la, lb * w + lb, la * w + lb, lb * w + la])
    A = np.bincount(entry.ravel(), np.repeat([1.0, 1.0, -1.0, -1.0], len(values)),
                    minlength=block[-1]) + 1.0
    rhs = np.bincount(np.concatenate([pos[a], pos[b]]),
                      np.concatenate([values, -values]), minlength=n)
    y = np.empty(n)
    for c, lo, count in zip(*np.unique(size, return_index=True, return_counts=True)):
        hi = lo + count
        y[first[lo]:first[hi]] = np.linalg.solve(
            A[block[lo]:block[hi]].reshape(count, c, c),
            rhs[first[lo]:first[hi]].reshape(count, c, 1)).ravel()
    x = y[pos]
    sq = np.bincount(system, (x[a] - x[b] - values) ** 2, minlength=n_sys)
    return x, np.sqrt(sq + np.bincount(system_of, x, minlength=n_sys) ** 2)


@dataclass
class NodalPotential:
    """Step 3's jump potential, per-tet values at the registry's nodes, and
    its certificate of the edge cycle condition: the worst patch residual
    and the entity of its node, the lowest node id within roundoff of it."""
    registry: NodeRegistry     # its degree is the potential's
    phi: np.ndarray            # (T, nloc) per-element nodal values
    max_residual: float        # worst patch least-squares residual
    worst_node_name: str       # the entity of its node, e.g. "vertex 12"

    def poly(self, mesh: Mesh) -> BrokenPolyField:
        """Broken scalar polynomial assembled from the nodal values."""
        k = self.registry.degree
        P = ps.reference_space(ps.P_SCALAR_TET, k)
        coeffs = np.einsum("tl,lm->tm", self.phi, P.coeffs[:, 0, :])
        return BrokenPolyField(mesh, k, coeffs[:, None, :])


def step3_reconstruct_phi(mesh: Mesh, fm: FaceMultiplier, reg: NodeRegistry, *,
                          strict: bool = False) -> NodalPotential:
    """Recover the jump potential on all nodes of the registry at once.

    Each (node, internal face) incidence asks phi[T+] - phi[T-] =
    lambda_f(node) and each node adds its zero-mean row; the nodes on the
    closure of an internal face are solved by ``solve_node_patches``, the
    others stay 0.  A face node needs no branch: its system is square,
    2 x 2, with the solution +-lambda_f / 2.  The theory makes the systems
    consistent, and ``build_mesh`` checks that every vertex and edge patch
    is face-connected, so the solution is unique.
    Every face reads lambda_f at its closure nodes from one reference table
    and finds them in T+ and T- through the rows of its local index there;
    the node ids are T+'s, and a T- that holds another node raises
    OrphanNode.

    The worst residual, ``max_residual``, certifies the edge cycle
    condition.  The signed multiplier sum r_e around an interior edge e is a
    polynomial of degree k' along e.  An edge node's system is one cycle
    around e, so it is consistent only if r_e vanishes at that node.  A
    vertex patch's cycles are generated by those around its interior edges
    (its link is a sphere, or a disk at a boundary vertex), so its system is
    consistent only if r_e(v) = 0 on every interior edge e at v.  That is
    k'+1 points per edge (k'-1 edge nodes, 2 vertices), so r_e = 0.  Every
    vertex and edge node on an internal face is solved, so this holds for
    interior edges with boundary endpoints too.
    """
    kp = reg.degree
    if fm.degree != kp:
        raise ValueError("multiplier degree must match the reconstruction degree")
    nloc = reg.tet_nodes.shape[1]
    internal = fm.internal_faces
    if not len(internal):      # no jump to reconstruct: phi = 0
        return NodalPotential(reg, np.zeros((mesh.n_tets, nloc)), 0.0,
                              reg.node_name(0))
    tab = _face_tables(kp)

    # the (node, internal face) incidences over the closure of every face:
    # each node's occurrence t * nloc + local node in T+ and T-
    occ, ids = [], []
    for side in (0, 1):
        tets = mesh.face_tets[internal, side]
        local = tab.local[mesh.face_local[internal, side]]          # (Fi, nc)
        occ.append(tets[:, None] * nloc + local)
        ids.append(reg.tet_nodes[tets[:, None], local])
    node = ids[0].ravel()
    orphan = node != ids[1].ravel()
    if orphan.any():
        i = int(np.argmax(orphan))
        g, f = int(node[i]), int(internal[i // tab.local.shape[1]])
        raise OrphanNode(
            f"node {g}: tet {mesh.face_tets[f, 1]} of face {f} does not hold it",
            node=g, kind=int(reg.kind[g]), entity=int(reg.entity[g]))
    val = (fm.lam @ tab.nodes.T).ravel()
    unknown, pairs = np.unique(np.stack(occ, axis=2), return_inverse=True)
    x, resid = solve_node_patches(pairs.reshape(-1, 2), val, node)
    phi = np.zeros(mesh.n_tets * nloc)
    phi[unknown] = x

    # the lowest node id within roundoff of the largest residual: residuals
    # that tie in exact arithmetic (symmetric meshes) name one node
    max_resid = float(resid[node].max())
    worst = int(node[resid[node] >= (1.0 - 1e-12) * max_resid].min())
    out = NodalPotential(reg, phi.reshape(mesh.n_tets, nloc), max_resid,
                         reg.node_name(worst))
    if strict:
        if fm.trace_scale is None:
            raise ValueError("a strict step 3 needs the multipliers of a strict step 2")
        data_scale = max(fm.trace_scale, 1e-30)     # lambda's data are jumps of F
        if max_resid > STRICT_TOL * data_scale:
            k, e = int(reg.kind[worst]), int(reg.entity[worst])
            rel = max_resid / data_scale
            raise InconsistentPatch(
                f"node {worst} ({out.worst_node_name}): patch residual {max_resid:.3e} "
                f"= {rel:.3e} x {data_scale:.3e}, above {STRICT_TOL:.1e}",
                node=worst, kind=k, entity=e, value=rel)
    return out


# ---------------------------------------------------------------------------
# step 4: the estimator
# ---------------------------------------------------------------------------

@dataclass
class EstimatorResult:
    """The estimator of step 4: the local indicators eta_T, their l2 sum
    eta_h and the equilibrated field Htilde = Hhat + grad phi whose
    elementwise energy norms they are."""
    eta_T: np.ndarray
    eta_h: float
    Htilde: BrokenPolyField


def step4_estimator(mesh: Mesh, mu: MaterialField, correction: ElementCorrection,
                    phi: NodalPotential) -> EstimatorResult:
    Htilde = correction.Hhat.plus(phi.poly(mesh).grad())
    eta_T = Htilde.mu_norms(mu.per_tet(mesh))
    eta_h = float(np.sqrt((eta_T ** 2).sum()))
    return EstimatorResult(eta_T=eta_T, eta_h=eta_h, Htilde=Htilde)


# ---------------------------------------------------------------------------
# orchestration and verification
# ---------------------------------------------------------------------------

@dataclass
class EquilibrationOutput:
    correction: ElementCorrection
    multipliers: FaceMultiplier
    phi: NodalPotential
    result: EstimatorResult


def estimate(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
             Hh: BrokenPolyField, reg: NodeRegistry, *,
             strict_a2: bool = False) -> EquilibrationOutput:
    """Run steps 1-4 and return what each computed.

    The estimator degree k' is that of the Lagrange node registry ``reg``,
    whose nodes step 3 reconstructs.

    ``j`` must be the current the discrete solution was computed with: the
    face and edge compatibility conditions rest on Galerkin orthogonality
    against the lowest-order edge functions, so estimating a projected-data
    solution against the raw data (or vice versa) moves the projection error
    into the step-2 and step-3 residuals.

    The steps' fields carry their residuals (``correction.oscillation``,
    ``phi.max_residual`` and ``phi.worst_node_name``, ...); what a level
    reports of them is chosen by ``adapt.run_level``.
    """
    kp = reg.degree
    corr = step1_element_corrections(mesh, mu, j, Hh, kp, strict_a2=strict_a2)
    fm = step2_face_multipliers(mesh, Hh, corr, kp, strict=strict_a2)
    phi = step3_reconstruct_phi(mesh, fm, reg, strict=strict_a2)
    result = step4_estimator(mesh, mu, corr, phi)
    return EquilibrationOutput(corr, fm, phi, result)


def verify_equilibrium(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
                       Hh: BrokenPolyField, output: EquilibrationOutput) -> dict:
    """Check that the corrected field satisfies the equilibrium condition.

    (a) per element the curl of H_h + correction matches the data; (b) the
    corrected field is tangentially continuous.  Together these are the
    distributional statement.  Its pairing with a conforming gradient
    reduces, by Green's formula, to the data's gradient load (j, grad psi),
    which the scalar load of every level measures already
    (``grad_load_ratio``).

    Returns the report: the residuals, absolute and relative, the norms
    they are relative to, and ``ok``, whether both relative residuals are
    within EQUILIBRIUM_TOL.  It raises nothing; the caller decides what a
    failed check means.
    """
    corr = output.correction
    result = output.result
    kp = corr.degree
    rule = ps.quadrature("tet", _data_exactness(kp))
    geom = mesh.geom()
    tets = np.arange(mesh.n_tets)
    total_curl = Hh.curl().padded_to(kp).plus(corr.Hhat.curl())
    jv = j.eval_elements(mesh, tets, rule.points)
    resid = jv - total_curl.eval(tets, rule.points)
    # jv may be the array the data's callback keeps, so its copy is squared
    j_norm = float(np.sqrt((sq_norms(jv.copy(), rule.weights) * geom.absdet).sum()))

    total = Hh.padded_to(kp).plus(result.Htilde)
    face_norms = tangential_jump_norms(mesh, total)
    face_resid = float(np.sqrt((face_norms ** 2).sum()))
    base_jump = float(np.sqrt((tangential_jump_norms(mesh, Hh) ** 2).sum()))
    elem_resid = float(np.sqrt((sq_norms(resid, rule.weights) * geom.absdet).sum()))

    report = {
        "elem_resid": elem_resid,
        "elem_resid_rel": elem_resid / max(j_norm, 1e-30),
        "face_resid": face_resid,
        "face_resid_rel": face_resid / max(base_jump, 1e-30),
        "j_norm": j_norm,
        "base_jump_norm": base_jump,
    }
    ok = (report["elem_resid_rel"] <= EQUILIBRIUM_TOL
          and report["face_resid_rel"] <= EQUILIBRIUM_TOL)
    report["ok"] = bool(ok)
    return report

