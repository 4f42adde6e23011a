"""Equilibrated error estimator built from purely local problems.

Pipeline (per estimator run):
  step 1  per tet: a curl-conforming local field whose curl matches the
          residual current, orthogonal to gradients in the weighted inner
          product; all tets in one stacked solve;
  step 2  per internal face: a scalar multiplier whose surface curl matches
          the tangential jump of the corrected field;
  step 3  per Lagrange node: jump-consistent potential values from tiny
          least-squares systems, solved in batches of equal shape;
  step 4  the elementwise energy norm of the corrected field.

The face multiplier data lives in the span of tangential traces, realized as
the in-plane div-conforming space of the face frame; with that realization
the surface curl of the scalar face space is exactly the divergence-free
subspace, which makes step 2 solvable whenever the face data is compatible.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import _poly
from . import polyspace as ps
from .errors import (DataIncompatible, EquilibriumViolated, FaceIncompatible,
                     FaceSolveSingular, InconsistentPatch, LocalSolveSingular,
                     OrphanNode)
from .femsys import (BrokenPolyField, CurrentDensity, MaterialField,
                     NodeRegistry, face_jump_values, face_rule_points,
                     tangential_jump_norms, tangential_jump_values, _ref_tables)
# not called here: the benchmark's tracer wraps equilibrate.build_node_registry
# by name, so the name stays importable from this module
from .femsys import build_node_registry  # noqa: F401
from .mesh import FaceFrame, Mesh, edge_face_normals, face_frame

log = logging.getLogger("curlest")

STRICT_TOL = 1e-8       # relative tolerance of the strict checks of steps 1-3
EQUILIBRIUM_TOL = 1e-9  # relative residuals that verify_equilibrium accepts


# ---------------------------------------------------------------------------
# step 1: element corrections
# ---------------------------------------------------------------------------

@dataclass
class ElementCorrection:
    """Per-tet curl-conforming correction and its residual-current data."""
    Hhat: BrokenPolyField          # the local correction field
    Hhat_curl: BrokenPolyField     # its elementwise curl
    resid: np.ndarray              # (T,) L2 norm of curl(Hhat) - j_delta
    jdelta_norm: np.ndarray        # (T,) L2 norm of j_delta
    ortho_resid: np.ndarray        # (T,) max |(mu Hhat, grad psi)| over basis
    degree: int

    @property
    def oscillation(self) -> float:
        """Global norm of the unequilibrated part of the residual current."""
        return float(np.sqrt((self.resid ** 2).sum()))


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
    finite = np.isfinite(sol.reshape(len(sol), -1))
    if not finite.all():
        i, m = np.unravel_index(np.argmin(finite), finite.shape)
        v = float(sol.reshape(len(sol), -1)[i, m])
        raise error(f"{entity} {ids[i]}: {system} solve produced non-finite "
                    f"values ({v} in {int((~finite.all(axis=1)).sum())} "
                    f"{entity}s)", int(ids[i]), v)
    return sol


def step1_element_corrections(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
                              Hh: BrokenPolyField, kp: int, *,
                              strict_a2: bool = False) -> ElementCorrection:
    """Solve the per-element saddle problems for the local correction as one
    stacked solve.

    The curl constraint is imposed against the curls of the local basis (the
    normal equations of the least-squares curl match), the gradient
    orthogonality through Lagrange multipliers; every system is square,
    nonsingular and of the same shape.  Reference tensors map to each tet
    through J^T J and its inverse.
    """
    if kp < Hh.degree:
        raise ValueError("auxiliary degree must be >= the field degree")
    N = ps.reference_space(ps.NEDELEC1_TET, kp)
    ex = 2 * kp + (2 if j.is_polynomial else 4)
    tab = _ref_tables(kp, ex)
    w = tab.rule.weights

    geom = mesh.geom()
    J, det = geom.J, geom.detJ
    JtJ = J.transpose(0, 2, 1) @ J
    jh = Hh.curl()
    all_tets = np.arange(mesh.n_tets)
    jd = (j.eval_elements(mesh, all_tets, tab.rule.points)
          - jh.eval(all_tets, tab.rule.points))             # (T, q, 3)

    A = np.einsum("tab,abij->tij", JtJ, tab.TCC) / det[:, None, None]
    B = (mu.per_tet(mesh) * det)[:, None, None] * np.einsum(
        "tab,abil->tli", np.linalg.inv(JtJ), tab.TVG)
    nR, nB = N.dim, B.shape[1]
    S = np.block([[A, B.transpose(0, 2, 1)],
                  [B, np.zeros((mesh.n_tets, nB, nB))]])
    rhs = np.zeros((mesh.n_tets, nR + nB, 1))
    rhs[:, :nR, 0] = np.einsum("q,qbi,tqb->ti", w, tab.curls, jd @ J)
    h = _solve_stack(S, rhs, all_tets, LocalSolveSingular, "tet", "saddle")[:, :nR, 0]

    hhat = geom.Jinv.transpose(0, 2, 1) @ np.einsum("ti,icm->tcm", h, N.coeffs)
    hhat_curl = (J @ np.einsum("ti,iam->tam", h, N.curl_coeffs())) / det[:, None, None]
    cv = np.einsum("qai,ti->tqa", tab.curls, h) @ (J.transpose(0, 2, 1) / det[:, None, None])
    resid = np.sqrt(np.maximum(det * np.einsum("q,tqc->t", w, (cv - jd) ** 2), 0.0))
    jd_norm = np.sqrt(np.maximum(det * np.einsum("q,tqc->t", w, jd ** 2), 0.0))
    ortho = np.abs(B @ h[..., None]).max(axis=(1, 2), initial=0.0)

    if strict_a2:
        if not j.is_polynomial:
            raise DataIncompatible("strict mode requires piecewise-polynomial data")
        jd_poly = j.field.padded_to(kp).plus(jh.padded_to(kp).scale(-1.0))
        scale = max(float(jd_norm.max(initial=0.0)), 1e-30) / mesh.h_min_edge()
        ratio = jd_poly.div().mu_norms() / scale
        t = int(np.argmax(ratio))
        if ratio[t] > STRICT_TOL:
            raise DataIncompatible(
                f"{int((ratio > STRICT_TOL).sum())} elements violate the "
                f"divergence compatibility; worst tet {t}: div_norm*h_min/"
                f"jscale = {ratio[t]:.3e} > tol {STRICT_TOL:.1e}",
                t, float(ratio[t]))

    return ElementCorrection(
        Hhat=BrokenPolyField(mesh, kp, hhat),
        Hhat_curl=BrokenPolyField(mesh, kp, hhat_curl),
        resid=resid, jdelta_norm=jd_norm, ortho_resid=ortho, degree=kp)


# ---------------------------------------------------------------------------
# step 2: face multipliers
# ---------------------------------------------------------------------------

@dataclass
class FaceMultiplier:
    """Zero-mean face polynomials whose surface curl matches the tangential
    jump of the corrected field, stored in scaled face-frame monomials."""
    degree: int
    internal_faces: np.ndarray   # (Fi,) face ids
    index_of: np.ndarray         # (F,) internal index or -1
    lam: np.ndarray              # (Fi, nP) monomial coeffs in (xi/h_f)
    origin: np.ndarray           # (Fi, 3)
    t1: np.ndarray               # (Fi, 3)
    t2: np.ndarray               # (Fi, 3)
    normal: np.ndarray           # (Fi, 3)
    hf: np.ndarray               # (Fi,)
    resid: np.ndarray            # (Fi,) L2 norm of curl_f(lambda) - j_face
    jnorm: np.ndarray            # (Fi,) L2 norm of the face data
    div_norm: np.ndarray         # (Fi,) in-plane divergence of the fitted data
    mean_abs: np.ndarray         # (Fi,) |(lambda, 1)_f|
    lam_scale: float = 0.0

    @property
    def n_faces(self) -> int:
        return len(self.internal_faces)

    def eval(self, idx, pts) -> np.ndarray:
        """Values of multiplier idx at 3D points on its face plane: (n,) for
        one index and pts (n, 3), (len(idx), n) for an index array and pts
        (len(idx), n, 3)."""
        frame = np.stack([self.t1[idx], self.t2[idx]], axis=-1)   # (..., 3, 2)
        xi = (np.asarray(pts) - self.origin[idx][..., None, :]) @ frame
        xi /= np.asarray(self.hf[idx])[..., None, None]
        v = _poly.vandermonde(2, self.degree, xi)
        v = v.reshape(xi.shape[:-1] + self.lam.shape[1:])
        return (v @ self.lam[idx][..., None])[..., 0]


def _face_multiplier_solve(mesh: Mesh, faces: np.ndarray, fr: FaceFrame,
                           jump: np.ndarray, rule, kp: int):
    """Surface-curl solves on the listed faces as one batch.

    ``jump`` holds the 3D tangential data at the face rule points,
    (Fi, q, 3), and ``fr`` the faces' frames.  Each face is a constrained L2
    least-squares problem: the minimizer is geometric, so the result is
    frame- and numbering-independent even when the data carries a small
    incompatibility.  Returns the multiplier coefficients in scaled-frame
    monomials, (Fi, nP), and the residual, data-norm and mean diagnostics.
    """
    w = rule.weights
    nP = ps.dim_p_tri(kp)
    D2 = _poly.diff_stack(2, kp)
    hf = mesh.face_diameters()[faces][:, None, None]
    s = 2.0 * mesh.face_areas()[faces]
    frame = np.stack([fr.t1, fr.t2], axis=-1)                      # (Fi, 3, 2)
    org = mesh.vertices[mesh.faces[faces, 0]][:, None, :]
    xi = (face_rule_points(mesh, faces, rule) - org) @ frame / hf
    v_lam = _poly.vandermonde(2, kp, xi).reshape(xi.shape[:2] + (nP,))
    dlam = np.einsum("fqm,bmn->fqbn", v_lam, D2) / hf[..., None]
    curl_cols = np.stack([dlam[:, :, 1], -dlam[:, :, 0]], axis=2)  # (Fi, q, 2, nP)
    del dlam
    j2 = jump @ frame
    mean_row = s[:, None] * np.einsum("q,fqm->fm", w, v_lam)
    S = np.zeros((len(faces), nP + 1, nP + 1))
    S[:, :nP, :nP] = s[:, None, None] * np.einsum("q,fqcn,fqcm->fnm", w,
                                                  curl_cols, curl_cols)
    S[:, :nP, nP] = mean_row
    S[:, nP, :nP] = mean_row
    b = np.zeros((len(faces), nP + 1, 1))
    b[:, :nP, 0] = s[:, None] * np.einsum("q,fqcn,fqc->fn", w, curl_cols, j2)
    sol = _solve_stack(S, b, faces, FaceSolveSingular, "face",
                       "multiplier")[:, :nP, 0]
    cl = np.einsum("fqcn,fn->fqc", curl_cols, sol)
    resid = np.sqrt(np.maximum(s * np.einsum("q,fqc->f", w, (cl - j2) ** 2), 0.0))
    jnorm = np.sqrt(np.maximum(s * np.einsum("q,fqc->f", w, j2 ** 2), 0.0))
    mean_abs = np.abs(np.einsum("fm,fm->f", mean_row, sol))
    return sol, resid, jnorm, mean_abs


def _physical_gradients(field: BrokenPolyField) -> BrokenPolyField:
    """The broken gradient of a vector field, component 3 b + c = d_b F_c."""
    D = _poly.diff_stack(3, field.degree)
    Jinv = field.mesh.geom().Jinv
    grads = np.einsum("tnb,nij,tcj->tbci", Jinv, D, field.coeffs, optimize=True)
    return BrokenPolyField(field.mesh, field.degree,
                           grads.reshape(len(grads), 9, -1))


def _jump_divergence_norm(mesh: Mesh, grads: BrokenPolyField, faces: np.ndarray,
                          rule, fr: FaceFrame) -> np.ndarray:
    """Exact in-plane divergence of the tangential jump of a broken field.

    The jump is a polynomial trace, so its surface divergence is evaluated
    from the jump of the field's gradient ``grads`` on the listed faces; no
    fitting is involved and compatible data reports machine zero.
    """
    dG = face_jump_values(mesh, grads, faces, rule)
    dG = dG.reshape(dG.shape[:2] + (3, 3))
    div = np.zeros(dG.shape[:2])
    for tvec in (fr.t1, fr.t2):
        dF = np.einsum("fb,fqbc->fqc", tvec, dG)   # (t . grad) of the jump base
        div += np.einsum("fqc,fc->fq", np.cross(fr.n[:, None, :], dF), tvec)
    s = 2.0 * mesh.face_areas()[faces]
    return np.sqrt(np.maximum(s * np.einsum("q,fq->f", rule.weights, div ** 2),
                              0.0))


def _solve_single_face(mesh: Mesh, f: int, jump, rule, kp: int):
    """Test hook: multiplier coefficients and residual for one face, from
    the batched solve on a one-face batch."""
    faces = np.array([f])
    sol, resid, *_ = _face_multiplier_solve(mesh, faces, face_frame(mesh, faces),
                                            np.asarray(jump)[None], rule, kp)
    return sol[0], resid[0]


def step2_face_multipliers(mesh: Mesh, Hh: BrokenPolyField,
                           correction: ElementCorrection, kp: int, *,
                           strict: bool = False) -> FaceMultiplier:
    """Solve the surface-curl problems of all internal faces as one batch."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    rule = ps.quadrature("tri", min(2 * kp + 2, ps.MAX_QUAD_EXACTNESS))
    internal = mesh.internal_faces()
    fi = len(internal)
    index_of = np.full(mesh.n_faces, -1, dtype=np.int64)
    index_of[internal] = np.arange(fi)
    fr = face_frame(mesh, internal)
    div_norm = _jump_divergence_norm(mesh, _physical_gradients(total),
                                     internal, rule, fr)
    jump = tangential_jump_values(mesh, total, internal, rule)   # (Fi, q, 3)
    lam, resid, jnorm, mean_abs = _face_multiplier_solve(mesh, internal, fr,
                                                         jump, rule, kp)
    hf = mesh.face_diameters()[internal]
    out = FaceMultiplier(kp, internal, index_of, lam,
                         mesh.vertices[mesh.faces[internal, 0]], fr.t1, fr.t2,
                         fr.n, hf, resid, jnorm, div_norm, mean_abs)
    # amplitude scale over the faces' sample points, used by tolerances
    if fi:
        sample = _poly.vandermonde(2, kp, ps.quadrature("tri", 2).points)
        out.lam_scale = float(np.abs(sample @ lam.T).max(initial=0.0))
    if strict:
        ratio = div_norm * hf / max(float(jnorm.max(initial=0.0)), 1e-30)
        bad = ratio > STRICT_TOL
        if bad.any():
            i = int(np.argmax(ratio))
            raise FaceIncompatible(
                f"{int(bad.sum())} faces violate the in-plane divergence "
                f"condition; worst face {internal[i]}: div_norm*h_f/jscale = "
                f"{ratio[i]:.3e} > tol {STRICT_TOL:.1e}",
                face=int(internal[i]), value=float(ratio[i]))
    return out


# ---------------------------------------------------------------------------
# edge compatibility diagnostics
# ---------------------------------------------------------------------------

@dataclass
class EdgeCompatibility:
    edges: np.ndarray      # interior edge ids
    max_abs: np.ndarray    # per edge: max |r_e| over the sample points
    variation: np.ndarray  # per edge: max r_e - min r_e
    lam_scale: float

    @property
    def worst_abs(self) -> float:
        return float(self.max_abs.max(initial=0.0))

    @property
    def worst_variation(self) -> float:
        return float(self.variation.max(initial=0.0))


def check_edge_compatibility(mesh: Mesh, fm: FaceMultiplier) -> EdgeCompatibility:
    """Evaluate the signed multiplier sums around every interior edge.

    For compatible data the sum is exactly zero; the variation along the edge
    and the absolute size are reported separately so constancy and zero mean
    can be checked independently.  Every face around an interior edge is
    internal, so the (edge, face) incidences come from the internal faces'
    edges; each edge sums its faces in ascending face order.
    """
    interior = mesh.internal_edges()
    s = ps.quadrature("segment", 2 * fm.degree + 4).points[:, 0]
    idx = np.repeat(np.arange(fm.n_faces), 3)
    e = mesh.face_edges[fm.internal_faces].ravel()
    keep = ~mesh.boundary_edge[e]
    order = np.argsort(e[keep], kind="stable")
    idx, e = idx[keep][order], e[keep][order]
    _, n_fe = edge_face_normals(mesh, e, fm.internal_faces[idx])
    sign = np.einsum("ia,ia->i", fm.normal[idx], n_fe)
    va = mesh.vertices[mesh.edges[e, 0]][:, None, :]
    vb = mesh.vertices[mesh.edges[e, 1]][:, None, :]
    pts = va + s[:, None] * (vb - va)                           # (N, ns, 3)
    row = np.full(mesh.n_edges, -1, dtype=np.int64)
    row[interior] = np.arange(len(interior))
    r = np.zeros((len(interior), len(s)))
    np.add.at(r, row[e], sign[:, None] * fm.eval(idx, pts))
    max_abs = np.abs(r).max(axis=1, initial=0.0)
    variation = r.max(axis=1) - r.min(axis=1)
    return EdgeCompatibility(interior, max_abs, variation, fm.lam_scale)


# ---------------------------------------------------------------------------
# step 3: nodal reconstruction
# ---------------------------------------------------------------------------

def solve_node_patches(n: int, pairs: np.ndarray, values: np.ndarray):
    """Least-squares solves of a batch of nodal difference systems of one
    shape, each with the zero-mean row.

    ``pairs`` (B, c, 2) are (plus, minus) member indices among the n patch
    members, ``values`` (B, c) the prescribed differences.  The continuous
    theory makes these systems consistent, so the residuals (B,) are a pure
    compatibility diagnostic.  Returns the (B, n) solutions.
    """
    B, c = values.shape
    rows = np.zeros((B, c + 1, n))
    b = np.arange(B)[:, None]
    r = np.arange(c)
    rows[b, r, pairs[..., 0]] = 1.0
    rows[b, r, pairs[..., 1]] = -1.0
    rows[:, c, :] = 1.0
    rhs = np.zeros((B, c + 1))
    rhs[:, :c] = values
    sol = (np.linalg.pinv(rows) @ rhs[..., None])[..., 0]
    resid = np.linalg.norm((rows @ sol[..., None])[..., 0] - rhs, axis=1)
    return sol, resid


def solve_node_patch(n: int, pairs, values):
    """One nodal difference system through ``solve_node_patches``."""
    sol, resid = solve_node_patches(n, np.asarray(pairs).reshape(1, -1, 2),
                                    np.asarray(values, dtype=float).reshape(1, -1))
    return sol[0], float(resid[0])


@dataclass
class NodalPotential:
    registry: NodeRegistry     # its degree is the potential's
    phi: np.ndarray            # (T, nloc) per-element nodal values
    max_residual: float        # worst patch least-squares residual
    lam_scale: float

    def poly(self, mesh: Mesh) -> BrokenPolyField:
        """Broken scalar polynomial assembled from the nodal values."""
        k = self.registry.degree
        P = ps.reference_space(ps.P_SCALAR_TET, k)
        coeffs = np.einsum("tl,lm->tm", self.phi, P.coeffs[:, 0, :])
        return BrokenPolyField(mesh, k, coeffs[:, None, :])


def step3_reconstruct_phi(mesh: Mesh, fm: FaceMultiplier, reg: NodeRegistry, *,
                          strict: bool = False) -> NodalPotential:
    """Recover the jump potential on all nodes of the registry at once.

    Interior and boundary-face nodes are zero, internal-face nodes get half
    the multiplier value; edge and vertex nodes solve a small overdetermined
    system (difference equation per incident internal face plus the zero-mean
    row), batched over patches of equal shape.  The theory makes these
    systems consistent, so least squares recovers the unique solution; the
    residual is tracked as a diagnostic.
    """
    kp = reg.degree
    if fm.degree != kp:
        raise ValueError("multiplier degree must match the reconstruction degree")
    nloc = reg.tet_nodes.shape[1]
    ptr, occ = reg.incident_ptr, reg.incident
    phi = np.zeros(mesh.n_tets * nloc)
    internal = fm.internal_faces

    # internal-face nodes sit in the two tets of their face
    is_face = reg.kind == ps.NODE_FACE
    fnode = np.nonzero(is_face)[0][fm.index_of[reg.entity[is_face]] >= 0]
    f = reg.entity[fnode]
    fval = fm.eval(fm.index_of[f], reg.points[fnode][:, None, :])[:, 0]
    focc = occ[ptr[fnode, None] + np.arange(2)]
    phi[focc] = np.where(focc // nloc == mesh.face_tets[f, :1], 0.5, -0.5) * fval[:, None]

    # (vertex or edge node, internal face) incidences, by node then face
    by_entity = np.lexsort((reg.entity, reg.kind))  # vertex nodes, then kp-1 per edge
    edge_slots = (mesh.n_vertices + (kp - 1) * mesh.face_edges[internal][..., None]
                  + np.arange(kp - 1)).reshape(len(internal), 3 * (kp - 1))
    node = by_entity[np.concatenate([mesh.faces[internal], edge_slots], axis=1)]
    face = np.repeat(internal, node.shape[1])
    order = np.lexsort((face, node.ravel()))
    node, face = node.ravel()[order], face[order]
    val = fm.eval(fm.index_of[face], reg.points[node][:, None, :])[:, 0]

    # patch positions of T+ and T-: occurrences are sorted by (node, tet)
    occ_key = np.repeat(np.arange(reg.n_nodes), np.diff(ptr)) * mesh.n_tets + occ // nloc
    want = node[:, None] * mesh.n_tets + mesh.face_tets[face]
    at = np.minimum(np.searchsorted(occ_key, want), len(occ_key) - 1)
    missing = occ_key[at] != want
    if missing.any():
        i = int(np.argmax(missing.any(axis=1)))
        g = int(node[i])
        raise OrphanNode(
            f"node {g}: tets {mesh.face_tets[face[i]]} of face {face[i]} not all "
            f"in the patch", node=g, kind=int(reg.kind[g]), entity=int(reg.entity[g]))
    pairs = at - ptr[node, None]

    # one batched least-squares solve per (patch tets, patch faces) shape
    n_faces = np.bincount(node, minlength=reg.n_nodes)
    start = np.cumsum(n_faces) - n_faces
    solved = np.nonzero(n_faces)[0]
    shapes, group = np.unique(np.stack([np.diff(ptr)[solved], n_faces[solved]], axis=1),
                              axis=0, return_inverse=True)
    worst = np.zeros(reg.n_nodes)
    for s, (n_tets, n_rows) in enumerate(shapes):
        g = solved[group.ravel() == s]
        rows = start[g, None] + np.arange(n_rows)
        sol, worst[g] = solve_node_patches(n_tets, pairs[rows], val[rows])
        phi[occ[ptr[g, None] + np.arange(n_tets)]] = sol

    scale = max(np.abs(fval).max(initial=0.0), np.abs(val).max(initial=0.0),
                fm.lam_scale)
    max_resid = float(worst.max(initial=0.0))
    if strict and max_resid > STRICT_TOL * max(scale, 1e-30):
        g = int(np.argmax(worst))
        k, e = int(reg.kind[g]), int(reg.entity[g])
        rel = max_resid / max(scale, 1e-30)
        raise InconsistentPatch(
            f"node {g} ({ps.NODE_NAMES[k]} {e}): patch residual {max_resid:.3e} "
            f"= {rel:.3e} x {scale:.3e}, above {STRICT_TOL:.1e}",
            node=g, kind=k, entity=e, value=rel)
    return NodalPotential(reg, phi.reshape(mesh.n_tets, nloc), max_resid, scale)


# ---------------------------------------------------------------------------
# step 4: the estimator
# ---------------------------------------------------------------------------

@dataclass
class EstimatorResult:
    eta_T: np.ndarray
    eta_h: float
    Htilde: BrokenPolyField
    phi_field: BrokenPolyField
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        def clean(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "eta_h": self.eta_h,
            "eta_T": self.eta_T.tolist(),
            "diagnostics": {k: clean(v) for k, v in self.diagnostics.items()},
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)


def step4_estimator(mesh: Mesh, mu: MaterialField, correction: ElementCorrection,
                    phi: NodalPotential) -> EstimatorResult:
    phi_poly = phi.poly(mesh)
    Htilde = correction.Hhat.plus(phi_poly.grad())
    eta_T = Htilde.mu_norms(mu.per_tet(mesh), exactness=2 * correction.degree)
    eta_h = float(np.sqrt((eta_T ** 2).sum()))
    return EstimatorResult(eta_T=eta_T, eta_h=eta_h, Htilde=Htilde,
                           phi_field=phi_poly)


# ---------------------------------------------------------------------------
# orchestration and verification
# ---------------------------------------------------------------------------

@dataclass
class EquilibrationOutput:
    correction: ElementCorrection
    multipliers: FaceMultiplier
    edge_report: EdgeCompatibility
    phi: NodalPotential
    result: EstimatorResult


def estimate(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
             Hh: BrokenPolyField, reg: NodeRegistry, *,
             strict_a2: bool = False) -> EquilibrationOutput:
    """Run steps 1-4 and collect the diagnostics the reports consume.

    The estimator degree k' is that of the Lagrange node registry ``reg``,
    whose nodes step 3 reconstructs.

    ``j`` must be the current the discrete solution was computed with: the
    face and edge compatibility conditions rest on Galerkin orthogonality
    against the lowest-order edge functions, so estimating a projected-data
    solution against the raw data (or vice versa) moves the projection error
    into the compatibility diagnostics.
    """
    kp = reg.degree
    corr = step1_element_corrections(mesh, mu, j, Hh, kp, strict_a2=strict_a2)
    fm = step2_face_multipliers(mesh, Hh, corr, kp, strict=strict_a2)
    edge_report = check_edge_compatibility(mesh, fm)
    phi = step3_reconstruct_phi(mesh, fm, reg, strict=strict_a2)
    result = step4_estimator(mesh, mu, corr, phi)
    jd_scale = max(float(np.sqrt((corr.jdelta_norm ** 2).sum())), 1e-30)
    jumps = max(float(fm.jnorm.max(initial=0.0)), 1e-30)
    jd_floor = np.maximum(corr.jdelta_norm,
                          1e-6 * corr.jdelta_norm.max(initial=0.0) + 1e-300)
    result.diagnostics = {
        "kp": kp,
        "strict_a2": strict_a2,
        "oscillation": corr.oscillation,
        "step1_max_rel_resid": float((corr.resid / jd_floor).max(initial=0.0)),
        "step1_osc_rel": corr.oscillation / jd_scale,
        "step1_max_ortho": float(corr.ortho_resid.max(initial=0.0)),
        "step2_max_resid_rel": float((fm.resid / np.maximum(fm.jnorm, jumps * 1e-6)).max(initial=0.0)),
        "step2_max_div": float(fm.div_norm.max(initial=0.0)),
        "step2_max_mean": float(fm.mean_abs.max(initial=0.0)),
        "max_re_abs": edge_report.worst_abs,
        "max_re_variation": edge_report.worst_variation,
        "lam_scale": float(max(edge_report.lam_scale, 1e-300)),
        "step3_max_residual": phi.max_residual,
        # per-element arrays for regression baselining through the JSON dump
        "step1_resid_T": corr.resid,
        "jdelta_norm_T": corr.jdelta_norm,
    }
    return EquilibrationOutput(corr, fm, edge_report, phi, result)


def verify_equilibrium(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
                       Hh: BrokenPolyField, output: EquilibrationOutput, *,
                       raise_on_fail: bool = False) -> dict:
    """Check that the corrected field satisfies the equilibrium condition.

    (a) per element the curl of H_h + correction matches the data; (b) the
    corrected field is tangentially continuous.  Together these are the
    distributional statement.  Also evaluates the gradient-orthogonality sum
    for random conforming test potentials, which must vanish for
    divergence-free data; the potentials are continuous piecewise
    polynomials on the estimator's node registry, zero on the boundary.
    """
    corr = output.correction
    result = output.result
    kp = corr.degree
    rule = ps.quadrature("tet", min(2 * kp + (2 if j.is_polynomial else 4),
                                    ps.MAX_QUAD_EXACTNESS))
    geom = mesh.geom()
    tets = np.arange(mesh.n_tets)
    total_curl = Hh.curl().padded_to(kp).plus(corr.Hhat_curl)
    cv = total_curl.eval(tets, rule.points)
    jv = j.eval_elements(mesh, tets, rule.points)
    diff = cv - jv
    elem_sq = np.einsum("q,tqc->t", rule.weights, diff ** 2) * geom.detJ
    elem_resid = float(np.sqrt(elem_sq.sum()))
    jnorm = float(np.sqrt((np.einsum("q,tqc->t", rule.weights, jv ** 2)
                           * geom.detJ).sum()))

    total = Hh.padded_to(kp).plus(result.Htilde)
    face_norms = tangential_jump_norms(mesh, total, exactness=2 * kp + 2)
    face_resid = float(np.sqrt((face_norms ** 2).sum()))
    base_jump = float(np.sqrt((tangential_jump_norms(mesh, Hh) ** 2).sum()))

    # gradient-orthogonality sum with random conforming potentials
    rng = np.random.default_rng(0)
    reg = output.phi.registry
    free = np.nonzero(~reg.boundary)[0]
    P = ps.reference_space(ps.P_SCALAR_TET, reg.degree)
    corrected = Hh.padded_to(kp).plus(corr.Hhat)
    tri_rule = ps.quadrature("tri", min(2 * kp + 2, ps.MAX_QUAD_EXACTNESS))
    internal = mesh.internal_faces()
    jump = tangential_jump_values(mesh, corrected, internal, tri_rule)
    face_pts = face_rule_points(mesh, internal, tri_rule)
    face_w = 2.0 * mesh.face_areas()[internal]
    plus = mesh.face_tets[internal, 0]
    ortho_rels = []
    for _ in range(5):
        vals = np.zeros(reg.n_nodes)
        vals[free] = rng.standard_normal(len(free))
        coeffs = np.einsum("tl,lm->tm", vals[reg.tet_nodes], P.coeffs[:, 0, :])
        psi = BrokenPolyField(mesh, reg.degree, coeffs[:, None, :])
        gpsi = psi.grad()
        gv = gpsi.eval(tets, rule.points)
        vol_term = float((np.einsum("q,tqc,tqc->t", rule.weights,
                                    jv - cv, gv) * geom.detJ).sum())
        face_term = float(np.einsum("f,q,fqc,fqc->", face_w, tri_rule.weights,
                                    jump, gpsi.eval_points(plus, face_pts)))
        scale = max(jnorm * psi_scale(gpsi), 1e-30)
        ortho_rels.append(abs(vol_term + face_term) / scale)

    report = {
        "elem_resid": elem_resid,
        "elem_resid_rel": elem_resid / max(jnorm, 1e-30),
        "elem_resid_max_T": float(np.sqrt(elem_sq.max(initial=0.0))),
        "face_resid": face_resid,
        "face_resid_rel": face_resid / max(base_jump, 1e-30),
        "ortho_rel_max": float(max(ortho_rels)) if ortho_rels else 0.0,
        "j_norm": jnorm,
        "base_jump_norm": base_jump,
    }
    ok = (report["elem_resid_rel"] <= EQUILIBRIUM_TOL
          and report["face_resid_rel"] <= EQUILIBRIUM_TOL)
    report["ok"] = bool(ok)
    if raise_on_fail and not ok:
        raise EquilibriumViolated(
            f"equilibrium residuals elem {report['elem_resid_rel']:.3e} / "
            f"face {report['face_resid_rel']:.3e} exceed {EQUILIBRIUM_TOL:.1e}")
    return report


def psi_scale(gpsi: BrokenPolyField) -> float:
    return max(gpsi.norm(), 1e-30)
