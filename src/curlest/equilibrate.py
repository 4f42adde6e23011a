"""Equilibrated error estimator built from purely local problems.

Pipeline (per estimator run):
  step 1  per tet: a curl-conforming local field whose curl matches the
          residual current, orthogonal to gradients in the weighted inner
          product;
  step 2  per internal face: a scalar multiplier whose surface curl matches
          the tangential jump of the corrected field;
  step 3  per Lagrange node: jump-consistent potential values from tiny
          least-squares systems;
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
                     NodeRegistry, build_dofmap, build_node_registry,
                     face_rule_points, tangential_jump_norms,
                     tangential_jump_values, KIND_LAGRANGE)
from .mesh import Mesh, edge_face_normals, face_frame

log = logging.getLogger("curlest")


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


def step1_element_corrections(mesh: Mesh, mu: MaterialField, j: CurrentDensity,
                              Hh: BrokenPolyField, kp: int, *,
                              mode: str = "saddle", strict_a2: bool = False,
                              osc_tol: float = 1e-8) -> ElementCorrection:
    """Solve the per-element saddle problems for the local correction.

    The curl constraint is imposed against the curls of the local basis (the
    normal equations of the least-squares curl match), the gradient
    orthogonality through Lagrange multipliers; the system is square and
    nonsingular.  ``mode='lstsq_dk'`` instead stacks the constraint tested
    against a full div-conforming basis and solves in the least-squares
    sense; both agree on compatible data.
    """
    if kp < Hh.degree:
        raise ValueError("auxiliary degree must be >= the field degree")
    N = ps.reference_space(ps.NEDELEC1_TET, kp)
    D = ps.reference_space(ps.RT_TET, kp)
    ex = 2 * kp + (2 if j.is_polynomial else 4)
    rule = ps.quadrature("tet", min(ex, ps.MAX_QUAD_EXACTNESS))
    w = rule.weights
    vand = _poly.vandermonde(3, kp, rule.points)
    Nvals = np.einsum("qm,icm->qci", vand, N.coeffs)
    Ncurls = np.einsum("qm,iam->qai", vand, N.curl_coeffs())
    Dstack = _poly.diff_stack(3, kp)
    Pg = np.einsum("qm,bmn->qbn", vand, Dstack)[:, :, 1:]   # grads of monomials
    Dvals = np.einsum("qm,icm->qci", vand, D.coeffs)
    TCC = np.einsum("q,qai,qbj->abij", w, Ncurls, Ncurls)
    TVG = np.einsum("q,qai,qbl->abil", w, Nvals, Pg)
    TDC = np.einsum("q,qai,qbj->abij", w, Dvals, Ncurls)

    geom = mesh.geom()
    mu_t = mu.per_tet(mesh)
    jh = Hh.curl()
    all_tets = np.arange(mesh.n_tets)
    jd = (j.eval_elements(mesh, all_tets, rule.points)
          - jh.eval(all_tets, rule.points))                  # (T, q, 3)

    nR, nB = N.dim, _poly.n_monomials(3, kp) - 1
    nm = _poly.n_monomials(3, kp)
    hhat = np.zeros((mesh.n_tets, 3, nm))
    hhat_curl = np.zeros((mesh.n_tets, 3, nm))
    resid = np.zeros(mesh.n_tets)
    jd_norm = np.zeros(mesh.n_tets)
    ortho = np.zeros(mesh.n_tets)
    ccoef = N.curl_coeffs()

    for t in range(mesh.n_tets):
        J = geom.J[t]
        det = geom.detJ[t]
        JtJ = J.T @ J
        K = np.linalg.inv(JtJ)
        A = np.einsum("ab,abij->ij", JtJ, TCC) / det
        B = mu_t[t] * det * np.einsum("ab,abil->li", K, TVG)
        jhat = jd[t] @ J                                  # J^T j_delta rows
        g = np.einsum("q,qbi,qb->i", w, Ncurls, jhat)
        if mode == "saddle":
            S = np.zeros((nR + nB, nR + nB))
            S[:nR, :nR] = A
            S[:nR, nR:] = B.T
            S[nR:, :nR] = B
            rhs = np.zeros(nR + nB)
            rhs[:nR] = g
            try:
                sol = np.linalg.solve(S, rhs)
            except np.linalg.LinAlgError as exc:
                raise LocalSolveSingular(f"element {t}: {exc}")
            h = sol[:nR]
        elif mode == "lstsq_dk":
            Mdc = np.einsum("ab,abij->ij", JtJ, TDC) / det
            rd = np.einsum("q,qbi,qb->i", w, Dvals, jhat)
            top = np.vstack([Mdc, B])
            rhs = np.concatenate([rd, np.zeros(nB)])
            h, *_ = np.linalg.lstsq(top, rhs, rcond=None)
        else:
            raise ValueError(f"unknown step-1 mode {mode!r}")
        cref = np.einsum("i,icm->cm", h, N.coeffs)
        hhat[t] = geom.Jinv[t].T @ cref
        ccref = np.einsum("i,iam->am", h, ccoef)
        hhat_curl[t] = (J @ ccref) / det
        cv = np.einsum("qai,i->qa", Ncurls, h) @ (J.T / det)
        diff = cv - jd[t]
        resid[t] = np.sqrt(max(det * float(np.einsum("q,qc->", w, diff ** 2)), 0.0))
        jd_norm[t] = np.sqrt(max(det * float(np.einsum("q,qc->", w, jd[t] ** 2)), 0.0))
        ortho[t] = np.abs(B @ h).max(initial=0.0)

    if strict_a2:
        if not j.is_polynomial:
            raise DataIncompatible("strict mode requires piecewise-polynomial data")
        jd_poly = j.field.padded_to(kp).plus(jh.padded_to(kp).scale(-1.0))
        div_norms = jd_poly.div().mu_norms()
        scale = max(float(jd_norm.max(initial=0.0)), 1e-30) / mesh.h_min_edge()
        bad = div_norms > osc_tol * scale
        if bad.any():
            raise DataIncompatible(
                f"{int(bad.sum())} elements violate the divergence compatibility")

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

    def eval(self, idx: int, pts: np.ndarray) -> np.ndarray:
        """Values of multiplier idx at 3D points on the face plane."""
        rel = np.asarray(pts) - self.origin[idx]
        xi = np.stack([rel @ self.t1[idx], rel @ self.t2[idx]], axis=1) / self.hf[idx]
        return _poly.vandermonde(2, self.degree, xi) @ self.lam[idx]


def _face_multiplier_solve(mesh: Mesh, f: int, jump, rule, kp: int, form: str):
    """Single-face surface-curl solve.

    ``jump`` holds the 3D tangential data at the face rule points.  Returns
    the multiplier coefficients in scaled-frame monomials plus residual and
    compatibility diagnostics.
    """
    w = rule.weights
    nP = ps.dim_p_tri(kp)
    gens = _rt_tri_generators(kp)
    D2 = _poly.diff_stack(2, kp)
    divgen = np.einsum("cmn,icn->im", D2, gens)
    fr = face_frame(mesh, f)
    org = mesh.vertices[mesh.faces[f][0]]
    hf = mesh.face_diameters()[f]
    pts = face_rule_points(mesh, f, rule)
    j2 = np.stack([jump @ fr.t1, jump @ fr.t2], axis=1)
    rel = pts - org
    xi = np.stack([rel @ fr.t1, rel @ fr.t2], axis=1) / hf
    v_lam = _poly.vandermonde(2, kp, xi)
    dlam = np.einsum("qm,bmn->qbn", v_lam, D2) / hf
    curl_cols = np.stack([dlam[:, 1, :], -dlam[:, 0, :]], axis=1)
    s = 2.0 * mesh.face_areas()[f]
    mean_row = s * np.einsum("q,qm->m", w, v_lam)
    jn2 = s * float(np.einsum("q,qc->", w, j2 ** 2))
    if form == "weak":
        # constrained L2 least squares: the minimizer is geometric, so the
        # result is frame- and numbering-independent even when the data
        # carries a small incompatibility
        K = s * np.einsum("q,qcn,qcm->nm", w, curl_cols, curl_cols)
        g = s * np.einsum("q,qcn,qc->n", w, curl_cols, j2)
        S = np.zeros((nP + 1, nP + 1))
        S[:nP, :nP] = K
        S[:nP, nP] = mean_row
        S[nP, :nP] = mean_row
        b = np.concatenate([g, [0.0]])
        try:
            sol = np.linalg.solve(S, b)[:nP]
        except np.linalg.LinAlgError as exc:
            raise FaceSolveSingular(f"face {f}: {exc}")
    elif form == "strong":
        # fit the data in the trace space, then match surface-curl
        # coefficients; agrees with 'weak' on compatible data
        dvals = np.einsum("qm,icm->qci", v_lam, gens)
        gram = s * np.einsum("q,qci,qcj->ij", w, dvals, dvals)
        R = s * np.einsum("q,qci,qcn->in", w, dvals, curl_cols)
        rhs = s * np.einsum("q,qci,qc->i", w, dvals, j2)
        cfit = np.linalg.solve(gram, rhs)
        C = np.linalg.solve(gram, R)
        A = np.vstack([C, mean_row])
        b = np.concatenate([cfit, [0.0]])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    else:
        raise ValueError(f"unknown step-2 form {form!r}")
    if not np.all(np.isfinite(sol)):
        raise FaceSolveSingular(
            f"face {f}: multiplier solve produced non-finite values")
    cl = np.einsum("qcn,n->qc", curl_cols, sol)
    resid = np.sqrt(max(s * float(np.einsum("q,qc->", w, (cl - j2) ** 2)), 0.0))
    jnorm = np.sqrt(max(jn2, 0.0))
    mean_abs = abs(float(mean_row @ sol))
    return sol, resid, jnorm, mean_abs, fr, org, hf


def _physical_gradients(field: BrokenPolyField) -> np.ndarray:
    """Coefficient blocks of d_b F_c per tet, (T, 3, 3, nm)."""
    D = _poly.diff_stack(3, field.degree)
    Jinv = field.mesh.geom().Jinv
    return np.einsum("tnb,nij,tcj->tbci", Jinv, D, field.coeffs, optimize=True)


def _jump_divergence_norm(mesh: Mesh, grad_coeffs: np.ndarray, degree: int,
                          f: int, rule, fr) -> float:
    """Exact in-plane divergence of the tangential jump of a broken field.

    The jump is a polynomial trace, so its surface divergence is evaluated
    from precomputed gradient coefficient blocks; no fitting is involved and
    compatible data reports machine zero.
    """
    geom = mesh.geom()
    pts = face_rule_points(mesh, f, rule)
    tp, tm = mesh.face_tets[f]
    grads = []
    for t in (tp, tm):
        v = _poly.vandermonde(3, degree, geom.ref_coords(t, pts))
        grads.append(np.einsum("qi,bci->qbc", v, grad_coeffs[t]))
    dG = grads[0] - grads[1]
    div = np.zeros(len(pts))
    for tvec in (fr.t1, fr.t2):
        dF = np.einsum("b,qbc->qc", tvec, dG)      # (t . grad) of the jump base
        div += np.cross(fr.n[None, :], dF) @ tvec
    s = 2.0 * mesh.face_areas()[f]
    return float(np.sqrt(max(s * np.dot(rule.weights, div ** 2), 0.0)))


def _solve_single_face(mesh: Mesh, f: int, jump, rule, kp: int, form: str):
    """Test hook: multiplier coefficients and residual for one face."""
    sol, resid, *_ = _face_multiplier_solve(mesh, f, jump, rule, kp, form)
    return sol, resid


def step2_face_multipliers(mesh: Mesh, Hh: BrokenPolyField,
                           correction: ElementCorrection, kp: int, *,
                           form: str = "weak", strict: bool = False,
                           tol: float = 1e-8) -> FaceMultiplier:
    """Solve the per-face surface-curl problems for the jump multipliers."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    rule = ps.quadrature("tri", min(2 * kp + 2, ps.MAX_QUAD_EXACTNESS))
    grad_coeffs = _physical_gradients(total)

    internal = mesh.internal_faces()
    fi = len(internal)
    index_of = np.full(mesh.n_faces, -1, dtype=np.int64)
    index_of[internal] = np.arange(fi)
    nm2 = _poly.n_monomials(2, kp)
    lam = np.zeros((fi, nm2))
    origin = np.zeros((fi, 3))
    t1v = np.zeros((fi, 3))
    t2v = np.zeros((fi, 3))
    nv = np.zeros((fi, 3))
    hfv = np.zeros(fi)
    resid = np.zeros(fi)
    jnorm = np.zeros(fi)
    div_norm = np.zeros(fi)
    mean_abs = np.zeros(fi)

    for ii in range(fi):
        f = internal[ii]
        jump = tangential_jump_values(mesh, total, f, rule)   # (q, 3)
        (lam[ii], resid[ii], jnorm[ii], mean_abs[ii],
         fr, org, hf) = _face_multiplier_solve(mesh, f, jump, rule, kp, form)
        div_norm[ii] = _jump_divergence_norm(mesh, grad_coeffs, total.degree,
                                             f, rule, fr)
        origin[ii] = org
        t1v[ii], t2v[ii], nv[ii] = fr.t1, fr.t2, fr.n
        hfv[ii] = hf

    out = FaceMultiplier(kp, internal, index_of, lam, origin, t1v, t2v, nv,
                         hfv, resid, jnorm, div_norm, mean_abs)
    # amplitude scale over the faces' sample points, used by tolerances
    if fi:
        sample = _poly.vandermonde(2, kp, ps.quadrature("tri", 2).points)
        out.lam_scale = float(np.abs(sample @ lam.T).max(initial=0.0))
    if strict:
        jscale = max(float(jnorm.max(initial=0.0)), 1e-30)
        bad = div_norm * hfv > tol * jscale
        if bad.any():
            raise FaceIncompatible(
                f"{int(bad.sum())} faces violate the in-plane divergence condition")
    return out


def _rt_tri_generators(k: int) -> np.ndarray:
    return ps.reference_space(ps.RT_TANGENTIAL_TRI, k).coeffs


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


def check_edge_compatibility(mesh: Mesh, fm: FaceMultiplier,
                             n_samples: int | None = None) -> EdgeCompatibility:
    """Evaluate the signed multiplier sums around every interior edge.

    For compatible data the sum is exactly zero; the variation along the edge
    and the absolute size are reported separately so constancy and zero mean
    can be checked independently.
    """
    interior = mesh.internal_edges()
    npts = n_samples or (fm.degree + 3)
    s = ps.quadrature("segment", 2 * npts - 2).points[:, 0]
    max_abs = np.zeros(len(interior))
    variation = np.zeros(len(interior))
    for i, e in enumerate(interior):
        a, b = mesh.edges[e]
        pts = mesh.vertices[a] + s[:, None] * (mesh.vertices[b] - mesh.vertices[a])
        r = np.zeros(len(pts))
        for f in mesh.edge_faces[e]:
            idx = fm.index_of[f]
            if idx < 0:
                continue
            _, n_fe = edge_face_normals(mesh, e, f)
            sign = float(np.dot(mesh.face_normal(f), n_fe))
            r += sign * fm.eval(idx, pts)
        max_abs[i] = np.abs(r).max(initial=0.0)
        variation[i] = (r.max() - r.min()) if len(r) else 0.0
    return EdgeCompatibility(interior, max_abs, variation, fm.lam_scale)


# ---------------------------------------------------------------------------
# step 3: nodal reconstruction
# ---------------------------------------------------------------------------

def solve_node_patch(n: int, pairs, values):
    """Least-squares solve of a nodal difference system with the zero-mean row.

    ``pairs`` are (plus, minus) member indices, ``values`` the prescribed
    differences.  The continuous theory makes these systems consistent, so
    the returned residual is a pure compatibility diagnostic.
    """
    rows = np.zeros((len(pairs) + 1, n))
    rhs = np.zeros(len(pairs) + 1)
    for r, ((a, b), v) in enumerate(zip(pairs, values)):
        rows[r, a] = 1.0
        rows[r, b] = -1.0
        rhs[r] = v
    rows[-1, :] = 1.0
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return sol, float(np.linalg.norm(rows @ sol - rhs))


@dataclass
class NodalPotential:
    registry: NodeRegistry
    phi: np.ndarray            # (T, nloc) per-element nodal values
    max_residual: float        # worst patch least-squares residual
    lam_scale: float
    degree: int

    def poly(self, mesh: Mesh) -> BrokenPolyField:
        """Broken scalar polynomial assembled from the nodal values."""
        P = ps.reference_space(ps.P_SCALAR_TET, self.degree)
        coeffs = np.einsum("tl,lm->tm", self.phi, P.coeffs[:, 0, :])
        return BrokenPolyField(mesh, self.degree, coeffs[:, None, :])


def step3_reconstruct_phi(mesh: Mesh, fm: FaceMultiplier, kp: int, *,
                          strict: bool = False,
                          lsq_tol: float = 1e-8) -> NodalPotential:
    """Recover the jump potential node by node.

    Interior and boundary-face nodes are zero, internal-face nodes get half
    the multiplier value; edge and vertex nodes solve a small overdetermined
    system (difference equation per incident internal face plus the zero-mean
    row).  The theory makes these systems consistent, so least squares
    recovers the unique solution; the residual is tracked as a diagnostic.
    """
    if fm.degree != kp:
        raise ValueError("multiplier degree must match the reconstruction degree")
    reg = build_node_registry(mesh, kp)
    nloc = reg.tet_nodes.shape[1]
    phi = np.zeros((mesh.n_tets, nloc))

    vertex_faces: dict[int, list] = {}
    for f in mesh.internal_faces():
        for v in mesh.faces[f]:
            vertex_faces.setdefault(int(v), []).append(int(f))

    worst = np.zeros(max(reg.n_nodes, 1))
    lam_scale = 0.0

    for g in range(reg.n_nodes):
        kind = reg.kind[g]
        if kind == ps.NODE_CELL:
            continue
        if kind == ps.NODE_FACE:
            f = int(reg.entity[g])
            if mesh.boundary_face[f]:
                continue
            idx = fm.index_of[f]
            val = float(fm.eval(idx, reg.points[g][None, :])[0])
            lam_scale = max(lam_scale, abs(val))
            tp, tm = mesh.face_tets[f]
            for (t, loc) in reg.incident[g]:
                phi[t, loc] = 0.5 * val if t == tp else -0.5 * val
            continue
        if kind == ps.NODE_VERTEX:
            cand = vertex_faces.get(int(reg.entity[g]), [])
        else:  # edge node
            cand = [int(f) for f in mesh.edge_faces[int(reg.entity[g])]
                    if fm.index_of[f] >= 0]
        cand = [f for f in cand if fm.index_of[f] >= 0]
        tets = [t for (t, _) in reg.incident[g]]
        pos = {t: i for i, t in enumerate(tets)}
        if not cand:
            continue  # boundary node with no internal faces: all zeros
        pairs = []
        values = []
        for f in cand:
            tp, tm = mesh.face_tets[f]
            if tp not in pos or tm not in pos:
                raise OrphanNode(
                    f"node {g}: face {f} adjacent tets missing from patch")
            pairs.append((pos[tp], pos[tm]))
            v = float(fm.eval(fm.index_of[f], reg.points[g][None, :])[0])
            values.append(v)
            lam_scale = max(lam_scale, abs(v))
        sol, worst[g] = solve_node_patch(len(tets), pairs, values)
        for (t, loc) in reg.incident[g]:
            phi[t, loc] = sol[pos[t]]

    max_resid = float(worst.max(initial=0.0))
    scale = max(lam_scale, fm.lam_scale)
    if strict and max_resid > lsq_tol * max(scale, 1e-30):
        raise InconsistentPatch(
            f"nodal patch residual {max_resid:.3e} above {lsq_tol:.1e} * {scale:.3e}")
    return NodalPotential(reg, phi, max_resid, scale, kp)


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
                    phi: NodalPotential,
                    exactness: int | None = None) -> EstimatorResult:
    phi_poly = phi.poly(mesh)
    Htilde = correction.Hhat.plus(phi_poly.grad())
    mu_t = mu.per_tet(mesh)
    ex = 2 * correction.degree if exactness is None else exactness
    eta_T = Htilde.mu_norms(mu_t, exactness=ex)
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
             Hh: BrokenPolyField, kp: int, *,
             strict_a2: bool = False) -> EquilibrationOutput:
    """Run steps 1-4 and collect the diagnostics the reports consume.

    ``j`` must be the current the discrete solution was computed with: the
    face and edge compatibility conditions rest on Galerkin orthogonality
    against the lowest-order edge functions, so estimating a projected-data
    solution against the raw data (or vice versa) moves the projection error
    into the compatibility diagnostics.
    """
    corr = step1_element_corrections(mesh, mu, j, Hh, kp, strict_a2=strict_a2)
    fm = step2_face_multipliers(mesh, Hh, corr, kp, strict=strict_a2)
    edge_report = check_edge_compatibility(mesh, fm)
    phi = step3_reconstruct_phi(mesh, fm, kp, strict=strict_a2)
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
                       n_psi: int = 5, seed: int = 0, tol: float | None = None,
                       raise_on_fail: bool = False) -> dict:
    """Check that the corrected field satisfies the equilibrium condition.

    (a) per element the curl of H_h + correction matches the data; (b) the
    corrected field is tangentially continuous.  Together these are the
    distributional statement.  Also evaluates the gradient-orthogonality sum
    for random conforming test potentials, which must vanish for
    divergence-free data.
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
    rng = np.random.default_rng(seed)
    dml = build_dofmap(mesh, KIND_LAGRANGE, min(kp, 3), homogeneous_boundary=True)
    P = ps.reference_space(ps.P_SCALAR_TET, dml.degree)
    corrected = Hh.padded_to(kp).plus(corr.Hhat)
    tri_rule = ps.quadrature("tri", min(2 * kp + 2, ps.MAX_QUAD_EXACTNESS))
    ortho_rels = []
    for _ in range(n_psi):
        vals = np.zeros(dml.n_dofs)
        if dml.n_free:
            vals[dml.free] = rng.standard_normal(dml.n_free)
        coeffs = np.einsum("tl,lm->tm", vals[dml.cell_dofs], P.coeffs[:, 0, :])
        psi = BrokenPolyField(mesh, dml.degree, coeffs[:, None, :])
        gpsi = psi.grad()
        gv = gpsi.eval(tets, rule.points)
        vol_term = float((np.einsum("q,tqc,tqc->t", rule.weights,
                                    jv - cv, gv) * geom.detJ).sum())
        face_term = 0.0
        for f in mesh.internal_faces():
            jump = tangential_jump_values(mesh, corrected, f, tri_rule)
            tp = mesh.face_tets[f, 0]
            pts = face_rule_points(mesh, f, tri_rule)
            gpv = gpsi.eval_one(tp, geom.ref_coords(tp, pts))
            face_term += 2.0 * mesh.face_areas()[f] * float(
                np.einsum("q,qc,qc->", tri_rule.weights, jump, gpv))
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
    if tol is None:
        tol = 1e-9
    ok = report["elem_resid_rel"] <= tol and report["face_resid_rel"] <= tol
    report["ok"] = bool(ok)
    if raise_on_fail and not ok:
        raise EquilibriumViolated(
            f"equilibrium residuals elem {report['elem_resid_rel']:.3e} / "
            f"face {report['face_resid_rel']:.3e} exceed {tol:.1e}")
    return report


def psi_scale(gpsi: BrokenPolyField) -> float:
    return max(gpsi.norm(), 1e-30)
