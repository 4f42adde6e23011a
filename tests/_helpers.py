"""Shared fixtures-in-plain-code for the test suite: manufactured fields,
one-call solvers, and small independent oracles."""

import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from curlest import _poly
from curlest import adapt as adm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps
from curlest.errors import NonConforming


def g(s):
    return s * (1.0 - s)


def cube_u(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([g(y) * g(z), g(x) * g(z), g(x) * g(y)], axis=1)


def cube_H(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return 2.0 * np.stack([g(x) * (z - y), g(y) * (x - z), g(z) * (y - x)], axis=1)


def cube_j(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return 2.0 * np.stack([g(y) + g(z), g(x) + g(z), g(x) + g(y)], axis=1)


MU1 = fem.MaterialField(1.0)


def solve_cube(n, k, strict_a2=False, aux=None):
    """Solve the manufactured cube problem; returns (mesh, dofmap, u, Hh, data)."""
    mesh = msh.unit_cube_mesh(n)
    cfg = adm.RunConfig(degree=k, aux_degree=aux or k, strict_a2=strict_a2)
    j = fem.CurrentDensity(func=cube_j)
    dm, u, Hh, data = adm.solve_level(mesh, MU1, j, cfg)
    return mesh, dm, u, Hh, data


# a polynomial potential that lies in the degree-2 curl-conforming space:
# x cross w with a linear w, so interpolation reproduces it exactly
def inspace_u(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.stack([y * y - z * x, z * z - x * y, x * x - y * z], axis=1)


def inspace_H(p):
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return -3.0 * np.stack([z, x, y], axis=1)


def inspace_j(p):
    return np.full((len(p), 3), -3.0)


def two_tet_mesh():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
    return msh.build_mesh(verts, [[0, 1, 2, 3], [1, 2, 3, 4]])


def brute_force_faces(tets):
    """Independent face enumeration straight from the tet list."""
    from collections import Counter
    count = Counter()
    for tet in tets:
        tet = sorted(int(v) for v in tet)
        for skip in range(4):
            count[tuple(v for i, v in enumerate(tet) if i != skip)] += 1
    return count


def check_conforming(mesh):
    """Oracle: recount faces from scratch and verify the two-tet rule and the
    stored adjacency."""
    count = brute_force_faces(mesh.tets)
    assert max(count.values()) <= 2
    stored = {tuple(f): int(mesh.face_tets[f_id, 1] != msh.BOUNDARY) + 1
              for f_id, f in enumerate(mesh.faces)}
    assert len(stored) == len(count)
    for key, c in count.items():
        assert stored[key] == c
    assert (mesh.tet_volumes() > 0).all()
    return True


def relabelled_cube(n, seed=1):
    """unit_cube_mesh(n) with vertex ids and tet order shuffled, as the
    benchmark seeds its meshes."""
    rng = np.random.default_rng(seed)
    m = msh.unit_cube_mesh(n)
    vperm = rng.permutation(m.n_vertices)
    tperm = rng.permutation(m.n_tets)
    verts = np.empty_like(m.vertices)
    verts[vperm] = m.vertices
    return msh.build_mesh(verts, vperm[m.tets][tperm], m.subdomain_tag[tperm])


def jittered_cube(n, seed=5, tag_fn=None):
    """unit_cube_mesh(n, tag_fn) with interior vertices moved by up to 15% of
    h and both vertex ids and tet order shuffled."""
    rng = np.random.default_rng(seed)
    m = msh.unit_cube_mesh(n, tag_fn)
    v = m.vertices.copy()
    inner = ~m.boundary_vertex
    v[inner] += (0.15 / n) * rng.uniform(-1.0, 1.0, (int(inner.sum()), 3))
    vperm = rng.permutation(m.n_vertices)
    verts = np.empty_like(v)
    verts[vperm] = v
    tperm = rng.permutation(m.n_tets)
    return msh.build_mesh(verts, vperm[m.tets][tperm], m.subdomain_tag[tperm])


# ---------------------------------------------------------------------------
# per-tet reference loops for the stacked element maps: each applies the
# canonical functionals to the covariant- or Piola-mapped basis of one tet at
# a time
# ---------------------------------------------------------------------------

def covariant_basis(mesh, k, t):
    """field_eval of the covariant-mapped reference Nedelec basis on tet t."""
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    geom = mesh.geom()
    Jinv = geom.Jinv[t]

    def field_eval(pts):
        xhat = (np.asarray(pts) - geom.v0[t]) @ Jinv.T
        return np.einsum("ba,qbn->qan", Jinv, space.eval(xhat))

    return field_eval


def piola_basis(mesh, k, t):
    """field_eval of the Piola-mapped reference div-conforming basis on tet t."""
    space = ps.reference_space(ps.RT_TET, k)
    geom = mesh.geom()

    def field_eval(pts):
        xhat = (np.asarray(pts) - geom.v0[t]) @ geom.Jinv[t].T
        return np.einsum("ab,qbn->qan", geom.J[t], space.eval(xhat)) / geom.detJ[t]

    return field_eval


def element_dof_matrix(mesh, k, t):
    return ps.nedelec_dof_matrix(mesh.vertices[mesh.tets[t]], mesh.tets[t], k,
                                 covariant_basis(mesh, k, t))


def loop_nedelec_dofs(mesh, k):
    """(cell_dofs, boundary_mask) of the degree-k Nedelec space: edge, face,
    then interior blocks, each entity's dofs contiguous."""
    ne, nf, nc = k, k * (k - 1), k * (k - 1) * (k - 2) // 2
    n_edge, n_face = mesh.n_edges * ne, mesh.n_faces * nf
    cell_dofs = np.empty((mesh.n_tets, 6 * ne + 4 * nf + nc), dtype=np.int64)
    for t in range(mesh.n_tets):
        cols = []
        for e in mesh.tet_edges[t]:
            cols.extend(range(e * ne, (e + 1) * ne))
        for f in mesh.tet_faces[t]:
            cols.extend(range(n_edge + f * nf, n_edge + (f + 1) * nf))
        cols.extend(range(n_edge + n_face + t * nc, n_edge + n_face + (t + 1) * nc))
        cell_dofs[t] = cols
    mask = np.zeros(n_edge + n_face + mesh.n_tets * nc, dtype=bool)
    for e in np.nonzero(mesh.boundary_edge)[0]:
        mask[e * ne:(e + 1) * ne] = True
    for f in np.nonzero(mesh.boundary_face)[0]:
        mask[n_edge + f * nf: n_edge + (f + 1) * nf] = True
    return cell_dofs, mask


def loop_curlcurl_mass(mesh, dm, mu_t):
    """Full (unreduced) dense curl-curl and mass matrices from physical
    quadrature of the mapped basis, tet by tet."""
    k = dm.degree
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    rule = ps.quadrature("tet", 2 * k + 2)
    vals = space.eval(rule.points)                                   # (q,3,n)
    curls = np.einsum("qm,iam->qai", _poly.vandermonde(3, k, rule.points),
                      space.curl_coeffs())
    geom = mesh.geom()
    A = np.zeros((dm.n_dofs, dm.n_dofs))
    M = np.zeros((dm.n_dofs, dm.n_dofs))
    for t in range(mesh.n_tets):
        Vinv = np.linalg.inv(element_dof_matrix(mesh, k, t))
        J, det = geom.J[t], geom.detJ[t]
        cphys = np.einsum("ab,qbi->qai", J, curls) / det
        vphys = np.einsum("ba,qbi->qai", geom.Jinv[t], vals)
        A_gen = det / mu_t[t] * np.einsum("q,qai,qaj->ij", rule.weights, cphys, cphys)
        M_gen = det * np.einsum("q,qai,qaj->ij", rule.weights, vphys, vphys)
        d = dm.cell_dofs[t]
        A[np.ix_(d, d)] += Vinv.T @ A_gen @ Vinv
        M[np.ix_(d, d)] += Vinv.T @ M_gen @ Vinv
    return A, M


def loop_gradient(mesh, dm):
    """Dense discrete gradient over all dofs and all nodes of the dof map's
    registry: functionals applied to the mapped gradients of the scalar
    basis, shared entries averaged."""
    k, reg = dm.degree, dm.registry
    gradc = ps.reference_space(ps.P_SCALAR_TET, k).grad_coeffs()
    geom = mesh.geom()
    G = np.zeros((dm.n_dofs, reg.n_nodes))
    cnt = np.zeros_like(G)
    for t in range(mesh.n_tets):
        Jinv, v0 = geom.Jinv[t], geom.v0[t]

        def field_eval(pts):
            xhat = (np.asarray(pts) - v0) @ Jinv.T
            g = np.einsum("qm,ibm->qbi", _poly.vandermonde(3, k, xhat), gradc)
            return np.einsum("ba,qbn->qan", Jinv, g)

        locG = ps.nedelec_dof_matrix(mesh.vertices[mesh.tets[t]], mesh.tets[t],
                                     k, field_eval)
        idx = np.ix_(dm.cell_dofs[t], reg.tet_nodes[t])
        G[idx] += locG
        cnt[idx] += 1.0
    return np.divide(G, cnt, out=np.zeros_like(G), where=cnt > 0)


def colamd_factor(K):
    """Plain SuperLU with COLAMD column ordering and partial pivoting."""
    return spla.splu(sp.csc_matrix(K))


def colamd_solve(A, b, mass):
    """Free-dof solution of the singular system A u = b by the library's
    shift and refinement (factor A + eps * mass, refine against A), on a
    COLAMD factor in place of the symmetric-mode one."""
    n = A.shape[0]
    lu = colamd_factor(A + 1e-10 * (A.diagonal().sum() / n) * mass)
    u = np.zeros(n)
    for _ in range(50):
        r = b - A @ u
        if np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b):
            return u
        u = u + lu.solve(r)
    raise AssertionError("oracle refinement stalled")


def cg_solve(A, b, tol=1e-10, max_iter=50000):
    """Free-dof solution of the singular, consistent system A u = b by
    Jacobi-preconditioned conjugate gradients, to a relative residual tol."""
    dinv = 1.0 / A.diagonal()
    u = np.zeros(A.shape[0])
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * np.linalg.norm(b):
            return u
        Ap = A @ p
        alpha = rz / float(p @ Ap)
        u += alpha * p
        r -= alpha * Ap
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError(f"oracle CG did not reach tol in {max_iter} iterations")


def loop_Hh(mesh, dm, u, mu_t):
    """(T, 3, nm) coefficients of mu^-1 curl u, tet by tet."""
    k = dm.degree
    ccoef = ps.reference_space(ps.NEDELEC1_TET, k).curl_coeffs()
    geom = mesh.geom()
    out = np.empty((mesh.n_tets, 3, _poly.n_monomials(3, k)))
    for t in range(mesh.n_tets):
        cgen = np.linalg.solve(element_dof_matrix(mesh, k, t),
                               u[dm.cell_dofs[t]])
        cc = np.einsum("i,iam->am", cgen, ccoef)
        out[t] = (geom.J[t] @ cc) / (geom.detJ[t] * mu_t[t])
    return out


# ---------------------------------------------------------------------------
# per-face and per-edge reference loops for the batched estimator kernels:
# each evaluates the two traces of one face, or the faces around one edge, at
# a time with its own point and trace arithmetic
# ---------------------------------------------------------------------------

def _loop_face_points(mesh, f, rule):
    a, b, c = mesh.vertices[mesh.faces[f]]
    return a + rule.points[:, 0:1] * (b - a) + rule.points[:, 1:2] * (c - a)


def _loop_traces(mesh, coeffs, degree, f, pts):
    """Values of the coefficient blocks on T+ and T- of face f at pts."""
    geom = mesh.geom()
    return [np.einsum("qm,...m->q...",
                      _poly.vandermonde(3, degree, geom.ref_coords(t, pts)),
                      coeffs[t])
            for t in mesh.face_tets[f]]


def loop_face_solve(mesh, f, jump, rule, kp, form):
    """Single-face surface-curl solve, ``form`` 'weak' (constrained L2 least
    squares) or 'strong' (fit the data in the trace space, then match
    surface-curl coefficients); returns (lam, resid, jnorm, mean_abs)."""
    w = rule.weights
    nP = ps.dim_p_tri(kp)
    D2 = _poly.diff_stack(2, kp)
    fr = msh.face_frame(mesh, f)
    org = mesh.vertices[mesh.faces[f][0]]
    hf = mesh.face_diameters()[f]
    j2 = np.stack([jump @ fr.t1, jump @ fr.t2], axis=1)
    rel = _loop_face_points(mesh, f, rule) - org
    xi = np.stack([rel @ fr.t1, rel @ fr.t2], axis=1) / hf
    v_lam = _poly.vandermonde(2, kp, xi)
    dlam = np.einsum("qm,bmn->qbn", v_lam, D2) / hf
    curl_cols = np.stack([dlam[:, 1, :], -dlam[:, 0, :]], axis=1)
    s = 2.0 * mesh.face_areas()[f]
    mean_row = s * np.einsum("q,qm->m", w, v_lam)
    if form == "weak":
        S = np.zeros((nP + 1, nP + 1))
        S[:nP, :nP] = s * np.einsum("q,qcn,qcm->nm", w, curl_cols, curl_cols)
        S[:nP, nP] = mean_row
        S[nP, :nP] = mean_row
        b = np.concatenate([s * np.einsum("q,qcn,qc->n", w, curl_cols, j2), [0.0]])
        sol = np.linalg.solve(S, b)[:nP]
    elif form == "strong":
        gens = ps.reference_space(ps.RT_TANGENTIAL_TRI, kp).coeffs
        dvals = np.einsum("qm,icm->qci", v_lam, gens)
        gram = s * np.einsum("q,qci,qcj->ij", w, dvals, dvals)
        R = s * np.einsum("q,qci,qcn->in", w, dvals, curl_cols)
        rhs = s * np.einsum("q,qci,qc->i", w, dvals, j2)
        A = np.vstack([np.linalg.solve(gram, R), mean_row])
        b = np.concatenate([np.linalg.solve(gram, rhs), [0.0]])
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    else:
        raise ValueError(f"unknown step-2 form {form!r}")
    cl = np.einsum("qcn,n->qc", curl_cols, sol)
    resid = np.sqrt(s * np.einsum("q,qc->", w, (cl - j2) ** 2))
    jnorm = np.sqrt(s * np.einsum("q,qc->", w, j2 ** 2))
    return sol, resid, jnorm, abs(mean_row @ sol)


def loop_face_multipliers(mesh, Hh, correction, kp, form="weak"):
    """Step 2 face by face: dict of lam, resid, jnorm, div_norm, mean_abs
    over the internal faces in ascending order."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    rule = ps.quadrature("tri", min(2 * kp + 2, ps.MAX_QUAD_EXACTNESS))
    grad_coeffs = np.einsum("tnb,nij,tcj->tbci", mesh.geom().Jinv,
                            _poly.diff_stack(3, kp), total.coeffs)
    rows = []
    for f in mesh.internal_faces():
        pts = _loop_face_points(mesh, f, rule)
        vp, vm = _loop_traces(mesh, total.coeffs, kp, f, pts)
        fr = msh.face_frame(mesh, f)
        jump = np.cross(fr.n[None, :], vp - vm)
        gp, gm = _loop_traces(mesh, grad_coeffs, kp, f, pts)
        div = np.zeros(len(pts))
        for tvec in (fr.t1, fr.t2):
            dF = np.einsum("b,qbc->qc", tvec, gp - gm)
            div += np.cross(fr.n[None, :], dF) @ tvec
        div_norm = np.sqrt(2.0 * mesh.face_areas()[f] * np.dot(rule.weights, div ** 2))
        sol, resid, jnorm, mean_abs = loop_face_solve(mesh, f, jump, rule, kp, form)
        rows.append((sol, resid, jnorm, div_norm, mean_abs))
    names = ("lam", "resid", "jnorm", "div_norm", "mean_abs")
    return {k: np.array(v) for k, v in zip(names, zip(*rows))}


def loop_edge_sums(mesh, fm, n_samples=None):
    """(max_abs, variation) of the signed multiplier sums, edge by edge over
    the interior edges, each summing its faces in ascending order."""
    npts = n_samples or (fm.degree + 3)
    s = ps.quadrature("segment", 2 * npts - 2).points[:, 0]
    max_abs, variation = [], []
    for e in mesh.internal_edges():
        a, b = mesh.edges[e]
        pts = mesh.vertices[a] + s[:, None] * (mesh.vertices[b] - mesh.vertices[a])
        r = np.zeros(len(pts))
        for f in edge_faces(mesh, e):
            i = fm.index_of[f]
            _, n_fe = msh.edge_face_normals(mesh, e, f)
            rel = pts - fm.origin[i]
            xi = np.stack([rel @ fm.t1[i], rel @ fm.t2[i]], axis=1) / fm.hf[i]
            r += float(np.dot(mesh.face_normal(f), n_fe)) * (
                _poly.vandermonde(2, fm.degree, xi) @ fm.lam[i])
        max_abs.append(np.abs(r).max())
        variation.append(r.max() - r.min())
    return np.array(max_abs), np.array(variation)


def loop_jump_norms(mesh, field, exactness=None):
    """(tangential, normal) jump norms face by face, 0 on boundary faces."""
    ex = 2 * field.degree if exactness is None else exactness
    rule = ps.quadrature("tri", min(max(ex, 2), ps.MAX_QUAD_EXACTNESS))
    tang = np.zeros(mesh.n_faces)
    norm = np.zeros(mesh.n_faces)
    for f in mesh.internal_faces():
        pts = _loop_face_points(mesh, f, rule)
        vp, vm = _loop_traces(mesh, field.coeffs, field.degree, f, pts)
        n = mesh.face_normal(f)
        s = 2.0 * mesh.face_areas()[f]
        tang[f] = np.sqrt(s * np.einsum("q,qc->", rule.weights,
                                        np.cross(n[None, :], vp - vm) ** 2))
        norm[f] = np.sqrt(s * np.dot(rule.weights, ((vp - vm) @ n) ** 2))
    return tang, norm


def loop_mu_split(mesh, rr):
    """Residual-estimator mu_T with the face terms split face by face."""
    mu_T = rr.vol_T.copy()
    for f in mesh.internal_faces():
        tp, tm = mesh.face_tets[f]
        mu_T[tp] += 0.5 * rr.face_sq[f]
        mu_T[tm] += 0.5 * rr.face_sq[f]
    return mu_T


# ---------------------------------------------------------------------------
# node registry by coordinate hashing and step 3 node by node: the reference
# for the topological registry and the batched patch solves
# ---------------------------------------------------------------------------

_NEIGHBOR_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]


def hash_node_registry(mesh, degree):
    """Lagrange nodes deduplicated by hashing their coordinates on a
    1e-8*h grid, tet by tet and node by node; same numbering contract as
    ``femsys.build_node_registry``."""
    nodes = ps.lagrange_nodes(degree)
    nloc = nodes.n_nodes
    rho = 1e-8 * mesh.h_min_edge()
    buckets = {}
    points, kind, entity, incident = [], [], [], []
    tet_nodes = np.empty((mesh.n_tets, nloc), dtype=np.int64)
    for t in range(mesh.n_tets):
        gids = mesh.tets[t]
        order = np.argsort(gids)
        vv = mesh.vertices[gids[order]]
        w = nodes.multi[:, order] / float(degree)
        pos = w[:, 0:1] * vv[0] + w[:, 1:2] * vv[1]
        pos += w[:, 2:3] * vv[2]
        pos += w[:, 3:4] * vv[3]
        pos = pos + 0.0
        for loc in range(nloc):
            p = pos[loc]
            key = tuple(int(round(c / rho)) for c in p)
            g = buckets.get(key)
            if g is None:
                for d in _NEIGHBOR_OFFSETS:
                    g = buckets.get((key[0] + d[0], key[1] + d[1], key[2] + d[2]))
                    if g is not None and np.linalg.norm(points[g] - p) <= rho:
                        break
                    g = None
            k = int(nodes.kind[loc])
            ent = (int(gids[nodes.entity[loc]]) if k == ps.NODE_VERTEX
                   else int(mesh.tet_edges[t, nodes.entity[loc]]) if k == ps.NODE_EDGE
                   else int(mesh.tet_faces[t, nodes.entity[loc]]) if k == ps.NODE_FACE
                   else t)
            if g is None:
                g = len(points)
                buckets[key] = g
                points.append(p)
                kind.append(k)
                entity.append(ent)
                incident.append([])
            assert (kind[g], entity[g]) == (k, ent), f"node {g} at {p}"
            incident[g].append(t * nloc + loc)
            tet_nodes[t, loc] = g
    boundary = np.zeros(len(points), dtype=bool)
    for g in range(len(points)):
        if kind[g] == ps.NODE_VERTEX:
            boundary[g] = mesh.boundary_vertex[entity[g]]
        elif kind[g] == ps.NODE_EDGE:
            boundary[g] = mesh.boundary_edge[entity[g]]
        elif kind[g] == ps.NODE_FACE:
            boundary[g] = mesh.boundary_face[entity[g]]
    ptr = np.cumsum([0] + [len(occ) for occ in incident])
    return fem.NodeRegistry(degree, np.array(points), np.array(kind),
                            np.array(entity), boundary, tet_nodes,
                            np.array(sum(incident, []), dtype=np.int64), ptr)


def loop_step3(mesh, fm, kp):
    """Step 3 node by node on the hashed registry, one ``np.linalg.lstsq``
    per vertex or edge patch; returns an ``equilibrate.NodalPotential``."""
    from curlest import equilibrate as eqm
    reg = hash_node_registry(mesh, kp)
    nloc = reg.tet_nodes.shape[1]
    phi = np.zeros((mesh.n_tets, nloc))
    internal = [int(f) for f in mesh.internal_faces()]
    worst, lam_scale = 0.0, 0.0
    for g in range(reg.n_nodes):
        occ = [divmod(int(i), nloc)
               for i in reg.incident[reg.incident_ptr[g]:reg.incident_ptr[g + 1]]]
        p = reg.points[g][None, :]
        if reg.kind[g] == ps.NODE_FACE and fm.index_of[reg.entity[g]] >= 0:
            f = int(reg.entity[g])
            val = float(fm.eval(fm.index_of[f], p)[0])
            lam_scale = max(lam_scale, abs(val))
            for t, loc in occ:
                phi[t, loc] = 0.5 * val if t == mesh.face_tets[f, 0] else -0.5 * val
            continue
        if reg.kind[g] == ps.NODE_VERTEX:
            cand = [f for f in internal if reg.entity[g] in mesh.faces[f]]
        elif reg.kind[g] == ps.NODE_EDGE:
            cand = [f for f in internal if reg.entity[g] in mesh.face_edges[f]]
        else:
            continue
        if not cand:
            continue
        pos = {t: i for i, (t, _) in enumerate(occ)}
        rows = np.zeros((len(cand) + 1, len(occ)))
        rhs = np.zeros(len(cand) + 1)
        for r, f in enumerate(cand):
            tp, tm = mesh.face_tets[f]
            rows[r, pos[tp]] = 1.0
            rows[r, pos[tm]] = -1.0
            rhs[r] = float(fm.eval(fm.index_of[f], p)[0])
            lam_scale = max(lam_scale, abs(rhs[r]))
        rows[-1, :] = 1.0
        sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        worst = max(worst, float(np.linalg.norm(rows @ sol - rhs)))
        for (t, loc), v in zip(occ, sol):
            phi[t, loc] = v
    return eqm.NodalPotential(reg, phi, worst, max(lam_scale, fm.lam_scale))


# ---------------------------------------------------------------------------
# per-tet references for the stacked step 1 and the stacked dof functionals
# ---------------------------------------------------------------------------

def loop_step1(mesh, mu, j, Hh, kp, mode="saddle"):
    """Step 1 tet by tet with its own reference tables; returns an
    ``equilibrate.ElementCorrection``.  ``mode='saddle'`` solves each square
    saddle system; ``mode='lstsq_dk'`` instead tests the curl constraint
    against a full div-conforming basis and solves the stacked system in the
    least-squares sense.  Both agree on compatible data."""
    from curlest import equilibrate as eqm
    N = ps.reference_space(ps.NEDELEC1_TET, kp)
    D = ps.reference_space(ps.RT_TET, kp)
    ex = 2 * kp + (2 if j.is_polynomial else 4)
    rule = ps.quadrature("tet", min(ex, ps.MAX_QUAD_EXACTNESS))
    w = rule.weights
    vand = _poly.vandermonde(3, kp, rule.points)
    Nvals = np.einsum("qm,icm->qci", vand, N.coeffs)
    Ncurls = np.einsum("qm,iam->qai", vand, N.curl_coeffs())
    Pg = np.einsum("qm,bmn->qbn", vand, _poly.diff_stack(3, kp))[:, :, 1:]
    Dvals = np.einsum("qm,icm->qci", vand, D.coeffs)
    TCC = np.einsum("q,qai,qbj->abij", w, Ncurls, Ncurls)
    TVG = np.einsum("q,qai,qbl->abil", w, Nvals, Pg)
    TDC = np.einsum("q,qai,qbj->abij", w, Dvals, Ncurls)

    geom = mesh.geom()
    mu_t = mu.per_tet(mesh)
    all_tets = np.arange(mesh.n_tets)
    jd = (j.eval_elements(mesh, all_tets, rule.points)
          - Hh.curl().eval(all_tets, rule.points))
    nR, nB = N.dim, _poly.n_monomials(3, kp) - 1
    nm = _poly.n_monomials(3, kp)
    hhat = np.zeros((mesh.n_tets, 3, nm))
    hhat_curl = np.zeros((mesh.n_tets, 3, nm))
    resid, jd_norm, ortho = (np.zeros(mesh.n_tets) for _ in range(3))
    for t in range(mesh.n_tets):
        J, det = geom.J[t], geom.detJ[t]
        JtJ = J.T @ J
        A = np.einsum("ab,abij->ij", JtJ, TCC) / det
        B = mu_t[t] * det * np.einsum("ab,abil->li", np.linalg.inv(JtJ), TVG)
        jhat = jd[t] @ J
        if mode == "saddle":
            S = np.zeros((nR + nB, nR + nB))
            S[:nR, :nR] = A
            S[:nR, nR:] = B.T
            S[nR:, :nR] = B
            rhs = np.zeros(nR + nB)
            rhs[:nR] = np.einsum("q,qbi,qb->i", w, Ncurls, jhat)
            h = np.linalg.solve(S, rhs)[:nR]
        else:
            Mdc = np.einsum("ab,abij->ij", JtJ, TDC) / det
            rd = np.einsum("q,qbi,qb->i", w, Dvals, jhat)
            h, *_ = np.linalg.lstsq(np.vstack([Mdc, B]),
                                    np.concatenate([rd, np.zeros(nB)]), rcond=None)
        hhat[t] = geom.Jinv[t].T @ np.einsum("i,icm->cm", h, N.coeffs)
        hhat_curl[t] = (J @ np.einsum("i,iam->am", h, N.curl_coeffs())) / det
        cv = np.einsum("qai,i->qa", Ncurls, h) @ (J.T / det)
        resid[t] = np.sqrt(max(det * float(np.einsum("q,qc->", w, (cv - jd[t]) ** 2)), 0.0))
        jd_norm[t] = np.sqrt(max(det * float(np.einsum("q,qc->", w, jd[t] ** 2)), 0.0))
        ortho[t] = np.abs(B @ h).max(initial=0.0)
    return eqm.ElementCorrection(
        Hhat=fem.BrokenPolyField(mesh, kp, hhat),
        Hhat_curl=fem.BrokenPolyField(mesh, kp, hhat_curl),
        resid=resid, jdelta_norm=jd_norm, ortho_resid=ortho, degree=kp)


def _one_tet_eval(func):
    return lambda pts: np.asarray(func(pts))[:, :, None]


def loop_interpolate_nedelec(mesh, dm, func):
    """Nedelec interpolation with one ``nedelec_dof_matrix`` call per tet;
    returns the full coefficient vector."""
    vals = np.zeros(dm.n_dofs)
    for t in range(mesh.n_tets):
        vals[dm.cell_dofs[t]] = ps.nedelec_dof_matrix(
            mesh.vertices[mesh.tets[t]], mesh.tets[t], dm.degree,
            _one_tet_eval(func))[:, 0]
    return vals


def loop_project_current(mesh, j_func, k):
    """Div-conforming interpolation tet by tet: the canonical functionals of
    the Piola-mapped basis and of the data, then one small solve; returns
    the (T, 3, nm) physical coefficients."""
    space = ps.reference_space(ps.RT_TET, k)
    geom = mesh.geom()
    out = np.empty((mesh.n_tets, 3, _poly.n_monomials(3, k)))
    for t in range(mesh.n_tets):
        verts, gids = mesh.vertices[mesh.tets[t]], mesh.tets[t]
        V = ps.rt_dof_matrix(verts, gids, k, piola_basis(mesh, k, t),
                             exactness=2 * k + 4)
        b = ps.rt_dof_matrix(verts, gids, k, _one_tet_eval(j_func),
                             exactness=2 * k + 4)[:, 0]
        cref = np.einsum("i,icm->cm", np.linalg.solve(V, b), space.coeffs)
        out[t] = (geom.J[t] @ cref) / geom.detJ[t]
    return out


# ---------------------------------------------------------------------------
# loop oracles for the array topology, generators and bisection of
# curlest.mesh: dict deduplication, the per-edge link walk and the
# sequential longest-edge bisection, entity by entity
# ---------------------------------------------------------------------------

def edge_faces(mesh, e):
    """Faces containing edge e, ascending."""
    return np.nonzero((mesh.face_edges == e).any(axis=1))[0]


def loop_topology(tets, n_vertices):
    """Oriented topology of positively oriented tets, built with dicts in
    tet order; also the per-edge face and tet lists the link walk reads."""
    nt = len(tets)
    face_ids, face_list, face_adj = {}, [], []
    tet_faces = np.empty((nt, 4), dtype=np.int64)
    for t, tet in enumerate(tets):
        for i, loc in enumerate(msh.LOCAL_FACES):
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
    face_tets = np.full((len(faces), 2), msh.BOUNDARY, dtype=np.int64)
    for f, adj in enumerate(face_adj):
        adj = sorted(adj)
        face_tets[f, 0] = adj[0]
        if len(adj) == 2:
            face_tets[f, 1] = adj[1]

    edge_ids, edge_list = {}, []
    tet_edges = np.empty((nt, 6), dtype=np.int64)
    for t, tet in enumerate(tets):
        for i, (a, b) in enumerate(msh.LOCAL_EDGES):
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
    edge_faces_l = [[] for _ in range(len(edges))]
    for f in range(len(faces)):
        for e in face_edges[f]:
            edge_faces_l[e].append(f)
    edge_tets = [[] for _ in range(len(edges))]
    for t in range(nt):
        for e in tet_edges[t]:
            edge_tets[e].append(t)

    boundary_face = face_tets[:, 1] == msh.BOUNDARY
    boundary_edge = np.zeros(len(edges), dtype=bool)
    for f in np.nonzero(boundary_face)[0]:
        boundary_edge[face_edges[f]] = True
    boundary_vertex = np.zeros(n_vertices, dtype=bool)
    boundary_vertex[faces[boundary_face].ravel()] = True
    return dict(faces=faces, face_tets=face_tets, tet_faces=tet_faces,
                edges=edges, tet_edges=tet_edges, face_edges=face_edges,
                boundary_face=boundary_face, boundary_edge=boundary_edge,
                boundary_vertex=boundary_vertex, edge_faces=edge_faces_l,
                edge_tets=edge_tets)


def walk_edge_link(topo, e):
    """Walk the faces and tets around edge e of a ``loop_topology``.

    Returns (tets_in_order, closed).  Raises NonConforming when the link is
    not a single chain or cycle (non-manifold edge).
    """
    faces = list(topo["edge_faces"][e])
    tets = list(topo["edge_tets"][e])
    face_tets = topo["face_tets"]
    face_set = set(faces)
    tet_faces = {t: [f for f in topo["tet_faces"][t] if f in face_set]
                 for t in tets}
    bfaces = [f for f in faces if face_tets[f, 1] == msh.BOUNDARY]
    closed = len(bfaces) == 0
    if closed:
        start_tet = tets[0]
        start_face = tet_faces[start_tet][0]
    else:
        if len(bfaces) != 2:
            raise NonConforming(f"edge {e}: {len(bfaces)} boundary faces on link")
        start_face = bfaces[0]
        start_tet = face_tets[start_face, 0]
    order = [start_tet]
    prev_face, cur = start_face, start_tet
    for _ in range(len(tets)):
        nxt_face = [f for f in tet_faces[cur] if f != prev_face]
        if not nxt_face:
            break
        nxt_face = nxt_face[0]
        a, b = face_tets[nxt_face]
        nxt = b if a == cur else a
        if nxt == msh.BOUNDARY:
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


def loop_box_kuhn(n, origin_num, tag_fn=None):
    """Kuhn mesh of the box at integer origin origin_num / n, vertex by
    vertex and cube by cube; returns (vertices, tets, tags)."""
    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    verts = np.empty(((n + 1) ** 3, 3))
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                verts[vid(i, j, k)] = ((origin_num[0] + i) / n,
                                       (origin_num[1] + j) / n,
                                       (origin_num[2] + k) / n)
    tets = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for perm in itertools.permutations((0, 1, 2)):
                    p = [i, j, k]
                    ids = [vid(*p)]
                    for ax in perm:
                        p[ax] += 1
                        ids.append(vid(*p))
                    tets.append(ids)
    tets = np.asarray(tets, dtype=np.int64)
    centroids = verts[tets].mean(axis=1)
    tags = np.array([0 if tag_fn is None else tag_fn(c) for c in centroids],
                    dtype=np.int64)
    return verts, tets, tags


def loop_glue(blocks):
    """Union of (vertices, tets) blocks, vertices identified by their bytes
    and numbered by first occurrence; returns (vertices, tets)."""
    all_verts, all_tets, vid_of = [], [], {}
    for verts, tets in blocks:
        remap = np.empty(len(verts), dtype=np.int64)
        for i, p in enumerate(verts):
            g = vid_of.setdefault(p.tobytes(), len(all_verts))
            if g == len(all_verts):
                all_verts.append(p)
            remap[i] = g
        all_tets.append(remap[tets])
    return np.array(all_verts), np.vstack(all_tets)


def _loop_longest_edge(verts, tet):
    best = None
    for a, b in msh.LOCAL_EDGES:
        va, vb = tet[a], tet[b]
        key = (va, vb) if va < vb else (vb, va)
        ln = float(np.linalg.norm(verts[key[0]] - verts[key[1]]))
        if best is None or ln > best[0] or (ln == best[0] and key < best[1]):
            best = (ln, key)
    return best[1]


def loop_refine(mesh, marked):
    """Longest-edge bisection with a sequential closure, tet by tet; returns
    (vertices, tets, tags, levels, parents) before the topology build."""
    verts = [v for v in mesh.vertices]
    tets = [tuple(int(x) for x in tet) for tet in mesh.tets]
    tags = list(mesh.subdomain_tag)
    levels = list(mesh.refinement_level)
    parents = list(range(mesh.n_tets))
    marked_edges = set(_loop_longest_edge(mesh.vertices, tets[t])
                       for t in marked)
    midpoint = {}
    while marked_edges:
        varray = np.asarray(verts)
        changed = True
        while changed:
            changed = False
            for tet in tets:
                keys = [tuple(sorted((tet[a], tet[b])))
                        for a, b in msh.LOCAL_EDGES]
                if any(key in marked_edges for key in keys):
                    le = _loop_longest_edge(varray, tet)
                    if le not in marked_edges:
                        marked_edges.add(le)
                        changed = True
        new_tets, new_tags, new_levels, new_parents = [], [], [], []
        for tet, tag, lvl, par in zip(tets, tags, levels, parents):
            le = _loop_longest_edge(varray, tet)
            if le in marked_edges:
                m = midpoint.get(le)
                if m is None:
                    m = len(verts)
                    verts.append(0.5 * (varray[le[0]] + varray[le[1]]))
                    midpoint[le] = m
                ia, ib = tet.index(le[0]), tet.index(le[1])
                child_a, child_b = list(tet), list(tet)
                child_a[ib] = m
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
        live = set()
        for tet in tets:
            for a, b in msh.LOCAL_EDGES:
                key = tuple(sorted((tet[a], tet[b])))
                if key in marked_edges:
                    live.add(key)
        marked_edges = live
    return (np.asarray(verts), np.asarray(tets, dtype=np.int64),
            np.asarray(tags), np.asarray(levels), np.asarray(parents))
