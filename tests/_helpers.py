"""Shared fixtures-in-plain-code for the test suite: manufactured fields,
one-call solvers, small independent oracles, and the test hooks and
test-only spaces that the library itself does not use."""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from curlest import _poly
from curlest import adapt as adm
from curlest import equilibrate as eqm
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


def ref_coords(mesh, t, pts):
    """Reference coordinates of physical points inside tet t."""
    geom = mesh.geom()
    return (np.asarray(pts) - geom.v0[t]) @ geom.Jinv[t].T


def eval_one(field, t, ref_pts):
    """Values of a broken field on tet t at reference points: (q, comp)."""
    return field.eval([t], ref_pts)[0]


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
    assert (np.diff(mesh.tets, axis=1) > 0).all()
    assert (mesh.geom().absdet > 0).all()
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


def randomly_bisected(rounds, seed):
    """unit_cube_mesh(1) after rounds of bisecting a random third of its tets."""
    rng = np.random.default_rng(seed)
    m = msh.unit_cube_mesh(1)
    for _ in range(rounds):
        marked = set(rng.choice(m.n_tets, size=max(1, m.n_tets // 3),
                                replace=False).tolist())
        m = msh.refine(m, marked)
    return m


# ---------------------------------------------------------------------------
# per-tet reference loops for the element maps: each applies the canonical
# functionals on the physical tet to the covariant- or Piola-mapped basis of
# one tet at a time; the library applies them on the reference tet only
# ---------------------------------------------------------------------------

def covariant_basis(mesh, k, t):
    """field_eval of the covariant-mapped reference Nedelec basis on tet t."""
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    geom = mesh.geom()
    Jinv = geom.Jinv[t]

    def field_eval(pts):
        xhat = (np.asarray(pts) - geom.v0[t]) @ Jinv.T
        return np.einsum("ba,qbn->qan", Jinv, space_eval(space, xhat))

    return field_eval


def piola_basis(mesh, k, t):
    """field_eval of the Piola-mapped reference div-conforming basis on tet t."""
    space = ps.reference_space(ps.RT_TET, k)
    geom = mesh.geom()

    def field_eval(pts):
        xhat = (np.asarray(pts) - geom.v0[t]) @ geom.Jinv[t].T
        # the Piola map divides by the signed det J
        return (np.einsum("ab,qbn->qan", geom.J[t], space_eval(space, xhat))
                / np.linalg.det(geom.J[t]))

    return field_eval


def element_dof_matrix(mesh, k, t):
    return ps.nedelec_dof_matrix(mesh.vertices[mesh.tets[t]], k, covariant_basis(mesh, k, t))


def nedelec_element_matrices(mesh, k):
    """(T, n, n) element dof matrices V_t, one tet at a time."""
    return np.stack([element_dof_matrix(mesh, k, t) for t in range(mesh.n_tets)])


def element_maps(mesh, k):
    """(T, n, n) S_t from its definition, tet by tet: the identity on the
    edge rows; on the rows of local face (a, b, c), in-plane direction d
    (e_1 = b - a, e_2 = c - a), the ratio of area2 / |e_d| on the tet to
    that on the reference tet; kron(I, vol6 J^-T) on the interior rows."""
    n = ps.dim_nedelec_tet(k)
    n_face = k * (k - 1)
    cells = 6 * k + 4 * n_face
    out = np.zeros((mesh.n_tets, n, n))
    for t in range(mesh.n_tets):
        v = mesh.vertices[mesh.tets[t]]
        S = np.eye(n)
        for f, (a, b, c) in enumerate(ps.TET_FACES):
            for verts, power in ((v, 1), (ps.TET_VERTS, -1)):
                e = [verts[b] - verts[a], verts[c] - verts[a]]
                area2 = np.linalg.norm(np.cross(*e))
                for d in (0, 1):
                    rows = 6 * k + f * n_face + np.arange(d, n_face, 2)
                    S[rows, rows] *= (area2 / np.linalg.norm(e[d])) ** power
        J = (v[1:] - v[0]).T
        S[cells:, cells:] = np.kron(np.eye((n - cells) // 3),
                                    abs(np.linalg.det(J)) * np.linalg.inv(J).T)
        out[t] = S
    return out


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
    vals = space_eval(space, rule.points)                                   # (q,3,n)
    curls = np.einsum("qm,iam->qai", _poly.vandermonde(3, k, rule.points),
                      space.curl_coeffs())
    geom = mesh.geom()
    A = np.zeros((dm.n_dofs, dm.n_dofs))
    M = np.zeros((dm.n_dofs, dm.n_dofs))
    for t in range(mesh.n_tets):
        Vinv = np.linalg.inv(element_dof_matrix(mesh, k, t))
        J = geom.J[t]
        det = np.linalg.det(J)         # signed, for the curl map
        cphys = np.einsum("ab,qbi->qai", J, curls) / det
        vphys = np.einsum("ba,qbi->qai", geom.Jinv[t], vals)
        A_gen = abs(det) / mu_t[t] * np.einsum("q,qai,qaj->ij", rule.weights, cphys, cphys)
        M_gen = abs(det) * np.einsum("q,qai,qaj->ij", rule.weights, vphys, vphys)
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

        locG = ps.nedelec_dof_matrix(mesh.vertices[mesh.tets[t]], k, field_eval)
        idx = np.ix_(dm.cell_dofs[t], reg.tet_nodes[t])
        G[idx] += locG
        cnt[idx] += 1.0
    return np.divide(G, cnt, out=np.zeros_like(G), where=cnt > 0)


def coo_discrete_gradient(V, cell_dofs, boundary_mask, reg):
    """The discrete gradient summed over all tets: every local block V_t C
    into a COO matrix over all dofs and nodes, each entry divided by the
    number of tets that hold it, then the free rows and columns sliced out.
    Returns (G, the local blocks V_t C)."""
    locG = V @ fem._ref_tables(reg.degree).C
    rows = np.broadcast_to(cell_dofs[:, :, None], locG.shape).ravel()
    cols = np.broadcast_to(reg.tet_nodes[:, None, :], locG.shape).ravel()
    shape = (len(boundary_mask), reg.n_nodes)
    G = sp.coo_matrix((locG.ravel(), (rows, cols)), shape=shape).tocsr()
    cnt = sp.coo_matrix((np.ones(locG.size), (rows, cols)), shape=shape).tocsr()
    G.data /= cnt.data
    free_nodes = np.nonzero(~reg.boundary)[0]
    return G[np.nonzero(~boundary_mask)[0]][:, free_nodes].tocsc(), locG


def colamd_factor(K):
    """Plain SuperLU with COLAMD column ordering and partial pivoting."""
    return spla.splu(sp.csc_matrix(K))


def shifted_solve(A, b, mass):
    """Free-dof solution of the singular system A u = b without a gauge, as
    the library solved it before the tree-cotree gauge: one symmetric-mode
    factor of A + eps * mass, refined against A to a relative residual of
    1e-10."""
    n = A.shape[0]
    lu = fem._factor_spd(A + 1e-10 * (A.diagonal().sum() / n) * mass)
    u = np.zeros(n)
    for _ in range(50):
        r = b - A @ u
        if np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b):
            return u
        u = u + lu.solve(r)
    raise AssertionError("oracle refinement stalled")


def dense_minnorm_solve(A, b):
    """Minimum-norm solution of the singular, consistent system A u = b from
    a dense eigendecomposition of the symmetric A, eigenvalues below 1e-10
    times the largest dropped, followed by two refinement steps on the same
    pseudo-inverse."""
    w, V = np.linalg.eigh(A.toarray())
    keep = w > 1e-10 * w.max()
    V, w = V[:, keep], w[keep]
    u = V @ ((V.T @ b) / w)
    for _ in range(2):
        u += V @ ((V.T @ (b - A @ u)) / w)
    return u


def qr_gauge(G):
    """Free-dof indices R with G[R, :] square and nonsingular, from a dense
    column-pivoted QR of G^T: the first pivots are the best-conditioned
    greedy choice of rows of G."""
    _, _, piv = sla.qr(G.T.toarray(), mode="economic", pivoting=True)
    return piv[:G.shape[1]]


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
        out[t] = (geom.J[t] @ cc) / (np.linalg.det(geom.J[t]) * mu_t[t])
    return out


# ---------------------------------------------------------------------------
# face geometry of the step-2 references: physical face rule points and
# orthonormal face frames.  The references store multipliers in scaled
# face-frame monomials, step 2 in each face's affine coordinates, so the two
# are compared by their values at the face rule points
# ---------------------------------------------------------------------------

def face_rule_points(mesh, f, rule):
    """Physical quadrature points of the faces f, identical from both
    sides: (len(f), q, 3) for an index array, (q, 3) for a single id."""
    v = mesh.vertices[mesh.faces[f]]
    va = v[..., None, 0, :]
    e1 = v[..., None, 1, :] - va
    e2 = v[..., None, 2, :] - va
    return va + rule.points[:, 0:1] * e1 + rule.points[:, 1:2] * e2


@dataclass(frozen=True)
class FaceFrame:
    """Right-handed orthonormal frame of a face: t1 x t2 = n."""
    t1: np.ndarray
    t2: np.ndarray
    n: np.ndarray


def face_frame(mesh, f):
    """Deterministic orthonormal face frame: t1 along the lowest-id face edge,
    t2 = n x t1.  For an index array of faces the vectors are (len(f), 3)."""
    n = mesh.face_normals()[f]
    t1 = mesh.edge_tangent(mesh.face_edges[f].min(axis=-1))
    t2 = np.cross(n, t1)
    t2 /= np.linalg.norm(t2, axis=-1, keepdims=True)
    return FaceFrame(t1=t1, t2=t2, n=n)


def frame_coords(mesh, f, pts):
    """Scaled face-frame coordinates (x - a) . (t1, t2) / h_f of points on
    the faces f, a the lowest-id vertex; shapes as ``face_rule_points``."""
    fr = face_frame(mesh, f)
    rel = np.asarray(pts) - mesh.vertices[mesh.faces[f, 0]][..., None, :]
    hf = np.asarray(mesh.face_diameters()[f])[..., None, None]
    return rel @ np.stack([fr.t1, fr.t2], axis=-1) / hf


def frame_eval(mesh, faces, kp, lam, pts):
    """(len(faces), n) values at the points pts (len(faces), n, 3) of the
    multipliers with coefficients lam (len(faces), nP) in the scaled
    face-frame monomials of degree kp."""
    xi = frame_coords(mesh, faces, pts)
    v = _poly.vandermonde(2, kp, xi).reshape(xi.shape[:2] + (-1,))
    return (v @ lam[:, :, None])[:, :, 0]


def face_coefficients(values, kp):
    """Coefficients in the faces' affine-coordinate monomials, as step 2
    stores them, of the degree-kp face polynomials with the given values
    (Fi, q) at the step-2 face rule points."""
    v = _poly.vandermonde(2, kp, ps.quadrature("tri", 2 * kp + 2).points)
    return np.linalg.lstsq(v, np.asarray(values).T, rcond=None)[0].T


def face_index(fm, f):
    """Index of internal face f among the multipliers of ``fm``."""
    i = int(np.searchsorted(fm.internal_faces, f))
    assert fm.internal_faces[i] == f
    return i


# ---------------------------------------------------------------------------
# per-face and per-edge reference loops for the batched estimator kernels:
# each evaluates the two traces of one face, or the faces around one edge, at
# a time with its own point and trace arithmetic
# ---------------------------------------------------------------------------

def _loop_traces(mesh, coeffs, degree, f, pts):
    """Values of the coefficient blocks on T+ and T- of face f at pts."""
    return [np.einsum("qm,...m->q...",
                      _poly.vandermonde(3, degree, ref_coords(mesh, t, pts)),
                      coeffs[t])
            for t in mesh.face_tets[f]]


def loop_face_solve(mesh, f, jump, rule, kp, form):
    """Single-face surface-curl solve, ``form`` 'weak' (constrained L2 least
    squares) or 'strong' (fit the data in the trace space, then match
    surface-curl coefficients); returns (lam, resid, jnorm, mean_abs)."""
    w = rule.weights
    nP = dim_p_tri(kp)
    D2 = _poly.diff_stack(2, kp)
    fr = face_frame(mesh, f)
    org = mesh.vertices[mesh.faces[f][0]]
    hf = mesh.face_diameters()[f]
    j2 = np.stack([jump @ fr.t1, jump @ fr.t2], axis=1)
    rel = face_rule_points(mesh, f, rule) - org
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
        gens = tri_space(RT_TANGENTIAL_TRI, kp).coeffs
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
    over the internal faces in ascending order.  Its rule is exact to
    degree 2k' + 4, four above the library's, so agreement shows that the
    library's rule is exact too."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    rule = ps.quadrature("tri", 2 * kp + 4)
    grad_coeffs = np.einsum("tnb,nij,tcj->tbci", mesh.geom().Jinv,
                            _poly.diff_stack(3, kp), total.coeffs)
    rows = []
    for f in mesh.internal_faces():
        pts = face_rule_points(mesh, f, rule)
        vp, vm = _loop_traces(mesh, total.coeffs, kp, f, pts)
        fr = face_frame(mesh, f)
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
            _, n_fe = msh.edge_face_normals(mesh, e, f)
            r += float(np.dot(mesh.face_normals()[f], n_fe)) * fm.eval(face_index(fm, f), pts)
        max_abs.append(np.abs(r).max())
        variation.append(r.max() - r.min())
    return np.array(max_abs), np.array(variation)


def loop_jump_norms(mesh, field):
    """(tangential, normal) jump norms face by face, 0 on boundary faces, at
    a rule exact to degree 2p + 4, four above the library's."""
    rule = ps.quadrature("tri", 2 * field.degree + 4)
    tang = np.zeros(mesh.n_faces)
    norm = np.zeros(mesh.n_faces)
    for f in mesh.internal_faces():
        pts = face_rule_points(mesh, f, rule)
        vp, vm = _loop_traces(mesh, field.coeffs, field.degree, f, pts)
        n = mesh.face_normals()[f]
        s = 2.0 * mesh.face_areas()[f]
        tang[f] = np.sqrt(s * np.einsum("q,qc->", rule.weights,
                                        np.cross(n[None, :], vp - vm) ** 2))
        norm[f] = np.sqrt(s * np.dot(rule.weights, ((vp - vm) @ n) ** 2))
    return tang, norm


# ---------------------------------------------------------------------------
# node registry by coordinate hashing and step 3 node by node: the reference
# for the topological registry and the batched patch solves
# ---------------------------------------------------------------------------

_NEIGHBOR_OFFSETS = [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                     for dz in (-1, 0, 1) if (dx, dy, dz) != (0, 0, 0)]


def node_points(mesh, reg):
    """(N, 3) coordinates of the registry's nodes, accumulated tet by tet
    over the tet's vertices in ascending global-id order with exact
    rational weights, so all tets agree on them bitwise."""
    nodes = ps.lagrange_nodes(reg.degree)
    order = np.argsort(mesh.tets, axis=1)
    vv = mesh.vertices[np.take_along_axis(mesh.tets, order, axis=1)]   # (T, 4, 3)
    wf = nodes.multi[:, order].transpose(1, 0, 2) / float(reg.degree)  # (T, nloc, 4)
    pos = wf[..., 0:1] * vv[:, None, 0]
    for s in (1, 2, 3):      # fixed-order accumulation => bitwise identical
        pos += wf[..., s:s + 1] * vv[:, None, s]
    points = np.empty((reg.n_nodes, 3))
    points[reg.tet_nodes] = pos + 0.0  # normalize signed zeros
    return points


def hash_node_registry(mesh, degree):
    """Lagrange nodes deduplicated by hashing their coordinates on a
    1e-8*h grid, tet by tet and node by node, and numbered by first
    occurrence over (tet, local node); returns the registry and the (N, 3)
    node coordinates.  ``femsys.build_node_registry`` numbers the same
    nodes by entity, so the two agree up to a relabelling of the nodes."""
    nodes = ps.lagrange_nodes(degree)
    nloc = len(nodes.multi)
    rho = 1e-8 * mesh.h_min_edge()
    buckets = {}
    points, kind, entity = [], [], []
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
            assert (kind[g], entity[g]) == (k, ent), f"node {g} at {p}"
            tet_nodes[t, loc] = g
    boundary = np.zeros(len(points), dtype=bool)
    for g in range(len(points)):
        if kind[g] == ps.NODE_VERTEX:
            boundary[g] = mesh.boundary_vertex[entity[g]]
        elif kind[g] == ps.NODE_EDGE:
            boundary[g] = mesh.boundary_edge[entity[g]]
        elif kind[g] == ps.NODE_FACE:
            boundary[g] = mesh.boundary_face[entity[g]]
    return (fem.NodeRegistry(degree, np.array(kind), np.array(entity), boundary,
                             tet_nodes), np.array(points))


def loop_step3(mesh, fm, kp):
    """Step 3 node by node on the hashed registry, one ``np.linalg.lstsq``
    per vertex or edge patch; returns an ``equilibrate.NodalPotential``,
    whose worst node is the first of largest residual in the hashed
    registry's numbering."""
    from curlest import equilibrate as eqm
    reg, points = hash_node_registry(mesh, kp)
    nloc = reg.tet_nodes.shape[1]
    phi = np.zeros((mesh.n_tets, nloc))
    internal = [int(f) for f in mesh.internal_faces()]
    occurrences = [[] for _ in range(reg.n_nodes)]
    for t in range(mesh.n_tets):
        for loc in range(nloc):
            occurrences[reg.tet_nodes[t, loc]].append((t, loc))
    worst, worst_node = -1.0, -1
    for g in range(reg.n_nodes):
        occ = occurrences[g]
        p = points[g][None, :]
        if reg.kind[g] == ps.NODE_FACE and not mesh.boundary_face[reg.entity[g]]:
            f = int(reg.entity[g])
            val = float(fm.eval(face_index(fm, f), p)[0])
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
            rhs[r] = float(fm.eval(face_index(fm, f), p)[0])
        rows[-1, :] = 1.0
        sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
        resid = float(np.linalg.norm(rows @ sol - rhs))
        if resid > worst:
            worst, worst_node = resid, g
        for (t, loc), v in zip(occ, sol):
            phi[t, loc] = v
    return eqm.NodalPotential(reg, phi, worst, reg.node_name(worst_node))


# ---------------------------------------------------------------------------
# per-tet references for the stacked step 1 and the pulled-back dof functionals
# ---------------------------------------------------------------------------

def loop_step1(mesh, mu, j, Hh, kp, mode="saddle"):
    """Step 1 tet by tet with its own reference tables; returns an
    ``equilibrate.ElementCorrection``, the curl of its field mapped from the
    reference curls by J / det J, a size of that curl for rounding bounds
    (the coefficients of the curl reached both through the field's
    derivatives and through the reference curls, every product and sum
    taken in absolute values), the (T, nR) reference coefficients h of every
    tet's solution, and (T,) cond(A_Z) + cond(B G), the 2-norm condition
    numbers of the two systems into which the gradients G split the
    problem: the curl-curl block A on Z, an orthonormal basis of the fields
    orthogonal to the gradients on the reference tet, and the gradient pairs
    B G.  G is fitted here by least squares.
    ``mode='saddle'`` solves each square saddle system; ``mode='lstsq_dk'``
    instead tests the curl constraint against a full div-conforming basis
    and solves the stacked system in the least-squares sense.  Both agree on
    compatible data."""
    from curlest import equilibrate as eqm
    N = ps.reference_space(ps.NEDELEC1_TET, kp)
    D = ps.reference_space(ps.RT_TET, kp)
    rule = ps.quadrature("tet", 2 * kp + 4)
    w = rule.weights
    vand = _poly.vandermonde(3, kp, rule.points)
    Nvals = np.einsum("qm,icm->qci", vand, N.coeffs)
    Ncurls = np.einsum("qm,iam->qai", vand, N.curl_coeffs())
    Pg = np.einsum("qm,bmn->qbn", vand, _poly.diff_stack(3, kp))[:, :, 1:]
    Dvals = np.einsum("qm,icm->qci", vand, D.coeffs)
    TCC = np.einsum("q,qai,qbj->abij", w, Ncurls, Ncurls)
    TVG = np.einsum("q,qai,qbl->abil", w, Nvals, Pg)
    TDC = np.einsum("q,qai,qbj->abij", w, Dvals, Ncurls)
    Ghat = np.linalg.lstsq(Nvals.reshape(-1, N.dim), Pg.reshape(-1, Pg.shape[2]),
                           rcond=None)[0]
    Z = np.linalg.svd(np.einsum("aail->li", TVG))[2][Ghat.shape[1]:].T

    geom = mesh.geom()
    mu_t = mu.per_tet(mesh)
    all_tets = np.arange(mesh.n_tets)
    jd = (j.eval_elements(mesh, all_tets, rule.points)
          - Hh.curl().eval(all_tets, rule.points))
    nR, nB = N.dim, _poly.n_monomials(3, kp) - 1
    nm = _poly.n_monomials(3, kp)
    hhat = np.zeros((mesh.n_tets, 3, nm))
    hhat_curl = np.zeros((mesh.n_tets, 3, nm))
    curl_size = np.zeros((mesh.n_tets, 3, nm))
    absN, absC = np.abs(N.coeffs), np.abs(N.curl_coeffs())
    absD = np.abs(_poly.diff_columns(3, kp))
    resid, jd_norm, cond = (np.zeros(mesh.n_tets) for _ in range(3))
    hs = np.zeros((mesh.n_tets, nR))
    for t in range(mesh.n_tets):
        J = geom.J[t]
        det = np.linalg.det(J)      # signed: the curl map; |det J| is the measure
        JtJ = J.T @ J
        A = np.einsum("ab,abij->ij", JtJ, TCC) / abs(det)
        B = mu_t[t] * abs(det) * np.einsum("ab,abil->li", np.linalg.inv(JtJ), TVG)
        # the load (jd, J c / det) |det J| in reference terms
        jhat = np.sign(det) * (jd[t] @ J)
        if mode == "saddle":
            S = np.zeros((nR + nB, nR + nB))
            S[:nR, :nR] = A
            S[:nR, nR:] = B.T
            S[nR:, :nR] = B
            rhs = np.zeros(nR + nB)
            rhs[:nR] = np.einsum("q,qbi,qb->i", w, Ncurls, jhat)
            h = np.linalg.solve(S, rhs)[:nR]
        else:
            Mdc = np.einsum("ab,abij->ij", JtJ, TDC) / abs(det)
            rd = np.einsum("q,qbi,qb->i", w, Dvals, jhat)
            h, *_ = np.linalg.lstsq(np.vstack([Mdc, B]),
                                    np.concatenate([rd, np.zeros(nB)]), rcond=None)
        hs[t] = h
        cond[t] = np.linalg.cond(Z.T @ A @ Z) + np.linalg.cond(B @ Ghat)
        hhat[t] = geom.Jinv[t].T @ np.einsum("i,icm->cm", h, N.coeffs)
        hhat_curl[t] = (J @ np.einsum("i,iam->am", h, N.curl_coeffs())) / det
        size = np.abs(geom.Jinv[t].T) @ np.einsum("i,icm->cm", np.abs(h), absN)
        P = np.einsum("ab,cam->bcm", np.abs(geom.Jinv[t]),
                      (size @ absD).reshape(3, 3, nm))     # |d_b F_c|
        curl_size[t] = (np.stack([P[1, 2] + P[2, 1], P[2, 0] + P[0, 2],
                                  P[0, 1] + P[1, 0]])
                        + np.abs(J) @ np.einsum("i,iam->am", np.abs(h), absC) / abs(det))
        cv = np.einsum("qai,i->qa", Ncurls, h) @ (J.T / det)
        resid[t] = np.sqrt(max(abs(det) * float(np.einsum("q,qc->", w, (cv - jd[t]) ** 2)), 0.0))
        jd_norm[t] = np.sqrt(max(abs(det) * float(np.einsum("q,qc->", w, jd[t] ** 2)), 0.0))
    corr = eqm.ElementCorrection(
        Hhat=fem.BrokenPolyField(mesh, kp, hhat), resid=resid,
        oscillation=float(np.sqrt((resid ** 2).sum())),
        jdelta_norm=jd_norm, degree=kp)
    return corr, fem.BrokenPolyField(mesh, kp, hhat_curl), curl_size, hs, cond


def _one_tet_eval(func):
    return lambda pts: np.asarray(func(pts))[:, :, None]


def loop_interpolate_nedelec(mesh, dm, func):
    """Nedelec interpolation with one ``nedelec_dof_matrix`` call per tet;
    returns the full coefficient vector."""
    vals = np.zeros(dm.n_dofs)
    for t in range(mesh.n_tets):
        vals[dm.cell_dofs[t]] = ps.nedelec_dof_matrix(
            mesh.vertices[mesh.tets[t]], dm.degree,
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
        verts = mesh.vertices[mesh.tets[t]]
        V = ps.rt_dof_matrix(verts, k, piola_basis(mesh, k, t), exactness=2 * k + 4)
        b = ps.rt_dof_matrix(verts, k, _one_tet_eval(j_func), exactness=2 * k + 4)[:, 0]
        cref = np.einsum("i,icm->cm", np.linalg.solve(V, b), space.coeffs)
        out[t] = (geom.J[t] @ cref) / np.linalg.det(geom.J[t])
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
    """Oriented topology of the tets (ascending vertex ids), built with
    dicts in tet order; also the per-edge face and tet lists the link walk
    reads."""
    nt = len(tets)
    face_ids, face_list, face_adj = {}, [], []
    tet_faces = np.empty((nt, 4), dtype=np.int64)
    for t, tet in enumerate(tets):
        for i, loc in enumerate(ps.TET_FACES):
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
        for i, (a, b) in enumerate(ps.TET_EDGES):
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
    for a, b in ps.TET_EDGES:
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
                        for a, b in ps.TET_EDGES]
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
            for a, b in ps.TET_EDGES:
                key = tuple(sorted((tet[a], tet[b])))
                if key in marked_edges:
                    live.add(key)
        marked_edges = live
    return (np.asarray(verts), np.asarray(tets, dtype=np.int64),
            np.asarray(tags), np.asarray(levels), np.asarray(parents))


# ---------------------------------------------------------------------------
# einsum forms of the library's matrix-product kernels, kept as their oracles:
# each takes what its kernel takes and returns what it returns
# ---------------------------------------------------------------------------

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


def einsum_vandermonde(dim, degree, points):
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    exps = _poly.exponents(dim, degree)
    return np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)


def einsum_map_points(geom, tets, ref_pts):
    return geom.v0[tets][:, None, :] + np.einsum("tab,qb->tqa", geom.J[tets], ref_pts)


def einsum_eval(field, tets, ref_pts):
    v = einsum_vandermonde(3, field.degree, ref_pts)
    return np.einsum("qm,tcm->tqc", v, field.coeffs[tets])


def einsum_partials(field):
    """(T, 3, comp, n), entry [t, b, c] the coefficients of d_b F_c."""
    return np.einsum("tnb,nij,tcj->tbci", field.mesh.geom().Jinv,
                     _poly.diff_stack(3, field.degree), field.coeffs, optimize=True)


def einsum_curl(field):
    return np.einsum("abc,tmb,mij,tcj->tai", _EPS3, field.mesh.geom().Jinv,
                     _poly.diff_stack(3, field.degree), field.coeffs, optimize=True)


def einsum_grad(field):
    return np.einsum("tmb,mij,tj->tbi", field.mesh.geom().Jinv,
                     _poly.diff_stack(3, field.degree), field.coeffs[:, 0, :],
                     optimize=True)


def einsum_div(field):
    return np.einsum("tmb,mij,tbj->ti", field.mesh.geom().Jinv,
                     _poly.diff_stack(3, field.degree), field.coeffs,
                     optimize=True)[:, None, :]


def _einsum_ref_vals(k, rule):
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    return np.einsum("qm,icm->qci", einsum_vandermonde(3, k, rule.points),
                     space.coeffs)                                   # (q, 3, n)


def element_inverses(mesh, k):
    """(T, n, n) V_t^-1 by np.linalg.inv of the per-tet element dof
    matrices: the oracles' element maps, independent of the reference tables
    and per-tet scalings of the library."""
    return np.linalg.inv(nedelec_element_matrices(mesh, k))


def einsum_assemble_curlcurl(mesh, dofmap, mu):
    k = dofmap.degree
    rule = ps.quadrature("tet", 2 * k + 2)
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    curls = np.einsum("qm,iam->qai", einsum_vandermonde(3, k, rule.points),
                      space.curl_coeffs())
    TCC = np.einsum("q,qai,qbj->abij", rule.weights, curls, curls)
    geom = mesh.geom()
    JtJ = geom.J.transpose(0, 2, 1) @ geom.J
    A_gen = np.einsum("tab,abij->tij", JtJ, TCC)
    A_gen /= (geom.absdet * mu.per_tet(mesh))[:, None, None]
    Vinv = element_inverses(mesh, k)
    return coo_assemble_free(dofmap, Vinv.transpose(0, 2, 1) @ A_gen @ Vinv)


def einsum_assemble_mass(mesh, dofmap):
    k = dofmap.degree
    rule = ps.quadrature("tet", 2 * k + 2)
    vals = _einsum_ref_vals(k, rule)
    TVV = np.einsum("q,qai,qbj->abij", rule.weights, vals, vals)
    geom = mesh.geom()
    K = np.linalg.inv(geom.J.transpose(0, 2, 1) @ geom.J)
    M_gen = np.einsum("tab,abij->tij", K, TVV) * geom.absdet[:, None, None]
    Vinv = element_inverses(mesh, k)
    return coo_assemble_free(dofmap, Vinv.transpose(0, 2, 1) @ M_gen @ Vinv)


def coo_assemble_free(dofmap, A_loc):
    """The free x free matrix of element blocks A_loc (T, n, n) in the local
    dofs the long way: every entry into a full COO matrix, converted to CSR
    (sorted, duplicates summed), then the free rows and columns sliced out."""
    rows = np.broadcast_to(dofmap.cell_dofs[:, :, None], A_loc.shape).ravel()
    cols = np.broadcast_to(dofmap.cell_dofs[:, None, :], A_loc.shape).ravel()
    A = sp.coo_matrix((A_loc.ravel(), (rows, cols)),
                      shape=(dofmap.n_dofs, dofmap.n_dofs)).tocsr()
    return A[dofmap.free][:, dofmap.free].tocsr()


def einsum_assemble_rhs(mesh, dofmap, j):
    k = dofmap.degree
    rule = ps.quadrature("tet", 2 * k + 4)
    geom = mesh.geom()
    jvals = j.eval_elements(mesh, np.arange(mesh.n_tets), rule.points)
    jhat = np.einsum("tbc,tqc->tqb", geom.Jinv, jvals)
    b_gen = geom.absdet[:, None] * np.einsum("q,qbi,tqb->ti", rule.weights,
                                           _einsum_ref_vals(k, rule), jhat)
    b_loc = np.einsum("tji,tj->ti", element_inverses(mesh, k), b_gen)
    return np.bincount(dofmap.cell_dofs.ravel(), weights=b_loc.ravel(),
                       minlength=dofmap.n_dofs)


def einsum_compute_Hh(mesh, dofmap, u, mu):
    ccoef = ps.reference_space(ps.NEDELEC1_TET, dofmap.degree).curl_coeffs()
    geom = mesh.geom()
    c = np.einsum("tij,tj->ti", element_inverses(mesh, dofmap.degree),
                  u.values[dofmap.cell_dofs])
    cc = np.einsum("ti,iam->tam", c, ccoef)
    return (geom.J @ cc) / (np.linalg.det(geom.J) * mu.per_tet(mesh))[:, None, None]


def einsum_step2(mesh, Hh, correction, kp):
    """Step 2's batched face kernels in einsum form and in face frames, at
    the library's face rule: dict of lam (scaled face-frame monomials),
    resid, jnorm, div_norm and mean_abs over the internal faces."""
    total = Hh.padded_to(kp).plus(correction.Hhat)
    rule = fem._face_rule(kp)
    faces = mesh.internal_faces()
    fr = face_frame(mesh, faces)
    w = rule.weights
    s = 2.0 * mesh.face_areas()[faces]

    grads = fem.BrokenPolyField(mesh, kp, einsum_partials(total).reshape(
        mesh.n_tets, 9, -1))
    dG = fem.face_jump_values(mesh, grads, faces)
    dG = dG.reshape(dG.shape[:2] + (3, 3))
    div = np.zeros(dG.shape[:2])
    for tvec in (fr.t1, fr.t2):
        dF = np.einsum("fb,fqbc->fqc", tvec, dG)
        div += np.einsum("fqc,fc->fq", np.cross(fr.n[:, None, :], dF), tvec)
    div_norm = np.sqrt(np.maximum(s * np.einsum("q,fq->f", w, div ** 2), 0.0))

    jump = fem.tangential_jump_values(mesh, total, faces)
    nP = dim_p_tri(kp)
    hf = mesh.face_diameters()[faces][:, None, None]
    frame = np.stack([fr.t1, fr.t2], axis=-1)
    xi = frame_coords(mesh, faces, face_rule_points(mesh, faces, rule))
    v_lam = einsum_vandermonde(2, kp, xi).reshape(xi.shape[:2] + (nP,))
    dlam = np.einsum("fqm,bmn->fqbn", v_lam, _poly.diff_stack(2, kp)) / hf[..., None]
    curl_cols = np.stack([dlam[:, :, 1], -dlam[:, :, 0]], axis=2)
    j2 = jump @ frame
    mean_row = s[:, None] * np.einsum("q,fqm->fm", w, v_lam)
    S = np.zeros((len(faces), nP + 1, nP + 1))
    S[:, :nP, :nP] = s[:, None, None] * np.einsum("q,fqcn,fqcm->fnm", w,
                                                  curl_cols, curl_cols)
    S[:, :nP, nP] = mean_row
    S[:, nP, :nP] = mean_row
    b = np.zeros((len(faces), nP + 1))
    b[:, :nP] = s[:, None] * np.einsum("q,fqcn,fqc->fn", w, curl_cols, j2)
    sol = np.linalg.solve(S, b[..., None])[:, :nP, 0]
    cl = np.einsum("fqcn,fn->fqc", curl_cols, sol)
    return {"lam": sol,
            "resid": np.sqrt(np.maximum(s * np.einsum("q,fqc->f", w, (cl - j2) ** 2), 0.0)),
            "jnorm": np.sqrt(np.maximum(s * np.einsum("q,fqc->f", w, j2 ** 2), 0.0)),
            "div_norm": div_norm,
            "mean_abs": np.abs(np.einsum("fm,fm->f", mean_row, sol))}


# ---------------------------------------------------------------------------
# test hooks: one-entity entry points to the batched estimator kernels
# ---------------------------------------------------------------------------

def solve_single_face(mesh, f, tangential, kp):
    """Multiplier values at the face rule points and residual for one face,
    from step 2's batched solve on a one-face batch.  ``tangential`` is the
    data n x [F] at those points, which the surface curl of the multiplier
    matches; step 2 reads the jump, of which -n x (n x [F]) = [F]_t is the
    part it sees."""
    faces = np.array([f])
    jump = -np.cross(mesh.face_normals()[f], tangential)[None]
    sol, *_ = eqm._face_multiplier_solve(mesh, faces, jump, kp)
    resid = face_certificates(mesh, faces, sol, jump, kp)["resid"]
    return eqm._face_tables(kp).V @ sol[0], resid[0]


def solve_node_patch(n, pairs, values):
    """One nodal difference system on members 0..n-1, each in some pair,
    through ``equilibrate.solve_node_patches``."""
    values = np.asarray(values, dtype=float).reshape(-1)
    sol, resid = eqm.solve_node_patches(np.asarray(pairs).reshape(-1, 2), values,
                                        np.zeros(len(values), dtype=np.int64))
    assert len(sol) == n
    return sol, float(resid[0])


# ---------------------------------------------------------------------------
# certificates of the local solves, from the steps' outputs: each restates
# what the estimator's pipeline already guarantees, so a run stores none
# ---------------------------------------------------------------------------

def gradient_moments(mesh, mu, field):
    """(T,) max_p |(mu F, grad p)_T| of a broken field F over the non-constant
    monomials p of its degree in each tet's reference coordinates, by an
    exact rule: the orthogonality that step 1's gradient solve imposes on
    its correction."""
    k = field.degree
    rule = ps.quadrature("tet", 2 * k)
    geom = mesh.geom()
    ref_grads = np.einsum("qm,bmn->qbn", _poly.vandermonde(3, k, rule.points),
                          _poly.diff_stack(3, k))[:, :, 1:]
    grads = np.einsum("tba,qbn->tqan", geom.Jinv, ref_grads)      # J^-T grad p
    vals = field.eval(np.arange(mesh.n_tets), rule.points)
    mom = np.einsum("q,tqa,tqan->tn", rule.weights, vals, grads)
    return np.abs((mu.per_tet(mesh) * geom.absdet)[:, None] * mom).max(axis=1, initial=0.0)


def face_certificates(mesh, faces, lam, jump, kp):
    """Step 2's certificates of multipliers lam (Fi, nP) in the library's
    affine face coordinates against the jumps [F] (Fi, q, 3) at the face
    rule points: dict of resid, the L2 norm of grad_f(lambda) + [F]_t,
    jnorm, that of [F]_t, and mean_abs, |(lambda, 1)_f|."""
    tab = eqm._face_tables(kp)
    w = tab.rule.weights
    v = mesh.vertices[mesh.faces[faces]]
    E = v[:, 1:] - v[:, :1]
    dual = E.transpose(0, 2, 1) @ np.linalg.inv(E @ E.transpose(0, 2, 1))
    s = 2.0 * mesh.face_areas()[faces]
    d_st = np.einsum("qm,amn,fn->fqa", tab.V, _poly.diff_stack(2, kp), lam)
    grad = d_st @ dual.transpose(0, 2, 1)                    # (Fi, q, 3)
    n = mesh.face_normals()[faces][:, None, :]
    jt = jump - np.sum(jump * n, axis=2, keepdims=True) * n

    def norm(x):
        return np.sqrt(s * np.einsum("q,fqc->f", w, x ** 2))

    return {"resid": norm(grad + jt), "jnorm": norm(jt),
            "mean_abs": np.abs(s * (lam @ tab.mean))}


def step2_certificates(mesh, Hh, correction, fm):
    """``face_certificates`` of step 2's multipliers fm against the jumps of
    the corrected field H_h + Hhat."""
    total = Hh.padded_to(fm.degree).plus(correction.Hhat)
    jump = fem.face_jump_values(mesh, total, fm.internal_faces)
    return face_certificates(mesh, fm.internal_faces, fm.lam, jump, fm.degree)


def random_potential_orthogonality(mesh, j, Hh, out, trials=5, seed=0):
    """Largest |(j - curl(H_h + Hhat), grad psi) + sum_f ([H_h + Hhat]_t,
    grad psi)_f| / (||j|| ||grad psi||) over random conforming potentials
    psi on the estimator's node registry, zero on the boundary.  By Green's
    formula the sum is the data's gradient load (j, grad psi), so it
    vanishes for divergence-free data."""
    corr = out.correction
    kp = corr.degree
    rule = ps.quadrature("tet", fem._data_exactness(kp))
    geom = mesh.geom()
    tets = np.arange(mesh.n_tets)
    jv = j.eval_elements(mesh, tets, rule.points)
    resid = jv - Hh.curl().padded_to(kp).plus(corr.Hhat.curl()).eval(tets, rule.points)
    jnorm = np.sqrt((np.einsum("q,tqc->t", rule.weights, jv ** 2) * geom.absdet).sum())
    internal = mesh.internal_faces()
    jump = fem.tangential_jump_values(mesh, Hh.padded_to(kp).plus(corr.Hhat), internal)
    face_w = 2.0 * mesh.face_areas()[internal]
    tri_w = fem._face_rule(kp).weights
    reg = out.phi.registry
    free = np.nonzero(~reg.boundary)[0]
    P = ps.reference_space(ps.P_SCALAR_TET, reg.degree)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        vals = np.zeros(reg.n_nodes)
        vals[free] = rng.standard_normal(len(free))
        coeffs = np.einsum("tl,lm->tm", vals[reg.tet_nodes], P.coeffs[:, 0, :])
        gpsi = fem.BrokenPolyField(mesh, reg.degree, coeffs[:, None, :]).grad()
        vol = (np.einsum("q,tqc,tqc->t", rule.weights, resid,
                         gpsi.eval(tets, rule.points)) * geom.absdet).sum()
        face = np.einsum("f,q,fqc,fqc->", face_w, tri_w, jump,
                         fem.face_traces(mesh, gpsi, internal, 0))
        worst = max(worst, abs(vol + face) / max(jnorm * gpsi.norm(), 1e-30))
    return float(worst)


# ---------------------------------------------------------------------------
# test-only field utilities: broken expansion, normal jumps, data checks
# ---------------------------------------------------------------------------

def nedelec_field_to_poly(mesh, dofmap, u):
    """Expand assembled coefficients into the broken polynomial representation."""
    k = dofmap.degree
    space = ps.reference_space(ps.NEDELEC1_TET, k)
    c = np.einsum("tij,tj->ti", element_inverses(mesh, k), u.values[dofmap.cell_dofs])
    cref = np.einsum("ti,icm->tcm", c, space.coeffs)
    out = np.einsum("tbc,tbm->tcm", mesh.geom().Jinv, cref)   # J^-T cref
    return fem.BrokenPolyField(mesh, k, out)


def normal_jump_norms(mesh, field):
    """L2 norms of the normal jump on every internal face (0 on boundary)."""
    rule = fem._face_rule(field.degree)
    internal = mesh.internal_faces()
    jump = fem.face_jump_values(mesh, field, internal)
    dv = np.einsum("fqc,fc->fq", jump, mesh.face_normals()[internal])
    out = np.zeros(mesh.n_faces)
    out[internal] = np.sqrt(2.0 * mesh.face_areas()[internal] * np.einsum(
        "q,fq->f", rule.weights, dv ** 2))
    return out


def validate_current(j, mesh, tol=1e-10):
    """Divergence and normal-flux-jump checks of piecewise-polynomial data."""
    scale = max(j.field.norm(), 1e-30)
    div_norms = j.field.div().mu_norms()
    jump = normal_jump_norms(mesh, j.field)
    return {
        "max_div": float(div_norms.max(initial=0.0)),
        "max_flux_jump": float(jump.max(initial=0.0)),
        "scale": scale,
        "ok": bool(div_norms.max(initial=0.0) <= tol * scale
                   and jump.max(initial=0.0) <= tol * scale),
    }


# ---------------------------------------------------------------------------
# closed-form consistency of the built-in problems
# ---------------------------------------------------------------------------

def lbrick_samples(n, rng):
    """n points inside the L-brick, away from its boundary and the
    reentrant edge: more than 0.02 from the removed quadrant x > 0, y < 0."""
    pts = []
    while len(pts) < n:
        p = rng.uniform([-0.95, -0.95, 0.05], [0.95, 0.95, 0.95])
        if p[0] < -0.02 or p[1] > 0.02:
            pts.append(p)
    return np.array(pts)


def sample_points(spec, n, rng):
    """n interior points of the problem's domain."""
    if spec.name == "lbrick_singular":
        return lbrick_samples(n, rng)
    return rng.uniform(0.05, 0.95, size=(n, 3))


def consistency_check(spec, n=100, tol=1e-8, seed=1234):
    """Finite-difference double-curl check of the shipped closed forms.

    Guards transcription errors: at random interior points, curl(exact_H)
    must match j and (for unit permeability) curl(exact_u) must match H.
    Returns the worst relative mismatch.
    """
    if spec.exact_H is None:
        raise ValueError(f"{spec.name} has no exact field to check against")
    rng = np.random.default_rng(seed)
    pts = sample_points(spec, n, rng)
    h = 1e-5

    def fd_curl(fn, p):
        out = np.zeros((len(p), 3))
        d = np.zeros((len(p), 3, 3))
        for a in range(3):
            dp = np.zeros(3)
            dp[a] = h
            d[:, a, :] = (fn(p + dp) - fn(p - dp)) / (2.0 * h)
        out[:, 0] = d[:, 1, 2] - d[:, 2, 1]
        out[:, 1] = d[:, 2, 0] - d[:, 0, 2]
        out[:, 2] = d[:, 0, 1] - d[:, 1, 0]
        return out

    jv = spec.j_func(pts)
    scale = max(float(np.abs(jv).max()), 1.0)
    worst = float(np.abs(fd_curl(spec.exact_H, pts) - jv).max()) / scale
    if spec.exact_u is not None and not isinstance(spec.mu.values, dict):
        mu0 = spec.mu.values                     # one permeability everywhere
        Hv = spec.exact_H(pts)
        hscale = max(float(np.abs(Hv).max()), 1.0)
        worst = max(worst, float(
            np.abs(fd_curl(spec.exact_u, pts) / mu0 - Hv).max()) / hscale)
    if worst > tol:
        raise ValueError(f"{spec.name}: closed forms inconsistent ({worst:.2e})")
    return worst


# ---------------------------------------------------------------------------
# the triangle spaces behind step 2 and the reference-space checks: the
# scalar space and the in-plane div-conforming space of the reference
# triangle, built with the library's generators and dual-basis recipe
# ---------------------------------------------------------------------------

P_SCALAR_TRI = "P_scalar_tri"
RT_TANGENTIAL_TRI = "RTtangential_tri"
TRI_KINDS = (P_SCALAR_TRI, RT_TANGENTIAL_TRI)
TRI_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
TRI_EDGES = ((0, 1), (0, 2), (1, 2))


def dim_p_tri(k):
    return (k + 1) * (k + 2) // 2


def dim_p_tet(k):
    return (k + 1) * (k + 2) * (k + 3) // 6


def dim_rt_tri(k):
    return k * (k + 2)


def tri_nodes(degree):
    """Lagrange nodes of the reference triangle, vertex-major."""
    if degree == 0:
        return np.array([[1 / 3.0, 1 / 3.0]])
    pts = []
    for i0 in range(degree, -1, -1):
        for i1 in range(degree - i0, -1, -1):
            pts.append((i1 / degree, (degree - i0 - i1) / degree))
    return np.array(pts)


def rt_tri_dof_matrix(verts2, k, field_eval):
    """Edge-normal / interior moments for the in-plane triangle space (2D)."""
    verts2 = np.asarray(verts2, dtype=float)
    rows = []
    seg = ps.quadrature("segment", 2 * k + 2)
    s = seg.points[:, 0]
    leg = ps._legendre_rows(s, k)
    for a, b in TRI_EDGES:
        vec = verts2[b] - verts2[a]
        length = np.linalg.norm(vec)
        nhat = np.array([vec[1], -vec[0]]) / length
        pts = verts2[a] + s[:, None] * vec[None, :]
        nv = np.einsum("mcf,c->mf", field_eval(pts), nhat)
        for j in range(k):
            rows.append(length * np.einsum("m,m,mf->f", seg.weights, leg[j], nv))
    if k >= 2:
        tri = ps.quadrature("tri", 2 * k)
        e1 = verts2[1] - verts2[0]
        e2 = verts2[2] - verts2[0]
        area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
        pts = verts2[0] + tri.points[:, 0:1] * e1 + tri.points[:, 1:2] * e2
        vals = field_eval(pts)
        for mono in _poly.vandermonde(2, k - 2, tri.points).T:
            for c in range(2):
                rows.append(area2 * np.einsum("m,m,mf->f", tri.weights, mono, vals[:, c, :]))
    return np.array(rows)


@lru_cache(maxsize=None)
def tri_space(kind, degree):
    """The triangle space ``kind`` of the given degree as a
    ``polyspace.ReferenceSpace`` (dual basis of its canonical functionals)."""
    if kind == P_SCALAR_TRI:
        coeffs = (np.ones((1, 1, 1)) if degree == 0
                  else ps._scalar_dual(2, degree, tri_nodes(degree)))
        return ps.ReferenceSpace(kind, degree, len(coeffs), 1, 2, coeffs)
    assert kind == RT_TANGENTIAL_TRI, kind
    gen = ps._orthonormalize(ps._rt_generators(degree, 2), 2, degree,
                             dim_rt_tri(degree))

    def field_eval(pts):
        return np.einsum("qm,icm->qci", _poly.vandermonde(2, degree, pts), gen)

    V = rt_tri_dof_matrix(TRI_VERTS, degree, field_eval)
    X = np.linalg.solve(V, np.eye(len(V)))
    coeffs = np.einsum("gi,gcm->icm", X, gen)
    return ps.ReferenceSpace(kind, degree, len(coeffs), 2, 2, coeffs)


def any_space(kind, degree):
    """A library reference space or a triangle space by kind."""
    if kind in TRI_KINDS:
        return tri_space(kind, degree)
    return ps.reference_space(kind, degree)


def space_eval(space, points):
    """Values of a reference space's basis at reference points, from its
    monomial coefficients: (npts, ncomp, dim)."""
    v = _poly.vandermonde(space.sdim, space.degree, points)
    return np.einsum("qm,icm->qci", v, space.coeffs)


def eval_scalar(space, points):
    """Scalar-space values as (npts, dim)."""
    return space_eval(space, points)[:, 0, :]


def div_coeffs(space):
    """Monomial coefficients (dim, n) of the divergence of each basis field."""
    D = _poly.diff_stack(space.sdim, space.degree)
    return np.einsum("cmn,icn->im", D, space.coeffs)


def curl2d_coeffs(space):
    """In-plane rotated gradient (d2 p, -d1 p) of a scalar triangle space."""
    g = space.grad_coeffs()
    out = np.empty_like(g)
    out[:, 0, :] = g[:, 1, :]
    out[:, 1, :] = -g[:, 0, :]
    return out


def unisolvence_matrix(space):
    """Canonical functionals applied to the space's own basis (should be I)."""
    def field_eval(points):
        return space_eval(space, points)
    if space.kind == ps.NEDELEC1_TET:
        return ps.nedelec_dof_matrix(ps.TET_VERTS, space.degree, field_eval)
    if space.kind == ps.RT_TET:
        return ps.rt_dof_matrix(ps.TET_VERTS, space.degree, field_eval)
    if space.kind == RT_TANGENTIAL_TRI:
        return rt_tri_dof_matrix(TRI_VERTS, space.degree, field_eval)
    if space.kind == ps.P_SCALAR_TET:
        nodes = (ps.lagrange_nodes(space.degree).ref_coords() if space.degree > 0
                 else np.array([[0.25, 0.25, 0.25]]))
        return eval_scalar(space, nodes)
    if space.kind == P_SCALAR_TRI:
        return eval_scalar(space, tri_nodes(space.degree))
    raise ValueError(space.kind)
