"""Shared fixtures-in-plain-code for the test suite: manufactured fields,
one-call solvers, and small independent oracles."""

import numpy as np

from curlest import _poly
from curlest import adapt as adm
from curlest import femsys as fem
from curlest import mesh as msh
from curlest import polyspace as ps


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


def solve_cube(n, k, strict_a2=False, aux=None, backend="direct"):
    """Solve the manufactured cube problem; returns (mesh, dofmap, u, Hh, data)."""
    mesh = msh.unit_cube_mesh(n)
    cfg = adm.AdaptiveConfig(degree=k, aux_degree=aux or k, strict_a2=strict_a2,
                             solver=fem.SolverConfig(backend=backend))
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
# per-tet reference loops for the stacked element map in femsys: each applies
# the canonical functionals to the covariant-mapped basis of one tet at a time
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


def loop_gradient(mesh, dm_ned, dm_lag):
    """Dense discrete gradient: functionals applied to the mapped gradients
    of the scalar basis, shared entries averaged."""
    k = dm_lag.degree
    gradc = ps.reference_space(ps.P_SCALAR_TET, k).grad_coeffs()
    geom = mesh.geom()
    G = np.zeros((dm_ned.n_dofs, dm_lag.n_dofs))
    cnt = np.zeros_like(G)
    for t in range(mesh.n_tets):
        Jinv, v0 = geom.Jinv[t], geom.v0[t]

        def field_eval(pts):
            xhat = (np.asarray(pts) - v0) @ Jinv.T
            g = np.einsum("qm,ibm->qbi", _poly.vandermonde(3, k, xhat), gradc)
            return np.einsum("ba,qbn->qan", Jinv, g)

        locG = ps.nedelec_dof_matrix(mesh.vertices[mesh.tets[t]], mesh.tets[t],
                                     dm_ned.degree, field_eval)
        idx = np.ix_(dm_ned.cell_dofs[t], dm_lag.cell_dofs[t])
        G[idx] += locG
        cnt[idx] += 1.0
    return np.divide(G, cnt, out=np.zeros_like(G), where=cnt > 0)


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
