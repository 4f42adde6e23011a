"""Reference-element polynomial machinery.

Provides quadrature rules on segment/triangle/tetrahedron, Lagrange node
sets, and the polynomial spaces of the tetrahedron used throughout: scalar,
curl-conforming (first-kind edge) and divergence-conforming.  Bases are built
from orthogonalized monomial generators and re-expressed as the dual basis of
the canonical moment functionals, which ``reference_dofs`` applies.  Those
functionals give I on that basis only up to rounding: their largest entry
off I is 4.5e-16, 4.4e-15, 2.6e-13 and 1.1e-11 for the edge spaces at k =
1..4, up to 1.8e-11 for the divergence-conforming ones.  So
``reference_space`` corrects the basis once, by their inverse, and no other
module corrects a basis or solves with the functionals.  The library applies
them on the reference tet only, to fields pulled back from every tet of a
mesh at once (``femsys``).  The face space of estimator step 2 is not a
reference space: step 2 works in the monomials of each face's affine
coordinates directly (see ``equilibrate``), and the tests check the exact
sequence of the triangle spaces behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from . import _poly
from .errors import UnsupportedDegree, WrongKind

# Reference tetrahedron (0,0,0),(1,0,0),(0,1,0),(0,0,1).
TET_VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
TET_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))  # face i opposite vertex i

MAX_DEGREE = 4
MAX_QUAD_EXACTNESS = 12

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------

def dim_nedelec_tet(k: int) -> int:
    return k * (k + 2) * (k + 3) // 2


def dim_rt_tet(k: int) -> int:
    return k * (k + 1) * (k + 3) // 2


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class QuadratureRule:
    points: np.ndarray   # (n, d) reference coordinates
    weights: np.ndarray  # (n,)


def _gauss01(m: int):
    x, w = leggauss(m)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(m: int, alpha: int):
    """Nodes/weights for int_0^1 f(t) (1-t)^alpha dt, exact to degree 2m-1.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the weight's orthonormal polynomials p_j, refined by
    one Newton step on p_m, and the weights are the Christoffel numbers
    1 / sum_{j<m} p_j(t)^2, both from the three-term recurrence
    b_{j+1} p_{j+1} = (t - a_j) p_j - b_j p_{j-1}, p_0 = sqrt(alpha + 1).
    The recurrence runs in long double, so where that is wider than a double
    (x86) the rule is correctly rounded: all 112 values at m <= 7, against a
    40-digit rule.
    """
    n = np.arange(m + 1, dtype=np.longdouble)
    s = 2 * n + alpha
    a = 0.5 - 0.5 * alpha ** 2 / (s * (s + 2))
    b = np.r_[0.0, n[1:] * (n[1:] + alpha) / (s[1:] * np.sqrt(s[1:] ** 2 - 1))]
    J = np.diag(a[:m]) + np.diag(b[1:m], 1) + np.diag(b[1:m], -1)
    t = np.linalg.eigvalsh(J.astype(float)).astype(np.longdouble)

    def recurrence(t):
        p_prev, p = np.zeros_like(t), np.full_like(t, np.sqrt(np.longdouble(alpha + 1)))
        d_prev, d = np.zeros_like(t), np.zeros_like(t)
        sq = np.zeros_like(t)
        for j in range(m):
            sq += p * p
            p_prev, p, d_prev, d = (p, ((t - a[j]) * p - b[j] * p_prev) / b[j + 1],
                                    d, (p + (t - a[j]) * d - b[j] * d_prev) / b[j + 1])
        return p, d, sq

    p, d, _ = recurrence(t)
    t = t - p / d
    return t.astype(float), (1 / recurrence(t)[2]).astype(float)


@lru_cache(maxsize=None)
def quadrature(domain: str, exactness: int) -> QuadratureRule:
    """Rule exact for polynomials of total degree <= exactness.

    Triangle/tetrahedron rules are collapsed tensor products of Gauss-
    Legendre and Gauss-Jacobi rules, the Jacobi weights absorbing the Duffy
    Jacobian, so exactness is guaranteed rather than tabulated.  The Jacobi
    rules come from the Golub-Welsch eigenproblem of at most 7 x 7
    (``_jacobi01``).
    """
    if exactness > MAX_QUAD_EXACTNESS or exactness < 0:
        raise UnsupportedDegree(
            f"quadrature exactness {exactness} outside 0..{MAX_QUAD_EXACTNESS}")
    m = exactness // 2 + 1
    if domain == "segment":
        t, w = _gauss01(m)
        return QuadratureRule(t.reshape(-1, 1), w)
    if domain == "tri":
        a, wa = _gauss01(m)
        b, wb = _jacobi01(m, 1)
        A, B = np.meshgrid(a, b, indexing="ij")
        pts = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
        w = np.outer(wa, wb).ravel()
        return QuadratureRule(pts, w)
    if domain == "tet":
        a, wa = _gauss01(m)
        b, wb = _jacobi01(m, 1)
        c, wc = _jacobi01(m, 2)
        A, B, C = np.meshgrid(a, b, c, indexing="ij")
        x = A * (1.0 - B) * (1.0 - C)
        y = B * (1.0 - C)
        pts = np.column_stack([x.ravel(), y.ravel(), C.ravel()])
        w = (wa[:, None, None] * wb[None, :, None] * wc[None, None, :]).ravel()
        return QuadratureRule(pts, w)
    raise ValueError(f"unknown quadrature domain {domain!r}")


# ---------------------------------------------------------------------------
# Lagrange nodes
# ---------------------------------------------------------------------------

NODE_VERTEX, NODE_EDGE, NODE_FACE, NODE_CELL = 0, 1, 2, 3
NODE_NAMES = ("vertex", "edge", "face", "tet")   # indexed by the codes above


@dataclass(frozen=True)
class LagrangeNodeSet:
    degree: int
    multi: np.ndarray    # (n, 4) integer barycentric multi-indices, sum = degree
    bary: np.ndarray     # (n, 4) barycentric coordinates multi/degree
    kind: np.ndarray     # (n,) NODE_* classification
    entity: np.ndarray   # (n,) local vertex/edge/face index (0 for cell nodes)

    def ref_coords(self) -> np.ndarray:
        """Cartesian coordinates on the reference tetrahedron."""
        return self.bary[:, 1:] @ TET_VERTS[1:]


@lru_cache(maxsize=None)
def lagrange_nodes(degree: int) -> LagrangeNodeSet:
    if degree < 1:
        raise UnsupportedDegree("Lagrange node sets need degree >= 1")
    multi = []
    for i0 in range(degree, -1, -1):
        for i1 in range(degree - i0, -1, -1):
            for i2 in range(degree - i0 - i1, -1, -1):
                multi.append((i0, i1, i2, degree - i0 - i1 - i2))
    multi = np.array(multi, dtype=np.int64)
    # a node lies inside the entity spanned by the vertices it weights; its
    # NODE_* kind is their number less one
    local = {s: i for ents in ([(v,) for v in range(4)], TET_EDGES, TET_FACES,
                               [(0, 1, 2, 3)]) for i, s in enumerate(ents)}
    entity = np.array([local[tuple(np.nonzero(m)[0])] for m in multi])
    return LagrangeNodeSet(degree, multi, multi / float(degree),
                           np.count_nonzero(multi, axis=1) - 1, entity)


# ---------------------------------------------------------------------------
# canonical moment functionals
# ---------------------------------------------------------------------------

def _legendre_rows(s: np.ndarray, n: int) -> np.ndarray:
    """Legendre P_0..P_{n-1} on [0,1] evaluated at s; returns (n, len(s))."""
    eye = np.eye(n)
    return np.array([legval(2.0 * s - 1.0, eye[j]) for j in range(n)])


def _face_values(verts: np.ndarray, xi: np.ndarray, field_eval):
    """Per local face, in its frame (va, e1, e2) over its vertices in local
    order: e1, e2 (3,) and the fields (m, 3, nf) at the points va +
    xi_1 e1 + xi_2 e2."""
    for a, b, c in TET_FACES:
        va = verts[a]
        e1, e2 = verts[b] - va, verts[c] - va
        yield e1, e2, field_eval(va + xi[:, 0:1] * e1 + xi[:, 1:2] * e2)


def _interior_moments(verts: np.ndarray, field_eval, ex: int, degree: int):
    """Moments of the fields against the monomials of degree <= degree in
    reference coordinates, monomial-major, component-minor: (3 n_mono, nf)."""
    tet = quadrature("tet", ex)
    E = verts[1:] - verts[:1]                       # rows: edges from vertex 0
    vals = field_eval(verts[:1] + tet.points @ E)
    wmono = tet.weights[:, None] * _poly.vandermonde(3, degree, tet.points)
    vol6 = np.abs(np.linalg.det(E.T))
    rows = vol6 * np.einsum("mo,mcf->ocf", wmono, vals)
    return rows.reshape(-1, rows.shape[2])


def nedelec_dof_matrix(verts: np.ndarray, k: int, field_eval) -> np.ndarray:
    """Apply the canonical edge/face/interior moments of the tet verts
    (4, 3) to a set of fields: (n, nf).

    ``field_eval(points (m,3)) -> (m, 3, nf)`` evaluates the fields at
    physical points.  The local vertex order fixes the orientation of the
    edge and face parameterizations; meshes list every tet's vertex ids
    ascending, so two elements sharing an entity produce the same
    functionals.  Row order: per local edge k tangential moments, per local
    face k(k-1) in-plane moments, then interior moments.  The library
    applies them on the reference tet only, to fields pulled back from all
    tets at once (nf = T).
    """
    ex = 2 * k
    blocks = []

    seg = quadrature("segment", ex + 2)
    s = seg.points[:, 0]
    wleg = seg.weights[None, :] * _legendre_rows(s, k)   # (k, m)
    for lo, hi in TET_EDGES:
        va, vec = verts[lo], verts[hi] - verts[lo]
        length = np.linalg.norm(vec)
        vals = field_eval(va + s[:, None] * vec)        # (m, 3, nf)
        tv = np.einsum("mcf,c->mf", vals, vec / length)
        blocks.append(length * (wleg @ tv))             # (k, nf)

    if k >= 2:
        tri = quadrature("tri", ex)
        wmono = tri.weights[:, None] * _poly.vandermonde(2, k - 2, tri.points)
        for e1, e2, vals in _face_values(verts, tri.points, field_eval):
            area2 = np.linalg.norm(np.cross(e1, e2))    # twice the area
            dirs = np.stack([e1 / np.linalg.norm(e1), e2 / np.linalg.norm(e2)])
            # row order: monomial-major, direction-minor
            rows = area2 * np.einsum("mo,dc,mcf->odf", wmono, dirs, vals)
            blocks.append(rows.reshape(-1, rows.shape[2]))

    if k >= 3:
        blocks.append(_interior_moments(verts, field_eval, ex, k - 3))

    return np.concatenate(blocks)


def rt_dof_matrix(verts: np.ndarray, k: int, field_eval,
                  exactness: int | None = None) -> np.ndarray:
    """Canonical face-flux / interior moments of the div-conforming space on
    the tet verts (4, 3), applied as ``nedelec_dof_matrix`` applies its own.

    Face normals follow the local vertex order, which meshes keep ascending
    in the vertex ids, so that shared faces receive identical functionals
    from both sides.
    """
    ex = 2 * k if exactness is None else exactness
    blocks = []

    tri = quadrature("tri", ex)
    wmono = tri.weights[:, None] * _poly.vandermonde(2, k - 1, tri.points)
    for e1, e2, vals in _face_values(verts, tri.points, field_eval):
        nvec = np.cross(e1, e2)
        area2 = np.linalg.norm(nvec)
        nv = np.einsum("mcf,c->mf", vals, nvec / area2)
        blocks.append(area2 * (wmono.T @ nv))

    if k >= 2:
        blocks.append(_interior_moments(verts, field_eval, ex, k - 2))

    return np.concatenate(blocks)


# ---------------------------------------------------------------------------
# reference spaces
# ---------------------------------------------------------------------------

P_SCALAR_TET = "P_scalar_tet"
NEDELEC1_TET = "Nedelec1_tet"
RT_TET = "RT_tet"

KINDS = (P_SCALAR_TET, NEDELEC1_TET, RT_TET)


@dataclass(frozen=True)
class ReferenceSpace:
    """A polynomial space on a reference simplex, stored as the dual basis of
    its canonical degree-of-freedom functionals, corrected once for the
    vector kinds (module docstring).

    ``coeffs`` has shape (dim, ncomp, n_monomials): basis function i is
    ``sum_m coeffs[i, c, m] * monomial_m`` in component c.
    """
    kind: str
    degree: int
    dim: int
    ncomp: int
    sdim: int
    coeffs: np.ndarray

    def curl_coeffs(self) -> np.ndarray:
        if self.kind != NEDELEC1_TET:
            raise WrongKind(f"curl is only defined for {NEDELEC1_TET}")
        D = _poly.diff_stack(3, self.degree)
        dc = np.einsum("bmn,icn->bicm", D, self.coeffs)
        return np.einsum("abc,bicm->iam", _EPS3, dc)

    def grad_coeffs(self) -> np.ndarray:
        if self.ncomp != 1:
            raise WrongKind("grad is only defined for scalar spaces")
        D = _poly.diff_stack(self.sdim, self.degree)
        return np.einsum("bmn,in->ibm", D, self.coeffs[:, 0, :])


def _orthonormalize(gen: np.ndarray, sdim: int, degree: int, expected: int) -> np.ndarray:
    """Orthonormalize generators in L2 of the reference simplex, dropping the
    rank deficiency of redundant generating sets."""
    M = _poly.moment_matrix(sdim, degree)
    gram = np.einsum("icm,mn,jcn->ij", gen, M, gen)
    w, V = np.linalg.eigh(gram)
    keep = w > max(w) * 1e-10
    if keep.sum() != expected:
        raise RuntimeError(
            f"generator rank {keep.sum()} != expected dim {expected}")
    C = V[:, keep] / np.sqrt(w[keep])
    return np.einsum("gr,gcm->rcm", C, gen)


def _scalar_dual(sdim: int, degree: int, nodes_cart: np.ndarray) -> np.ndarray:
    nm = _poly.n_monomials(sdim, degree)
    V = _poly.vandermonde(sdim, degree, nodes_cart)
    if V.shape[0] != nm:
        raise RuntimeError("node count does not match space dimension")
    C = np.linalg.solve(V, np.eye(nm))
    return C.T.reshape(nm, 1, nm)


def _nedelec_generators(k: int) -> np.ndarray:
    nm = _poly.n_monomials(3, k)
    nlow = _poly.n_monomials(3, k - 1)
    exps = _poly.exponents(3, k)
    gens = []
    for m in range(nlow):
        for c in range(3):
            g = np.zeros((3, nm))
            g[c, m] = 1.0
            gens.append(g)
    shift = [_poly.shift_matrix(3, k, a) for a in range(3)]
    homog = [m for m in range(nm) if exps[m].sum() == k - 1]
    for m in homog:
        base = np.zeros(nm)
        base[m] = 1.0
        for j in range(3):
            # x cross (m e_j): component c is eps_{cdj} x_d m
            g = np.zeros((3, nm))
            for c in range(3):
                for d in range(3):
                    if _EPS3[c, d, j] != 0.0:
                        g[c] += _EPS3[c, d, j] * (shift[d] @ base)
            gens.append(g)
    return np.array(gens)


def _rt_generators(k: int, sdim: int) -> np.ndarray:
    nm = _poly.n_monomials(sdim, k)
    nlow = _poly.n_monomials(sdim, k - 1)
    exps = _poly.exponents(sdim, k)
    gens = []
    for m in range(nlow):
        for c in range(sdim):
            g = np.zeros((sdim, nm))
            g[c, m] = 1.0
            gens.append(g)
    shift = [_poly.shift_matrix(sdim, k, a) for a in range(sdim)]
    for m in range(nm):
        if exps[m].sum() != k - 1:
            continue
        base = np.zeros(nm)
        base[m] = 1.0
        g = np.stack([shift[c] @ base for c in range(sdim)])
        gens.append(g)
    return np.array(gens)


def _check_degree(kind: str, degree: int) -> None:
    lo = 0 if kind == P_SCALAR_TET else 1
    if not lo <= degree <= MAX_DEGREE:
        raise UnsupportedDegree(
            f"{kind} degree {degree} outside implemented range {lo}..{MAX_DEGREE}")


@lru_cache(maxsize=None)
def reference_space(kind: str, degree: int) -> ReferenceSpace:
    _check_degree(kind, degree)
    if kind == P_SCALAR_TET:
        if degree == 0:
            coeffs = np.ones((1, 1, 1))
        else:
            coeffs = _scalar_dual(3, degree, lagrange_nodes(degree).ref_coords())
        return ReferenceSpace(kind, degree, len(coeffs), 1, 3, coeffs)
    if kind == NEDELEC1_TET:
        gen = _orthonormalize(_nedelec_generators(degree), 3, degree,
                              dim_nedelec_tet(degree))
    elif kind == RT_TET:
        gen = _orthonormalize(_rt_generators(degree, 3), 3, degree,
                              dim_rt_tet(degree))
    else:
        raise WrongKind(f"unknown kind {kind!r}")
    V = reference_dofs(kind, degree, gen)
    if V.shape[0] != V.shape[1]:
        raise RuntimeError("functional count does not match space dimension")
    coeffs = np.einsum("gi,gcm->icm", np.linalg.solve(V, np.eye(len(V))), gen)
    # the one correction: the inverse of the functionals of that dual basis
    V_sigma_inv = np.linalg.inv(reference_dofs(kind, degree, coeffs))
    coeffs = np.einsum("gi,gcm->icm", V_sigma_inv, coeffs)
    return ReferenceSpace(kind, degree, len(coeffs), 3, 3, coeffs)


def reference_dofs(kind: str, degree: int, coeffs: np.ndarray) -> np.ndarray:
    """The canonical functionals of the vector ``kind`` on the reference tet
    applied to the fields with monomial coefficients ``coeffs`` (n, 3, m)
    of the degree, in ``reference_space``'s layout: (n_dofs, n)."""
    dofm = {NEDELEC1_TET: nedelec_dof_matrix, RT_TET: rt_dof_matrix}.get(kind)
    if dofm is None:
        raise WrongKind(f"no vector functionals for kind {kind!r}")
    return dofm(TET_VERTS, degree, lambda pts: np.einsum(
        "qm,icm->qci", _poly.vandermonde(3, degree, pts), coeffs))
