"""Reference-element polynomial machinery.

Provides quadrature rules on segment/triangle/tetrahedron, Lagrange node
sets, and the polynomial spaces of the tetrahedron used throughout: scalar,
curl-conforming (first-kind edge) and divergence-conforming.  Bases are built
from orthogonalized monomial generators and re-expressed as the dual basis of
the canonical moment functionals, so the unisolvence matrix of every space is
the identity by construction.  The face space of estimator step 2 is not a
reference space: step 2 works in the monomials of each face's affine
coordinates directly (see ``equilibrate``), and the tests check the exact sequence of the triangle
spaces behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legval
from scipy.special import roots_jacobi

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

def dim_p_tri(k: int) -> int:
    return (k + 1) * (k + 2) // 2


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
    # Nodes/weights for int_0^1 f(t) (1-t)^alpha dt.
    x, w = roots_jacobi(m, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def quadrature(domain: str, exactness: int) -> QuadratureRule:
    """Rule exact for polynomials of total degree <= exactness.

    Triangle/tetrahedron rules are collapsed tensor products with Jacobi
    weights absorbing the Duffy Jacobian, so exactness is guaranteed rather
    than tabulated.
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

    @property
    def n_nodes(self) -> int:
        return len(self.multi)

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


def _stack_of_tets(verts, field_eval):
    """One tet (4, 3) as a stack of one, with a field_eval lifted to match;
    a stack (T, 4, 3) passes through.  Returns (verts, field_eval, whether
    the input was one tet)."""
    verts = np.asarray(verts, dtype=float)
    if verts.ndim == 3:
        return verts, field_eval, False
    return verts[None], lambda p: field_eval(p[0])[None], True


def _face_values(verts: np.ndarray, xi: np.ndarray, field_eval):
    """Per local face, in its frame (va, e1, e2) over its vertices in local
    order: e1, e2 (T, 3) and the fields (T, m, 3, nf) at the points va +
    xi_1 e1 + xi_2 e2."""
    for a, b, c in TET_FACES:
        va = verts[:, a]
        e1, e2 = verts[:, b] - va, verts[:, c] - va
        yield e1, e2, field_eval(va[:, None] + xi[:, 0:1] * e1[:, None]
                                 + xi[:, 1:2] * e2[:, None])


def _interior_moments(verts: np.ndarray, field_eval, ex: int, degree: int):
    """Moments of the fields against the monomials of degree <= degree in
    reference coordinates, monomial-major, component-minor: (T, 3 n_mono, nf)."""
    tet = quadrature("tet", ex)
    E = verts[:, 1:] - verts[:, :1]                 # rows: edges from vertex 0
    vals = field_eval(verts[:, :1] + tet.points @ E)
    wmono = tet.weights[:, None] * _poly.vandermonde(3, degree, tet.points)
    vol6 = np.abs(np.linalg.det(E.transpose(0, 2, 1)))
    rows = vol6[:, None, None, None] * np.einsum("mo,tmcf->tocf", wmono, vals)
    return rows.reshape(len(rows), -1, rows.shape[3])


def nedelec_dof_matrix(verts: np.ndarray, k: int, field_eval) -> np.ndarray:
    """Apply the canonical edge/face/interior moments to a set of fields.

    ``field_eval(points (m,3)) -> (m, 3, nf)`` evaluates the fields at
    physical points.  The local vertex order fixes the orientation of the
    edge and face parameterizations; meshes list every tet's vertex ids
    ascending, so two elements sharing an entity produce the same
    functionals.  Row order: per local edge k tangential moments, per local
    face k(k-1) in-plane moments, then interior moments.  A stack of tets,
    verts (T, 4, 3), gives (T, n, nf); field_eval then gets points (T, m, 3)
    and returns (T, m, 3, nf).
    """
    verts, field_eval, one = _stack_of_tets(verts, field_eval)
    ex = 2 * k
    blocks = []

    seg = quadrature("segment", ex + 2)
    s = seg.points[:, 0]
    wleg = seg.weights[None, :] * _legendre_rows(s, k)   # (k, m)
    for lo, hi in TET_EDGES:
        va, vec = verts[:, lo], verts[:, hi] - verts[:, lo]
        length = np.linalg.norm(vec, axis=1)
        pts = va[:, None, :] + s[:, None] * vec[:, None, :]
        vals = field_eval(pts)                      # (T, m, 3, nf)
        tv = np.einsum("tmcf,tc->tmf", vals, vec / length[:, None])
        blocks.append(length[:, None, None] * (wleg @ tv))   # (T, k, nf)

    if k >= 2:
        tri = quadrature("tri", ex)
        wmono = tri.weights[:, None] * _poly.vandermonde(2, k - 2, tri.points)
        for e1, e2, vals in _face_values(verts, tri.points, field_eval):
            area2 = np.linalg.norm(np.cross(e1, e2), axis=1)  # twice the area
            dirs = np.stack([e1 / np.linalg.norm(e1, axis=1)[:, None],
                             e2 / np.linalg.norm(e2, axis=1)[:, None]], axis=1)
            # row order: monomial-major, direction-minor
            rows = area2[:, None, None, None] * np.einsum(
                "mo,tdc,tmcf->todf", wmono, dirs, vals)
            blocks.append(rows.reshape(len(rows), -1, rows.shape[3]))

    if k >= 3:
        blocks.append(_interior_moments(verts, field_eval, ex, k - 3))

    out = np.concatenate(blocks, axis=1)
    return out[0] if one else out


@lru_cache(maxsize=None)
def _reference_dofs(kind: str, k: int) -> np.ndarray:
    """Reference-basis dof matrix of ``kind`` on the reference tet."""
    dofm = nedelec_dof_matrix if kind == NEDELEC1_TET else rt_dof_matrix
    V = dofm(TET_VERTS, k, reference_space(kind, k).eval)
    V.setflags(write=False)
    return V


def _face_scales(p: np.ndarray) -> np.ndarray:
    """area2 / |e_d| of face frames p (..., 3, 3), vertices in frame order."""
    e = p[..., 1:, :] - p[..., :1, :]
    area2 = np.linalg.norm(np.cross(e[..., 0, :], e[..., 1, :]), axis=-1)
    return area2[..., None] / np.linalg.norm(e, axis=-1)


def _map_interior_rows(V: np.ndarray, first: int, S: np.ndarray) -> None:
    """Apply S (T, 3, 3) to the component axis of the interior moment rows
    V[:, first:] in place; those rows run monomial-major, component-minor."""
    interior = V[:, first:].reshape(len(V), -1, 3, V.shape[2])
    V[:, first:] = np.einsum("tcb,tobn->tocn", S, interior).reshape(
        len(V), -1, V.shape[2])


def _nedelec_scales(verts: np.ndarray, k: int):
    """The parts of S_t that are not the identity (see
    ``nedelec_element_matrices``): the face-row ratios (T, n_face), by which
    the face rows of V_sigma are multiplied (no columns at degree 1), and
    J (T, 3, 3) with vol6 (T,) for the interior rows, None below degree 3."""
    T, n_face = len(verts), 4 * k * (k - 1)
    scale, J, vol6 = np.ones((T, 0)), None, None
    if k >= 2:
        lv = np.array(TET_FACES)
        scale = _face_scales(verts[:, lv]) / _face_scales(TET_VERTS[lv])
        # face rows run monomial-major, direction-minor
        scale = np.tile(scale, n_face // 8).reshape(T, -1)
    if k >= 3:
        J = (verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)
        vol6 = np.abs(np.linalg.det(J))
    return scale, J, vol6


def nedelec_element_matrices(verts: np.ndarray, k: int) -> np.ndarray:
    """Stacked ``nedelec_dof_matrix`` of the covariant-mapped reference basis
    on tets verts (T, 4, 3): (T, n, n).

    On an affine tet the matrix is S_t V_sigma, V_sigma the reference
    matrix.  S_t is the identity on edge rows, the ratio of physical to
    reference area2/|e_d| on face rows and kron(I, vol6 J^-T) on interior
    rows.
    """
    verts = np.asarray(verts, dtype=float)
    V = np.repeat(_reference_dofs(NEDELEC1_TET, k)[None], len(verts), axis=0)
    scale, J, vol6 = _nedelec_scales(verts, k)
    n_edge = 6 * k
    V[:, n_edge:n_edge + scale.shape[1]] *= scale[:, :, None]
    if J is not None:
        _map_interior_rows(V, n_edge + scale.shape[1],
                           vol6[:, None, None] * np.linalg.inv(J).transpose(0, 2, 1))
    return V


def rt_element_matrices(verts: np.ndarray, k: int) -> np.ndarray:
    """Stacked ``rt_dof_matrix`` of the Piola-mapped reference basis on tets
    verts (T, 4, 3): (T, n, n).

    The Piola map preserves face fluxes, so S_t is the identity on face rows
    and kron(I, sign(det J) J) on interior rows.
    """
    verts = np.asarray(verts, dtype=float)
    V = np.repeat(_reference_dofs(RT_TET, k)[None], len(verts), axis=0)
    if k >= 2:
        J = (verts[:, 1:] - verts[:, :1]).transpose(0, 2, 1)
        S = np.sign(np.linalg.det(J))[:, None, None] * J
        _map_interior_rows(V, 4 * dim_p_tri(k - 1), S)
    return V


def rt_dof_matrix(verts: np.ndarray, k: int, field_eval,
                  exactness: int | None = None) -> np.ndarray:
    """Canonical face-flux / interior moments of the div-conforming space.

    Face normals follow the local vertex order, which meshes keep ascending
    in the vertex ids, so that shared faces receive identical functionals
    from both sides.  Takes one tet or a stack of tets as
    ``nedelec_dof_matrix`` does.
    """
    verts, field_eval, one = _stack_of_tets(verts, field_eval)
    ex = 2 * k if exactness is None else exactness
    blocks = []

    tri = quadrature("tri", ex)
    wmono = tri.weights[:, None] * _poly.vandermonde(2, k - 1, tri.points)
    for e1, e2, vals in _face_values(verts, tri.points, field_eval):
        nvec = np.cross(e1, e2)
        area2 = np.linalg.norm(nvec, axis=1)
        nv = np.einsum("tmcf,tc->tmf", vals, nvec / area2[:, None])
        blocks.append(area2[:, None, None] * (wmono.T @ nv))

    if k >= 2:
        blocks.append(_interior_moments(verts, field_eval, ex, k - 2))

    out = np.concatenate(blocks, axis=1)
    return out[0] if one else out


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
    its canonical degree-of-freedom functionals.

    ``coeffs`` has shape (dim, ncomp, n_monomials): basis function i is
    ``sum_m coeffs[i, c, m] * monomial_m`` in component c.
    """
    kind: str
    degree: int
    dim: int
    ncomp: int
    sdim: int
    coeffs: np.ndarray

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values at reference points; returns (npts, ncomp, dim)."""
        v = _poly.vandermonde(self.sdim, self.degree, points)
        return np.einsum("qm,icm->qci", v, self.coeffs)

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
        dofm = nedelec_dof_matrix
    elif kind == RT_TET:
        gen = _orthonormalize(_rt_generators(degree, 3), 3, degree,
                              dim_rt_tet(degree))
        dofm = rt_dof_matrix
    else:
        raise WrongKind(f"unknown kind {kind!r}")

    def field_eval(pts):
        v = _poly.vandermonde(3, degree, pts)
        return np.einsum("qm,icm->qci", v, gen)

    V = dofm(TET_VERTS, degree, field_eval)
    if V.shape[0] != V.shape[1]:
        raise RuntimeError("functional count does not match space dimension")
    X = np.linalg.solve(V, np.eye(len(V)))
    coeffs = np.einsum("gi,gcm->icm", X, gen)
    return ReferenceSpace(kind, degree, len(coeffs), 3, 3, coeffs)
