"""Monomial-coefficient polynomial algebra on reference simplices.

Every polynomial object in this package is a coefficient array over a graded
monomial basis (constant first, degrees ascending).  Differentiation and
coordinate shifts are exact integer-weight matrix actions on coefficients, so
discrete exact-sequence identities hold to machine precision instead of
quadrature precision.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np


@lru_cache(maxsize=None)
def exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent table (n, dim) in graded order; the constant monomial is row 0.

    Monomials of degree <= d-1 form a prefix of the degree-d table, which lets
    lower-degree polynomials embed by zero padding.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    rows = []
    for tot in range(degree + 1):
        if dim == 2:
            for a in range(tot, -1, -1):
                rows.append((a, tot - a))
        else:
            for a in range(tot, -1, -1):
                for b in range(tot - a, -1, -1):
                    rows.append((a, b, tot - a - b))
    return np.array(rows, dtype=np.int64)


@lru_cache(maxsize=None)
def _index(dim: int, degree: int) -> dict:
    return {tuple(e): i for i, e in enumerate(exponents(dim, degree))}


def n_monomials(dim: int, degree: int) -> int:
    return len(exponents(dim, degree))


def vandermonde(dim: int, degree: int, points: np.ndarray) -> np.ndarray:
    """Monomial values at points; returns (npts, n_monomials), C-ordered,
    since the products that consume it round differently on another layout.

    Each axis's powers 0..degree are taken once and gathered by exponent;
    they are multiplied left to right, the order of ``np.prod`` over the
    axes, so every value is bitwise the point raised monomial by monomial.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, dim)
    exps = exponents(dim, degree)
    powers = pts[:, :, None] ** np.arange(degree + 1)          # (npts, dim, degree+1)
    cols = [powers[:, a][:, exps[:, a]] for a in range(dim)]   # gathers are F-ordered
    out = np.multiply(cols[0], cols[1], order="C")
    for col in cols[2:]:
        out *= col
    return out


@lru_cache(maxsize=None)
def diff_matrix(dim: int, degree: int, axis: int) -> np.ndarray:
    """Matrix D with (D @ coeffs) the coefficients of the axis-derivative."""
    exps = exponents(dim, degree)
    idx = _index(dim, degree)
    n = len(exps)
    out = np.zeros((n, n))
    for j, e in enumerate(exps):
        if e[axis] > 0:
            t = list(e)
            t[axis] -= 1
            out[idx[tuple(t)], j] = float(e[axis])
    return out


@lru_cache(maxsize=None)
def diff_stack(dim: int, degree: int) -> np.ndarray:
    """All partial-derivative matrices stacked as (dim, n, n)."""
    return np.stack([diff_matrix(dim, degree, a) for a in range(dim)])


@lru_cache(maxsize=None)
def diff_columns(dim: int, degree: int) -> np.ndarray:
    """diff_stack as one (n, dim * n) matrix: a row of coefficients times it
    gives the coefficients of every partial derivative, axis-major."""
    n = n_monomials(dim, degree)
    out = np.ascontiguousarray(diff_stack(dim, degree).transpose(2, 0, 1)).reshape(n, -1)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def shift_matrix(dim: int, degree: int, axis: int) -> np.ndarray:
    """Multiplication by the axis coordinate, within the same degree table.

    Source coefficients must vanish on top-degree monomials (the product
    would otherwise leave the table); callers guarantee this.
    """
    exps = exponents(dim, degree)
    idx = _index(dim, degree)
    n = len(exps)
    out = np.zeros((n, n))
    for j, e in enumerate(exps):
        t = list(e)
        t[axis] += 1
        key = tuple(t)
        if key in idx:
            out[idx[key], j] = 1.0
    return out


def integral_simplex(exp) -> float:
    """Exact integral of a monomial over the unit reference simplex."""
    exp = tuple(int(a) for a in exp)
    d = len(exp)
    num = 1
    for a in exp:
        num *= factorial(a)
    return num / factorial(sum(exp) + d)


@lru_cache(maxsize=None)
def moment_matrix(dim: int, degree: int) -> np.ndarray:
    """Gram matrix of monomials in exact arithmetic: M[i,j] = int m_i m_j."""
    exps = exponents(dim, degree)
    n = len(exps)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            v = integral_simplex(exps[i] + exps[j])
            out[i, j] = v
            out[j, i] = v
    return out
