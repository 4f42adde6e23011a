"""Classical degree-weighted residual error estimator, for comparison runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyspace as ps
from .femsys import (BrokenPolyField, CurrentDensity, tangential_jump_norms,
                     _data_exactness)
from .mesh import Mesh


@dataclass
class ResidualResult:
    vol_T: np.ndarray     # (T,) squared volume terms h_T^2/k^2 ||j - curl H_h||^2
    face_sq: np.ndarray   # (F,) squared face terms h_f/k ||jump||^2 (0 on boundary)
    mu_h: float


def compute_residual_estimator(mesh: Mesh, j: CurrentDensity,
                               Hh: BrokenPolyField, k: int) -> ResidualResult:
    """Volume residual plus tangential-jump terms with 1/k weights.

    The face sum runs over internal faces only.  This comparison estimator
    is not weighted by the permeability mu: both terms are plain L2 norms.
    It is reported globally; marking uses the equilibrated one.
    """
    rule = ps.quadrature("tet", _data_exactness(k))
    geom = mesh.geom()
    tets = np.arange(mesh.n_tets)
    jv = j.eval_elements(mesh, tets, rule.points)
    cv = Hh.curl().eval(tets, rule.points)
    diff = jv - cv
    l2sq = np.einsum("q,tqc->t", rule.weights, diff ** 2) * geom.absdet
    hT = mesh.tet_diameters()
    vol_T = (hT ** 2 / k ** 2) * l2sq

    jumps = tangential_jump_norms(mesh, Hh)
    hf = mesh.face_diameters()
    face_sq = (hf / k) * jumps ** 2
    mu_h = float(np.sqrt(vol_T.sum() + face_sq.sum()))
    return ResidualResult(vol_T=vol_T, face_sq=face_sq, mu_h=mu_h)
