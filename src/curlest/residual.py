"""Classical degree-weighted residual error estimator, for comparison runs.

Its volume term is h_T^2/k^2 ||j - curl H_h||_T^2.  Estimator step 1
already integrates that residual current on every tet
(``ElementCorrection.jdelta_norm``), for the current the solve used and at
the estimator's data rule, so the volume term is read from there and this
module evaluates no current and no tet rule of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femsys import BrokenPolyField, tangential_jump_norms
from .mesh import Mesh


@dataclass
class ResidualResult:
    vol_T: np.ndarray     # (T,) squared volume terms h_T^2/k^2 ||j - curl H_h||^2
    face_sq: np.ndarray   # (F,) squared face terms h_f/k ||jump||^2 (0 on boundary)
    mu_h: float


def compute_residual_estimator(mesh: Mesh, jdelta_norm: np.ndarray,
                               Hh: BrokenPolyField, k: int) -> ResidualResult:
    """Volume residual plus tangential-jump terms with 1/k weights.

    ``jdelta_norm`` (T,) holds ||j - curl H_h||_T, step 1's
    ``ElementCorrection.jdelta_norm``.  The face sum runs over internal
    faces only.  This comparison estimator is not weighted by the
    permeability mu: both terms are plain L2 norms.  It is reported
    globally; marking uses the equilibrated one.
    """
    vol_T = (mesh.tet_diameters() ** 2 / k ** 2) * jdelta_norm ** 2
    jumps = tangential_jump_norms(mesh, Hh)
    face_sq = (mesh.face_diameters() / k) * jumps ** 2
    mu_h = float(np.sqrt(vol_T.sum() + face_sq.sum()))
    return ResidualResult(vol_T=vol_T, face_sq=face_sq, mu_h=mu_h)
