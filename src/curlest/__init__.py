"""Tetrahedral H(curl) finite elements for magnetostatics with a constant-free
equilibrated a posteriori error estimator."""

from . import _poly, adapt, bench, equilibrate, femsys, mesh, polyspace, residual
from .adapt import Level, RunConfig, adaptive_loop, dorfler_mark, run_level
from .bench import ProblemSpec, builtin_problems, run_experiment
from .equilibrate import (EquilibrationOutput, check_edge_compatibility,
                          estimate, step1_element_corrections,
                          step2_face_multipliers, step3_reconstruct_phi,
                          step4_estimator, verify_equilibrium)
from .femsys import (BrokenPolyField, CurrentDensity, FieldCoefficients, Load,
                     MaterialField, assemble_curlcurl, assemble_rhs,
                     build_dofmap, compute_Hh, gradient_correction,
                     project_current, solve_magnetostatic)
from .mesh import (Mesh, build_mesh, edge_face_normals, l_brick_mesh,
                   read_mesh_text, refine, unit_cube_mesh, write_mesh_text,
                   write_vtk)
from .polyspace import (LagrangeNodeSet, QuadratureRule, ReferenceSpace,
                        lagrange_nodes, quadrature, reference_space)
from .residual import ResidualResult, compute_residual_estimator

__version__ = "0.1.0"
