"""Exception types raised across the library."""


class CurlestError(Exception):
    """Base class for all library errors."""


# mesh
class NonConforming(CurlestError):
    """Mesh is not a valid conforming simplicial complex."""


class DegenerateTet(CurlestError):
    """Tetrahedron with (near-)zero volume."""


class ClosureOverflow(CurlestError):
    """Refinement closure loop exceeded its iteration cap."""


# polynomial spaces
class UnsupportedDegree(CurlestError):
    """Polynomial degree outside the implemented range."""


class WrongKind(CurlestError):
    """Operation not defined for this reference-space kind."""


# linear algebra / solving
class ProjectionSolveFailure(CurlestError):
    """Gradient-projection system could not be solved."""


class NoConvergence(CurlestError):
    """The gauged global solve failed: the gauge's size differs from the
    number of free Lagrange nodes, its factorisation raised, or its
    solution is non-finite or leaves a residual above femsys.RESIDUAL_TOL."""


# equilibration
class ElementError(CurlestError):
    """Failure located in a tet: ``tet`` is the id of the worst tet,
    ``value`` the quantity at fault there."""

    def __init__(self, message: str, tet: int = -1,
                 value: float = float("nan")):
        super().__init__(message)
        self.tet = tet
        self.value = value


class LocalSolveSingular(ElementError):
    """A per-element system of estimator step 1 (the curl problem on the
    reference complement of the gradients, or the gradient projection) is
    singular or gives non-finite values."""


class DataIncompatible(ElementError):
    """Element residual current violates the divergence compatibility in strict mode."""


class FaceError(CurlestError):
    """Failure located on a face: ``face`` is the global id of the worst
    face, ``value`` the quantity at fault there."""

    def __init__(self, message: str, face: int = -1,
                 value: float = float("nan")):
        super().__init__(message)
        self.face = face
        self.value = value


class FaceSolveSingular(FaceError):
    """Per-face multiplier system is singular or gives non-finite values."""


class FaceIncompatible(FaceError):
    """Face residual current has nonzero in-plane divergence in strict mode."""


class NodeError(CurlestError):
    """Failure located at a Lagrange node: ``node`` is its registry id,
    ``kind`` its polyspace NODE_* code, ``entity`` the global id of the
    vertex, edge, face or tet it belongs to and ``value`` the quantity at
    fault there."""

    def __init__(self, message: str, node: int = -1, kind: int = -1,
                 entity: int = -1, value: float = float("nan")):
        super().__init__(message)
        self.node, self.kind, self.entity, self.value = node, kind, entity, value


class InconsistentPatch(NodeError):
    """Nodal least-squares system has residual above tolerance."""


class OrphanNode(NodeError):
    """A node's patch lacks a tet of one of its faces; an internal bug."""

