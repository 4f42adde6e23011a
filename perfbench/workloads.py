"""The benchmark's workloads: which built-in problem, at which sizes.

Pure data, so that the driver can validate names without importing curlest.
Sizes are trimmed from the full roadmap set so that one repetition takes a
few seconds on a 2-core machine and a run holds several repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    degree: int                     # k = k' (estimator degree equals degree)
    mode: str                       # uniform | adaptive
    resolutions: tuple = ()         # uniform: mesh resolution n of each level
    levels: int | None = None       # adaptive: number of levels
    reference_errors: bool = False
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload(
        name="cube_k1_uniform", problem="cube_poly", degree=1, mode="uniform",
        resolutions=(2, 4, 6),
        why="many small entities and polynomial data: per-face, per-edge and "
            "per-node estimator loops dominate and the linear solve is ~1%"),
    Workload(
        name="cube_k3_uniform", problem="cube_poly", degree=3, mode="uniform",
        resolutions=(2, 3, 4),
        why="few elements with large dense local blocks: assembly, gradient "
            "correction and the sparse direct solve dominate"),
    Workload(
        name="jump_k2_adaptive", problem="cube_jump_mu_100", degree=2,
        mode="adaptive", levels=4, reference_errors=True,
        why="the only workload that marks and refines; reference errors "
            "re-solve every level, so per-mesh reuse shows only here"),
)}
