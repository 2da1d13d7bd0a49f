"""Delaunay mesh refinement primitives (the SPEC-DMR workload).

Refinement repeatedly picks a *bad* triangle (min angle below a quality
bound), collects the *cavity* of triangles whose circumcircle contains the
bad triangle's circumcenter, and retriangulates the cavity around the newly
inserted circumcenter.  Two refinements conflict exactly when their cavities
share a triangle — the conflict the paper's DMR rule detects at runtime.
"""

from __future__ import annotations

import math

import numpy as np

from repro.substrates.mesh.delaunay import Mesh, _insert_point, triangulate
from repro.substrates.mesh.geometry import (
    Point,
    circumcenter,
    triangle_min_angle,
)

DEFAULT_MIN_ANGLE = 25.0


def random_points(n: int, seed: int = 0, jitter: float = 1e-3) -> list[Point]:
    """Deterministic pseudo-random points in the unit square.

    A small deterministic jitter keeps quadruples off exact co-circularity so
    float predicates stay reliable.
    """
    rng = np.random.default_rng(seed)
    raw = rng.random((n, 2))
    return [
        (float(x + jitter * math.sin(97.0 * i)),
         float(y + jitter * math.cos(53.0 * i)))
        for i, (x, y) in enumerate(raw)
    ]


def is_bad(mesh: Mesh, tri_id: int, min_angle: float = DEFAULT_MIN_ANGLE) -> bool:
    """True when the triangle's smallest angle is below ``min_angle`` degrees."""
    a, b, c = mesh.vertices_of(tri_id)
    return triangle_min_angle(a, b, c) < min_angle


def bad_triangles(mesh: Mesh, min_angle: float = DEFAULT_MIN_ANGLE) -> list[int]:
    """Ids of all current bad triangles (the initial DMR workset)."""
    return [t for t in mesh.triangles if is_bad(mesh, t, min_angle)]


def cavity_of(mesh: Mesh, tri_id: int) -> tuple[Point, list[int]]:
    """Circumcenter of ``tri_id`` and the ids of the cavity triangles.

    The cavity is grown by adjacency from the bad triangle: a neighbour
    joins when the circumcenter lies inside its circumcircle.  This is the
    per-task read set a DMR task declares to the rule engine.
    """
    center = circumcenter(*mesh.vertices_of(tri_id))
    cavity = {tri_id}
    frontier = [tri_id]
    while frontier:
        current = frontier.pop()
        for neighbor in mesh.neighbors_of(current):
            if neighbor in cavity:
                continue
            if mesh.in_circumcircle(neighbor, center):
                cavity.add(neighbor)
                frontier.append(neighbor)
    return center, sorted(cavity)


def retriangulate_cavity(
    mesh: Mesh, center: Point, cavity: list[int] | None = None
) -> list[int] | None:
    """Insert ``center`` as a new mesh point, retriangulating its cavity.

    Returns the ids of the triangles created, or None when the insertion
    would be degenerate (the mesh is left unmodified and the caller should
    skip this circumcenter).  Bowyer-Watson insertion removes exactly the
    cavity triangles, so this *is* the DMR commit operation.  Passing the
    ``cavity`` already computed by :func:`cavity_of` avoids a full-mesh scan.
    """
    point_id = mesh.add_point(center)
    created = _insert_point(mesh, point_id, cavity)
    if created is None:
        # Insertion refused: remove the orphaned point again (it is the
        # last one and nothing references it).
        mesh.points.pop()
        return None
    return created


def refine_mesh(
    mesh: Mesh,
    min_angle: float = DEFAULT_MIN_ANGLE,
    max_insertions: int = 10000,
) -> int:
    """Sequential reference refinement (oracle for SPEC-DMR).

    Processes bad triangles until none remain or ``max_insertions`` points
    have been added.  Returns the number of inserted points.
    """
    inserted = 0
    worklist = bad_triangles(mesh, min_angle)
    while worklist and inserted < max_insertions:
        tri_id = worklist.pop()
        if tri_id not in mesh:
            continue
        if not is_bad(mesh, tri_id, min_angle):
            continue
        center, cavity = cavity_of(mesh, tri_id)
        if not _center_in_bounds(mesh, center):
            # Skip encroaching circumcenters outside the point cloud's hull;
            # a full Ruppert implementation would split boundary segments
            # instead.  Termination still holds for interior refinement.
            continue
        created = retriangulate_cavity(mesh, center, cavity)
        if created is None:
            continue
        inserted += 1
        worklist.extend(t for t in created if is_bad(mesh, t, min_angle))
    return inserted


def _center_in_bounds(mesh: Mesh, center: Point) -> bool:
    """Conservative hull test: is the circumcenter inside any triangle's
    bounding region?  We use the cheap test of lying within the mesh's
    bounding box shrunk by nothing — adequate for unit-square point clouds.
    """
    xs = [p[0] for p in mesh.points]
    ys = [p[1] for p in mesh.points]
    return min(xs) <= center[0] <= max(xs) and min(ys) <= center[1] <= max(ys)


def make_refinement_instance(
    n_points: int, seed: int = 0
) -> tuple[Mesh, list[int]]:
    """Convenience: triangulated random cloud plus its initial bad worklist."""
    mesh = triangulate(random_points(n_points, seed))
    return mesh, bad_triangles(mesh)
