"""Incremental (Bowyer-Watson) Delaunay triangulation.

The mesh keeps stable integer triangle ids: refinement tasks in SPEC-DMR
carry a triangle id, and a task whose triangle has since been destroyed by a
conflicting refinement must be squashed — exactly the rule the paper states
("if a bad triangle doesn't overlap with others anymore, its corresponding
task is squashed").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import InputError
from repro.substrates.mesh.geometry import Point, incircle, orient2d

Edge = tuple[int, int]


def _edge_key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


class Mesh:
    """A triangulation over a fixed, growable list of points.

    Triangles are stored CCW under stable ids.  An edge-to-triangles map
    supports O(1) adjacency walks (needed by cavity expansion).
    """

    def __init__(self, points: list[Point]) -> None:
        self.points: list[Point] = list(points)
        self.triangles: dict[int, tuple[int, int, int]] = {}
        self._edge_map: dict[Edge, set[int]] = {}
        self._next_id = 0

    # -- construction --------------------------------------------------------

    def add_point(self, p: Point) -> int:
        """Append a point; returns its index."""
        self.points.append(p)
        return len(self.points) - 1

    def add_triangle(self, a: int, b: int, c: int) -> int:
        """Insert triangle ``abc`` (normalized to CCW); returns its id."""
        area = orient2d(self.points[a], self.points[b], self.points[c])
        if area == 0.0:
            raise InputError(f"triangle ({a}, {b}, {c}) is degenerate")
        if area < 0.0:
            b, c = c, b
        tri_id = self._next_id
        self._next_id += 1
        self.triangles[tri_id] = (a, b, c)
        for edge in self._edges_of((a, b, c)):
            self._edge_map.setdefault(edge, set()).add(tri_id)
        return tri_id

    def remove_triangle(self, tri_id: int) -> None:
        """Delete a triangle by id."""
        verts = self.triangles.pop(tri_id)
        for edge in self._edges_of(verts):
            owners = self._edge_map[edge]
            owners.discard(tri_id)
            if not owners:
                del self._edge_map[edge]

    @staticmethod
    def _edges_of(verts: tuple[int, int, int]) -> Iterator[Edge]:
        a, b, c = verts
        yield _edge_key(a, b)
        yield _edge_key(b, c)
        yield _edge_key(c, a)

    # -- queries --------------------------------------------------------------

    def __contains__(self, tri_id: int) -> bool:
        return tri_id in self.triangles

    def vertices_of(self, tri_id: int) -> tuple[Point, Point, Point]:
        a, b, c = self.triangles[tri_id]
        return self.points[a], self.points[b], self.points[c]

    def neighbors_of(self, tri_id: int) -> set[int]:
        """Triangles sharing an edge with ``tri_id``."""
        result: set[int] = set()
        for edge in self._edges_of(self.triangles[tri_id]):
            result |= self._edge_map.get(edge, set())
        result.discard(tri_id)
        return result

    def in_circumcircle(self, tri_id: int, p: Point) -> bool:
        """True when ``p`` is strictly inside ``tri_id``'s circumcircle."""
        a, b, c = self.vertices_of(tri_id)
        return incircle(a, b, c, p) > 0.0

    def is_valid_triangulation(self) -> bool:
        """Structural check: every interior edge is shared by <= 2 triangles
        and every triangle is CCW and non-degenerate.
        """
        for owners in self._edge_map.values():
            if len(owners) > 2:
                return False
        for verts in self.triangles.values():
            a, b, c = (self.points[v] for v in verts)
            if orient2d(a, b, c) <= 0.0:
                return False
        return True

    def is_delaunay(self, tolerance: float = 1e-9) -> bool:
        """Empty-circumcircle property over all triangle/vertex pairs.

        Quadratic — intended for test-sized meshes only.
        """
        vertex_ids = {v for verts in self.triangles.values() for v in verts}
        for tri_id, verts in self.triangles.items():
            a, b, c = (self.points[v] for v in verts)
            for v in vertex_ids:
                if v in verts:
                    continue
                if incircle(a, b, c, self.points[v]) > tolerance:
                    return False
        return True


def triangulate(points: Iterable[Point]) -> Mesh:
    """Bowyer-Watson Delaunay triangulation of ``points``.

    A super-triangle enclosing all input points anchors the incremental
    insertion; its vertices and incident triangles are removed at the end, so
    the result triangulates the convex hull interior of the input.
    """
    pts = list(points)
    if len(pts) < 3:
        raise InputError(f"triangulation needs >= 3 points, got {len(pts)}")

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    cx = (max(xs) + min(xs)) / 2.0
    cy = (max(ys) + min(ys)) / 2.0

    mesh = Mesh(pts)
    s0 = mesh.add_point((cx - 40.0 * span, cy - 40.0 * span))
    s1 = mesh.add_point((cx + 40.0 * span, cy - 40.0 * span))
    s2 = mesh.add_point((cx, cy + 40.0 * span))
    super_ids = {s0, s1, s2}
    mesh.add_triangle(s0, s1, s2)

    for point_id in range(len(pts)):
        if _insert_point(mesh, point_id) is None:
            raise InputError(
                f"point {point_id} produced a degenerate cavity; "
                "jitter the input points"
            )

    doomed = [
        tri_id
        for tri_id, verts in mesh.triangles.items()
        if super_ids & set(verts)
    ]
    for tri_id in doomed:
        mesh.remove_triangle(tri_id)
    return mesh


_DEGENERACY_EPS = 1e-13


def _insert_point(
    mesh: Mesh, point_id: int, cavity: list[int] | None = None
) -> list[int] | None:
    """Insert one existing mesh point into the triangulation.

    Returns the ids of the triangles created, ``[]`` when the point fell
    outside every circumcircle, or None when insertion would create a
    degenerate triangle (the cavity is left untouched in that case — callers
    performing refinement simply skip such circumcenters).

    ``cavity``, when given, is the precomputed list of triangles whose
    circumcircle contains the point (refinement already walked it); omitting
    it falls back to a full scan, which initial triangulation uses since it
    has no locality hint.
    """
    p = mesh.points[point_id]
    if cavity is not None:
        bad = [tri_id for tri_id in cavity if tri_id in mesh.triangles]
    else:
        bad = [
            tri_id for tri_id in mesh.triangles
            if mesh.in_circumcircle(tri_id, p)
        ]
    if not bad:
        # Point outside all circumcircles (e.g. on the hull after the super
        # triangle is gone); nothing to do.
        return []

    # Cavity boundary: edges owned by exactly one bad triangle.
    edge_count: dict[Edge, int] = {}
    edge_dir: dict[Edge, tuple[int, int]] = {}
    for tri_id in bad:
        a, b, c = mesh.triangles[tri_id]
        for u, v in ((a, b), (b, c), (c, a)):
            key = _edge_key(u, v)
            edge_count[key] = edge_count.get(key, 0) + 1
            edge_dir[key] = (u, v)
    boundary = [edge_dir[key] for key, count in edge_count.items() if count == 1]

    # Validate before mutating: each boundary edge (u, v) is stored in the
    # winding of its CCW owner triangle, so a point interior to the cavity
    # must see every edge with positive orientation.  Anything else (the
    # point is outside the cavity, or collinear with an edge) would create a
    # flipped or degenerate triangle — refuse and leave the mesh intact.
    for u, v in boundary:
        if orient2d(mesh.points[u], mesh.points[v], p) < _DEGENERACY_EPS:
            return None

    for tri_id in bad:
        mesh.remove_triangle(tri_id)
    created = []
    for u, v in boundary:
        created.append(mesh.add_triangle(u, v, point_id))
    return created
