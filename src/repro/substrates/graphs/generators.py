"""Synthetic graph generators.

The paper evaluates BFS/SSSP on the DIMACS USA road network, which we cannot
download in this environment.  :func:`road_network` synthesizes a graph with
the two properties that drive the paper's results on that input — very low
average degree (2-4) and very large diameter — so the level-by-level
behaviour of BFS and the relaxation profile of Bellman-Ford match the real
input's shape.  The other generators cover the scale-free and uniform-random
regimes used in ablations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InputError
from repro.substrates.graphs.csr import CSRGraph


def road_network(
    width: int,
    height: int,
    seed: int = 0,
    shortcut_fraction: float = 0.02,
    drop_fraction: float = 0.05,
    max_weight: int = 100,
) -> CSRGraph:
    """A road-network-like graph: a jittered lattice with sparse shortcuts.

    Vertices form a ``width x height`` lattice with 4-neighbour streets; a
    small fraction of random shortcut edges model highways and a small
    fraction of street edges are removed to break the regularity.  The result
    has average degree ~3.5 and diameter O(width + height), matching the
    qualitative structure of the DIMACS road inputs.
    """
    if width < 2 or height < 2:
        raise InputError("road_network needs width >= 2 and height >= 2")
    rng = np.random.default_rng(seed)
    n = width * height

    def vid(x: int, y: int) -> int:
        return y * width + x

    edges: list[tuple[int, int, float]] = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                edges.append((vid(x, y), vid(x + 1, y),
                              float(rng.integers(1, max_weight + 1))))
            if y + 1 < height:
                edges.append((vid(x, y), vid(x, y + 1),
                              float(rng.integers(1, max_weight + 1))))

    # Drop a few street segments, but never disconnect the lattice spine
    # (keep every edge on row 0 and column 0).
    kept: list[tuple[int, int, float]] = []
    for src, dst, weight in edges:
        on_spine = (src % width == 0 and dst % width == 0) or (
            src < width and dst < width
        )
        if not on_spine and rng.random() < drop_fraction:
            continue
        kept.append((src, dst, weight))

    num_shortcuts = int(shortcut_fraction * len(kept))
    for _ in range(num_shortcuts):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            kept.append((int(a), int(b),
                         float(rng.integers(max_weight, 4 * max_weight))))

    return CSRGraph(n, kept, directed=False)


def grid_graph(width: int, height: int) -> CSRGraph:
    """A plain unweighted 2-D lattice (used by unit tests as a known shape)."""
    if width < 1 or height < 1:
        raise InputError("grid_graph needs positive dimensions")
    edges = []
    for y in range(height):
        for x in range(width):
            v = y * width + x
            if x + 1 < width:
                edges.append((v, v + 1))
            if y + 1 < height:
                edges.append((v, v + width))
    return CSRGraph(width * height, edges, directed=False)


def random_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    max_weight: int = 100,
    connected: bool = True,
) -> CSRGraph:
    """Uniform random multigraph-free graph with optional connectivity spine."""
    if num_vertices < 1:
        raise InputError("random_graph needs at least one vertex")
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    if connected:
        order = rng.permutation(num_vertices)
        for i in range(1, num_vertices):
            a, b = int(order[i - 1]), int(order[i])
            edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < num_edges and attempts < 20 * num_edges + 100:
        a, b = rng.integers(0, num_vertices, size=2)
        attempts += 1
        if a == b:
            continue
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    weighted = [
        (a, b, float(rng.integers(1, max_weight + 1))) for a, b in sorted(edges)
    ]
    return CSRGraph(num_vertices, weighted, directed=False)


def rmat_graph(
    scale: int,
    edge_factor: int = 8,
    seed: int = 0,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """Recursive-matrix (Graph500-style) scale-free graph, 2**scale vertices.

    Each of the ``edge_factor * 2**scale`` edges descends ``scale`` levels
    of the adjacency matrix, picking a quadrant per level with
    probabilities ``a`` (top-left), ``b`` (top-right: ``dst`` takes the
    half), ``c`` (bottom-left: ``src`` does) and ``1 - a - b - c`` (both).

    Stream contract: per edge, ``scale`` uniforms drawn from
    ``default_rng(seed)``, most significant level first, then one
    ``integers(1, 101)`` weight draw if ``src != dst`` (self-loops are
    dropped).  A uniform ``r`` picks the quadrant counting how many of
    ``a``, ``a + b``, ``a + b + c`` lie strictly below it.  The graph is a
    function of this stream, so every input built from a seed stays the
    same as long as the contract holds.
    """
    if scale < 1:
        raise InputError("rmat_graph needs scale >= 1")
    if not (a >= 0 and b >= 0 and c >= 0):
        raise InputError(
            f"rmat probabilities must be non-negative, got "
            f"a={a}, b={b}, c={c}"
        )
    if a + b + c >= 1.0:
        raise InputError("rmat probabilities must satisfy a + b + c < 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    halves = [n >> level for level in range(1, scale + 1)]
    ab, abc = a + b, a + b + c
    edges: list[tuple[int, int, float]] = []
    for _ in range(edge_factor * n):
        src = dst = 0
        # One call yields the same doubles as ``scale`` scalar draws.
        for r, half in zip(rng.random(scale).tolist(), halves):
            if r > a:
                if r <= ab:
                    dst += half
                elif r <= abc:
                    src += half
                else:
                    src += half
                    dst += half
        if src != dst:
            edges.append((src, dst, float(rng.integers(1, 101))))
    return CSRGraph(n, edges, directed=False)
