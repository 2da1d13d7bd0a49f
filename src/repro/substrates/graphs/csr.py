"""Compressed sparse row graph storage.

The accelerators in the paper stream adjacency data from DRAM through the
QPI link; CSR is the layout both the handcrafted designs it compares to
(FPGP, GraphOps) and the software counterparts use.  Edges are stored once
per direction: build with ``directed=False`` to symmetrize an edge list.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InputError


class CSRGraph:
    """A weighted directed graph in compressed sparse row form.

    Parameters
    ----------
    num_vertices:
        Vertex ids are the integers ``0 .. num_vertices - 1``.
    edges:
        Iterable of ``(src, dst)`` or ``(src, dst, weight)`` tuples.  A
        missing weight defaults to 1.
    directed:
        When False every edge is inserted in both directions.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple],
        directed: bool = True,
    ) -> None:
        if num_vertices < 0:
            raise InputError(f"num_vertices must be >= 0, got {num_vertices}")
        rows: list[int] = []
        cols: list[int] = []
        weights: list[float] = []
        for edge in edges:
            if len(edge) == 2:
                src, dst = edge
                weight = 1.0
            elif len(edge) == 3:
                src, dst, weight = edge
            else:
                raise InputError(f"edge must be (src, dst[, weight]), got {edge!r}")
            if not (0 <= src < num_vertices and 0 <= dst < num_vertices):
                raise InputError(
                    f"edge ({src}, {dst}) out of range for {num_vertices} vertices"
                )
            rows.append(src)
            cols.append(dst)
            weights.append(float(weight))
            if not directed and src != dst:
                rows.append(dst)
                cols.append(src)
                weights.append(float(weight))

        self.num_vertices = num_vertices
        self.num_edges = len(rows)
        order = np.lexsort((np.asarray(cols, dtype=np.int64),
                            np.asarray(rows, dtype=np.int64)))
        row_arr = np.asarray(rows, dtype=np.int64)[order]
        self.indices = np.asarray(cols, dtype=np.int64)[order]
        self.weights = np.asarray(weights, dtype=np.float64)[order]
        self.indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(self.indptr, row_arr + 1, 1)
        np.cumsum(self.indptr, out=self.indptr)

    # -- queries -----------------------------------------------------------

    def degree(self, v: int) -> int:
        """Out-degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Array of the out-neighbours of ``v`` (view into CSR storage)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights parallel to :meth:`neighbors`."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def edge_list(self) -> Iterator[tuple[int, int, float]]:
        """Yield every stored ``(src, dst, weight)`` triple."""
        for v in range(self.num_vertices):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            for k in range(lo, hi):
                yield v, int(self.indices[k]), float(self.weights[k])

    def unique_undirected_edges(self) -> list[tuple[int, int, float]]:
        """Each undirected edge once, as ``(min, max, weight)``, sorted by weight."""
        seen: dict[tuple[int, int], float] = {}
        for src, dst, weight in self.edge_list():
            key = (min(src, dst), max(src, dst))
            if key not in seen:
                seen[key] = weight
        return sorted(
            ((a, b, w) for (a, b), w in seen.items()),
            key=lambda e: (e[2], e[0], e[1]),
        )

    @property
    def average_degree(self) -> float:
        """Mean out-degree; road networks sit around 2-4."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def digest(self) -> str:
        """sha256 over the dtypes, shapes and bytes of the CSR arrays: two
        graphs with one digest are the same input."""
        h = hashlib.sha256()
        for arr in (self.indptr, self.indices, self.weights):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    # -- memory footprint (drives the timing models) ------------------------

    def adjacency_bytes(self, index_bytes: int = 8, weight_bytes: int = 8) -> int:
        """Bytes occupied by the CSR arrays, as streamed over QPI."""
        return (
            self.indptr.size * index_bytes
            + self.indices.size * index_bytes
            + self.weights.size * weight_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
