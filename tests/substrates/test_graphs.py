"""Tests for CSR graphs, generators, DIMACS I/O and oracle algorithms."""

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputError
from repro.substrates.graphs import (
    CSRGraph,
    bfs_levels,
    dijkstra_distances,
    grid_graph,
    kruskal_mst,
    random_graph,
    rmat_graph,
    road_network,
)
from repro.substrates.graphs.algorithms import (
    INF,
    bellman_ford_distances,
    connected_components,
)
from repro.substrates.graphs.io import read_dimacs, write_dimacs


class TestCSRGraph:
    def test_basic_neighbors(self):
        g = CSRGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == []

    def test_undirected_doubles_edges(self):
        g = CSRGraph(3, [(0, 1)], directed=False)
        assert g.num_edges == 2
        assert list(g.neighbors(1)) == [0]

    def test_weights_parallel_to_neighbors(self):
        g = CSRGraph(3, [(0, 1, 5.0), (0, 2, 7.0)])
        assert list(g.neighbor_weights(0)) == [5.0, 7.0]

    def test_default_weight_is_one(self):
        g = CSRGraph(2, [(0, 1)])
        assert g.neighbor_weights(0)[0] == 1.0

    def test_degree(self):
        g = CSRGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree(0) == 3
        assert g.degree(1) == 0

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InputError):
            CSRGraph(2, [(0, 5)])

    def test_malformed_edge_rejected(self):
        with pytest.raises(InputError):
            CSRGraph(2, [(0,)])

    def test_unique_undirected_edges_sorted_by_weight(self):
        g = CSRGraph(3, [(0, 1, 9.0), (1, 2, 1.0)], directed=False)
        edges = g.unique_undirected_edges()
        assert edges == [(1, 2, 1.0), (0, 1, 9.0)]

    def test_average_degree(self):
        g = CSRGraph(4, [(0, 1), (1, 2)], directed=False)
        assert g.average_degree == pytest.approx(1.0)

    def test_adjacency_bytes_positive(self):
        g = grid_graph(3, 3)
        assert g.adjacency_bytes() > 0

    def test_empty_graph(self):
        g = CSRGraph(0, [])
        assert g.num_vertices == 0
        assert g.average_degree == 0.0


class TestGenerators:
    def test_grid_shape(self):
        g = grid_graph(4, 3)
        assert g.num_vertices == 12
        # Interior degree 4, corners 2.
        assert g.degree(0) == 2

    def test_grid_rejects_empty(self):
        with pytest.raises(InputError):
            grid_graph(0, 3)

    def test_road_network_connected(self):
        g = road_network(12, 9, seed=3)
        labels = connected_components(g)
        assert len(set(labels.tolist())) == 1

    def test_road_network_low_degree(self):
        g = road_network(20, 20, seed=1)
        assert 2.0 < g.average_degree < 5.0

    def test_road_network_high_diameter(self):
        g = road_network(30, 4, seed=2, shortcut_fraction=0.0)
        levels = bfs_levels(g, 0)
        finite = levels[levels < INF]
        # Diameter scales with the lattice span, not log(n).
        assert finite.max() >= 15

    def test_road_network_deterministic(self):
        a = road_network(8, 8, seed=5)
        b = road_network(8, 8, seed=5)
        assert a.num_edges == b.num_edges
        assert np.array_equal(a.indices, b.indices)

    def test_random_graph_connected_spine(self):
        g = random_graph(40, 60, seed=2)
        labels = connected_components(g)
        assert len(set(labels.tolist())) == 1

    def test_random_graph_requires_vertex(self):
        with pytest.raises(InputError):
            random_graph(0, 5)

    def test_rmat_size(self):
        g = rmat_graph(6, edge_factor=4, seed=1)
        assert g.num_vertices == 64
        assert g.num_edges > 0

    def test_rmat_skew(self):
        g = rmat_graph(8, edge_factor=8, seed=1)
        degrees = sorted((g.degree(v) for v in range(g.num_vertices)),
                         reverse=True)
        # Scale-free-ish: the top decile holds a large share of edges.
        top = sum(degrees[: len(degrees) // 10])
        assert top > 0.25 * sum(degrees)

    def test_rmat_invalid_probabilities(self):
        with pytest.raises(InputError):
            rmat_graph(4, a=0.5, b=0.3, c=0.3)

    @pytest.mark.parametrize("a, b, c", [(0.6, -0.1, 0.2), (-0.2, 0.5, 0.5)])
    def test_rmat_negative_probabilities_rejected(self, a, b, c):
        with pytest.raises(InputError, match=f"a={a}, b={b}, c={c}"):
            rmat_graph(6, a=a, b=b, c=c)


# Generator output pinned as sha256 prefixes, computed before rmat_graph
# drew a level's uniforms in one call per edge.  Every input the project
# simulates is a function of these streams: a change here moves cycle
# counts, goldens and cached results.
RMAT_SEEDS = sorted(set(range(30)) | {4 + 1009 * k for k in range(12)})
RMAT_DEFAULT = (0.57, 0.19, 0.19)
RMAT_OTHER = [(0.45, 0.25, 0.15), (0.25, 0.25, 0.25), (0.6, 0.0, 0.3)]
RMAT_DIGESTS = {
    (1, 1): "4950318e3fc32150",
    (2, 1): "c7f200111f403fe9",
    (3, 1): "83b2686279f617e8",
    (4, 1): "1d950ac52730adf2",
    (5, 1): "d1599ae6da8f1c81",
    (6, 1): "b69911d11bb50ab0",
    (7, 1): "b4051a44d1a1a927",
    (8, 1): "11d8b025bed5a790",
    (9, 1): "626996ed21896609",
    (1, 8): "ca89b0cee1383187",
    (2, 8): "c3d2ab11172bee0a",
    (3, 8): "d19318ff86b494dd",
    (4, 8): "a0aaafef36c48424",
    (5, 8): "a2b9bc93fe826688",
    (6, 8): "1a1678a7cd5b37f9",
    (7, 8): "0d65839c613ab679",
    (8, 8): "8865a9625b3ece1a",
    (9, 8): "8043513556fad118",
}
# default_workloads' random_graph and road_workloads' road_network.
WORKLOAD_DIGESTS = {
    (0.25, "random"): "71d7c995fd5428db",
    (0.25, "road"): "a70176006a0b1b8a",
    (0.3, "random"): "37430917616d8688",
    (0.3, "road"): "d2af5d1605b817d5",
    (0.5, "random"): "0478951431d27652",
    (0.5, "road"): "8f72a491a0fff171",
    (1.0, "random"): "75987f10ff42897b",
    (1.0, "road"): "4b73bf7689c5ae2b",
}


@pytest.mark.parametrize("scale, edge_factor", sorted(RMAT_DIGESTS))
def test_rmat_output_is_pinned(scale, edge_factor):
    """Every seed under the default probabilities; the other three under
    every seed at edge factor 1 and the first five at 8 (for time)."""
    cases = [(seed, RMAT_DEFAULT) for seed in RMAT_SEEDS]
    other_seeds = RMAT_SEEDS if edge_factor == 1 else RMAT_SEEDS[:5]
    cases += [(seed, probs) for probs in RMAT_OTHER for seed in other_seeds]
    fold = hashlib.sha256()
    for seed, probs in cases:
        graph = rmat_graph(scale, edge_factor, seed, *probs)
        fold.update(graph.digest().encode())
    assert fold.hexdigest()[:16] == RMAT_DIGESTS[scale, edge_factor]


@pytest.mark.parametrize("scale, kind", sorted(WORKLOAD_DIGESTS))
def test_workload_graphs_are_pinned(scale, kind):
    if kind == "random":
        graph = random_graph(int(600 * scale), int(1800 * scale), seed=5)
    else:
        graph = road_network(int(36 * scale), int(22 * scale), seed=11)
    assert graph.digest()[:16] == WORKLOAD_DIGESTS[scale, kind]


class TestAlgorithms:
    def test_bfs_levels_on_path(self):
        g = CSRGraph(4, [(0, 1), (1, 2), (2, 3)], directed=False)
        levels = bfs_levels(g, 0)
        assert levels.tolist() == [0, 1, 2, 3]

    def test_bfs_unreachable_is_inf(self):
        g = CSRGraph(3, [(0, 1)], directed=False)
        levels = bfs_levels(g, 0)
        assert levels[2] == INF

    def test_dijkstra_on_weighted_path(self):
        g = CSRGraph(3, [(0, 1, 2.0), (1, 2, 3.0)], directed=False)
        dist = dijkstra_distances(g, 0)
        assert dist.tolist() == [0.0, 2.0, 5.0]

    def test_dijkstra_prefers_light_detour(self):
        g = CSRGraph(3, [(0, 2, 10.0), (0, 1, 1.0), (1, 2, 1.0)],
                     directed=False)
        dist = dijkstra_distances(g, 0)
        assert dist[2] == 2.0

    def test_bellman_ford_matches_dijkstra(self):
        g = random_graph(60, 150, seed=9)
        assert np.allclose(bellman_ford_distances(g, 0),
                           dijkstra_distances(g, 0))

    def test_kruskal_on_triangle(self):
        g = CSRGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)],
                     directed=False)
        edges, total = kruskal_mst(g)
        assert total == 3.0
        assert len(edges) == 2

    def test_kruskal_spanning_tree_size(self):
        g = random_graph(50, 120, seed=3)
        edges, _ = kruskal_mst(g)
        assert len(edges) == 49  # connected graph -> n-1 edges

    def test_connected_components_two_islands(self):
        g = CSRGraph(4, [(0, 1), (2, 3)], directed=False)
        labels = connected_components(g)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]


@settings(deadline=None, max_examples=25)
@given(st.integers(10, 50), st.integers(0, 1000))
def test_bfs_levels_monotone_over_edges(n, seed):
    """Property: along any edge levels differ by at most 1 (both finite)."""
    g = random_graph(n, 2 * n, seed=seed)
    levels = bfs_levels(g, 0)
    for src, dst, _w in g.edge_list():
        if levels[src] < INF and levels[dst] < INF:
            assert abs(int(levels[src]) - int(levels[dst])) <= 1


@settings(deadline=None, max_examples=25)
@given(st.integers(10, 40), st.integers(0, 1000))
def test_sssp_triangle_inequality(n, seed):
    g = random_graph(n, 2 * n, seed=seed)
    dist = dijkstra_distances(g, 0)
    for src, dst, w in g.edge_list():
        if np.isfinite(dist[src]):
            assert dist[dst] <= dist[src] + w + 1e-9


class TestDimacs:
    def test_round_trip(self):
        g = random_graph(20, 40, seed=4)
        buffer = io.StringIO()
        write_dimacs(g, buffer)
        buffer.seek(0)
        g2 = read_dimacs(buffer)
        assert g2.num_vertices == g.num_vertices
        assert g2.num_edges == g.num_edges
        assert np.array_equal(g2.indices, g.indices)

    def test_comments_skipped(self):
        text = "c hello\np sp 2 1\na 1 2 7\n"
        g = read_dimacs(io.StringIO(text))
        assert g.num_edges == 1
        assert g.neighbor_weights(0)[0] == 7.0

    def test_missing_problem_line(self):
        with pytest.raises(InputError):
            read_dimacs(io.StringIO("a 1 2 3\n"))

    def test_arc_count_mismatch(self):
        with pytest.raises(InputError):
            read_dimacs(io.StringIO("p sp 2 2\na 1 2 1\n"))

    def test_vertex_out_of_range(self):
        with pytest.raises(InputError):
            read_dimacs(io.StringIO("p sp 2 1\na 1 9 1\n"))

    def test_unknown_record(self):
        with pytest.raises(InputError):
            read_dimacs(io.StringIO("p sp 2 1\nz 1 2 1\n"))

    def test_file_round_trip(self, tmp_path):
        g = grid_graph(3, 3)
        path = tmp_path / "g.gr"
        write_dimacs(g, path)
        g2 = read_dimacs(path)
        assert g2.num_edges == g.num_edges
