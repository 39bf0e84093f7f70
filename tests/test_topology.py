"""Routing-tree construction, validation and matrix extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iabnet.topology import (
    CycleDetected,
    DisconnectedVertex,
    DuplexMode,
    MultipleParents,
    UEWithChildren,
    build_tree,
    line_network,
    network_matrices,
    routing_matrix,
    scheduling_matrix,
    tree_from_json,
    two_child_tree,
)

from conftest import random_tree, tree_to_json

HD, FD = DuplexMode.HALF_DUPLEX, DuplexMode.FULL_DUPLEX


class TestBuildTree:
    def test_line_shape(self):
        tree = line_network(3, 2)
        assert tree.num_iab == 3
        assert tree.num_ue == 8
        assert tree.num_edges == 11
        # one UE per BS at each depth 1..4
        hops = sorted(tree.hops(u) for u in tree.ue_ids)
        assert hops == [1, 1, 2, 2, 3, 3, 4, 4]

    def test_line_has_positions(self):
        tree = line_network(2, 1, spacing_m=150.0)
        assert tree.positions[0] == (0.0, 0.0)
        assert tree.positions[2][0] == pytest.approx(300.0)

    def test_two_child_shape(self):
        tree = two_child_tree(1)
        assert tree.num_iab == 6
        assert tree.num_ue == 7
        assert max(tree.hops(u) for u in tree.ue_ids) == 3

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            build_tree({1: 2, 2: 1, 3: 1}, {0: "donor", 1: "iab", 2: "iab", 3: "ue"})

    def test_multiple_parents_rejected(self):
        with pytest.raises(MultipleParents):
            build_tree([(1, 0), (2, 1), (2, 0)], {0: "donor", 1: "iab", 2: "ue"})

    def test_ue_with_children_rejected(self):
        with pytest.raises(UEWithChildren):
            build_tree({1: 0, 2: 1}, {0: "donor", 1: "ue", 2: "ue"})

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedVertex):
            build_tree({2: 0}, {0: "donor", 1: "iab", 2: "ue"})

    def test_route_donor_first(self):
        tree = line_network(2, 1)
        deepest = max(tree.ue_ids, key=tree.hops)
        route = tree.route(deepest)
        assert route == (0, 1, tree.edge_index(deepest))


class TestMatrices:
    def test_column_sums_are_hops(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = random_tree(rng)
            F, h, h_tilde = routing_matrix(tree)
            assert np.array_equal(F.sum(axis=0), h)

    def test_h_tilde_is_max_hops_through_edge(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            tree = random_tree(rng)
            F, h, h_tilde = routing_matrix(tree)
            for v in range(tree.num_edges):
                users = np.flatnonzero(F[v])
                expected = h[users].max() if users.size else 0
                assert h_tilde[v] == expected

    def test_scheduling_rows(self):
        tree = line_network(2, 1)
        G_hd = scheduling_matrix(tree, HD)
        G_fd = scheduling_matrix(tree, FD)
        # donor row identical across modes: its outgoing edges only
        assert np.array_equal(G_hd[0], G_fd[0])
        # each half-duplex IAB row additionally covers its own backhaul edge
        for b in range(1, tree.num_iab + 1):
            parent_edge = tree.edge_index(b)
            assert G_hd[b, parent_edge] == 1
            assert G_fd[b, parent_edge] == 0
            diff = G_hd[b] - G_fd[b]
            assert diff.sum() == 1

    def test_fd_rows_subset_of_hd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree = random_tree(rng)
            G_hd = scheduling_matrix(tree, HD)
            G_fd = scheduling_matrix(tree, FD)
            assert np.all(G_fd <= G_hd)

    def test_scalar_capacity_broadcast(self):
        tree = line_network(1, 1)
        m = network_matrices(tree, HD, 123.0)
        assert np.all(m.C == 123.0)

    def test_capacity_validation(self):
        tree = line_network(1, 1)
        with pytest.raises(ValueError, match="strictly positive"):
            network_matrices(tree, HD, np.zeros(tree.num_edges))
        with pytest.raises(ValueError, match="strictly positive"):
            network_matrices(tree, HD, 0.0)

    @pytest.mark.parametrize("caps", [np.array([1e3, 2e3]), np.full(4, 1e3), np.ones((3, 1))])
    def test_capacity_vector_of_wrong_shape_rejected(self, caps):
        # line K=1 w=1 has 3 edges
        with pytest.raises(ValueError, match="expected 3 edge capacities"):
            network_matrices(line_network(1, 1), FD, caps)


class TestJsonRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_preserves_structure(self, seed):
        tree = random_tree(np.random.default_rng(seed))
        back = tree_from_json(tree_to_json(tree))
        assert back.parent == tree.parent
        assert back.vertex_kind == tree.vertex_kind
        assert back.num_iab == tree.num_iab
        assert back.num_ue == tree.num_ue

    def test_round_trip_preserves_positions(self):
        tree = line_network(2, 2)
        back = tree_from_json(tree_to_json(tree))
        for v, pos in tree.positions.items():
            assert back.positions[v] == pytest.approx(pos)
