"""Routing trees for multihop IAB deployments and the matrices derived from them.

A deployment is a directed tree rooted at the fiber-backhauled donor (vertex 0).
IAB nodes relay traffic toward user equipments (UEs), which are always leaves.
Every edge (u, v) is identified by its child vertex v; with the id convention
donor=0, IAB nodes 1..K, UEs K+1..K+M, edge v gets the dense index v-1.

From a tree we derive:
  F       |E| x M   binary routing matrix (edge l on the donor->UE m route)
  G       (K+1)x|E| binary scheduling matrix (BS k must give edge v orthogonal time)
  h       per-UE hop counts
  h_tilde per-edge max hop count over the UEs routed through that edge
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

DONOR = 0


class DuplexMode(Enum):
    """Transceiver capability of the IAB nodes (the donor is unaffected)."""

    HALF_DUPLEX = "hd"
    FULL_DUPLEX = "fd"


class TopologyError(ValueError):
    """Base class for routing-tree validation failures."""


class CycleDetected(TopologyError):
    pass


class MultipleParents(TopologyError):
    pass


class UEWithChildren(TopologyError):
    pass


class DisconnectedVertex(TopologyError):
    pass


@dataclass(frozen=True)
class RoutingTree:
    """Validated routing tree. Immutable; safe to share across threads.

    parent maps every non-donor vertex to its unique parent.  vertex_kind maps
    every vertex id to "donor" | "iab" | "ue".  positions (meters, 2-D) are
    optional and only required by the channel layer.
    """

    num_iab: int
    num_ue: int
    parent: dict[int, int]
    vertex_kind: dict[int, str]
    positions: dict[int, tuple[float, float]] | None = None

    # derived, filled in __post_init__
    children: dict[int, tuple[int, ...]] = field(default=None, repr=False)

    def __post_init__(self):
        ch: dict[int, list[int]] = {v: [] for v in self.vertex_kind}
        for v, p in self.parent.items():
            ch[p].append(v)
        object.__setattr__(
            self, "children", {v: tuple(sorted(c)) for v, c in ch.items()}
        )

    @property
    def num_vertices(self) -> int:
        return 1 + self.num_iab + self.num_ue

    @property
    def num_edges(self) -> int:
        return self.num_iab + self.num_ue

    @property
    def bs_ids(self) -> range:
        return range(self.num_iab + 1)

    @property
    def ue_ids(self) -> range:
        return range(self.num_iab + 1, self.num_vertices)

    def edge_index(self, child: int) -> int:
        """Dense 0-based edge index of edge (parent(child), child)."""
        return child - 1

    def route(self, ue: int) -> tuple[int, ...]:
        """Edge indices on the donor -> ue route, in donor-first order."""
        edges = []
        v = ue
        while v != DONOR:
            edges.append(self.edge_index(v))
            v = self.parent[v]
        return tuple(reversed(edges))

    def hops(self, ue: int) -> int:
        return len(self.route(ue))

    def with_positions(self, positions: Mapping[int, tuple[float, float]]) -> "RoutingTree":
        return RoutingTree(
            num_iab=self.num_iab,
            num_ue=self.num_ue,
            parent=self.parent,
            vertex_kind=self.vertex_kind,
            positions={int(v): (float(x), float(y)) for v, (x, y) in positions.items()},
        )


@dataclass(frozen=True)
class NetworkMatrices:
    """Matrix parameterization of a routing tree for one duplex mode.

    C holds the diagonal of the capacity matrix, in packets/second.  routes
    stores each UE's edge-index route (donor-first) for constraint assembly
    and for the queueing simulator.
    """

    F: np.ndarray
    G: np.ndarray
    C: np.ndarray
    h: np.ndarray
    h_tilde: np.ndarray
    routes: tuple[tuple[int, ...], ...]
    mode: DuplexMode

    @property
    def num_edges(self) -> int:
        return self.F.shape[0]

    @property
    def num_ue(self) -> int:
        return self.F.shape[1]


def build_tree(
    parent_map: Mapping[int, int] | Iterable[tuple[int, int]],
    vertex_kinds: Mapping[int, str],
    positions: Mapping[int, tuple[float, float]] | None = None,
) -> RoutingTree:
    """Validate a (child -> parent) map and return the routing tree.

    Raises CycleDetected, MultipleParents, UEWithChildren or DisconnectedVertex
    when the input is not a donor-rooted tree with UE leaves.
    """
    if not isinstance(parent_map, Mapping):
        pairs = list(parent_map)
        parent: dict[int, int] = {}
        for child, par in pairs:
            if child in parent:
                raise MultipleParents(f"vertex {child} has more than one parent")
            parent[int(child)] = int(par)
    else:
        parent = {int(c): int(p) for c, p in parent_map.items()}

    kinds = {int(v): str(k) for v, k in vertex_kinds.items()}
    donors = [v for v, k in kinds.items() if k == "donor"]
    if donors != [DONOR]:
        raise TopologyError(f"expected exactly one donor with id 0, got {donors}")
    if DONOR in parent:
        raise MultipleParents("the donor cannot have a parent")

    num_iab = sum(1 for k in kinds.values() if k == "iab")
    num_ue = sum(1 for k in kinds.values() if k == "ue")
    expected_ids = set(range(1 + num_iab + num_ue))
    if set(kinds) != expected_ids:
        raise TopologyError("vertex ids must be dense: donor 0, IAB 1..K, UE K+1..K+M")
    for v in range(1, 1 + num_iab):
        if kinds[v] != "iab":
            raise TopologyError(f"vertex {v} must be an IAB node under the id convention")

    missing = expected_ids - {DONOR} - set(parent)
    if missing:
        raise DisconnectedVertex(f"vertices without a parent: {sorted(missing)}")

    for v, p in parent.items():
        if p not in kinds:
            raise DisconnectedVertex(f"vertex {v} has unknown parent {p}")
        if kinds[p] == "ue":
            raise UEWithChildren(f"UE {p} cannot have children (child {v})")

    # Walk each vertex to the donor; a revisit within one walk is a cycle.
    reached: set[int] = {DONOR}
    for start in parent:
        path = []
        v = start
        while v not in reached:
            if v in path:
                raise CycleDetected(f"cycle through vertex {v}")
            path.append(v)
            v = parent[v]
        reached.update(path)

    pos = None
    if positions is not None:
        pos = {int(v): (float(x), float(y)) for v, (x, y) in positions.items()}
    return RoutingTree(
        num_iab=num_iab, num_ue=num_ue, parent=parent, vertex_kind=kinds,
        positions=pos,
    )


def line_network(K: int, w: int, spacing_m: float = 200.0) -> RoutingTree:
    """Donor -> IAB1 -> ... -> IABK chain, each BS serving w UE leaves.

    BSs are placed spacing_m apart on the x axis; UE positions are left unset
    (use drop_ues / set them per Monte Carlo iteration).
    """
    if K < 0 or w < 1:
        raise ValueError("need K >= 0 and w >= 1")
    kinds = {DONOR: "donor"}
    parent: dict[int, int] = {}
    for k in range(1, K + 1):
        kinds[k] = "iab"
        parent[k] = k - 1
    ue = K + 1
    for bs in range(K + 1):
        for _ in range(w):
            kinds[ue] = "ue"
            parent[ue] = bs
            ue += 1
    positions = {bs: (spacing_m * bs, 0.0) for bs in range(K + 1)}
    return build_tree(parent, kinds, positions)


def two_child_tree(w: int, spacing_m: float = 200.0) -> RoutingTree:
    """Depth-3 binary backhaul tree: donor and both first-hop IAB nodes each
    feed two child IAB nodes (K=6), every BS serving w UEs.

    BS geometry: children sit spacing_m from their parent along +/-60 degree
    bearings relative to the parent's own bearing from the donor.
    """
    if w < 1:
        raise ValueError("need w >= 1")
    kinds = {DONOR: "donor"}
    parent = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}
    for k in range(1, 7):
        kinds[k] = "iab"
    ue = 7
    for bs in range(7):
        for _ in range(w):
            kinds[ue] = "ue"
            parent[ue] = bs
            ue += 1

    positions: dict[int, tuple[float, float]] = {DONOR: (0.0, 0.0)}
    bearing = {1: np.pi / 3, 2: -np.pi / 3}
    for k in (1, 2):
        positions[k] = (spacing_m * np.cos(bearing[k]), spacing_m * np.sin(bearing[k]))
    for k, off in ((3, np.pi / 3), (4, -np.pi / 3), (5, np.pi / 3), (6, -np.pi / 3)):
        p = parent[k]
        b = bearing[p] + off
        px, py = positions[p]
        positions[k] = (px + spacing_m * np.cos(b), py + spacing_m * np.sin(b))
    return build_tree(parent, kinds, positions)


def routing_matrix(tree: RoutingTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (F, h, h_tilde) for the tree.

    Column m of F marks the edges on the parent chain from UE m to the donor,
    h_m is that chain's length, and h_tilde[l] is the largest h_m among UEs
    routed through edge l.
    """
    E, M = tree.num_edges, tree.num_ue
    F = np.zeros((E, M))
    h = np.zeros(M, dtype=int)
    for m, ue in enumerate(tree.ue_ids):
        r = tree.route(ue)
        F[list(r), m] = 1.0
        h[m] = len(r)
    h_tilde = np.zeros(E, dtype=int)
    for l in range(E):
        users = np.nonzero(F[l])[0]
        h_tilde[l] = h[users].max()
    return F, h, h_tilde


def scheduling_matrix(tree: RoutingTree, mode: DuplexMode) -> np.ndarray:
    """(K+1) x |E| scheduling matrix.

    Row k covers BS k's child edges; a half-duplex IAB node additionally has to
    grant orthogonal time to its own parent (incoming backhaul) edge.  The
    donor row is mode-independent.
    """
    K, E = tree.num_iab, tree.num_edges
    G = np.zeros((K + 1, E))
    for k in tree.bs_ids:
        for child in tree.children.get(k, ()):
            G[k, tree.edge_index(child)] = 1.0
        if k != DONOR and mode is DuplexMode.HALF_DUPLEX:
            G[k, tree.edge_index(k)] = 1.0
    return G


def network_matrices(
    tree: RoutingTree, mode: DuplexMode, capacities: np.ndarray | float
) -> NetworkMatrices:
    """Bundle F, G, h, h_tilde and a capacity diagonal for one duplex mode.

    capacities is either a length-|E| array or a scalar applied to all edges.
    """
    F, h, h_tilde = routing_matrix(tree)
    G = scheduling_matrix(tree, mode)
    c = np.asarray(capacities, dtype=float)
    if c.ndim == 0:
        c = np.full(tree.num_edges, float(c))
    if c.shape != (tree.num_edges,):
        raise ValueError(f"expected {tree.num_edges} edge capacities, got shape {c.shape}")
    if np.any(c <= 0):
        raise ValueError("all edge capacities must be strictly positive")
    routes = tuple(tree.route(ue) for ue in tree.ue_ids)
    return NetworkMatrices(F=F, G=G, C=c, h=h, h_tilde=h_tilde, routes=routes, mode=mode)


def tree_from_json(text: str) -> RoutingTree:
    """Build a routing tree from its JSON form, the file that
    topology.tree_json names for topology.kind "custom":

        {"vertices": [{"id": 0, "kind": "donor", "pos": [0.0, 0.0]},
                      {"id": 1, "kind": "iab", "pos": [200.0, 0.0]},
                      {"id": 2, "kind": "ue"}, ...],
         "parents": {"1": 0, "2": 1, ...}}

    Ids follow build_tree's convention: the donor is 0, the IAB nodes are
    1..num_iab and the UEs take the ids after them.  "kind" is "donor",
    "iab" or "ue"; "pos" is an optional [x, y] position in metres.  The
    sweeps need every BS position (UEs are dropped around their serving BS
    on each drop).  "parents" maps every vertex but the donor, keyed by its
    id as a string, to its parent's id.  build_tree validates the result.
    """
    obj = json.loads(text)
    kinds = {int(v["id"]): v["kind"] for v in obj["vertices"]}
    positions = {
        int(v["id"]): tuple(v["pos"]) for v in obj["vertices"] if "pos" in v
    }
    parent = {int(c): int(p) for c, p in obj["parents"].items()}
    return build_tree(parent, kinds, positions or None)
