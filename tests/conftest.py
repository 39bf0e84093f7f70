"""Shared helpers: random routing trees, random problem instances, the
test-only line-matrix and tree-serialization oracles, and the
acceptance-summary reporter."""

from __future__ import annotations

import json

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Queue a one-line verdict for the end-of-run summary."""
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from iabnet.analysis import LineNetworkParams
from iabnet.topology import (
    DuplexMode,
    NetworkMatrices,
    RoutingTree,
    build_tree,
    line_network,
    network_matrices,
)


def random_tree(
    rng: np.random.Generator,
    max_depth: int = 5,
    max_ue_per_bs: int = 5,
    max_iab: int = 6,
) -> RoutingTree:
    """Random donor-rooted tree: IAB nodes attach below any BS whose depth
    leaves room for their UEs to stay within max_depth hops; every BS serves
    at least one UE."""
    n_iab = int(rng.integers(0, max_iab + 1))
    depth = {0: 0}
    bs_parents = {}
    for b in range(1, n_iab + 1):
        candidates = [v for v in depth if depth[v] < max_depth - 1]
        p = int(rng.choice(candidates))
        bs_parents[b] = p
        depth[b] = depth[p] + 1

    parent = dict(bs_parents)
    kinds = {0: "donor", **{b: "iab" for b in bs_parents}}
    ue = n_iab + 1
    for b in range(n_iab + 1):
        for _ in range(int(rng.integers(1, max_ue_per_bs + 1))):
            parent[ue] = b
            kinds[ue] = "ue"
            ue += 1
    return build_tree(parent, kinds)


def random_instance(rng: np.random.Generator, mode: DuplexMode, **tree_kwargs):
    """(tree, matrices) with log-uniform capacities in [1e2, 1e4] packets/s."""
    tree = random_tree(rng, **tree_kwargs)
    caps = 10.0 ** rng.uniform(2.0, 4.0, size=tree.num_edges)
    return tree, network_matrices(tree, mode, caps)


def feasible_lambda_upper(matrices, frac: float = 1.0) -> float:
    """Largest uniform rate floor with t* > 0: min over BS rows of
    1 / (G_k C^-1 F 1) restricted to rows with traffic."""
    a = matrices.G @ (matrices.F.sum(axis=1) / matrices.C)
    pos = a[a > 0]
    return frac * (1.0 / pos.max()) if pos.size else np.inf


def line_matrices(params: LineNetworkParams, mode: DuplexMode) -> NetworkMatrices:
    """Matrix form of the line deployment (oracle route to the closed forms
    of iabnet.analysis)."""
    tree = line_network(params.K, params.w)
    caps = np.where(np.arange(tree.num_edges) < params.K, params.R_b, params.R_a)
    return network_matrices(tree, mode, caps)


def tree_to_json(tree: RoutingTree) -> str:
    """Serialize to the schema iabnet.topology.tree_from_json reads."""
    vertices = []
    for v in sorted(tree.vertex_kind):
        entry: dict = {"id": v, "kind": tree.vertex_kind[v]}
        if tree.positions and v in tree.positions:
            entry["pos"] = list(tree.positions[v])
        vertices.append(entry)
    parents = {str(v): p for v, p in sorted(tree.parent.items())}
    return json.dumps({"vertices": vertices, "parents": parents})
