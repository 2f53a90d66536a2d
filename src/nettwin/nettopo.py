"""Network topologies: a wired backbone plus wireless grids.

Wireless adjacency weights follow an inverse-log rule of squared distance,
A_ij = 1 / ln(1 + d_ij^2) for 0 < d_ij <= connectivity radius, so closer
nodes get stronger (higher-capacity) links. Wired graphs carry unit weights.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .fileio import ListOf, check_json, write_json
from .seeding import make_rng

#: connectivity cutoff for wireless links, meters
CONNECTIVITY_RADIUS_M = 45.0
#: lattice spacing of grid topologies, meters
GRID_SPACING_M = 30.0
#: default perturbation disc radius for perturbed grids, meters
PERTURB_RADIUS_M = 10.0


class TopologyError(ValueError):
    """Raised when a graph or topology file violates an invariant."""


@dataclass(frozen=True)
class Graph:
    """Symmetric weighted digraph with optional planar positions.

    adjacency[i, j] > 0 means a directed link i -> j exists; symmetry is
    enforced, so links always come in bidirectional pairs. Wired graphs must
    use unit weights.
    """

    adjacency: np.ndarray
    positions: np.ndarray | None
    wired: bool

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency, dtype=np.float64)
        object.__setattr__(self, "adjacency", a)
        if self.positions is not None:
            p = np.asarray(self.positions, dtype=np.float64)
            object.__setattr__(self, "positions", p)
        _validate_graph(self)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def links(self) -> tuple[tuple[int, int], ...]:
        """Directed links (i, j) with adjacency[i, j] > 0, in row-major order."""
        rows, cols = np.nonzero(self.adjacency)
        return tuple((int(i), int(j)) for i, j in zip(rows, cols))

    @cached_property
    def link_index(self) -> dict[tuple[int, int], int]:
        return {link: r for r, link in enumerate(self.links)}

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(int(j) for j in np.nonzero(self.adjacency[i])[0])
            for i in range(self.n_nodes)
        )

    # the twin's per-graph features: computed once per Graph object and
    # read-only, since every input built on this graph shares them

    @cached_property
    def degrees(self) -> np.ndarray:
        """degree_vector of this graph."""
        return _read_only(degree_vector(self))

    @cached_property
    def s_norm(self) -> np.ndarray:
        """sym_normalized_operator of this graph's adjacency."""
        return _read_only(sym_normalized_operator(self.adjacency))

    @cached_property
    def link_tails(self) -> np.ndarray:
        """Transmitting node of each link, aligned with links."""
        return _read_only(np.array([i for i, _ in self.links], dtype=np.int64))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _validate_graph(graph: Graph) -> None:
    a = graph.adjacency
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise TopologyError(f"adjacency must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise TopologyError("graph needs at least one node")
    if not np.all(np.isfinite(a)):
        raise TopologyError("adjacency contains non-finite weights")
    if np.any(a < 0):
        raise TopologyError("adjacency weights must be non-negative")
    if np.any(np.diag(a) != 0):
        raise TopologyError("adjacency diagonal must be zero (no self-links)")
    if not np.array_equal(a, a.T):
        raise TopologyError("adjacency must be symmetric")
    if graph.wired and not np.all(a[a > 0] == 1.0):
        raise TopologyError("wired graphs must use unit link weights")
    if graph.positions is not None:
        p = graph.positions
        if p.shape != (a.shape[0], 2):
            raise TopologyError(
                f"positions must be ({a.shape[0]}, 2), got {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise TopologyError("positions contain non-finite coordinates")


def degree_vector(graph: Graph) -> np.ndarray:
    """Weighted degrees D_ii = sum_j (A_ij + A_ji) / 2.

    For the symmetric graphs built here this equals the weighted row sum.
    """
    a = graph.adjacency
    return 0.5 * (a.sum(axis=1) + a.sum(axis=0))


def sym_normalized_operator(adjacency: np.ndarray) -> np.ndarray:
    """D^-1/2 (A + I) D^-1/2 with degrees of the self-looped adjacency."""
    a_hat = adjacency + np.eye(adjacency.shape[0])
    deg = 0.5 * (a_hat.sum(axis=1) + a_hat.sum(axis=0))
    inv_sqrt = 1.0 / np.sqrt(deg)
    return inv_sqrt[:, None] * a_hat * inv_sqrt[None, :]


def wireless_adjacency(positions: np.ndarray) -> np.ndarray:
    """Inverse-log-of-squared-distance weights with a hard connectivity cutoff.

    A_ij = 1 / ln(1 + d_ij^2) when 0 < d_ij <= CONNECTIVITY_RADIUS_M, else 0.
    Coincident distinct nodes are rejected (the weight would diverge).
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise TopologyError(f"positions must be (N, 2), got {pos.shape}")
    n = pos.shape[0]
    delta = pos[:, None, :] - pos[None, :, :]
    dist_sq = np.einsum("ijk,ijk->ij", delta, delta)
    off_diag = ~np.eye(n, dtype=bool)
    if np.any(dist_sq[off_diag] == 0.0):
        i, j = divmod(int(np.flatnonzero((dist_sq == 0.0) & off_diag)[0]), n)
        raise TopologyError(f"nodes {i} and {j} are coincident")
    adjacency = np.zeros((n, n), dtype=np.float64)
    in_range = off_diag & (dist_sq <= CONNECTIVITY_RADIUS_M * CONNECTIVITY_RADIUS_M)
    adjacency[in_range] = 1.0 / np.log1p(dist_sq[in_range])
    return adjacency


def build_nsfnet() -> Graph:
    """The bundled 14-node, 21-edge wired backbone (42 directed links)."""
    ref = resources.files("nettwin.data").joinpath("nsfnet.json")
    return _graph_from_payload(json.loads(ref.read_text(encoding="utf-8")), ref.name)


def build_reg_grid(rows: int = 4, cols: int = 4) -> Graph:
    """Regular rows x cols wireless lattice, GRID_SPACING_M apart; node index
    is row * cols + col."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    positions = np.stack([cc.ravel(), rr.ravel()], axis=1) * GRID_SPACING_M
    return Graph(wireless_adjacency(positions), positions, wired=False)


def build_pert_grid(
    rows: int = 4, cols: int = 4, radius: float = PERTURB_RADIUS_M, seed: int = 0
) -> Graph:
    """Regular grid with per-node uniform-disc position perturbations.

    Offsets are drawn by rejection sampling from the bounding square, node by
    node in index order, so a given seed always yields the same layout.
    radius 0 reproduces the regular grid bit for bit.
    """
    if radius < 0:
        raise ValueError(f"perturbation radius must be non-negative, got {radius}")
    base = build_reg_grid(rows, cols)
    rng = make_rng(seed, "pert-grid")
    positions = np.array(base.positions, copy=True)
    for node in range(positions.shape[0]):
        while True:
            offset = rng.uniform(-radius, radius, size=2)
            if offset @ offset <= radius * radius:
                break
        positions[node] += offset
    return Graph(wireless_adjacency(positions), positions, wired=False)


@dataclass(frozen=True)
class FlowSet:
    """Ordered (source, destination) pairs; pairs are unique and s != d."""

    sources: tuple[int, ...]
    destinations: tuple[int, ...]

    def __post_init__(self) -> None:
        src = tuple(map(int, self.sources))
        dst = tuple(map(int, self.destinations))
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "destinations", dst)
        if len(src) != len(dst):
            raise TopologyError("sources and destinations differ in length")
        if len(src) == 0:
            raise TopologyError("flow set must contain at least one flow")
        if min(src) < 0 or min(dst) < 0:
            raise TopologyError("flow endpoints must be non-negative node ids")
        if any(map(operator.eq, src, dst)):
            bad = list(map(operator.eq, src, dst)).index(True)
            raise TopologyError(f"flow {bad} has identical endpoints ({src[bad]})")
        if len(set(zip(src, dst))) != len(src):
            raise TopologyError("duplicate (source, destination) pair in flow set")

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.sources, self.destinations))


def validate_flows(flows: FlowSet, graph: Graph) -> None:
    n = graph.n_nodes
    for i, (s, d) in enumerate(flows.pairs):
        if s >= n or d >= n:
            raise TopologyError(
                f"flow {i} endpoint out of range for {n}-node graph: ({s}, {d})"
            )


def sample_flows(graph: Graph, n_flows: int, seed: int) -> FlowSet:
    """Draw n_flows distinct ordered pairs uniformly without replacement."""
    n = graph.n_nodes
    n_pairs = n * (n - 1)
    if not 1 <= n_flows <= n_pairs:
        raise TopologyError(
            f"cannot draw {n_flows} distinct flows from {n_pairs} ordered pairs"
        )
    rng = make_rng(seed, "flows")
    codes = rng.choice(n_pairs, size=n_flows, replace=False)
    sources, destinations = [], []
    for code in codes:
        s, rem = divmod(int(code), n - 1)
        d = rem if rem < s else rem + 1
        sources.append(s)
        destinations.append(d)
    return FlowSet(tuple(sources), tuple(destinations))


#: a topology file; its edges are undirected, [i, j, weight] with i < j
TOPOLOGY = {
    "name?": str,
    "nodes": int,
    "positions": (ListOf([float, float], "nodes"), None),
    "wired": bool,
    "edges": ListOf([int, int, float]),
}


def _graph_from_payload(payload, where: str) -> Graph:
    check_json(TOPOLOGY, payload, where, {})
    n = payload["nodes"]
    if n < 1:
        raise TopologyError(f"{where}: node count must be positive, got {n}")
    try:
        adjacency = np.zeros((n, n), dtype=np.float64)
    except (ValueError, MemoryError):  # numpy refuses the size before allocating
        raise TopologyError(f"{where}: node count {n} is too large") from None
    seen: set[tuple[int, int]] = set()
    for i, j, w in payload["edges"]:
        if i == j:
            raise TopologyError(f"{where}: self-edge on node {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise TopologyError(f"{where}: edge ({i}, {j}) out of range for {n} nodes")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise TopologyError(f"{where}: duplicate edge between {key[0]} and {key[1]}")
        seen.add(key)
        if w <= 0:
            raise TopologyError(f"{where}: edge ({i}, {j}) has non-positive weight {w}")
        adjacency[i, j] = w
        adjacency[j, i] = w
    return Graph(adjacency, payload["positions"], payload["wired"])


def load_topology(path: str | Path) -> Graph:
    """Read a topology JSON file, validating every graph invariant."""
    with open(path, encoding="utf-8") as fh:
        return _graph_from_payload(json.load(fh), str(path))


def topology_payload(graph: Graph) -> dict:
    """The JSON form of graph (undirected edges stored once, i < j)."""
    return {
        "nodes": graph.n_nodes,
        "positions": None
        if graph.positions is None
        else [[float(x), float(y)] for x, y in graph.positions],
        "wired": graph.wired,
        "edges": [
            [i, j, float(graph.adjacency[i, j])] for (i, j) in graph.links if i < j
        ],
    }


def save_topology(graph: Graph, path: str | Path) -> None:
    """Write a topology JSON file."""
    write_json(path, topology_payload(graph))
