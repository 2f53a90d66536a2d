"""Graph-learning KPI predictors over network state.

Three model kinds share one interface:

* ``glance``: the full twin. T layers, each running (i) a GRU along every
  path over its links, with the link and transmitting-node embeddings as
  step input, (ii) a link MLP over the link, its transmitter and the summed
  intermediate path states that crossed it, and (iii) a symmetric-normalized
  graph convolution refreshing node embeddings from their outgoing links.
  K parallel MLP readouts map final path embeddings to per-flow KPIs. The
  subnet parameters are shared across the T layers.
* ``routenet``: the same path model with the node pathway off (GRU input is
  the link embedding alone, the link MLP drops the node term, no graph
  convolution). Both kinds run one forward, ``path_forward``.
* ``gnn``: fixed-flow-count baseline. Node features hold the on/off means of
  the flows whose path crosses the node; three graph conv layers, mean pool,
  one dense head per KPI. Deliberately not equivariant to flow reordering.

Path models process flows in a canonical (source, destination) order
internally and restore the caller's order on output, which makes
flow-permutation equivariance exact at the bit level.

``batch_inputs`` joins several samples' inputs into one disjoint-union input,
so one forward (and one backward) covers a whole mini-batch; its output rows
are the samples' rows, one sample after another. ``stack_tables`` lays out
several routing tables of one flow set on one graph the same way, straight
from their paths, for a forward whose products run table by table, so that
each table's predictions keep the bytes of its forward alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from .autodiff import GRU_PARAM_KEYS, ParamSet, Tape, Tensor, glorot_uniform
from .nettopo import Graph
from .routing import RoutingTable
from .seeding import make_rng
from .simulator import TASKS, TrafficParams

#: capacities are divided by this before entering link embeddings
CAPACITY_SCALE = 1e6

MODEL_KINDS = ("glance", "routenet", "gnn")


class TwinError(ValueError):
    """Raised for inconsistent model configuration or inputs."""


@dataclass(frozen=True)
class GlanceDims:
    """Architecture of the path models (glance and routenet).

    ``l_max`` bounds the links of any path a forward accepts; no weight
    depends on it. The readout default keeps the compact configuration's
    total parameter count in the expected 3e4..6e4 band.
    """

    d_node: int = 16
    d_link: int = 16
    d_path: int = 32
    t_layers: int = 3
    l_max: int = 3
    link_hidden: tuple[int, ...] = (64, 32, 16)
    readout_hidden: tuple[int, ...] = (64, 64, 32)

    def __post_init__(self) -> None:
        object.__setattr__(self, "link_hidden", tuple(self.link_hidden))
        object.__setattr__(self, "readout_hidden", tuple(self.readout_hidden))
        if self.d_path < 2:
            raise TwinError("d_path must be >= 2 (holds the on/off means)")
        if self.d_node < 1 or self.d_link < 1:
            raise TwinError("d_node and d_link must be >= 1")
        if self.t_layers < 1 or self.l_max < 1:
            raise TwinError("t_layers and l_max must be >= 1")
        if not self.link_hidden or not self.readout_hidden:
            raise TwinError("hidden size lists must be non-empty")
        if min(self.link_hidden + self.readout_hidden) < 1:
            raise TwinError("hidden sizes must be >= 1")


COMPACT = GlanceDims()
LARGE = GlanceDims(
    d_node=32, d_link=32, d_path=64, readout_hidden=(128, 128, 32)
)


@dataclass(frozen=True)
class GnnDims:
    """Architecture of the fixed-flow-count baseline."""

    n_flows: int
    channels: int = 96
    n_layers: int = 3

    def __post_init__(self) -> None:
        if self.n_flows < 1 or self.channels < 1 or self.n_layers < 1:
            raise TwinError("GnnDims fields must be positive")


class TwinInput:
    """Preprocessed network state shared by all model forwards.

    Index arrays are laid out in the canonical flow order; ``order`` maps
    canonical position -> original flow index and ``inv_order`` restores the
    caller's order. The GNN feature matrix keeps the original flow order on
    purpose (the baseline is order-sensitive by design).

    ``flow_offsets`` and ``node_offsets`` bound each sample's flow and node
    rows: one sample here, several after ``batch_inputs`` or
    ``stack_tables``. ``blocks`` is the number of equal row blocks a forward
    may split its products into: 1, except after ``stack_tables``.
    """

    blocks = 1

    def __init__(
        self,
        graph: Graph,
        table: RoutingTable,
        traffic: TrafficParams,
        capacities: np.ndarray,
    ):
        self._lay_out_tables(graph, [table], traffic, capacities)

    def _lay_out_tables(
        self,
        graph: Graph,
        tables: list[RoutingTable],
        traffic: TrafficParams,
        capacities: np.ndarray,
    ) -> None:
        """One block per table, one table's rows after another. Each
        distinct ``Path`` object is looked up once, however many tables
        hold it; a single table shares the graph's arrays."""
        if not tables:
            raise TwinError("a stack needs at least one table")
        n_flows = len(tables[0].paths)
        if len(traffic) != n_flows:
            raise TwinError(
                f"traffic for {len(traffic)} flows, table has {n_flows} paths"
            )
        caps = np.asarray(capacities, dtype=np.float64)
        if caps.shape != (len(graph.links),):
            raise TwinError(
                f"capacities shape {caps.shape} must match {len(graph.links)} links"
            )
        n_blocks, n_nodes, n_links = len(tables), graph.n_nodes, len(graph.links)
        if any(len(t.paths) != n_flows for t in tables):
            raise TwinError("stacked tables must route one set of sources")
        self.n_flows = n_blocks * n_flows
        self.n_nodes = n_blocks * n_nodes
        self.n_links = n_blocks * n_links

        # each distinct path once, numbered by first use: its (source,
        # destination) key, its length and its steps
        number: dict[int, int] = {}
        picks = [number.setdefault(id(p), len(number)) for t in tables for p in t.paths]
        picks = np.array(picks).reshape(n_blocks, n_flows)
        paths = list({id(p): p for t in tables for p in t.paths}.values())
        keys = np.array([p.source * n_nodes + p.destination for p in paths])[picks]
        if n_blocks > 1 and (keys // n_nodes != keys[0] // n_nodes).any():
            raise TwinError("stacked tables must route one set of sources")
        steps = [link for p in paths for link in p.links]
        lengths = np.array([len(p.links) for p in paths], dtype=np.int64)

        # the canonical order sorts each table's flows by their keys
        order = np.argsort(keys, axis=1, kind="stable")
        self.order = (order + np.arange(0, self.n_flows, n_flows)[:, None]).reshape(-1)
        self.inv_order = np.argsort(self.order)

        # every step of every path, flows in canonical order, as flat arrays:
        # the step's row, its column, and its link row and tail node, which
        # each block reads from its own links and nodes
        canon = picks.reshape(-1)[self.order]
        row_len = lengths[canon]
        step_row = np.repeat(np.arange(self.n_flows), row_len)
        step_col = np.arange(len(step_row)) - np.repeat(np.cumsum(row_len) - row_len, row_len)
        step = np.repeat((np.cumsum(lengths) - lengths)[canon], row_len) + step_col
        link_index = graph.link_index
        step_link = np.array([link_index.get(link, -1) for link in steps])[step]
        step_tail = np.array([i for i, _ in steps], dtype=np.int64)[step]
        if (step_link < 0).any():
            k = int(np.argmax(step_link < 0))
            i, j = steps[step[k]]
            raise TwinError(
                f"flow {self.order[step_row[k]] % n_flows} uses link ({i},{j}) "
                "not in the graph"
            )
        if n_blocks > 1:  # a lone table's offsets are all zero
            block = step_row // n_flows
            step_link += n_links * block
            step_tail += n_nodes * block
        self._lay_out_steps(step_row, step_col, step_link, step_tail)

        def tiled(a: np.ndarray, offset: int = 0) -> np.ndarray:
            # each block's copy of a, plus offset per block before it
            if n_blocks == 1:
                return a
            return np.concatenate([a + k * offset if offset else a for k in range(n_blocks)])

        self.tau_feat = tiled(np.array([traffic.tau_on, traffic.tau_off]).T.copy())
        self.caps_scaled = tiled(caps / CAPACITY_SCALE)
        self.degrees = tiled(graph.degrees)
        self.s_norm = graph.s_norm
        self.link_tails = tiled(graph.link_tails, n_nodes)
        self.link_heads = tiled(graph.link_heads, n_nodes)
        self.flow_offsets = np.arange(0, self.n_flows + 1, n_flows, dtype=np.int64)
        self.node_offsets = np.arange(0, self.n_nodes + 1, n_nodes, dtype=np.int64)
        if n_blocks > 1:
            self.blocks = n_blocks

    def _lay_out_steps(
        self, row: np.ndarray, col: np.ndarray, link: np.ndarray, tail: np.ndarray
    ) -> None:
        """The (flow, step) index arrays from each step's flow row, step
        column, link row and tail node; padding reads link n_links, node 0."""
        self.max_steps = int(col.max()) + 1
        shape = (self.n_flows, self.max_steps)
        self.link_ids = np.full(shape, self.n_links, dtype=np.int64)
        self.tail_ids = np.zeros(shape, dtype=np.int64)
        self.step_mask = np.zeros(shape)
        self.link_ids[row, col] = link
        self.tail_ids[row, col] = tail
        self.step_mask[row, col] = 1.0
        # step-major segment ids over the stacked (S*F, d_path) m states;
        # padded slots carry the id n_links, which segment_sum drops
        self.seg_ids = self.link_ids.T.reshape(-1).copy()

    @property
    def n_samples(self) -> int:
        return len(self.flow_offsets) - 1

    @property
    def gnn_features(self) -> np.ndarray:
        """(nodes, 2F): each node's row holds its own sample's interleaved
        [tau_on, tau_off] where that flow's path crosses the node, at either
        end of one of its links.

        Built from the layout on each read, since only the gnn reads it.
        Needs the same flow count in every sample (the gnn's contract).
        """
        flat = self.tau_feat.reshape(self.n_samples, -1)
        width = flat.shape[1] // 2
        rows, cols = np.nonzero(self.step_mask)
        flows = self.order[rows] % width  # each step's flow in its own sample
        links = self.link_ids[rows, cols]
        crosses = np.zeros((self.n_nodes, width))
        for ends in (self.link_tails, self.link_heads):
            crosses[ends[links], flows] = 1.0
        node_sample = np.repeat(
            np.arange(self.n_samples), np.diff(self.node_offsets)
        )
        return np.repeat(crosses, 2, axis=1) * flat[node_sample]


def prepare_twin_input(
    graph: Graph,
    table: RoutingTable,
    traffic: TrafficParams,
    capacities: np.ndarray,
) -> TwinInput:
    return TwinInput(graph, table, traffic, capacities)


def stack_tables(
    graph: Graph,
    tables: list[RoutingTable],
    traffic: TrafficParams,
    capacities: np.ndarray,
) -> TwinInput:
    """The input of routing tables that share one graph, one set of
    sources, one traffic and one capacity vector, laid out straight from
    their paths: as ``batch_inputs`` lays out their lone inputs, but keeping
    the graph's ``s_norm`` and marked as ``blocks`` row blocks, so that
    ``TwinModel.predict`` gives each table's rows the bytes of its own
    forward. Tables that share ``Path`` objects (the routing memo's) share
    their lookups. A stack of one table is its lone input. Raises TwinError
    for no table or for tables whose sources differ.
    """
    out = TwinInput.__new__(TwinInput)
    out._lay_out_tables(graph, tables, traffic, capacities)
    return out


#: samples per forward when many are scored at once (validation,
#: evaluation, the hill-climb's random starts); bounds the size of a batch's
#: dense block-diagonal node operator
EVAL_CHUNK = 10


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def batch_inputs(inputs: list[TwinInput]) -> TwinInput:
    """One input for several samples: the disjoint union of their graphs.

    Flow, link and node indices are offset by the sizes of the samples
    before; every sample's padding slot goes to one shared dummy link after
    the last real one, and shorter samples get zero-mask steps up to the
    batch's longest path. ``s_norm`` is block-diagonal (dense; callers keep
    batches small). Each sample keeps its own canonical order, so its rows
    of the output do not depend on the other samples' flow order. A batch of
    one is the input itself.
    """
    if not inputs:
        raise TwinError("a batch needs at least one input")
    if len(inputs) == 1:
        return inputs[0]
    out = TwinInput.__new__(TwinInput)
    flow_off = list(accumulate((inp.n_flows for inp in inputs), initial=0))
    link_off = list(accumulate((inp.n_links for inp in inputs), initial=0))
    node_off = list(accumulate((inp.n_nodes for inp in inputs), initial=0))
    out.n_flows, out.n_links, out.n_nodes = flow_off[-1], link_off[-1], node_off[-1]
    out.flow_offsets = np.array(flow_off, dtype=np.int64)
    out.node_offsets = np.array(node_off, dtype=np.int64)

    def cat(name: str, offsets: list[int] | None = None) -> np.ndarray:
        parts = [getattr(inp, name) for inp in inputs]
        if offsets is not None:
            parts = [p + o for p, o in zip(parts, offsets)]
        return np.concatenate(parts)

    out.tau_feat = cat("tau_feat")
    out.caps_scaled = cat("caps_scaled")
    out.degrees = cat("degrees")
    out.link_tails = cat("link_tails", node_off)
    out.link_heads = cat("link_heads", node_off)
    out.order = cat("order", flow_off)
    out.inv_order = cat("inv_order", flow_off)
    out.s_norm = _block_diag([inp.s_norm for inp in inputs])

    steps = [np.nonzero(inp.step_mask) for inp in inputs]
    counts = [len(rows) for rows, _ in steps]

    def joined(parts: list[np.ndarray], offsets: list[int]) -> np.ndarray:
        return np.concatenate(parts) + np.repeat(offsets[:-1], counts)

    out._lay_out_steps(
        joined([rows for rows, _ in steps], flow_off),
        np.concatenate([cols for _, cols in steps]),
        joined([inp.link_ids[s] for inp, s in zip(inputs, steps)], link_off),
        joined([inp.tail_ids[s] for inp, s in zip(inputs, steps)], node_off),
    )
    return out


# -- parameter construction -------------------------------------------------


def _mlp_layout(prefix: str, sizes: list[int], final: str, out: int):
    for i, (a, b) in enumerate(zip(sizes, sizes[1:])):
        yield f"{prefix}/w{i}", (a, b)
        yield f"{prefix}/b{i}", (b,)
    yield f"{prefix}/{final}_w", (sizes[-1], out)
    yield f"{prefix}/{final}_b", (out,)


def param_layout(
    kind: str, tasks: tuple[str, ...], dims: GlanceDims | GnnDims
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of each parameter of a model, in the order of its
    draws. It allocates nothing, so shapes can be checked against dims of
    any size.

    Path models: GRU gates, link MLP, ``egc/w`` (glance only; routenet has
    no node inputs), readouts. The gnn: graph convolutions, then one dense
    head per task.
    """
    if kind == "gnn":
        width = 2 * dims.n_flows
        for i in range(dims.n_layers):
            yield f"gcn/w{i}", (width, dims.channels)
            yield f"gcn/b{i}", (dims.channels,)
            width = dims.channels
        for task in tasks:
            yield f"readout/{task}/w", (dims.channels, dims.n_flows)
            yield f"readout/{task}/b", (dims.n_flows,)
        return
    nodes = kind == "glance"
    d_in = dims.d_link + (dims.d_node if nodes else 0)
    for gate in ("z", "r", "h"):
        yield f"gru/w_{gate}", (d_in, dims.d_path)
        yield f"gru/u_{gate}", (dims.d_path, dims.d_path)
        yield f"gru/b_{gate}", (dims.d_path,)
    yield from _mlp_layout("link", [d_in + dims.d_path, *dims.link_hidden], "proj", dims.d_link)
    if nodes:
        yield "egc/w", (dims.d_node + dims.d_link, dims.d_node)
    for task in tasks:
        yield from _mlp_layout(
            f"readout/{task}", [dims.d_path, *dims.readout_hidden], "out", 1
        )


# -- forward passes ----------------------------------------------------------


def _run_mlp(
    tape: Tape,
    x: Tensor,
    bound: dict[str, Tensor],
    prefix: str,
    n_hidden: int,
    final: str,
) -> Tensor:
    for i in range(n_hidden):
        x = tape.dense(x, bound[f"{prefix}/w{i}"], bound[f"{prefix}/b{i}"], relu=True)
    return tape.dense(
        x, bound[f"{prefix}/{final}_w"], bound[f"{prefix}/{final}_b"], relu=False
    )


def _readouts(
    tape: Tape,
    h_paths: Tensor,
    bound: dict[str, Tensor],
    dims: GlanceDims,
    tasks: tuple[str, ...],
) -> Tensor:
    cols = [
        _run_mlp(tape, h_paths, bound, f"readout/{task}", len(dims.readout_hidden), "out")
        for task in tasks
    ]
    return tape.concat(cols, 1)


def _padded(features: np.ndarray, width: int) -> np.ndarray:
    """features with zero columns appended up to width."""
    zeros = np.zeros((features.shape[0], width - features.shape[1]))
    return np.concatenate([features, zeros], axis=1)


def init_embeddings(
    tape: Tape,
    inp: TwinInput,
    dims: GlanceDims,
    tau: Tensor | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Initial (path, link, node) embeddings: features then zero padding.

    Paths start from [tau_on, tau_off], links from the scaled capacity,
    nodes from the weighted degree. ``tau`` optionally supplies a
    differentiable (F, 2) tensor in the caller's flow order.
    """
    if tau is None:
        h_p = tape.constant(_padded(inp.tau_feat[inp.order], dims.d_path))
    else:
        tau_can = tape.gather(tau, inp.order)
        zeros = np.zeros((inp.n_flows, dims.d_path - 2))
        h_p = tape.concat([tau_can, tape.constant(zeros)], 1)
    h_l = tape.constant(_padded(inp.caps_scaled[:, None], dims.d_link))
    h_n = tape.constant(_padded(inp.degrees[:, None], dims.d_node))
    return h_p, h_l, h_n


def path_forward(
    tape: Tape,
    bound: dict[str, Tensor],
    inp: TwinInput,
    dims: GlanceDims,
    tasks: tuple[str, ...],
    tau: Tensor | None,
    *,
    nodes: bool,
) -> Tensor:
    """Path-model forward; returns (F, len(tasks)) in the caller's flow order.

    ``nodes`` runs the node pathway (glance). Without it (routenet) the GRU
    input is the link embedding alone, the link MLP drops the node term and
    the graph convolution is skipped. Raises TwinError when a path has
    more links than ``dims.l_max``.
    """
    if inp.max_steps > dims.l_max:
        raise TwinError(
            f"a path has {inp.max_steps} links, exceeding l_max={dims.l_max}"
        )
    gru = {key: bound[f"gru/{key}"] for key in GRU_PARAM_KEYS}
    h_p, h_l, h_n = init_embeddings(tape, inp, dims, tau)
    zero_row = tape.constant(np.zeros((1, dims.d_link)))
    if nodes:
        s_norm = tape.constant(inp.s_norm)
        no_bias = tape.constant(np.zeros(dims.d_node))
    for _ in range(dims.t_layers):
        h_l_ext = tape.concat([h_l, zero_row], 0)
        h = h_p
        m_parts = []
        for s in range(inp.max_steps):
            x = tape.gather(h_l_ext, inp.link_ids[:, s])
            if nodes:
                x = tape.concat([x, tape.gather(h_n, inp.tail_ids[:, s])], 1)
            # paths shorter than s keep their state, and segment_sum drops
            # their padded slots
            h = tape.gru_step(x, h, inp.step_mask[:, s : s + 1], gru)
            m_parts.append(h)
        h_p = h
        m_stack = tape.concat(m_parts, 0)
        link_sums = tape.segment_sum(m_stack, inp.seg_ids, inp.n_links)
        if nodes:
            x = tape.concat([h_l, tape.gather(h_n, inp.link_tails), link_sums], 1)
        else:
            x = tape.concat([h_l, link_sums], 1)
        h_l = _run_mlp(tape, x, bound, "link", len(dims.link_hidden), "proj")
        if nodes:
            out_sums = tape.segment_sum(h_l, inp.link_tails, inp.n_nodes)
            h_n = tape.dense(
                s_norm,
                tape.matmul(tape.concat([h_n, out_sums], 1), bound["egc/w"]),
                no_bias,
                relu=True,
            )
    preds = _readouts(tape, h_p, bound, dims, tasks)
    return tape.gather(preds, inp.inv_order)


def gnn_forward(
    tape: Tape,
    bound: dict[str, Tensor],
    inp: TwinInput,
    dims: GnnDims,
    tasks: tuple[str, ...],
) -> Tensor:
    """Fixed-F baseline; rejects inputs whose flow count differs from dims.

    Each sample mean-pools its own nodes; the (B, F) head outputs become
    B*F rows, sample after sample.
    """
    per_sample = np.diff(inp.flow_offsets)
    if np.any(per_sample != dims.n_flows):
        raise TwinError(
            f"gnn built for {dims.n_flows} flows, input has "
            f"{', '.join(str(int(f)) for f in np.unique(per_sample))}"
        )
    x = tape.constant(inp.gnn_features)
    s = tape.constant(inp.s_norm)
    for i in range(dims.n_layers):
        xw = tape.matmul(x, bound[f"gcn/w{i}"])
        x = tape.dense(s, xw, bound[f"gcn/b{i}"], relu=True)
    rows = [np.full((1, n), 1.0 / n) for n in np.diff(inp.node_offsets)]
    # a stacked batch's samples share one graph, and the tape pools each alone
    pool_op = rows[0] if inp.blocks > 1 else _block_diag(rows)
    pool = tape.matmul(tape.constant(pool_op), x)
    cols = [
        tape.reshape(
            tape.dense(
                pool, bound[f"readout/{task}/w"], bound[f"readout/{task}/b"], relu=False
            ),
            (inp.n_flows, 1),
        )
        for task in tasks
    ]
    return tape.concat(cols, 1)


# -- model container ---------------------------------------------------------


@dataclass
class TwinModel:
    """A model kind, its task list, dims, and parameters."""

    kind: str
    tasks: tuple[str, ...]
    params: ParamSet
    dims: GlanceDims | GnnDims

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise TwinError(f"unknown model kind {self.kind!r}")
        self.tasks = tuple(self.tasks)
        bad = [t for t in self.tasks if t not in TASKS]
        if bad or not self.tasks or len(set(self.tasks)) < len(self.tasks):
            raise TwinError(f"invalid task list {self.tasks!r}")

    def forward(
        self,
        tape: Tape,
        bound: dict[str, Tensor],
        inp: TwinInput,
        tau: Tensor | None = None,
    ) -> Tensor:
        if self.kind == "gnn":
            return gnn_forward(tape, bound, inp, self.dims, self.tasks)
        return path_forward(
            tape, bound, inp, self.dims, self.tasks, tau, nodes=self.kind == "glance"
        )

    def predict(self, inp: TwinInput) -> np.ndarray:
        """Inference: constant-bound parameters on a fresh tape that records
        nothing, so each intermediate is freed once the forward is past it.
        A stacked input's products run block by block."""
        tape = Tape(record=False, blocks=inp.blocks)
        bound = {name: tape.constant(arr) for name, arr in self.params.items()}
        return self.forward(tape, bound, inp, None).value

    def readout_names(self) -> list[str]:
        return [n for n in self.params.names() if n.startswith("readout/")]

    def l2_map(self, l2_link: float, l2_readout: float) -> dict[str, float]:
        """Per-parameter L2 coefficients: link subnet and readouts only."""
        out: dict[str, float] = {}
        for name in self.params.names():
            if name.startswith(("link/", "gcn/")):
                if l2_link:
                    out[name] = l2_link
            elif name.startswith("readout/") and l2_readout:
                out[name] = l2_readout
        return out


def make_model(
    kind: str, tasks: tuple[str, ...], seed: int, dims: GlanceDims | GnnDims
) -> TwinModel:
    """A freshly initialized model of the kind: glance and routenet take
    ``GlanceDims``, gnn takes ``GnnDims``. Weights are Glorot draws from the
    kind's own stream, in ``param_layout`` order; biases are zeros."""
    if kind not in MODEL_KINDS:
        raise TwinError(f"unknown model kind {kind!r}")
    tasks = tuple(tasks)
    rng = make_rng(seed, f"{kind}-init")
    params = ParamSet()
    for name, shape in param_layout(kind, tasks, dims):
        params.add(name, glorot_uniform(rng, *shape) if len(shape) == 2 else np.zeros(shape))
    return TwinModel(kind, tasks, params, dims)
