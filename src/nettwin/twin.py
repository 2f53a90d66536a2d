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

Every input is laid out by one routine from a list of (graph, routing
table, traffic, capacities) parts, one part after another. ``TwinInput`` and
``prepare_twin_input`` lay out one part. ``batch_inputs`` lays out several
samples' parts as one disjoint-union input, so one forward (and one
backward) covers a whole mini-batch; its output rows are the samples' rows,
one sample after another. ``stack_tables`` lays out several routing tables
of one flow set on one graph the same way, for a forward whose products run
table by table, so that each table's predictions keep the bytes of its
forward alone.
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

    ``t_layers`` counts path updates; the ``t_layers - 1`` link and node
    updates run between them, and the readouts read the paths alone.
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


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays one after another; a lone array itself."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


#: one network state to lay out: its graph, routing table, traffic and link
#: capacities
Part = tuple[Graph, RoutingTable, TrafficParams, np.ndarray]


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
        self._lay_out([(graph, table, traffic, capacities)], stacked=False)

    def _lay_out(self, parts: list[Part], stacked: bool) -> TwinInput:
        """This input, laid out from the parts one after another as
        ``batch_inputs`` and ``stack_tables`` describe. Each distinct
        ``Path`` object of each graph is looked up once, however many tables
        hold it. A lone part shares its graph's arrays."""
        graphs, tables, traffics, capacities = zip(*parts)
        n_flows = [len(t.paths) for t in tables]
        n_nodes = [g.n_nodes for g in graphs]
        n_links = [len(g.links) for g in graphs]
        caps_of = [np.asarray(c, dtype=np.float64) for c in capacities]
        for n, m, traffic, caps in zip(n_flows, n_links, traffics, caps_of):
            if stacked and n != n_flows[0]:
                raise TwinError("stacked tables must route one set of sources")
            if len(traffic) != n:
                raise TwinError(f"traffic for {len(traffic)} flows, table has {n} paths")
            if caps.shape != (m,):
                raise TwinError(f"capacities shape {caps.shape} must match {m} links")
        flow_off = list(accumulate(n_flows, initial=0))
        node_off = list(accumulate(n_nodes, initial=0))
        self.n_flows, self.n_nodes, self.n_links = flow_off[-1], node_off[-1], sum(n_links)
        self.flow_offsets = np.array(flow_off, dtype=np.int64)
        self.node_offsets = np.array(node_off, dtype=np.int64)

        # each distinct path of each graph once, numbered by first use on its
        # graph: its (source, destination) key, its length, and its steps'
        # links and link rows
        span = max(n_nodes)
        numbers = {id(g): (g, {}) for g in graphs}  # per graph, path id -> number
        owned = [numbers[id(g)][1] for g in graphs]
        pick = np.array([n.setdefault(id(p), len(n))
                         for n, t in zip(owned, tables) for p in t.paths])
        keys, lengths, steps, step_links, first = [], [], [], [], {}
        for graph, number in numbers.values():
            first[id(graph)] = len(lengths)
            paths = {id(p): p for n, t in zip(owned, tables) if n is number for p in t.paths}
            links = [link for p in paths.values() for link in p.links]
            keys += [p.source * span + p.destination for p in paths.values()]
            lengths += [len(p.links) for p in paths.values()]
            steps += links
            step_links += [graph.link_index.get(link, -1) for link in links]
        if len(numbers) > 1:  # a graph's paths follow those of the graphs before it
            pick += np.repeat([first[id(g)] for g in graphs], n_flows)
        keys = np.array(keys)[pick]
        lengths = np.array(lengths, dtype=np.int64)

        # the canonical order sorts each part's flows by their keys
        part = np.repeat(np.arange(len(parts)), n_flows)
        if stacked and len(parts) > 1:
            sources = (keys // span).reshape(len(parts), -1)
            if (sources != sources[0]).any():
                raise TwinError("stacked tables must route one set of sources")
        self.order = np.argsort(keys + part * span * span, kind="stable")
        self.inv_order = np.argsort(self.order)

        # every step of every path, flows in canonical order, as flat arrays:
        # the step's row, its column, and its link row and tail node, which
        # each part reads from its own links and nodes
        canon = pick[self.order]
        row_len = lengths[canon]
        row = np.repeat(np.arange(self.n_flows), row_len)
        col = np.arange(len(row)) - np.repeat(np.cumsum(row_len) - row_len, row_len)
        step = np.repeat((np.cumsum(lengths) - lengths)[canon], row_len) + col
        link = np.array(step_links)[step]
        tail = np.array([i for i, _ in steps], dtype=np.int64)[step]
        if (link < 0).any():
            k = int(np.argmax(link < 0))
            flow = self.order[row[k]]
            i, j = steps[step[k]]
            raise TwinError(
                f"flow {flow - flow_off[part[flow]]} uses link ({i},{j}) not in the graph"
            )
        if len(parts) > 1:  # a lone part's offsets are all zero
            link += np.array(list(accumulate(n_links, initial=0)))[part[row]]
            tail += self.node_offsets[part[row]]
        # padding slots read link n_links (a dummy row) and node 0
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

        # each distinct traffic's [tau_on, tau_off] rows once
        feats = {id(t): t for t in traffics}
        feats = {k: np.array([t.tau_on, t.tau_off]).T.copy() for k, t in feats.items()}
        self.tau_feat = _joined([feats[id(t)] for t in traffics])
        self.caps_scaled = _joined(caps_of) / CAPACITY_SCALE
        self.degrees = _joined([g.degrees for g in graphs])
        self.link_tails = _joined([g.link_tails for g in graphs])
        self.link_heads = _joined([g.link_heads for g in graphs])
        if len(parts) > 1:
            shift = np.repeat(self.node_offsets[:-1], n_links)
            self.link_tails += shift
            self.link_heads += shift
        one_graph = stacked or len(parts) == 1
        self.s_norm = graphs[0].s_norm if one_graph else _block_diag([g.s_norm for g in graphs])
        if stacked and len(parts) > 1:
            self.blocks = len(parts)
        return self

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
    sources, one traffic and one capacity vector: laid out as
    ``batch_inputs`` lays out their parts, but keeping the graph's
    ``s_norm`` and marked as ``blocks`` row blocks, so that
    ``TwinModel.predict`` gives each table's rows the bytes of its own
    forward. Tables that share ``Path`` objects (the routing memo's) share
    their lookups. A stack of one table is its lone input. Raises TwinError
    for no table or for tables whose sources differ.
    """
    if not tables:
        raise TwinError("a stack needs at least one table")
    parts = [(graph, t, traffic, capacities) for t in tables]
    return TwinInput.__new__(TwinInput)._lay_out(parts, stacked=True)


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


def batch_inputs(parts: list[Part]) -> TwinInput:
    """One input for several samples' parts: the disjoint union of their
    graphs.

    Flow, link and node indices are offset by the sizes of the samples
    before; every sample's padding slot goes to one shared dummy link after
    the last real one, and shorter samples get zero-mask steps up to the
    batch's longest path. ``s_norm`` is block-diagonal (dense; callers keep
    batches small). Each sample keeps its own canonical order, so its rows
    of the output do not depend on the other samples' flow order. A batch of
    one is that sample's lone input.
    """
    if not parts:
        raise TwinError("a batch needs at least one input")
    return TwinInput.__new__(TwinInput)._lay_out(parts, stacked=False)


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

    It makes ``dims.t_layers`` path updates, with the ``t_layers - 1`` link
    and node updates between them; the readouts read the final paths alone.
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
    for layer in range(dims.t_layers):
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
        # the readouts read the paths alone, so no link or node update
        # follows the last path update: nothing would read it
        if layer == dims.t_layers - 1:
            break
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
