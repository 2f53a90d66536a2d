"""Independent oracles for the test suite.

Everything here is written from scratch, so the checks never reuse the code
they are checking: central finite differences for gradients, a from-scratch
minimal-hop path enumerator working directly on the adjacency matrix, the
seeded tie-break walk without the routing memo (taking its RNG streams from
the package), a random connected graph builder, the tape's fused nodes
composed from elementwise primitives, a plain event loop for the
simulator (which takes only its inputs from the package: seeded RNG
streams, link capacities and the KPI record type), the management
objective's layout column by column, the two management solvers in their
plainest form, where every state is scored alone on its
own tape (taking the twin, routing and seeding from the package), the
twin-input builder as per-cell loops that recompute every per-graph feature,
the gnn's node features cell by cell, the flat batch as lone inputs joined
field by field, the stacked input as that join with the one graph's node
operator, the path forward with a link and node update closing every
layer (the last one too), the logistic function with two divisions,
Adam run array by array, the JSON schema check as a walk that checks
every value by a call of its own, the seed mix with its entropy as a list
of Python ints, and the NMAE report rows sample by sample, with the
repeat-average estimate taken per sample. The paired bootstrap behind
acceptance check 5 lives here too, as only the tests call it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import warnings
from collections import deque

import numpy as np

from nettwin.autodiff import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GRU_PARAM_KEYS,
    AutodiffError,
    DivergenceError,
    Tape,
    Tensor,
)
from nettwin.fileio import ListOf, MapOf, OneOf, SchemaError
from nettwin.manage import ManageError, TargetProfile, twin_objective
from nettwin.nettopo import FlowSet, degree_vector, sym_normalized_operator
from nettwin.routing import shortest_paths
from nettwin.seeding import derive_seed, make_rng
from nettwin.simulator import TASKS, KpiRecord, default_sim_config, link_capacities
from nettwin.twin import (
    CAPACITY_SCALE,
    GlanceDims,
    TwinError,
    TwinInput,
    TwinModel,
    _readouts,
    _run_mlp,
    init_embeddings,
    prepare_twin_input,
)

FD_STEP = 1e-6


def fd_gradient(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, perturbing in place.

    x is mutated entry by entry and restored bit-exactly, so f may close
    over the same buffer instead of receiving copies.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_err(got: np.ndarray, want: np.ndarray, floor: float = 1e-3) -> float:
    """max |got - want| / max(|got|, |want|, floor).

    The floor turns the comparison absolute for near-zero entries, keeping
    finite-difference roundoff (~1e-10 at step 1e-6) from dominating.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    return float((np.abs(got - want) / denom).max())


class ComposedTape(Tape):
    """Tape with the elementwise nodes that the fused nodes replaced, so
    each fused node can be written out as the primitives it fuses."""

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        """Elementwise add; also accepts a trailing-axis bias (m, n) + (n,)."""
        av, bv = a.value, b.value
        bias = av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]
        if not bias and av.shape != bv.shape:
            raise AutodiffError(f"add shape mismatch: {av.shape} vs {bv.shape}")
        need_a, need_b = a.needs_grad, b.needs_grad

        def pullback(g):
            ga = g if need_a else None
            if not need_b:
                return ga, None
            return ga, g.sum(axis=0) if bias else g

        return self._record(av + bv, (a, b), pullback, need_a or need_b)

    def sub(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise AutodiffError(f"sub shape mismatch: {av.shape} vs {bv.shape}")
        need_a, need_b = a.needs_grad, b.needs_grad

        def pullback(g):
            return (g if need_a else None, -g if need_b else None)

        return self._record(av - bv, (a, b), pullback, need_a or need_b)

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.shape != bv.shape:
            raise AutodiffError(f"mul shape mismatch: {av.shape} vs {bv.shape}")
        need_a, need_b = a.needs_grad, b.needs_grad

        def pullback(g):
            ga = g * bv if need_a else None
            gb = g * av if need_b else None
            return ga, gb

        return self._record(av * bv, (a, b), pullback, need_a or need_b)

    def absolute(self, a: Tensor) -> Tensor:
        sign = np.sign(a.value)  # subgradient 0 at the kink

        def pullback(g):
            return (g * sign,)

        return self._record(np.abs(a.value), (a,), pullback, a.needs_grad)

    def total_sum(self, a: Tensor) -> Tensor:
        in_shape = a.value.shape

        def pullback(g):
            return (np.full(in_shape, float(g)),)

        return self._record(
            np.asarray(a.value.sum()), (a,), pullback, a.needs_grad
        )

    def relu(self, a: Tensor) -> Tensor:
        mask = a.value > 0

        def pullback(g):
            return (g * mask,)

        return self._record(
            np.where(mask, a.value, 0.0), (a,), pullback, a.needs_grad
        )

    def sigmoid(self, a: Tensor) -> Tensor:
        x = a.value
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)

        def pullback(g):
            return (g * out * (1.0 - out),)

        return self._record(out, (a,), pullback, a.needs_grad)

    def tanh(self, a: Tensor) -> Tensor:
        out = np.tanh(a.value)

        def pullback(g):
            return (g * (1.0 - out * out),)

        return self._record(out, (a,), pullback, a.needs_grad)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The logistic function as 1 / (1 + e) where x >= 0 and e / (1 + e)
    elsewhere, with e = exp(-|x|): one division per branch."""
    e = np.exp(-np.abs(x))
    denom = 1.0 + e
    return np.where(x >= 0, 1.0 / denom, e / denom)


def reference_dense(
    tape: ComposedTape, x: Tensor, w: Tensor, b: Tensor, relu: bool
) -> Tensor:
    """Tape.dense as matmul, bias add and relu nodes."""
    out = tape.add(tape.matmul(x, w), b)
    return tape.relu(out) if relu else out


def reference_weighted_l1(
    tape: ComposedTape,
    pred: Tensor,
    target: np.ndarray,
    weight: np.ndarray,
    scale: np.ndarray | None = None,
) -> Tensor:
    """Tape.weighted_l1 as total_sum(|pred * scale - target| * weight)."""
    if scale is not None:
        pred = tape.mul(pred, tape.constant(scale))
    diff = tape.absolute(tape.sub(pred, tape.constant(target)))
    return tape.total_sum(tape.mul(diff, tape.constant(weight)))


def reference_gru_step(
    tape: ComposedTape, x: Tensor, h: Tensor, mask: np.ndarray, params: dict
) -> Tensor:
    """Tape.gru_step as 23 nodes: the GRU cell from primitives, then the
    masked update h + mask * (h' - h) with the mask widened to a constant."""

    z = tape.sigmoid(
        tape.add(
            tape.add(tape.matmul(x, params["w_z"]), tape.matmul(h, params["u_z"])),
            params["b_z"],
        )
    )
    r = tape.sigmoid(
        tape.add(
            tape.add(tape.matmul(x, params["w_r"]), tape.matmul(h, params["u_r"])),
            params["b_r"],
        )
    )
    h_tilde = tape.tanh(
        tape.add(
            tape.add(
                tape.matmul(x, params["w_h"]),
                tape.matmul(tape.mul(r, h), params["u_h"]),
            ),
            params["b_h"],
        )
    )
    h_new = tape.add(h, tape.mul(z, tape.sub(h_tilde, h)))
    wide = tape.constant(np.repeat(mask, h.value.shape[1], axis=1))
    return tape.add(h, tape.mul(wide, tape.sub(h_new, h)))


def hop_distances(adjacency: np.ndarray, source: int) -> list[int]:
    """Plain-list BFS over A > 0; -1 marks unreachable nodes."""
    n = adjacency.shape[0]
    dist = [-1] * n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if adjacency[u][v] > 0 and dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def minimal_node_paths(
    adjacency: np.ndarray, source: int, dest: int
) -> set[tuple[int, ...]]:
    """All minimal-hop node sequences source -> dest, by depth-first walk."""
    dist = hop_distances(adjacency, source)
    if dist[dest] < 0:
        return set()
    n = adjacency.shape[0]
    out: set[tuple[int, ...]] = set()

    def walk(node: int, trail: tuple[int, ...]) -> None:
        if node == dest:
            out.add(trail)
            return
        for v in range(n):
            if adjacency[node][v] > 0 and dist[v] == dist[node] + 1:
                walk(v, trail + (v,))

    walk(source, (source,))
    return out


def reference_shortest_paths(
    adjacency: np.ndarray, pairs, seed: int
) -> list[tuple[tuple[int, int], ...] | None]:
    """Seeded minimal-hop routing with one fresh walk per flow, no memo.

    Walks back from each destination, drawing among equal-hop predecessors
    in node order from the package's stream ``(seed, "routing", flow)``.
    None marks an unreachable destination.
    """
    n = adjacency.shape[0]
    out: list[tuple[tuple[int, int], ...] | None] = []
    for f, (s, d) in enumerate(pairs):
        dist = hop_distances(adjacency, s)
        if dist[d] < 0:
            out.append(None)
            continue
        rng = make_rng(seed, "routing", f)
        nodes = [d]
        while nodes[-1] != s:
            here = nodes[-1]
            preds = [
                u for u in range(n)
                if adjacency[here][u] > 0 and dist[u] == dist[here] - 1
            ]
            nodes.append(preds[int(rng.integers(len(preds)))])
        nodes.reverse()
        out.append(tuple(zip(nodes, nodes[1:])))
    return out


def random_connected_adjacency(rng: np.random.Generator, n_nodes: int) -> np.ndarray:
    """Random spanning tree plus extra edges; unit weights, symmetric."""
    a = np.zeros((n_nodes, n_nodes))
    order = rng.permutation(n_nodes)
    for k in range(1, n_nodes):
        i, j = order[k], order[rng.integers(k)]
        a[i, j] = a[j, i] = 1.0
    extra = rng.integers(0, n_nodes + 1)
    for _ in range(extra):
        i, j = rng.integers(n_nodes, size=2)
        if i != j:
            a[i, j] = a[j, i] = 1.0
    return a


def reference_emission_times(
    rng: np.random.Generator, tau_on: float, tau_off: float, interval: float, t_gen: float
) -> list[float]:
    """On/off CBR emission instants: one formation window per packet."""
    times: list[float] = []
    t = 0.0
    free_at = 0.0
    while t < t_gen:
        phase_end = t + rng.exponential(tau_on)
        start = max(t, free_at)
        while start < phase_end:
            done = start + interval
            if done > t_gen:
                return times
            times.append(done)
            free_at = done
            start = done
        t = phase_end + rng.exponential(tau_off)
    return times


def reference_run_sim(
    graph, table, traffic, config, seed
) -> tuple[KpiRecord, int, int]:
    """The simulator's event loop written plainly; returns (record, ties, blocks).

    Every emission is pushed up front, a wireless link may start only when
    a scan finds its tail and every neighbor silent, and every TX end wakes
    all pending links in link-index order. Events are (time, seq) ordered
    with seq the push count. ties counts the pops after which another
    queued event has the same time, and blocks the wake-up scans in which a
    grant stops a later pending link that was free when the scan began, so
    callers can show that tie-breaking and the grant order were exercised.
    """
    caps = link_capacities(graph, config)
    pkt_bits = config.packet_bytes * 8
    interval = pkt_bits / config.cbr_rate
    wireless = config.wireless_contention and not graph.wired
    n = graph.n_nodes
    near = [[v for v in range(n) if graph.adjacency[u][v] > 0] for u in range(n)]
    paths = [[graph.link_index[link] for link in p.links] for p in table.paths]
    tails = {r: graph.links[r][0] for path in paths for r in path}
    queues = {r: deque() for r in tails}
    sending = {r: None for r in tails}
    node_busy = [False] * n
    pending: set[int] = set()
    n_flows = len(paths)

    heap = []
    seq = 0
    generated = []
    for f in range(n_flows):
        times = reference_emission_times(
            make_rng(seed, "flow", f),
            traffic.tau_on[f], traffic.tau_off[f], interval, config.t_gen,
        )
        generated.append(len(times))
        for t in times:
            heap.append((t, seq, "arrival", [f, t, 0], paths[f][0]))
            seq += 1
    heapq.heapify(heap)

    def can_start(r):
        if sending[r] is not None or not queues[r]:
            return False
        u = tails[r]
        return not wireless or not any(node_busy[v] for v in [u] + near[u])

    def start(r, now):
        nonlocal seq
        pkt = queues[r].popleft()
        sending[r] = pkt
        if wireless:
            node_busy[tails[r]] = True
        heapq.heappush(heap, (now + pkt_bits / caps[r], seq, "tx_end", pkt, r))
        seq += 1

    delays = [[] for _ in range(n_flows)]
    overflow = [0] * n_flows
    ties = blocks = 0
    while heap and heap[0][0] <= config.t_gen:
        now, _, kind, pkt, r = heapq.heappop(heap)
        ties += bool(heap) and heap[0][0] == now
        flow = pkt[0]
        if kind == "arrival":
            if len(queues[r]) >= config.queue_buffer_pkts:
                overflow[flow] += 1
            else:
                queues[r].append(pkt)
                if can_start(r):
                    start(r, now)
                elif sending[r] is None:
                    pending.add(r)
            continue
        sending[r] = None
        node_busy[tails[r]] = False
        pkt[2] += 1
        if pkt[2] == len(paths[flow]):
            delays[flow].append(now - pkt[1])
        else:
            heapq.heappush(heap, (now, seq, "arrival", pkt, paths[flow][pkt[2]]))
            seq += 1
        if queues[r]:
            pending.add(r)
        was_busy = list(node_busy)
        blocked = False
        for q in sorted(pending):
            if can_start(q):
                pending.discard(q)
                start(q, now)
            else:
                u = tails[q]
                blocked = blocked or not any(was_busy[v] for v in [u] + near[u])
        blocks += blocked

    in_flight = [0] * n_flows
    for r in tails:
        for pkt in list(queues[r]) + [sending[r]] * (sending[r] is not None):
            in_flight[pkt[0]] += 1
    kpis = np.empty((n_flows, 4))
    counts = np.empty((n_flows, 4), dtype=np.int64)
    for f in range(n_flows):
        d = delays[f]
        if not d:
            delay_ms = jitter_ms = math.nan
        else:
            delay_ms = 1000.0 * sum(d) / len(d)
            jitter_ms = 0.0 if len(d) == 1 else (
                1000.0 * sum(abs(b - a) for a, b in zip(d, d[1:])) / (len(d) - 1)
            )
        throughput = len(d) * pkt_bits / config.t_gen / 1000.0
        kpis[f] = (delay_ms, jitter_ms, throughput, overflow[f] + in_flight[f])
        counts[f] = (generated[f], len(d), overflow[f], in_flight[f])
    return KpiRecord(kpis, counts), ties, blocks


# -- the management objective, one column at a time ---------------------------


def reference_objective_arrays(
    profile: TargetProfile, model: TwinModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Targets (gaps zeroed), weights, and 1/iqr columns in model-task order.

    sum(|pred * inv_iqr - targets| * weights) is then the mean normalized
    absolute error over all finite masked cells.
    """
    masked_tasks = [t for i, t in enumerate(TASKS) if profile.task_mask[i]]
    missing = [t for t in masked_tasks if t not in model.tasks]
    if missing:
        raise ManageError(
            f"objective needs tasks {missing} the model does not predict"
        )
    n_f = profile.n_flows
    n_cols = len(model.tasks)
    targets = np.zeros((n_f, n_cols))
    weights = np.zeros((n_f, n_cols))
    inv_iqr = np.zeros((n_f, n_cols))
    cells = []
    for col, t in enumerate(model.tasks):
        k = TASKS.index(t)
        inv_iqr[:, col] = 1.0 / profile.iqr[k]
        if not profile.task_mask[k]:
            continue
        finite = np.isfinite(profile.k_targ[:, k])
        targets[finite, col] = profile.k_targ[finite, k]
        cells.append((col, finite))
    n_valid = int(sum(f.sum() for _, f in cells))
    if n_valid == 0:
        raise ManageError("no finite target cell for the model's tasks")
    for col, finite in cells:
        weights[finite, col] = 1.0 / n_valid
    return targets, weights, inv_iqr


# -- management solvers, one state per tape -----------------------------------


def reference_hillclimb(
    model: TwinModel, graph, sources, traffic, profile: TargetProfile,
    n_init: int, n_rand: int, rng_seed: int,
) -> tuple[tuple[int, ...], list[float], int, int]:
    """Destination hill-climb scoring every candidate with its own forward.

    Returns (destinations, trajectory, best restart, vectors routed), with
    the package solver's RNG draws in the package solver's order.
    """
    n = graph.n_nodes
    caps = link_capacities(graph, default_sim_config(graph.wired))
    tie_seed = derive_seed(rng_seed, "ties")
    cache: dict[tuple[int, ...], float] = {}

    def j_of(dests):
        if dests not in cache:
            table = shortest_paths(graph, FlowSet(sources, dests), tie_seed)
            inp = prepare_twin_input(graph, table, traffic, caps)
            cache[dests] = twin_objective(model, inp, profile)
        return cache[dests]

    def draw_start(rng):
        while True:
            dests = []
            for s in sources:
                d = int(rng.integers(n - 1))
                dests.append(d if d < s else d + 1)
            if len(set(zip(sources, dests))) == len(sources):
                return tuple(dests)

    best = None
    for restart in range(n_rand):
        rng = make_rng(rng_seed, "restart", restart)
        starts = [draw_start(rng) for _ in range(n_init)]
        start_js = [j_of(v) for v in starts]
        k = min(range(n_init), key=lambda i: (start_js[i], i))
        current, j_cur = starts[k], start_js[k]
        trajectory = [j_cur]
        improved = True
        while improved:
            improved = False
            for f in rng.permutation(len(sources)):
                f = int(f)
                candidates = [x for x in range(n) if x not in (sources[f], current[f])]
                for pick in rng.permutation(len(candidates)):
                    x = candidates[int(pick)]
                    if (sources[f], x) in set(zip(sources, current)):
                        continue
                    trial = current[:f] + (x,) + current[f + 1:]
                    if j_of(trial) < j_cur:
                        current, j_cur = trial, j_of(trial)
                        trajectory.append(j_cur)
                        improved = True
        if best is None or j_cur < best[1][-1]:
            best = (current, trajectory, restart)
    return (*best, len(cache))


def reference_gd_traffic(
    model: TwinModel, inp, profile: TargetProfile, tau0: np.ndarray,
    alpha0: float, max_iters: int, bounds: tuple[float, float], rel_tol: float,
) -> tuple[np.ndarray, list[float]]:
    """Projected gradient descent with a fresh forward for every J and a
    second forward+backward at each accepted point for its gradient."""

    def loss_at(tau, leaf):
        tape = ComposedTape()
        bound = {n: tape.constant(a) for n, a in model.params.items()}
        tau_t = tape.leaf(tau) if leaf else tape.constant(tau)
        preds = model.forward(tape, bound, inp, tau_t)
        k = np.zeros((profile.n_flows, len(model.tasks)))
        w = np.zeros_like(k)
        scale = np.zeros_like(k)
        n_valid = 0
        for col, task in enumerate(model.tasks):
            t = TASKS.index(task)
            scale[:, col] = 1.0 / profile.iqr[t]
            if profile.task_mask[t]:
                ok = np.isfinite(profile.k_targ[:, t])
                k[ok, col] = profile.k_targ[ok, t]
                w[ok, col] = 1.0
                n_valid += int(ok.sum())
        return tape, tau_t, reference_weighted_l1(tape, preds, k, w / n_valid, scale)

    def j_at(tau):
        return float(loss_at(tau, leaf=False)[2].value)

    def grad_at(tau):
        tape, leaf, j = loss_at(tau, leaf=True)
        return tape.backward(j)[leaf]

    lo, hi = bounds
    tau = np.array(tau0, dtype=np.float64)
    alpha = alpha0
    j_cur = j_at(tau)
    trajectory = [j_cur]
    grad = grad_at(tau)
    for _ in range(max_iters):
        for _ in range(21):
            candidate = np.clip(tau - alpha * grad, lo, hi)
            j_new = j_at(candidate)
            if j_new < j_cur:
                break
            alpha *= 0.5
        else:
            break
        improvement = (j_cur - j_new) / max(j_cur, 1e-300)
        tau, j_cur = candidate, j_new
        trajectory.append(j_cur)
        if improvement < rel_tol:
            break
        grad = grad_at(tau)
    return tau, trajectory


# -- twin input, one cell at a time -------------------------------------------


def reference_twin_input(graph, table, traffic, capacities) -> TwinInput:
    """``TwinInput(graph, table, traffic, capacities)`` written cell by cell,
    with the degrees, the normalized operator and the link tails computed
    afresh for this input alone."""
    inp = TwinInput.__new__(TwinInput)
    n_flows = len(table.paths)
    if len(traffic) != n_flows:
        raise TwinError(
            f"traffic for {len(traffic)} flows, table has {n_flows} paths"
        )
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.shape != (len(graph.links),):
        raise TwinError(
            f"capacities shape {caps.shape} must match {len(graph.links)} links"
        )
    inp.n_flows = n_flows
    inp.n_nodes = graph.n_nodes
    inp.n_links = len(graph.links)
    inp.tau_feat = np.stack([traffic.tau_on, traffic.tau_off], axis=1)
    inp.caps_scaled = caps / CAPACITY_SCALE
    inp.degrees = degree_vector(graph)
    inp.s_norm = sym_normalized_operator(graph.adjacency)
    inp.link_tails = np.array([i for i, _ in graph.links], dtype=np.int64)
    inp.link_heads = np.array([j for _, j in graph.links], dtype=np.int64)

    pairs = [(p.source, p.destination) for p in table.paths]
    order = sorted(range(n_flows), key=lambda f: pairs[f])
    inp.order = np.array(order, dtype=np.int64)
    inp.inv_order = np.argsort(inp.order)

    inp.max_steps = max(len(p.links) for p in table.paths)
    s_count = inp.max_steps
    inp.link_ids = np.full((n_flows, s_count), inp.n_links, dtype=np.int64)
    inp.tail_ids = np.zeros((n_flows, s_count), dtype=np.int64)
    inp.step_mask = np.zeros((n_flows, s_count))
    for c, f in enumerate(order):
        for s, (i, j) in enumerate(table.paths[f].links):
            r = graph.link_index.get((i, j))
            if r is None:
                raise TwinError(f"flow {f} uses link ({i},{j}) not in the graph")
            inp.link_ids[c, s] = r
            inp.tail_ids[c, s] = i
            inp.step_mask[c, s] = 1.0
    inp.seg_ids = inp.link_ids.T.reshape(-1).copy()
    inp.flow_offsets = np.array([0, n_flows], dtype=np.int64)
    inp.node_offsets = np.array([0, graph.n_nodes], dtype=np.int64)
    return inp


def reference_gnn_features(n_nodes, table, traffic) -> np.ndarray:
    """``TwinInput.gnn_features`` of one table, cell by cell: node n's
    columns 2f and 2f + 1 hold flow f's [tau_on, tau_off] where f's path
    visits n, and zero elsewhere."""
    feats = np.zeros((n_nodes, 2 * len(table.paths)))
    for f, path in enumerate(table.paths):
        for node in (path.source,) + tuple(j for _, j in path.links):
            feats[node, 2 * f] = traffic.tau_on[f]
            feats[node, 2 * f + 1] = traffic.tau_off[f]
    return feats


def join_inputs(inputs: list[TwinInput]) -> TwinInput:
    """The flat batch ``twin.batch_inputs`` must build from the parts of
    these lone inputs: their disjoint union, joined field by field. Flow,
    link and node indices are offset by the inputs before; every padding
    slot reads the one dummy link after the last real one, shorter inputs
    get zero-mask steps up to the longest path, and ``s_norm`` is
    block-diagonal. A batch of one is the input itself."""
    if not inputs:
        raise TwinError("a batch needs at least one input")
    if len(inputs) == 1:
        return inputs[0]
    out = TwinInput.__new__(TwinInput)
    flow_off, link_off, node_off = [0], [0], [0]
    for inp in inputs:
        flow_off.append(flow_off[-1] + inp.n_flows)
        link_off.append(link_off[-1] + inp.n_links)
        node_off.append(node_off[-1] + inp.n_nodes)
    out.n_flows, out.n_links, out.n_nodes = flow_off[-1], link_off[-1], node_off[-1]
    out.flow_offsets = np.array(flow_off, dtype=np.int64)
    out.node_offsets = np.array(node_off, dtype=np.int64)

    def cat(name, offsets=None):
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
    out.s_norm = np.zeros((out.n_nodes, out.n_nodes))
    for inp, n0 in zip(inputs, node_off):
        out.s_norm[n0 : n0 + inp.n_nodes, n0 : n0 + inp.n_nodes] = inp.s_norm

    out.max_steps = max(inp.max_steps for inp in inputs)
    shape = (out.n_flows, out.max_steps)
    out.link_ids = np.full(shape, out.n_links, dtype=np.int64)
    out.tail_ids = np.zeros(shape, dtype=np.int64)
    out.step_mask = np.zeros(shape)
    for inp, f0, l0, n0 in zip(inputs, flow_off, link_off, node_off):
        rows, cols = np.nonzero(inp.step_mask)
        out.link_ids[rows + f0, cols] = inp.link_ids[rows, cols] + l0
        out.tail_ids[rows + f0, cols] = inp.tail_ids[rows, cols] + n0
        out.step_mask[rows + f0, cols] = 1.0
    out.seg_ids = out.link_ids.T.reshape(-1).copy()
    return out


def stack_inputs(inputs: list[TwinInput]) -> TwinInput:
    """The layout ``twin.stack_tables`` must build from the tables of these
    lone inputs (one graph, one flow count): ``join_inputs`` of them, but
    keeping the one graph's ``s_norm`` and marked as ``blocks`` row blocks.
    A stack of one is the input itself."""
    if len(inputs) < 2:
        return join_inputs(inputs)  # the input itself, or no input's error
    first = inputs[0]
    for inp in inputs[1:]:
        if (inp.n_flows, inp.n_links, inp.n_nodes) != (
            first.n_flows, first.n_links, first.n_nodes
        ) or not np.array_equal(inp.s_norm, first.s_norm):
            raise TwinError("stacked inputs must share one graph and one flow count")
    out = join_inputs(inputs)
    out.s_norm = first.s_norm
    out.blocks = len(inputs)
    return out


# -- the path forward, every layer whole ------------------------------------------


def reference_path_forward(
    tape: Tape,
    bound: dict[str, Tensor],
    inp: TwinInput,
    dims: GlanceDims,
    tasks: tuple[str, ...],
    tau: Tensor | None,
    *,
    nodes: bool,
) -> Tensor:
    """``twin.path_forward`` with a link and node update closing every layer,
    the last one too, which nothing reads: the values and gradients the
    forward must keep, byte for byte."""
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


# -- Adam, one array at a time ---------------------------------------------------


def reference_adam_step(params, grads, state, lr, l2=None, update_only=None) -> None:
    """Adam as a loop over the parameters, each array updated and replaced
    on its own; ``params``, ``state.m`` and ``state.v`` may be plain dicts."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, _ in params.items():
        if update_only is not None and name not in update_only:
            continue
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        coef = l2.get(name, 0.0) if l2 else 0.0
        if coef:
            g = g + coef * params[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        step = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params[name] = params[name] - step


# -- JSON schemas, one value at a time ---------------------------------------------

#: the Python types of the JSON values each scalar schema accepts, and its name
JSON_SCALARS = {
    int: ({int}, "an integer"),
    float: ({int, float}, "a number"),
    bool: ({bool}, "true or false"),
    str: ({str}, "a string"),
    dict: ({dict}, "an object"),
    list: ({list}, "a list"),
    None: ({type(None)}, "null"),
}


class _Misfit(Exception):
    def __init__(self, problem: str, *path: str | int):
        self.problem, self.path = problem, list(path)


def _json_kind(spec):
    if isinstance(spec, (dict, MapOf)):
        return dict
    return list if isinstance(spec, (list, ListOf)) else spec


def _accepts(spec) -> str:
    if isinstance(spec, tuple):
        return _accepts(spec[0]) + " or null"
    if isinstance(spec, OneOf):
        return f"one of {json.dumps(spec.choices)}"
    return JSON_SCALARS[_json_kind(spec)][1]


def _object_fields(spec: dict, value: dict):
    """(key, schema, entry) of each field of value, in the order of spec;
    raises at the first required field that value lacks."""
    for key, sub in spec.items():
        name = key.rstrip("?")
        if name in value:
            yield name, sub, value[name]
        elif name == key:
            raise _Misfit("is missing", name)


def _walk(spec, value, sizes: dict) -> None:
    shown = spec
    if isinstance(spec, tuple):  # (spec, None)
        if value is None:
            return
        spec = spec[0]
    types = spec.types if isinstance(spec, OneOf) else JSON_SCALARS[_json_kind(spec)][0]
    if type(value) not in types or isinstance(spec, OneOf) and value not in spec.choices:
        text = json.dumps(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise _Misfit(f"must be {_accepts(shown)}, not {text}")
    if isinstance(spec, dict):
        stray = [key for key in value if key not in {k.rstrip("?") for k in spec}]
        if stray:
            raise _Misfit("is not a field of this file", stray[0])
        sizes = {**sizes, **value}
        entries = _object_fields(spec, value)
    elif isinstance(spec, MapOf):
        entries = [(key, spec.value, entry) for key, entry in value.items()]
    elif isinstance(spec, list):
        if len(value) != len(spec):
            raise _Misfit(f"must have length {len(spec)}, not {len(value)}")
        entries = [(k, sub, entry) for k, (sub, entry) in enumerate(zip(spec, value))]
    elif isinstance(spec, ListOf):
        want = sizes[spec.length] if isinstance(spec.length, str) else spec.length
        if want is not None and len(value) != want:
            named = f" ({spec.length})" if isinstance(spec.length, str) else ""
            raise _Misfit(f"must have length {want}{named}, not {len(value)}")
        entries = [(k, spec.item, entry) for k, entry in enumerate(value)]
    else:
        return
    for key, sub, entry in entries:
        try:
            _walk(sub, entry, sizes)
        except _Misfit as exc:
            exc.path.append(key)
            raise


def reference_check(spec, value, where: str | list[str], sizes: dict) -> None:
    """``fileio.check_json`` as a walk that checks every value by a call of
    its own, in document order, with no check of a column as a whole."""
    try:
        _walk(spec, value, sizes)
    except _Misfit as exc:
        path = exc.path[::-1]
        if isinstance(where, list) and path:
            where, path = where[path[0]], path[1:]
        field = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
        field = repr(field.lstrip(".")) if field else "the top level"
        raise SchemaError(f"{where}: {field} {exc.problem}") from None


# -- seeding -------------------------------------------------------------------


def reference_make_rng(*parts: int | str) -> np.random.Generator:
    """make_rng with the entropy handed to SeedSequence as a list of Python
    ints: each integer part's 32-bit words, least significant first, and a
    string's first 16 SHA-256 bytes as four little-endian words."""
    entropy = []
    for part in parts:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode("utf-8")).digest()
            entropy += [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
            continue
        value = int(part)
        entropy.append(value % 2**32)
        while value >= 2**32:
            value //= 2**32
            entropy.append(value % 2**32)
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return np.random.Generator(np.random.PCG64(int(state[0]) | (int(state[1]) << 32)))


# -- evaluation rows -------------------------------------------------------------


def simbase_estimate(bench_runs: list[np.ndarray], n: int) -> np.ndarray:
    """Elementwise mean of one sample's first n benchmark runs, each cell
    over the runs where it is present (NaN where it is in none)."""
    if not 1 <= n <= len(bench_runs):
        raise ValueError(f"n must be in [1, {len(bench_runs)}], got {n}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(np.stack(bench_runs[:n]), axis=0)


def reference_nmae_row(
    preds_list: list[np.ndarray], labels_list: list[np.ndarray], iqr: np.ndarray
) -> dict[str, float]:
    """Per-KPI NMAE, each sample's finite pairs masked on their own and the
    errors pooled in sample order."""
    row = {}
    for k, task in enumerate(TASKS):
        errs = []
        for preds, labels in zip(preds_list, labels_list):
            p, y = preds[:, k], labels[:, k]
            ok = np.isfinite(p) & np.isfinite(y)
            if ok.any():
                errs.append(np.abs(p[ok] - y[ok]))
        row[task] = float(np.concatenate(errs).mean() / iqr[k]) if errs else math.nan
    return row


def reference_simbase_rows(samples, iqr: np.ndarray) -> dict[str, dict[str, float]]:
    """The repeat-average rows, every budget's estimate taken sample by sample."""
    max_n = min((len(s.bench_runs) for s in samples), default=0)
    return {
        f"simbase_{n}": reference_nmae_row(
            [simbase_estimate(s.bench_runs, n) for s in samples],
            [s.labels for s in samples],
            iqr,
        )
        for n in range(1, max_n + 1)
    }


# -- the paired bootstrap ----------------------------------------------------------


def bootstrap_mean_diff_ci(
    a: np.ndarray, b: np.ndarray, n_boot: int = 2000, seed: int = 0, alpha: float = 0.05
) -> tuple[float, float]:
    """Percentile CI for mean(a) - mean(b) under paired resampling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired bootstrap needs equal-length 1-D arrays")
    rng = make_rng(seed, "bootstrap")
    idx = rng.integers(a.size, size=(n_boot, a.size))
    diffs = a[idx].mean(axis=1) - b[idx].mean(axis=1)
    lo, hi = np.quantile(diffs, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
