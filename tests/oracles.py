"""Independent oracles for the test suite.

Everything here is written from scratch, so the checks never reuse the code
they are checking: central finite differences for gradients, a from-scratch
minimal-hop path enumerator working directly on the adjacency matrix, a
random connected graph builder, and a plain event loop for the simulator
(which takes only its inputs from the package: seeded RNG streams, link
capacities and the KPI record type).
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from nettwin.seeding import make_rng
from nettwin.simulator import KpiRecord, link_capacities

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


def reference_run_sim(graph, table, traffic, config, seed) -> tuple[KpiRecord, int]:
    """The simulator's event loop written plainly; returns (record, ties).

    Every emission is pushed up front, a wireless link may start only when
    a scan finds its tail and every neighbor silent, and every TX end wakes
    all pending links in link-index order. Events are (time, seq) ordered
    with seq the push count. ties counts the pops after which another
    queued event has the same time, so callers can show that tie-breaking
    was exercised.
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
    ties = 0
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
        for q in sorted(pending):
            if can_start(q):
                pending.discard(q)
                start(q, now)

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
    return KpiRecord(kpis, counts), ties
