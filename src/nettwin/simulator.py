"""Event-driven network simulator with on/off CBR sources and FIFO links.

Sources alternate exponentially distributed on and off phases (means tau_on,
tau_off, hidden from any model, which only ever sees the means). During an
on phase a source streams fixed-size packets at the CBR rate; a packet is
emitted when its formation window completes, so a packet straddling an
on->off boundary is still sent in full, and throughput can never exceed the
CBR rate. Links are store-and-forward FIFO servers with a finite buffer and
tail drop. Wireless runs add half-duplex carrier-sense contention: a node may
not begin transmitting while it or any adjacency neighbor is transmitting.

Per-flow KPIs: mean end-to-end delay (ms), mean absolute delay difference of
consecutively delivered packets (ms), delivered throughput (kb/s), and drops
(buffer overflows plus packets still in flight at the horizon). Flows with
zero delivered packets report delay and jitter as NaN.

Everything is deterministic given (inputs, seed): per-flow RNG streams are
derived from the run seed, and event ties are broken by insertion sequence.
"""

from __future__ import annotations

import heapq
import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .nettopo import FlowSet, Graph
from .routing import RoutingTable, shortest_paths
from .seeding import derive_seed, make_rng

#: KPI column order used by every F x 4 matrix in the package
TASKS = ("delay", "jitter", "throughput", "drops")

#: adjacency weight at the 30 m reference distance; wireless link capacity is
#: capacity_default * weight / ATTEN_REF
ATTEN_REF = 1.0 / math.log(1.0 + 30.0 * 30.0)

_EMIT, _ARRIVAL, _TX_END = 0, 1, 2


def quiet_nanmean(stack: np.ndarray, axis: int) -> np.ndarray:
    """np.nanmean; a cell missing in every slice is legitimate, so stay quiet."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nanmean(stack, axis=axis)


class SimulationError(ValueError):
    """Raised for inconsistent simulator inputs."""


@dataclass(frozen=True)
class TrafficParams:
    """Per-flow mean on/off durations in seconds, all positive."""

    tau_on: tuple[float, ...]
    tau_off: tuple[float, ...]

    def __post_init__(self) -> None:
        on = tuple(float(x) for x in self.tau_on)
        off = tuple(float(x) for x in self.tau_off)
        object.__setattr__(self, "tau_on", on)
        object.__setattr__(self, "tau_off", off)
        if len(on) != len(off):
            raise SimulationError("tau_on and tau_off differ in length")
        if not on:
            raise SimulationError("traffic params need at least one flow")
        if any(not math.isfinite(x) or x <= 0 for x in on + off):
            raise SimulationError("all traffic means must be positive and finite")

    def __len__(self) -> int:
        return len(self.tau_on)

    @property
    def flat(self) -> np.ndarray:
        """Zig-zag layout [on_0, off_0, on_1, off_1, ...]."""
        out = np.empty(2 * len(self.tau_on))
        out[0::2] = self.tau_on
        out[1::2] = self.tau_off
        return out


def sample_traffic_params(n_flows: int, mode: str, seed: int) -> TrafficParams:
    """Draw per-flow means: discrete from {1, 10, 20} s or continuous U(1, 20)."""
    if n_flows < 1:
        raise SimulationError("n_flows must be at least 1")
    rng = make_rng(seed, "traffic-params")
    if mode == "discrete":
        values = np.array([1.0, 10.0, 20.0])
        on = rng.choice(values, size=n_flows)
        off = rng.choice(values, size=n_flows)
    elif mode == "continuous":
        on = rng.uniform(1.0, 20.0, size=n_flows)
        off = rng.uniform(1.0, 20.0, size=n_flows)
    else:
        raise SimulationError(f"unknown traffic mode {mode!r}")
    return TrafficParams(tuple(on), tuple(off))


@dataclass(frozen=True)
class SimConfig:
    """Simulator knobs; defaults model the wired setting.

    t_prep is a logical warm-up marker carried in manifests; the generation
    clock starts at 0 and runs for t_gen seconds.
    """

    t_gen: float = 180.0
    t_prep: float = 900.0
    packet_bytes: int = 210
    cbr_rate: float = 100_000.0
    link_capacity_default: float = 1_000_000.0
    queue_buffer_pkts: int = 50
    wireless_contention: bool = True

    def __post_init__(self) -> None:
        if self.t_gen <= 0 or self.t_prep < 0:
            raise SimulationError("t_gen must be positive and t_prep non-negative")
        if self.packet_bytes <= 0 or self.cbr_rate <= 0:
            raise SimulationError("packet size and CBR rate must be positive")
        if self.link_capacity_default <= 0:
            raise SimulationError("default link capacity must be positive")
        if self.queue_buffer_pkts < 1:
            raise SimulationError("queue buffer must hold at least one packet")


def default_sim_config(wired: bool, t_gen: float = 180.0) -> SimConfig:
    """Wired: 100 kb/s sources; wireless: 50 kb/s sources with contention."""
    return SimConfig(
        t_gen=t_gen,
        cbr_rate=100_000.0 if wired else 50_000.0,
        wireless_contention=not wired,
    )


def link_capacities(graph: Graph, config: SimConfig) -> np.ndarray:
    """Capacity per directed link, aligned with graph.links.

    Wired links all get the default. Wireless capacity scales with the
    adjacency weight relative to the 30 m reference, so shorter links are
    faster.
    """
    caps = np.empty(len(graph.links))
    for r, (i, j) in enumerate(graph.links):
        w = graph.adjacency[i, j]
        caps[r] = (
            config.link_capacity_default
            if graph.wired
            else config.link_capacity_default * w / ATTEN_REF
        )
    return caps


class KpiRecord:
    """Per-flow KPI matrix (F x 4) plus raw packet counters.

    kpis columns follow TASKS: delay ms, jitter ms, throughput kb/s, drops.
    counts columns: generated, delivered, overflow drops, in flight at the
    horizon. The wire format carries only the KPI matrix, with null marking
    missing cells.
    """

    def __init__(self, kpis: np.ndarray, counts: np.ndarray | None = None):
        self.kpis = np.asarray(kpis, dtype=np.float64)
        if self.kpis.ndim != 2 or self.kpis.shape[1] != len(TASKS):
            raise SimulationError(f"kpis must be (F, 4), got {self.kpis.shape}")
        self.counts = None if counts is None else np.asarray(counts, dtype=np.int64)

    @property
    def n_flows(self) -> int:
        return self.kpis.shape[0]

    def to_jsonable(self) -> list[list[float | None]]:
        return [
            [None if math.isnan(x) else float(x) for x in row] for row in self.kpis
        ]

    @classmethod
    def from_jsonable(cls, rows: list[list[float | None]]) -> "KpiRecord":
        kpis = np.array(
            [[math.nan if x is None else float(x) for x in row] for row in rows]
        )
        return cls(kpis)


@dataclass
class RunSet:
    """Repeated simulations of one network state; record 0 is the reference."""

    records: list[KpiRecord]
    seeds: list[dict[str, int]]
    reference_table: RoutingTable


class _Packet:
    __slots__ = ("flow", "emit", "hop")

    def __init__(self, flow: int, emit: float):
        self.flow = flow
        self.emit = emit
        self.hop = 0


class _LinkState:
    __slots__ = ("index", "tail", "tx_time", "hood", "queue", "busy")

    def __init__(self, index: int, tail: int, tx_time: float, hood: tuple[int, ...]):
        self.index = index
        self.tail = tail
        self.tx_time = tx_time
        # nodes whose contention counter this link's transmissions hold
        self.hood = hood
        self.queue: deque[_Packet] = deque()
        self.busy: _Packet | None = None


def _emission_times(
    rng: np.random.Generator, tau_on: float, tau_off: float, interval: float, t_gen: float
) -> list[float]:
    """Packet emission instants for one flow (completion of each formation).

    The encoder stays busy for one formation window per packet, so windows
    never overlap even when an off gap is shorter than the packet interval;
    delivered bits therefore never exceed cbr_rate * t_gen.
    """
    times: list[float] = []
    t = 0.0
    free_at = 0.0
    while t < t_gen:
        phase_end = t + rng.exponential(tau_on)
        start = max(t, free_at)
        while start < phase_end:
            done = start + interval
            if done > t_gen:
                return times  # nothing later can finish forming in time
            times.append(done)
            free_at = done
            start = done
        t = phase_end + rng.exponential(tau_off)
    return times


def run_sim(
    graph: Graph,
    table: RoutingTable,
    traffic: TrafficParams,
    config: SimConfig,
    seed: int,
) -> KpiRecord:
    """Simulate one run and return per-flow KPIs with conservation counters."""
    n_flows = len(table.paths)
    if len(traffic) != n_flows:
        raise SimulationError(
            f"traffic for {len(traffic)} flows, table has {n_flows} paths"
        )
    caps = link_capacities(graph, config)
    pkt_bits = config.packet_bytes * 8
    interval = pkt_bits / config.cbr_rate
    wireless = config.wireless_contention and not graph.wired

    # link states only for links that carry traffic
    states: dict[int, _LinkState] = {}
    flow_paths: list[list[_LinkState]] = []
    for path in table.paths:
        hops = []
        for link in path.links:
            r = graph.link_index.get(link)
            if r is None:
                raise SimulationError(f"path uses link {link} absent from the graph")
            if r not in states:
                # tx_time stays a numpy float, so the delays summed below
                # keep their type, and `sum` its rounding, on every Python
                hood = (link[0],) + graph.neighbors[link[0]] if wireless else ()
                states[r] = _LinkState(r, link[0], pkt_bits / caps[r], hood)
            hops.append(states[r])
        flow_paths.append(hops)

    # busy[u] counts the transmitting link tails in u's closed neighbourhood
    # (the adjacency is symmetric), so a wireless link may start iff
    # busy[tail] is 0; wired links have an empty hood and never touch the
    # counter. pending holds the idle links with a queue that contention
    # blocks, keyed by link index, the order they are granted in.
    busy = [0] * graph.n_nodes
    pending: dict[int, _LinkState] = {}

    # Only each flow's next emission sits in the heap. Emission k of flow f
    # keeps the tie-break number it would have if all were pushed up front,
    # first_seq[f] + k, and events pushed in the loop are numbered after the
    # last emission; seq numbers are unique, so tuples compare on
    # (time, seq) alone and the pop order is fixed.
    emissions: list[list[float]] = []
    first_seq: list[int] = []
    heap: list[tuple] = []
    seq = 0
    generated = np.zeros(n_flows, dtype=np.int64)
    for f in range(n_flows):
        rng = make_rng(seed, "flow", f)
        times = _emission_times(
            rng, traffic.tau_on[f], traffic.tau_off[f], interval, config.t_gen
        )
        generated[f] = len(times)
        emissions.append(times)
        first_seq.append(seq)
        if times:
            heap.append((times[0], seq, _EMIT, _Packet(f, times[0]), flow_paths[f][0]))
        seq += len(times)
    heapq.heapify(heap)

    delivered: list[list[float]] = [[] for _ in range(n_flows)]
    overflow = np.zeros(n_flows, dtype=np.int64)
    t_gen = config.t_gen
    buffer_pkts = config.queue_buffer_pkts
    heappush, heappop = heapq.heappush, heapq.heappop

    def start_tx(link: _LinkState, now: float) -> None:
        nonlocal seq
        pkt = link.queue.popleft()
        link.busy = pkt
        for v in link.hood:
            busy[v] += 1
        heappush(heap, (now + link.tx_time, seq, _TX_END, pkt, link))
        seq += 1

    while heap and heap[0][0] <= t_gen:
        now, s, kind, pkt, link = heappop(heap)
        if kind == _TX_END:
            link.busy = None
            for v in link.hood:
                busy[v] -= 1
            if link.queue:
                pending[link.index] = link
            pkt.hop += 1
            path = flow_paths[pkt.flow]
            if pkt.hop == len(path):
                delivered[pkt.flow].append(now - pkt.emit)
                link = None
            else:
                link = path[pkt.hop]
                s = seq
                seq += 1
            # grant in link-index order; each grant may block later candidates
            for r in sorted(pending):
                waiting = pending[r]
                if not busy[waiting.tail]:
                    del pending[r]
                    start_tx(waiting, now)
            if link is None:
                continue
            # the next-hop arrival at (now, s) is handled here unless an
            # event queued earlier shares its time and precedes it
            if heap and heap[0] < (now, s):
                heappush(heap, (now, s, _ARRIVAL, pkt, link))
                continue
        elif kind == _EMIT:
            f = pkt.flow
            k = s + 1 - first_seq[f]
            if k < len(emissions[f]):
                t = emissions[f][k]
                heappush(heap, (t, s + 1, _EMIT, _Packet(f, t), link))
        # arrival of pkt at link (an emission arrives at its first hop)
        if len(link.queue) >= buffer_pkts:
            overflow[pkt.flow] += 1
            continue
        link.queue.append(pkt)
        if link.busy is None:
            if busy[link.tail]:
                pending[link.index] = link
            else:
                start_tx(link, now)

    in_flight = np.zeros(n_flows, dtype=np.int64)
    for state in states.values():
        for queued in state.queue:
            in_flight[queued.flow] += 1
        if state.busy is not None:
            in_flight[state.busy.flow] += 1

    kpis = np.empty((n_flows, 4))
    counts = np.empty((n_flows, 4), dtype=np.int64)
    for f in range(n_flows):
        delays = delivered[f]
        n_del = len(delays)
        if n_del == 0:
            delay_ms = math.nan
            jitter_ms = math.nan
        else:
            delay_ms = 1000.0 * sum(delays) / n_del
            if n_del == 1:
                jitter_ms = 0.0
            else:
                jitter_ms = (
                    1000.0
                    * sum(abs(b - a) for a, b in zip(delays, delays[1:]))
                    / (n_del - 1)
                )
        throughput_kbps = n_del * pkt_bits / config.t_gen / 1000.0
        drops = int(overflow[f] + in_flight[f])
        kpis[f] = (delay_ms, jitter_ms, throughput_kbps, drops)
        counts[f] = (generated[f], n_del, overflow[f], in_flight[f])
    return KpiRecord(kpis, counts)


def benchmark_run_seeds(base_seed: int, run_index: int) -> tuple[int, int]:
    """(routing seed, sim seed) for one benchmark run; pure and replayable."""
    return (
        derive_seed(base_seed, "run", run_index, "routing"),
        derive_seed(base_seed, "run", run_index, "sim"),
    )


def run_benchmarks(
    graph: Graph,
    flows: FlowSet,
    traffic: TrafficParams,
    config: SimConfig,
    n_runs: int,
    seed: int,
) -> RunSet:
    """n_runs independent simulations; each re-routes with its own seed.

    Record 0 is the reference run whose routing table is the one exported
    for model training. Later records are the repeated-simulation benchmark.
    """
    if n_runs < 1:
        raise SimulationError("need at least one run")
    records, seeds = [], []
    reference_table = None
    for r in range(n_runs):
        routing_seed, sim_seed = benchmark_run_seeds(seed, r)
        table = shortest_paths(graph, flows, routing_seed)
        if r == 0:
            reference_table = table
        records.append(run_sim(graph, table, traffic, config, sim_seed))
        seeds.append({"routing": routing_seed, "sim": sim_seed})
    return RunSet(records, seeds, reference_table)


def simbase_estimate(runset: RunSet, n: int) -> np.ndarray:
    """Elementwise mean of benchmark records 1..n (reference excluded).

    Cells missing in some runs average over the runs where they are present;
    impute beforehand if full coverage is required.
    """
    if not 1 <= n <= len(runset.records) - 1:
        raise ValueError(
            f"n must be in [1, {len(runset.records) - 1}], got {n}"
        )
    stack = np.stack([rec.kpis for rec in runset.records[1 : 1 + n]])
    return quiet_nanmean(stack, axis=0)
