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
        on = tuple([float(x) for x in self.tau_on])
        off = tuple([float(x) for x in self.tau_off])
        object.__setattr__(self, "tau_on", on)
        object.__setattr__(self, "tau_off", off)
        if len(on) != len(off):
            raise SimulationError("tau_on and tau_off differ in length")
        if not on:
            raise SimulationError("traffic params need at least one flow")
        if not all([0.0 < x < math.inf for x in on + off]):  # NaN fails too
            raise SimulationError("all traffic means must be positive and finite")

    def __len__(self) -> int:
        return len(self.tau_on)


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
        if not (0 < self.t_gen < math.inf and 0 <= self.t_prep < math.inf):
            raise SimulationError("t_gen must be finite and > 0, t_prep finite and >= 0")
        if self.packet_bytes <= 0 or not 0 < self.cbr_rate < math.inf:
            raise SimulationError("packet size and CBR rate must be positive and finite")
        if not 0 < self.link_capacity_default < math.inf:
            raise SimulationError("default link capacity must be positive and finite")
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
    if graph.wired:
        return np.full(len(graph.links), config.link_capacity_default, dtype=np.float64)
    w = graph.adjacency[graph.link_tails, graph.link_heads]
    return config.link_capacity_default * w / ATTEN_REF


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

    def to_jsonable(self) -> list[list[float | None]]:
        return [
            [None if math.isnan(x) else float(x) for x in row] for row in self.kpis
        ]

    @classmethod
    def from_jsonable(cls, rows: list[list[float | None]]) -> "KpiRecord":
        # numpy reads None as NaN, with the bits of math.nan
        return cls(np.array(rows, dtype=np.float64))


@dataclass
class RunSet:
    """Repeated simulations of one network state; record 0 is the reference."""

    records: list[KpiRecord]
    seeds: list[dict[str, int]]
    reference_table: RoutingTable


class _LinkState:
    __slots__ = ("index", "tail", "tx_time", "hood", "queue", "busy", "nxt")

    def __init__(self, index: int, tail: int, tx_time: float, hood: tuple[int, ...]):
        self.index = index
        self.tail = tail
        self.tx_time = tx_time
        # the tail's closed neighbourhood (empty without contention), in
        # which no tail may be sending when this link starts
        self.hood = frozenset(hood)
        # packets are immutable (flow, emission time) tuples
        self.queue: deque[tuple[int, float]] = deque()
        self.busy: tuple[int, float] | None = None
        # each flow crossing this link -> its next hop, None once delivered
        self.nxt: dict[int, _LinkState | None] = {}


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

    # link states only for links that carry traffic; first[f] is flow f's
    # first hop, and each hop's nxt[f] the one after it
    states: dict[int, _LinkState] = {}
    first: list[_LinkState] = []
    for f, path in enumerate(table.paths):
        hops = []
        for link in path.links:
            r = graph.link_index.get(link)
            if r is None:
                raise SimulationError(f"path uses link {link} absent from the graph")
            if r not in states:
                # a plain float: event times and delays stay Python floats,
                # whose arithmetic is cheaper than numpy scalars' and the same
                hood = (link[0],) + graph.neighbors[link[0]] if wireless else ()
                states[r] = _LinkState(r, link[0], float(pkt_bits / caps[r]), hood)
            hops.append(states[r])
        first.append(hops[0])
        for hop, after in zip(hops, hops[1:] + [None]):
            if f in hop.nxt:
                raise SimulationError(f"flow {f} crosses link {graph.links[hop.index]} twice")
            hop.nxt[f] = after

    # sending holds the tails of the transmitting wireless links (a start
    # needs its own tail silent, so a tail sends on one link at a time), and
    # a link may start iff its hood and sending are disjoint. Wired links have
    # an empty hood, serve their own queue and never touch the set. pending
    # holds the idle wireless links with a queue that contention blocks,
    # keyed by link index, the grant order.
    sending: set[int] = set()
    pending: dict[int, _LinkState] = {}

    # Emission k of flow f is numbered (emissions of flows before f) + k, as
    # if all were pushed up front, so a stable sort of the flow-major times
    # walks them in (time, seq) order: one pre-sorted stream, ended by an
    # inf sentinel. The heap holds only the events the loop schedules, TX
    # ends and deferred arrivals, numbered after the last emission, as
    # (time, seq, link, packet) with a None packet for a TX end. An
    # emission thus precedes a heap event at its time, and the heap is
    # popped only when its head is earlier than the next emission. seq
    # numbers are unique, so heap tuples compare on (time, seq) alone.
    per_flow = [
        _emission_times(
            make_rng(seed, "flow", f),
            traffic.tau_on[f], traffic.tau_off[f], interval, config.t_gen,
        )
        for f in range(n_flows)
    ]
    generated = np.array([len(times) for times in per_flow], dtype=np.int64)
    joined = np.concatenate(per_flow)
    order = np.argsort(joined, kind="stable")
    em_times = joined[order].tolist()
    em_times.append(math.inf)
    em_flows = np.repeat(np.arange(n_flows), generated)[order].tolist()
    n_em = seq = len(em_flows)
    i = 0
    next_em = em_times[0]
    heap: list[tuple] = []

    delivered: list[list[float]] = [[] for _ in range(n_flows)]
    overflow = np.zeros(n_flows, dtype=np.int64)
    t_gen = config.t_gen
    buffer_pkts = config.queue_buffer_pkts
    heappush, heappop = heapq.heappush, heapq.heappop

    while True:
        if heap and heap[0][0] < next_em:
            now, s, link, pkt = heappop(heap)
            if now > t_gen:
                break  # emissions all end by t_gen, so none is left
            if pkt is None:  # a TX end, of the packet link.busy
                ended = link
                pkt = ended.busy
                link = ended.nxt[pkt[0]]
                if link is None:
                    delivered[pkt[0]].append(now - pkt[1])
                else:
                    s = seq
                    seq += 1
                ended.busy = None
                if not ended.hood:
                    # no contention: serve the queue, after the next hop's number
                    if ended.queue:
                        ended.busy = ended.queue.popleft()
                        heappush(heap, (now + ended.tx_time, seq, ended, None))
                        seq += 1
                else:
                    sending.remove(ended.tail)
                    if ended.queue:
                        pending[ended.index] = ended
                    # grant in link-index order; each grant may block later candidates
                    for r in sorted(pending) if pending else ():
                        idle = pending[r]
                        if sending.isdisjoint(idle.hood):
                            del pending[r]
                            idle.busy = idle.queue.popleft()
                            sending.add(idle.tail)
                            heappush(heap, (now + idle.tx_time, seq, idle, None))
                            seq += 1
                if link is None:
                    continue
                # the next-hop arrival at (now, s) is handled here unless an
                # event queued earlier shares its time and precedes it; no
                # emission can, as now < next_em, and no queued event is
                # earlier than now, so this is heap[0] < (now, s)
                if heap and heap[0][0] == now and heap[0][1] < s:
                    heappush(heap, (now, s, link, pkt))
                    continue
        elif i == n_em:
            break
        else:
            now = next_em
            f = em_flows[i]
            pkt = (f, now)
            link = first[f]
            i += 1
            next_em = em_times[i]
        # arrival at link (an emission arrives at its first hop); an idle link
        # whose tail may send has an empty queue, as each TX end grants all it can
        if link.busy is None and (not sending or sending.isdisjoint(link.hood)):
            link.busy = pkt
            if link.hood:
                sending.add(link.tail)
            heappush(heap, (now + link.tx_time, seq, link, None))
            seq += 1
        elif len(link.queue) >= buffer_pkts:
            overflow[pkt[0]] += 1
        else:
            link.queue.append(pkt)
            if link.busy is None:
                pending[link.index] = link

    in_flight = np.zeros(n_flows, dtype=np.int64)
    for state in states.values():
        for queued in state.queue:
            in_flight[queued[0]] += 1
        if state.busy is not None:
            in_flight[state.busy[0]] += 1

    kpis = np.empty((n_flows, 4))
    counts = np.empty((n_flows, 4), dtype=np.int64)
    for f in range(n_flows):
        delays = delivered[f]
        n_del = len(delays)
        if n_del == 0:
            delay_ms = jitter_ms = math.nan
        else:
            # explicit left-to-right sums from 0: `sum` does that on numpy
            # scalars, but compensates plain floats from Python 3.12 on
            total = gaps = 0
            prev = delays[0]
            for d in delays:
                total += d
                gaps += abs(d - prev)  # 0.0 for the first delay
                prev = d
            delay_ms = 1000.0 * total / n_del
            jitter_ms = 1000.0 * gaps / (n_del - 1) if n_del > 1 else 0.0
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
