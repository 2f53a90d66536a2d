"""Network management on top of a frozen twin.

Two solvers drive per-flow inputs toward a target KPI profile by querying a
trained model instead of the simulator: projected gradient descent over the
traffic means, and hill-climbing over flow destinations with random inits
and restarts. Both only ever accept strict improvements, so their objective
trajectories are non-increasing and identical seeds reproduce identical
results. The hill-climb lays out each set of candidates straight from their
routing tables into one stacked input and scores them in one forward, whose
products run one candidate at a time, so each J is the one that candidate's
own forward gives, bit for bit, and no J needs scoring twice.

The evaluation protocol then checks a proposal against reality: the target
is a 3-run simulator average of the original input, the yardstick is a
second independent 3-run average of the same input, and the proposal gets
its own 3 fresh runs. Errors are IQR-normalized MAEs; the hinge metric
counts cells whose generated KPI lands on the wrong side of the target
(above for delay/jitter/drops, below for throughput; equality passes).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, fields
from typing import Callable

import numpy as np

from .autodiff import DivergenceError, Tape
from .nettopo import FlowSet, Graph
from .routing import RoutingTable, shortest_paths
from .seeding import derive_seed, make_rng
from .simulator import (
    TASKS,
    SimConfig,
    TrafficParams,
    quiet_nanmean,
    run_sim,
)
from .twin import EVAL_CHUNK, TwinInput, TwinModel, prepare_twin_input, stack_tables

#: projection box for traffic means, matching the continuous training range
TRAFFIC_BOUNDS = (1.0, 20.0)

#: gd_traffic stops once a step improves J by less than this fraction
GD_REL_TOL = 1e-6

#: hinge direction: True means larger-than-target violates the bound
HINGE_UPPER = {"delay": True, "jitter": True, "throughput": False, "drops": True}


class ManageError(ValueError):
    """Raised for invalid management inputs or aborted optimizations."""


def require_predicted(scored: tuple[str, ...], predicted: tuple[str, ...]) -> None:
    """Raise ManageError unless the model's tasks cover every scored task."""
    missing = [t for t in TASKS if t in scored and t not in predicted]
    if missing:
        raise ManageError(f"objective needs tasks {missing} the model does not predict")


@dataclass(frozen=True)
class TargetProfile:
    """The management objective: target KPIs, their scales and the tasks it
    scores.

    Built from raw-unit (F, 4) KPIs in TASKS column order, the 4 IQR scales
    and the names of the scored tasks. k_targ holds the KPIs divided by iqr
    and task_mask flags the scored TASKS columns. NaN cells are allowed and
    simply drop out of the objective; the scored columns must leave at least
    one finite cell in play.
    """

    raw_kpis: InitVar[np.ndarray]
    iqr: np.ndarray
    tasks: tuple[str, ...] = TASKS
    k_targ: np.ndarray = field(init=False)
    task_mask: tuple[bool, ...] = field(init=False)

    def __post_init__(self, raw_kpis: np.ndarray) -> None:
        bad = [t for t in self.tasks if t not in TASKS]
        if bad:
            raise ManageError(f"unknown objective tasks {bad}")
        mask = tuple(t in self.tasks for t in TASKS)
        if not any(mask):
            raise ManageError("the objective must score at least one KPI")
        iqr = np.asarray(self.iqr, dtype=np.float64)
        if iqr.shape != (len(TASKS),) or np.any(iqr <= 0):
            raise ManageError("iqr must be 4 positive scales")
        raw = np.asarray(raw_kpis, dtype=np.float64)
        if raw.ndim != 2 or raw.shape[1] != len(TASKS):
            raise ManageError(f"target KPIs must be (F, {len(TASKS)}), got {raw.shape}")
        k = raw / iqr
        if not np.any(np.isfinite(k[:, np.array(mask)])):
            raise ManageError("target profile has no finite cell under the mask")
        object.__setattr__(self, "iqr", iqr)
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "k_targ", k)
        object.__setattr__(self, "task_mask", mask)

    @property
    def n_flows(self) -> int:
        return self.k_targ.shape[0]

    def layout(
        self, model_tasks: tuple[str, ...]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Targets (gaps zeroed), weights, and 1/iqr scales, (F, n) each in
        the columns of a model that predicts model_tasks.

        sum(|pred * scales - targets| * weights) is then the mean normalized
        absolute error over all finite scored cells.
        """
        require_predicted(self.tasks, model_tasks)
        cols = [TASKS.index(t) for t in model_tasks]
        k = self.k_targ[:, cols]
        live = np.isfinite(k) & np.array(self.task_mask)[cols]
        scales = np.tile(1.0 / self.iqr[cols], (self.n_flows, 1))
        return np.where(live, k, 0.0), live / live.sum(), scales


@dataclass
class ManageResult:
    """Solver output plus the simulator-protocol completion fields."""

    kind: str  # traffic | destinations
    optimized_traffic: np.ndarray | None
    optimized_destinations: tuple[int, ...] | None
    trajectory: list[float]
    iterations: int
    converged: bool
    seed: int | None = None
    restart_best: int | None = None
    k_targ: np.ndarray | None = None
    k_gen: np.ndarray | None = None
    k_bm: np.ndarray | None = None
    eps_gen: dict | None = None
    eps_bm: dict | None = None
    hinge_failures: dict | None = None
    r2: dict | None = None

    @property
    def objective(self) -> float:
        return self.trajectory[-1]

    def to_jsonable(self) -> dict:
        """Every field, an array as nested lists with null for NaN and a
        tuple as a list."""

        def jsonable(value):
            if isinstance(value, np.ndarray):
                return [[None if math.isnan(x) else x for x in row] for row in value.tolist()]
            return list(value) if isinstance(value, tuple) else value

        return {f.name: jsonable(getattr(self, f.name)) for f in fields(self)}


# -- objective ---------------------------------------------------------------


def _j_value(preds: np.ndarray, arrays) -> float:
    targets, weights, scales = arrays
    return float(np.sum(np.abs(preds * scales - targets) * weights))


def twin_objective(model: TwinModel, inp: TwinInput, profile: TargetProfile) -> float:
    """Forward-only J: masked mean |normalized prediction - target|."""
    return _j_value(model.predict(inp), profile.layout(model.tasks))


def _batch_objective(model: TwinModel, batch: TwinInput, arrays) -> list[float]:
    """J of each block of a ``stack_tables`` input, from one forward, with
    the profile's ``layout`` given: each is ``twin_objective`` of that
    table's lone input, bit for bit."""
    preds = model.predict(batch)
    off = batch.flow_offsets
    return [_j_value(preds[a:b], arrays) for a, b in zip(off[:-1], off[1:])]


def _objective_on_tape(
    model: TwinModel, inp: TwinInput, arrays, tau: np.ndarray
) -> tuple[float, Callable[[], np.ndarray]]:
    """J at tau (``twin_objective`` on an input with that traffic), with the
    profile's ``layout`` given, and a thunk that runs the backward pass on
    the same tape for dJ/dtau."""
    tape = Tape()
    bound = {n: tape.constant(a) for n, a in model.params.items()}
    tau_leaf = tape.leaf(tau)
    preds = model.forward(tape, bound, inp, tau_leaf)

    def grad() -> np.ndarray:
        j = tape.weighted_l1(preds, *arrays)
        return tape.backward(j)[tau_leaf]

    return _j_value(preds.value, arrays), grad


# -- projected gradient descent over traffic ---------------------------------


def require_traffic_input(model: TwinModel) -> None:
    """Raise ManageError unless model reads traffic that gd_traffic can move."""
    if model.kind == "gnn":
        raise ManageError("the gnn baseline has no traffic input to differentiate")


def check_traffic_solver(alpha0: float, max_iters: int) -> None:
    """Raise ManageError unless gd_traffic can start from this step and budget."""
    if not (alpha0 > 0 and math.isfinite(alpha0)):
        raise ManageError(f"alpha0 must be positive and finite, got {alpha0}")
    if max_iters < 0:
        raise ManageError(f"max_iters must be non-negative, got {max_iters}")


def gd_traffic(
    model: TwinModel,
    graph: Graph,
    table: RoutingTable,
    k_targ: TargetProfile,
    tau0: np.ndarray,
    capacities: np.ndarray,
    alpha0: float = 0.1,
    max_iters: int = 500,
) -> ManageResult:
    """Minimize J over the (F, 2) on/off traffic means, projected into TRAFFIC_BOUNDS.

    The step size persists across iterations and is halved (up to 20 times
    per iteration) whenever a step would not strictly improve J, so the
    trajectory is non-increasing by construction. Each trial step costs one
    forward; the next gradient is the backward pass of the accepted step's
    own tape.
    """
    require_traffic_input(model)
    check_traffic_solver(alpha0, max_iters)
    lo, hi = TRAFFIC_BOUNDS
    tau = np.asarray(tau0, dtype=np.float64).copy()
    if tau.shape != (k_targ.n_flows, 2):
        raise ManageError(
            f"tau0 must be ({k_targ.n_flows}, 2), got {tau.shape}"
        )
    if np.any(tau < lo) or np.any(tau > hi):
        raise ManageError("tau0 lies outside the projection bounds")

    traffic = TrafficParams(tuple(tau[:, 0]), tuple(tau[:, 1]))
    inp = prepare_twin_input(graph, table, traffic, capacities)
    arrays = k_targ.layout(model.tasks)

    alpha = float(alpha0)
    j_cur, grad_at = _objective_on_tape(model, inp, arrays, tau)
    trajectory = [j_cur]
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        grad = grad_at()
        if not np.all(np.isfinite(grad)):
            raise DivergenceError(
                f"non-finite gradient at iteration {iters}; tau={tau.tolist()}"
            )
        accepted = False
        for _ in range(21):  # current alpha plus up to 20 halvings
            candidate = np.clip(tau - alpha * grad, lo, hi)
            j_new, grad_at = _objective_on_tape(model, inp, arrays, candidate)
            if j_new < j_cur:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:  # no step improves: local optimum at this precision
            converged = True
            break
        improvement = (j_cur - j_new) / max(j_cur, 1e-300)
        tau = candidate
        j_cur = j_new
        trajectory.append(j_cur)
        if improvement < GD_REL_TOL:
            converged = True
            break
    return ManageResult(
        kind="traffic",
        optimized_traffic=tau,
        optimized_destinations=None,
        trajectory=trajectory,
        iterations=iters,
        converged=converged,
    )


# -- hill-climbing over destinations ------------------------------------------


def _valid_destination_vector(
    rng: np.random.Generator, sources: tuple[int, ...], n_nodes: int
) -> tuple[int, ...]:
    """Per-flow uniform destination != source; redraw until pairs are unique."""
    while True:
        dests = []
        for s in sources:
            d = int(rng.integers(n_nodes - 1))
            dests.append(d if d < s else d + 1)
        pairs = list(zip(sources, dests))
        if len(set(pairs)) == len(pairs):
            return tuple(dests)


def check_flows_solver(n_init: int, n_rand: int) -> None:
    """Raise ManageError unless the hill-climb draws a start and a restart."""
    if n_init < 1 or n_rand < 1:
        raise ManageError(
            f"n_init and n_rand (the restarts) must be positive, got {n_init} and {n_rand}"
        )


def hillclimb_destinations(
    model: TwinModel,
    graph: Graph,
    f_src: tuple[int, ...],
    traffic: TrafficParams,
    k_targ: TargetProfile,
    capacities: np.ndarray,
    n_init: int = 100,
    n_rand: int = 5,
    rng_seed: int = 0,
) -> ManageResult:
    """Best-of-restarts hill climbing over the destination vector.

    Each restart seeds from the best of n_init random valid vectors, then
    sweeps flows and candidate nodes in shuffled order, accepting only
    strict improvements, until a full sweep accepts nothing. Candidate
    destinations exclude the flow's source and current destination, and any
    node that would duplicate an existing (source, destination) pair.
    Routing inside the twin uses one fixed tie-break seed so J is a pure
    function of the destination vector.

    A flow's candidates differ from the current vector in that flow only,
    so they are all known before the first is tried, as are a restart's
    starts. Each such set is routed, one ``shortest_paths`` call per
    distinct vector, laid out by ``stack_tables`` straight from the tables
    (no candidate gets an input of its own) and scored by stacked forwards:
    a flow's candidates (fewer than the graph's nodes) in one, the starts
    EVAL_CHUNK at a time. Each vector's J is that of ``twin_objective`` on
    its own input, bit for bit, so results do not depend on the batching.
    """
    sources = tuple(int(s) for s in f_src)
    if len(sources) != k_targ.n_flows or len(traffic) != len(sources):
        raise ManageError("f_src, traffic and k_targ disagree on flow count")
    check_flows_solver(n_init, n_rand)
    n_nodes = graph.n_nodes
    tie_seed = derive_seed(rng_seed, "ties")
    arrays = k_targ.layout(model.tasks)

    # the J of every vector scored so far, so each is routed once; their
    # tables share ``Path`` objects through the routing memo, so a stack
    # looks up each route's links once
    js: dict[tuple[int, ...], float] = {}

    def score(vectors: list[tuple[int, ...]], per_forward: int) -> None:
        new = [v for v in dict.fromkeys(vectors) if v not in js]
        for c0 in range(0, len(new), per_forward):
            chunk = new[c0 : c0 + per_forward]
            tables = [shortest_paths(graph, FlowSet(sources, v), tie_seed) for v in chunk]
            batch = stack_tables(graph, tables, traffic, capacities)
            js.update(zip(chunk, _batch_objective(model, batch, arrays)))

    best_overall: tuple[float, tuple[int, ...], list[float], int] | None = None
    for restart in range(n_rand):
        rng = make_rng(rng_seed, "restart", restart)
        starts = [
            _valid_destination_vector(rng, sources, n_nodes) for _ in range(n_init)
        ]
        score(starts, EVAL_CHUNK)
        start_js = [js[v] for v in starts]
        best_i = int(np.argmin(start_js))
        current = starts[best_i]
        j_cur = start_js[best_i]
        trajectory = [j_cur]
        while True:
            improved = False
            for f in rng.permutation(len(sources)):
                f = int(f)
                used = set(zip(sources, current))
                candidates = [
                    n
                    for n in range(n_nodes)
                    if n != sources[f] and n != current[f]
                ]
                # accepting a candidate frees the flow's old pair, which is no
                # candidate, and takes one already tried: the trials and the
                # pairs they collide with stay fixed for the whole flow
                trials = {
                    n: current[:f] + (n,) + current[f + 1 :]
                    for n in candidates
                    if (sources[f], n) not in used
                }
                score(list(trials.values()), n_nodes)  # one forward
                for pick in rng.permutation(len(candidates)):
                    trial = trials.get(candidates[int(pick)])
                    if trial is None:
                        continue
                    j_new = js[trial]
                    if j_new < j_cur:
                        current = trial
                        j_cur = j_new
                        trajectory.append(j_cur)
                        improved = True
            if not improved:
                break
        if best_overall is None or j_cur < best_overall[0]:
            best_overall = (j_cur, current, trajectory, restart)

    j_best, dests, trajectory, restart = best_overall
    return ManageResult(
        kind="destinations",
        optimized_traffic=None,
        optimized_destinations=dests,
        trajectory=trajectory,
        iterations=len(trajectory) - 1,
        converged=True,
        seed=rng_seed,
        restart_best=restart,
    )


# -- simulator-backed evaluation ----------------------------------------------


@dataclass(frozen=True)
class NetworkInput:
    """A candidate network state: who talks to whom, and how much."""

    flows: FlowSet
    traffic: TrafficParams

    def __post_init__(self) -> None:
        if len(self.flows) != len(self.traffic):
            raise ManageError("flows and traffic disagree on flow count")


def mean_runs(
    graph: Graph,
    state: NetworkInput,
    config: SimConfig,
    seeds: list[int],
) -> np.ndarray:
    """KPI mean of one simulator run per seed, each routed with its own seed."""
    kpis = []
    for s in seeds:
        table = shortest_paths(graph, state.flows, derive_seed(s, "routing"))
        kpis.append(run_sim(graph, table, state.traffic, config, derive_seed(s, "sim")).kpis)
    return quiet_nanmean(np.stack(kpis), axis=0)


def _masked_mae(
    a: np.ndarray, b: np.ndarray, iqr: np.ndarray
) -> dict:
    """Per-KPI and pooled normalized MAE over cells finite in both."""
    per = {}
    pooled = []
    for k, task in enumerate(TASKS):
        ok = np.isfinite(a[:, k]) & np.isfinite(b[:, k])
        if ok.any():
            errs = np.abs(a[ok, k] - b[ok, k]) / iqr[k]
            per[task] = float(errs.mean())
            pooled.append(errs)
        else:
            per[task] = math.nan
    return {
        "per_task": per,
        "pooled": float(np.concatenate(pooled).mean()) if pooled else math.nan,
    }


def _r2(pred: np.ndarray, targ: np.ndarray) -> float:
    ok = np.isfinite(pred) & np.isfinite(targ)
    if ok.sum() < 2:
        return math.nan
    p, t = pred[ok], targ[ok]
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return math.nan
    return 1.0 - float(np.sum((p - t) ** 2)) / ss_tot


def hinge_failure_ratio(k_gen: np.ndarray, k_targ: np.ndarray) -> dict[str, float]:
    """Fraction of cells whose generated KPI violates the target bound.

    Delay, jitter and drops fail above the target; throughput fails below;
    equal values pass. Pooled over every flow cell finite in both matrices.
    """
    out = {}
    for k, task in enumerate(TASKS):
        ok = np.isfinite(k_gen[:, k]) & np.isfinite(k_targ[:, k])
        g, t = k_gen[ok, k], k_targ[ok, k]
        fails = int(np.sum(g > t) if HINGE_UPPER[task] else np.sum(g < t))
        out[task] = fails / int(ok.sum()) if ok.any() else math.nan
    return out


def evaluate_management(
    graph: Graph,
    x_orig: NetworkInput,
    x_gen: NetworkInput,
    config: SimConfig,
    seeds: list[int],
    iqr: np.ndarray,
    result: ManageResult,
) -> ManageResult:
    """Fill a result with the 9-run simulator protocol.

    Runs 0-2 of the original input set the target average, runs 3-5 of the
    same input form the benchmark average (the noise floor), and the
    proposed input gets runs 6-8. Errors are normalized MAEs against the
    target; hinge ratios and R2 (pooled over normalized cells and per KPI)
    complete the report.
    """
    if len(seeds) != 9 or len(set(seeds)) != 9:
        raise ManageError("evaluation needs nine distinct seeds")
    iqr = np.asarray(iqr, dtype=np.float64)
    if iqr.shape != (len(TASKS),) or np.any(iqr <= 0):
        raise ManageError("iqr must be 4 positive scales")
    k_targ = mean_runs(graph, x_orig, config, seeds[:3])
    k_bm = mean_runs(graph, x_orig, config, seeds[3:6])
    k_gen = mean_runs(graph, x_gen, config, seeds[6:9])
    result.k_targ = k_targ
    result.k_bm = k_bm
    result.k_gen = k_gen
    result.eps_gen = _masked_mae(k_gen, k_targ, iqr)
    result.eps_bm = _masked_mae(k_bm, k_targ, iqr)
    result.hinge_failures = hinge_failure_ratio(k_gen, k_targ)
    gen_n, targ_n = k_gen / iqr, k_targ / iqr
    result.r2 = {
        "pooled": _r2(gen_n.ravel(), targ_n.ravel()),
        "per_task": {
            task: _r2(k_gen[:, k], k_targ[:, k]) for k, task in enumerate(TASKS)
        },
    }
    return result


def trajectory_csv(result: ManageResult) -> str:
    lines = ["step,objective"]
    lines += [f"{i},{j:.12g}" for i, j in enumerate(result.trajectory)]
    return "\n".join(lines) + "\n"
