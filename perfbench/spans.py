"""In-memory span tracer wrapped around nettwin's layer boundaries.

Spans are recorded from outside the package: each traced public function is
replaced, in every nettwin module that bound it (``from x import f`` makes a
second binding), by a wrapper that records name, start, end and parent span.
Two methods are wrapped on their classes: ``TwinModel.forward`` and
``Tape.backward``. ``Tracer.uninstall`` restores every original binding.

A span's self time is its duration minus the durations of its direct
children; the package is single-threaded, so children never overlap.
``CallCounter`` rebinds a function the same way, to count its calls only.
"""

from __future__ import annotations

import time
from typing import Callable

from nettwin import autodiff, cli, manage, pipeline, routing, simulator, twin

MODULES = (autodiff, cli, manage, pipeline, routing, simulator, twin)


def _tape_len(tape) -> int:
    # the tape keeps one parents entry per recorded node
    return len(tape._parents)


def _sim_counts(args, kwargs, result, before) -> dict:
    gen, delivered, overflow, in_flight = (int(x) for x in result.counts.sum(axis=0))
    return {
        "generated": gen,
        "delivered": delivered,
        "overflow": overflow,
        "in_flight": in_flight,
        "conserved": bool(
            (result.counts[:, 0] == result.counts[:, 1:].sum(axis=1)).all()
        ),
    }


def _tape_nodes(args, kwargs, result, before) -> dict:
    return {"tape_nodes": result.node_id + 1 - before}


def _iterations(args, kwargs, result, before) -> dict:
    return {"iterations": int(result.iterations)}


#: (span name, home module, attribute, counter, pre-call hook)
FUNCTIONS = (
    ("simulator.run_sim", simulator, "run_sim", _sim_counts, None),
    ("simulator.run_benchmarks", simulator, "run_benchmarks", None, None),
    ("routing.shortest_paths", routing, "shortest_paths", None, None),
    ("twin.prepare_input", twin, "prepare_twin_input", None, None),
    ("autodiff.adam_step", autodiff, "adam_step", None, None),
    ("autodiff.load_checkpoint", autodiff, "load_checkpoint", None, None),
    ("autodiff.save_checkpoint", autodiff, "save_checkpoint", None, None),
    ("pipeline.generate_dataset", pipeline, "generate_dataset", None, None),
    ("pipeline.load_dataset", pipeline, "load_dataset", None, None),
    ("pipeline.train_model", pipeline, "train_model", None, None),
    ("pipeline.evaluate_model", pipeline, "evaluate_model", None, None),
    ("manage.twin_objective", manage, "twin_objective", None, None),
    ("manage.gd_traffic", manage, "gd_traffic", _iterations, None),
    ("manage.hillclimb", manage, "hillclimb_destinations", _iterations, None),
    ("manage.evaluate_management", manage, "evaluate_management", None, None),
)

#: (span name, class, method, counter, pre-call hook)
METHODS = (
    ("twin.forward", twin.TwinModel, "forward", _tape_nodes, lambda a, k: _tape_len(a[1])),
    ("autodiff.backward", autodiff.Tape, "backward", None, None),
)

#: the span each nettwin command runs under; its self time is flag
#: resolution, artifact writing and any untraced helper
CLI_SPAN = "cli"

SPAN_NAMES = tuple(n for n, *_ in FUNCTIONS) + tuple(n for n, *_ in METHODS) + (CLI_SPAN,)


def rebind(home, attr: str, replacement: Callable) -> list[tuple[object, str, object]]:
    """Point every nettwin module's binding of home.attr at replacement.

    Returns (module, attr, original) rows that undo it.
    """
    original = getattr(home, attr)
    undo = []
    for module in MODULES:
        if getattr(module, attr, None) is original:
            undo.append((module, attr, original))
            setattr(module, attr, replacement)
    return undo


class CallCounter:
    """Counts calls to one public function while the ``with`` block runs.

    With ``measure``, also sums ``measure(args, result)`` over the calls.
    """

    def __init__(self, home, attr: str, measure: Callable | None = None):
        self.home, self.attr, self.measure = home, attr, measure
        self.calls = 0
        self.total = 0

    def __enter__(self) -> "CallCounter":
        original = getattr(self.home, self.attr)

        def counted(*args, **kwargs):
            self.calls += 1
            result = original(*args, **kwargs)
            if self.measure is not None:
                self.total += self.measure(args, result)
            return result

        self._undo = rebind(self.home, self.attr, counted)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in self._undo:
            setattr(module, attr, original)


class Tracer:
    """Collects spans as [name, start, end, parent, counts] rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        counter: Callable | None = None,
        pre: Callable | None = None,
    ) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            index = len(spans)
            row = [name, clock(), 0.0, stack[-1] if stack else None, None]
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                row[4] = counter(args, kwargs, result, before)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, home, attr, counter, pre in FUNCTIONS:
            traced = self.wrap(name, getattr(home, attr), counter, pre)
            self._restore += rebind(home, attr, traced)
        for name, cls, attr, counter, pre in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, counter, pre))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, counts."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": []}
            for n in SPAN_NAMES
        }
        for k, (name, start, end, _, counts) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_s[k]
            if counts is not None:
                entry["counts"].append(counts)
        return out

    def to_jsonable(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "counts": c}
            for n, s, e, p, c in self.spans
        ]
