"""Reverse-mode automatic differentiation over dense float64 tensors.

A Tape records every primitive as a node with a pullback closure; backward()
walks the node list in reverse, accumulating gradients. Gradients flow only
toward leaves created with requires_grad, so constants (masks, adjacency
operators, targets) cost nothing on the way back. A tape made with
``record=False`` runs the same primitives and checks but keeps no node, so
a forward whose gradient nobody needs frees each intermediate as soon as
its tensor is dropped.

The primitives are ``matmul``, ``concat``, ``gather``, ``segment_sum`` and
``reshape``, and three fused nodes: the layers ``dense`` and ``gru_step`` and
the loss ``weighted_l1``. Also here: Glorot/zero parameter containers, the
Adam optimizer with per-parameter L2 added to gradients, run over one flat
buffer of every parameter, and the bit-exact checkpoint container used
across the package.
"""

from __future__ import annotations

import base64
import json
import math
from itertools import accumulate
from pathlib import Path

import numpy as np

from .fileio import ListOf, MapOf, OneOf, check_json, open_fresh


class AutodiffError(ValueError):
    """Raised on shape mismatches, non-scalar losses, and bad primitives."""


class Tensor:
    """Handle to one tape node; value is an immutable-by-convention ndarray."""

    __slots__ = ("tape", "node_id", "value", "needs_grad")

    def __init__(self, tape: "Tape", node_id: int, value: np.ndarray, needs_grad: bool):
        self.tape = tape
        self.node_id = node_id
        self.value = value
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, node={self.node_id})"


def _as_f64(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


def _scatter_rows(a: np.ndarray, ids: np.ndarray, n_rows: int) -> np.ndarray:
    """out[ids[k]] += a[k] for every row k, into n_rows zero rows.

    One bincount over flat cell indices; each cell sums its rows in row
    order from +0.0, exactly as ``np.add.at`` does, so the bytes agree.
    """
    cols = a.shape[1]
    flat = (ids[:, None] * cols + np.arange(cols)).ravel()
    out = np.bincount(flat, weights=a.ravel(), minlength=n_rows * cols)
    return out.reshape(n_rows, cols)


#: the GRU parameters of ``Tape.gru_step``, in the order its node lists them
GRU_PARAM_KEYS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


class Tape:
    """Wengert list: append-only record of primitive applications.

    Pullbacks capture arrays and flags, never operand tensors: a tensor
    points at its tape, so a captured tensor would make a reference cycle
    and keep a finished tape's arrays alive until the cyclic collector ran.

    With ``record=False`` the tape stores nothing per node (no parents, no
    pullback, no shape) and ``backward`` refuses to run; node ids still
    count the nodes made.
    """

    def __init__(self, record: bool = True) -> None:
        self.recording = record
        self._n_nodes = 0
        # parallel node storage: parents[i], pullbacks[i] for node i
        self._parents: list[tuple[int, ...]] = []
        self._pullbacks: list = []
        self._needs: list[bool] = []
        self._shapes: list[tuple[int, ...]] = []

    def _record(self, value, parents, pullback, needs_grad) -> Tensor:
        for p in parents:
            if p.tape is not self:
                raise AutodiffError("operand tensor belongs to a different tape")
        node_id = self._n_nodes
        self._n_nodes += 1
        if self.recording:
            self._parents.append(tuple([p.node_id for p in parents]))
            self._pullbacks.append(pullback)
            self._needs.append(needs_grad)
            self._shapes.append(value.shape)
        return Tensor(self, node_id, value, needs_grad)

    # -- leaves ----------------------------------------------------------

    def leaf(self, value) -> Tensor:
        """Differentiable input (a parameter or an optimizable quantity)."""
        return self._record(_as_f64(value), (), None, True)

    def constant(self, value) -> Tensor:
        """Non-differentiable input; backward never visits it."""
        return self._record(_as_f64(value), (), None, False)

    # -- primitives ------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        av, bv = a.value, b.value
        if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
            raise AutodiffError(
                f"matmul shape mismatch: left {av.shape}, right {bv.shape}"
            )
        need_a, need_b = a.needs_grad, b.needs_grad

        def pullback(g):
            ga = g @ bv.T if need_a else None
            gb = av.T @ g if need_b else None
            return ga, gb

        return self._record(av @ bv, (a, b), pullback, need_a or need_b)

    def concat(self, tensors: list[Tensor], axis: int) -> Tensor:
        if not tensors:
            raise AutodiffError("concat needs at least one tensor")
        values = [t.value for t in tensors]
        ndim = values[0].ndim
        if axis < 0 or axis >= ndim:
            raise AutodiffError(f"concat axis {axis} out of range for ndim {ndim}")
        for v in values[1:]:
            if v.ndim != ndim or any(
                v.shape[d] != values[0].shape[d] for d in range(ndim) if d != axis
            ):
                raise AutodiffError(
                    f"concat shape mismatch along axis {axis}: "
                    f"{[v.shape for v in values]}"
                )
        offsets = list(accumulate((v.shape[axis] for v in values), initial=0))
        needs_each = [t.needs_grad for t in tensors]

        def pullback(g):
            out = []
            for k, need in enumerate(needs_each):
                if not need:
                    out.append(None)
                    continue
                sl = [slice(None)] * ndim
                sl[axis] = slice(offsets[k], offsets[k + 1])
                out.append(g[tuple(sl)])
            return tuple(out)

        return self._record(
            np.concatenate(values, axis=axis),
            tuple(tensors),
            pullback,
            any(needs_each),
        )

    def gather(self, a: Tensor, indices) -> Tensor:
        """Select rows by integer index; pullback scatter-adds."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise AutodiffError(f"gather indices must be 1-D, got shape {idx.shape}")
        if a.value.ndim != 2:
            raise AutodiffError(f"gather input must be 2-D, got shape {a.value.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= a.value.shape[0]):
            raise AutodiffError(
                f"gather index out of range for {a.value.shape[0]} rows"
            )
        n_rows = a.value.shape[0]

        def pullback(g):
            return (_scatter_rows(g, idx, n_rows),)

        return self._record(a.value[idx], (a,), pullback, a.needs_grad)

    def segment_sum(self, a: Tensor, segment_ids, n_segments: int) -> Tensor:
        """Sum rows into n_segments buckets keyed by segment_ids.

        Rows whose id is n_segments are padding: they land in no bucket and
        get zero gradient.
        """
        ids = np.asarray(segment_ids, dtype=np.int64)
        if a.value.ndim != 2:
            raise AutodiffError(
                f"segment_sum input must be 2-D, got shape {a.value.shape}"
            )
        if ids.shape != (a.value.shape[0],):
            raise AutodiffError(
                f"segment_ids shape {ids.shape} does not match "
                f"{a.value.shape[0]} input rows"
            )
        if ids.size and (ids.min() < 0 or ids.max() > n_segments):
            raise AutodiffError(f"segment id out of range [0, {n_segments}]")
        out = _scatter_rows(a.value, ids, n_segments + 1)[:n_segments]

        def pullback(g):
            return (np.concatenate([g, np.zeros((1, g.shape[1]))])[ids],)

        return self._record(out, (a,), pullback, a.needs_grad)

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        """Same values in row-major order under a new shape."""
        in_shape = a.value.shape
        if math.prod(shape) != a.value.size:
            raise AutodiffError(f"cannot reshape {in_shape} to {shape}")

        def pullback(g):
            return (g.reshape(in_shape),)

        return self._record(a.value.reshape(shape), (a,), pullback, a.needs_grad)

    # -- fused nodes -----------------------------------------------------
    # One node each, running the numpy ops of the composition of primitives
    # it replaces (tests/oracles.py) in the same order; the pullback adds
    # each input's terms in the order backward() would over those nodes, so
    # values and gradients keep the composition's bytes.

    def dense(self, x: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
        """x @ w + b, then relu if asked."""
        xv, wv = x.value, w.value
        if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0]:
            raise AutodiffError(f"dense shape mismatch: x {xv.shape}, w {wv.shape}")
        if b.value.shape != (wv.shape[1],):
            raise AutodiffError(f"dense bias {b.value.shape} for w {wv.shape}")
        out = xv @ wv
        out += b.value
        if relu:
            mask = out > 0
            np.copyto(out, 0.0, where=~mask)  # NaN and -0.0 become +0.0 too
        need_x, need_w, need_b = x.needs_grad, w.needs_grad, b.needs_grad

        def pullback(g):
            if relu:
                g = g * mask
            return (
                g @ wv.T if need_x else None,
                xv.T @ g if need_w else None,
                g.sum(axis=0) if need_b else None,
            )

        return self._record(out, (x, w, b), pullback, need_x or need_w or need_b)

    def gru_step(
        self, x: Tensor, h: Tensor, mask: np.ndarray, params: dict[str, Tensor]
    ) -> Tensor:
        """One GRU step whose update only lands on rows with mask 1.

        z = sigmoid((x @ w_z + h @ u_z) + b_z), r likewise, and
        h~ = tanh((x @ w_h + (r * h) @ u_h) + b_h) give h' = h + z * (h~ - h);
        the output is h + mask * (h' - h), so a row with mask 0 keeps h.
        ``mask`` is an (n, 1) array of 0/1, not a tape input. With all-zero
        parameters and mask 1 the step halves the state.
        """
        xv, hv = x.value, h.value
        tensors = [params[key] for key in GRU_PARAM_KEYS]
        w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = (t.value for t in tensors)
        (n, d), d_in = hv.shape, xv.shape[-1]
        want = {"w": (d_in, d), "u": (d, d), "b": (d,)}
        if xv.shape != (n, d_in) or mask.shape != (n, 1) or any(
            t.value.shape != want[key[0]] for key, t in zip(GRU_PARAM_KEYS, tensors)
        ):
            raise AutodiffError(
                f"gru_step shape mismatch: x {xv.shape}, h {hv.shape}, "
                f"mask {mask.shape}, w_z {w_z.shape}, u_z {u_z.shape}"
            )
        z = _sigmoid((xv @ w_z + hv @ u_z) + b_z)
        r = _sigmoid((xv @ w_r + hv @ u_r) + b_r)
        rh = r * hv
        h_tilde = np.tanh((xv @ w_h + rh @ u_h) + b_h)
        gap = h_tilde - hv
        out = hv + mask * ((hv + z * gap) - hv)
        need_x, need_h = x.needs_grad, h.needs_grad
        needs = [t.needs_grad for t in tensors]

        def pullback(g):
            g_new = g * mask
            g_gap = g_new * z
            g_h_tilde = g_gap * (1.0 - h_tilde * h_tilde)
            g_rh = g_h_tilde @ u_h.T
            g_r = g_rh * hv * r * (1.0 - r)
            g_z = g_new * gap * z * (1.0 - z)
            # terms in the composition's reverse node order; they are not
            # regrouped (g - g_new + g_new is not g in floating point)
            grads = [None, None]
            if need_x:
                grads[0] = g_h_tilde @ w_h.T + g_r @ w_r.T + g_z @ w_z.T
            if need_h:
                grads[1] = (
                    g - g_new + g_new - g_gap + g_rh * r
                    + g_r @ u_r.T + g_z @ u_z.T
                )
            # per gate: the input weight, the recurrent weight, the bias
            for k, (g_gate, rec_in) in enumerate(
                ((g_z, hv), (g_r, hv), (g_h_tilde, rh))
            ):
                need_w, need_u, need_b = needs[3 * k : 3 * k + 3]
                grads.append(xv.T @ g_gate if need_w else None)
                grads.append(rec_in.T @ g_gate if need_u else None)
                grads.append(g_gate.sum(axis=0) if need_b else None)
            return grads

        return self._record(
            out, (x, h, *tensors), pullback, need_x or need_h or any(needs)
        )

    def weighted_l1(
        self,
        pred: Tensor,
        target: np.ndarray,
        weight: np.ndarray,
        scale: np.ndarray | None = None,
    ) -> Tensor:
        """sum(|pred * scale - target| * weight), a scalar; no scale is 1.

        ``target``, ``weight`` and ``scale`` are arrays of pred's shape, not
        tape inputs. The subgradient at a zero difference is 0.
        """
        pv = pred.value
        if any(a is not None and a.shape != pv.shape for a in (target, weight, scale)):
            raise AutodiffError(
                f"weighted_l1 shape mismatch: pred {pv.shape}, target {target.shape}, "
                f"weight {weight.shape}, scale {getattr(scale, 'shape', None)}"
            )
        diff = (pv if scale is None else pv * scale) - target
        sign = np.sign(diff)

        def pullback(g):
            g = (g * weight) * sign
            return (g if scale is None else g * scale,)

        out = np.asarray((np.abs(diff) * weight).sum())
        return self._record(out, (pred,), pullback, pred.needs_grad)

    # -- backward --------------------------------------------------------

    def backward(self, loss: Tensor) -> "Gradients":
        """Accumulate d(loss)/d(node) for every grad-requiring node."""
        if not self.recording:
            raise AutodiffError("backward on a tape that records no nodes")
        if loss.tape is not self:
            raise AutodiffError("loss tensor belongs to a different tape")
        if loss.value.size != 1:
            raise AutodiffError(
                f"loss must be scalar, got shape {loss.value.shape}"
            )
        grads: list[np.ndarray | None] = [None] * len(self._parents)
        grads[loss.node_id] = np.ones_like(loss.value)
        for node_id in range(loss.node_id, -1, -1):
            g = grads[node_id]
            if g is None or not self._needs[node_id]:
                continue
            pullback = self._pullbacks[node_id]
            if pullback is None:
                continue  # leaf
            parent_grads = pullback(g)
            for parent_id, pg in zip(self._parents[node_id], parent_grads):
                if pg is None or not self._needs[parent_id]:
                    continue
                if grads[parent_id] is None:
                    grads[parent_id] = pg.copy() if pg.base is not None else pg
                else:
                    grads[parent_id] = grads[parent_id] + pg
        return Gradients(self, grads)


class Gradients:
    """Gradient lookup by tensor; absent entries read as zeros."""

    def __init__(self, tape: Tape, grads: list[np.ndarray | None]):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, tensor: Tensor) -> np.ndarray:
        if tensor.tape is not self._tape:
            raise AutodiffError("tensor belongs to a different tape")
        g = self._grads[tensor.node_id]
        if g is None:
            return np.zeros(self._tape._shapes[tensor.node_id], dtype=np.float64)
        return g


# -- parameters ----------------------------------------------------------


class ParamSet:
    """Named float64 arrays with a stable iteration order.

    ``add`` copies its array in. The next read lays every array out, in
    order, as a view into one 1-D buffer, ``flat``, so that whole-set updates
    such as Adam's run as a few operations on that buffer. Arrays read from
    a set are live: Adam and item assignment write into them in place, and
    ``copy`` is the snapshot that shares nothing. (An ``add`` lays the set
    out anew, which leaves the arrays read before it behind.)
    """

    def __init__(self, arrays: dict[str, np.ndarray] | ParamSet | None = None):
        self._arrays: dict[str, np.ndarray] = {}
        self._flat: np.ndarray | None = None
        self._layout: tuple[tuple[str, tuple[int, ...]], ...] = ()
        if arrays:
            for name, arr in arrays.items():
                self.add(name, arr)

    def add(self, name: str, array) -> None:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter name: {name}")
        self._arrays[name] = np.array(array, dtype=np.float64)
        self._flat = None

    def _views(self) -> dict[str, np.ndarray]:
        """The arrays, laid out as views into ``flat`` first if need be."""
        arrays = self._arrays
        if self._flat is None:
            flat = np.concatenate([np.zeros(0), *arrays.values()], axis=None)
            offset = 0
            for name, arr in arrays.items():
                arrays[name] = flat[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            self._layout = tuple((name, arr.shape) for name, arr in arrays.items())
            self._flat = flat
        return arrays

    @property
    def flat(self) -> np.ndarray:
        """Every value, parameter after parameter: the buffer the arrays view."""
        self._views()
        return self._flat

    @property
    def layout(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """(name, shape) of every parameter, in buffer order."""
        self._views()
        return self._layout

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views()[name]

    def __setitem__(self, name: str, array) -> None:
        """Write array's values into the parameter, in place."""
        if name not in self._arrays:
            raise KeyError(f"unknown parameter: {name}")
        new, old = _as_f64(array), self[name]
        if new.shape != old.shape:
            raise ValueError(f"parameter {name}: shape {new.shape} != {old.shape}")
        old[...] = new

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._views().items()

    def count(self) -> int:
        return int(sum(a.size for a in self._arrays.values()))

    def copy(self) -> "ParamSet":
        out = ParamSet()
        out._arrays = dict(self.items())
        out._views()  # lays the values out in a buffer of its own
        return out

    def bind(self, tape: Tape) -> dict[str, Tensor]:
        """Register every parameter as a differentiable leaf on a tape.

        The leaves hold the live arrays, so an Adam step changes their
        values: take the gradients before the step."""
        return {name: tape.leaf(arr) for name, arr in self.items()}


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# -- Adam ------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment estimates, each a ParamSet laid out like the
    parameters, plus the step counter."""

    def __init__(
        self,
        m: dict[str, np.ndarray] | ParamSet,
        v: dict[str, np.ndarray] | ParamSet,
        step: int,
    ):
        self.m = ParamSet(m)
        self.v = ParamSet(v)
        self.step = step
        self._work: _AdamWork | None = None

    @classmethod
    def zeros_like(cls, params: ParamSet) -> "AdamState":
        zeros = {k: np.zeros_like(a) for k, a in params.items()}
        return cls(zeros, zeros, 0)


class _AdamWork:
    """adam_step's masks and scratch buffers for one layout, update set and
    L2 map, kept between steps: fresh whole-buffer temporaries each step
    would cost more than the arithmetic."""

    def __init__(self, layout: tuple, live: tuple, coefs: tuple):
        self.key = (layout, live, coefs)
        self.sizes = [math.prod(shape) for _, shape in layout]
        self.where = True if all(live) else np.repeat(live, self.sizes)
        self.coef = np.repeat(coefs, self.sizes) if any(coefs) else None
        self.l2_mask = None if self.coef is None else self.coef != 0.0
        self.g, self.a = np.empty(sum(self.sizes)), np.empty(sum(self.sizes))


class DivergenceError(RuntimeError):
    """Raised when a gradient goes non-finite during optimization."""


def adam_step(
    params: ParamSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    l2: dict[str, float] | None = None,
    update_only: frozenset[str] | set[str] | None = None,
) -> None:
    """In-place Adam update; L2 coefficients shift gradients by coef * w.

    update_only restricts which parameters move (their moments update too);
    all other parameters and moments are left untouched, which keeps frozen
    weights byte-identical. Every gradient in use is checked before anything
    moves. The update runs over the flat buffers, element by element, with
    the arithmetic of an update array by array, so it gives the same bits;
    L2 and update_only act through masks, since adding a zero would turn a
    -0.0 into +0.0.
    """
    layout = params.layout
    if state.m.layout != layout or state.v.layout != layout:
        raise AutodiffError("Adam moments are not laid out like the parameters")
    live = tuple(update_only is None or name in update_only for name, _ in layout)
    coefs = tuple(
        l2.get(name, 0.0) if keep else 0.0 for (name, _), keep in zip(layout, live)
    ) if l2 else ()
    work = state._work
    if work is None or work.key != (layout, live, coefs):
        work = state._work = _AdamWork(layout, live, coefs)
    g, a = work.g, work.a
    parts = [np.zeros(0)]
    for (name, shape), keep in zip(layout, live):
        part = grads[name] if keep else np.broadcast_to(0.0, shape)
        if part.shape != shape:
            raise AutodiffError(
                f"gradient for parameter {name!r} has shape {part.shape}, not {shape}"
            )
        parts.append(part)
    np.concatenate(parts, axis=None, out=g)
    if not np.isfinite(g).all():
        offset = 0
        for (name, _), size in zip(layout, work.sizes):
            if not np.isfinite(g[offset : offset + size]).all():
                raise DivergenceError(f"non-finite gradient for parameter {name!r}")
            offset += size
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    w, m, v, where = params.flat, state.m.flat, state.v.flat, work.where
    # the per-array update's expressions, one operation at a time
    if work.coef is not None:  # g + coef * w
        np.multiply(work.coef, w, out=a)
        np.add(g, a, out=g, where=work.l2_mask)
    np.multiply(m, ADAM_BETA1, out=m, where=where)  # m = b1 m + (1 - b1) g
    np.multiply(g, 1.0 - ADAM_BETA1, out=a)
    np.add(m, a, out=m, where=where)
    np.multiply(v, ADAM_BETA2, out=v, where=where)  # v = b2 v + (1 - b2) (g g)
    np.multiply(g, g, out=a)
    np.multiply(a, 1.0 - ADAM_BETA2, out=a)
    np.add(v, a, out=v, where=where)
    np.divide(m, bc1, out=a)  # w -= lr (m / bc1) / (sqrt(v / bc2) + eps)
    np.multiply(a, lr, out=a)
    np.divide(v, bc2, out=g)  # g is spent: its buffer takes the denominator
    np.sqrt(g, out=g)
    np.add(g, ADAM_EPS, out=g)
    np.divide(a, g, out=a)
    np.subtract(w, a, out=w, where=where)


# -- checkpoint container --------------------------------------------------

CHECKPOINT_FORMAT = "nettwin-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for a checkpoint file whose layout is not a nettwin checkpoint's."""


def _encode_array(arr: np.ndarray) -> dict:
    raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _decode_array(entry: dict, what: str) -> np.ndarray:
    try:
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        return arr.reshape(entry["shape"])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {what} does not decode: {exc}") from None


def checkpoint_payload(
    params: ParamSet, manifest: dict, adam: AdamState | None = None
) -> dict:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "manifest": manifest,
        "order": params.names(),
        "params": {k: _encode_array(a) for k, a in params.items()},
        "adam": None,
    }
    if adam is not None:
        payload["adam"] = {
            "step": adam.step,
            "m": {k: _encode_array(a) for k, a in adam.m.items()},
            "v": {k: _encode_array(a) for k, a in adam.v.items()},
        }
    return payload


_ARRAYS = MapOf({"shape": ListOf(int), "data": str})  # parameter name -> array

#: a checkpoint file; its manifest is the caller's
CHECKPOINT = {
    "format": OneOf(CHECKPOINT_FORMAT),
    "version": OneOf(CHECKPOINT_VERSION),
    "manifest": dict,
    "order": ListOf(str),
    "params": _ARRAYS,
    "adam": ({"step": int, "m": _ARRAYS, "v": _ARRAYS}, None),
}


def _moments(entries: dict, key: str, params: ParamSet) -> dict[str, np.ndarray]:
    """One Adam moment of a checkpoint, checked to name and shape exactly
    the parameters."""
    extra = [name for name in entries if name not in params]
    if extra:
        raise CheckpointError(
            f"checkpoint Adam {key!r} names parameter {extra[0]!r}, which the "
            f"checkpoint lacks"
        )
    out = {}
    for name, want in params.items():
        if name not in entries:
            raise CheckpointError(f"checkpoint parameter {name!r} has no Adam {key!r}")
        out[name] = _decode_array(entries[name], f"Adam {key!r} of {name!r}")
        if out[name].shape != want.shape:
            raise CheckpointError(
                f"checkpoint parameter {name!r} has shape {want.shape}, "
                f"its Adam {key!r} {out[name].shape}"
            )
    return out


def parse_checkpoint(payload, where: str) -> tuple[ParamSet, dict, AdamState | None]:
    """The parameters, manifest and Adam state of the checkpoint payload read
    from ``where``, once it fits CHECKPOINT.

    Raises CheckpointError, naming the parameter, unless ``order`` lists the
    keys of ``params`` exactly once each, and an Adam blob's ``m`` and ``v``
    name and shape exactly the parameters, with a non-negative ``step``.
    """
    check_json(CHECKPOINT, payload, where, {})
    order, encoded = payload["order"], payload["params"]
    stray = [name for name in order if name not in encoded]
    stray += [name for name in encoded if name not in order]
    stray += [name for k, name in enumerate(order) if name in order[:k]]
    if stray:
        raise CheckpointError(
            f"checkpoint parameter {stray[0]!r} is not listed exactly once in "
            f"both 'order' and 'params'"
        )
    params = ParamSet(
        {name: _decode_array(encoded[name], f"parameter {name!r}") for name in order}
    )
    adam = None
    blob = payload["adam"]
    if blob is not None:
        if blob["step"] < 0:
            raise CheckpointError(
                f"checkpoint Adam step must be a non-negative integer, got {blob['step']}"
            )
        adam = AdamState(
            _moments(blob["m"], "m", params),
            _moments(blob["v"], "v", params),
            blob["step"],
        )
    return params, payload["manifest"], adam


def save_checkpoint(
    path: str | Path, params: ParamSet, manifest: dict, adam: AdamState | None = None
) -> None:
    with open_fresh(path) as fh:
        json.dump(checkpoint_payload(params, manifest, adam), fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[ParamSet, dict, AdamState | None]:
    with open(path, encoding="utf-8") as fh:
        return parse_checkpoint(json.load(fh), str(path))
