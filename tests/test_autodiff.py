"""Reverse-mode tape: op semantics, finite-difference checks, Adam, checkpoints."""

import gc
import json
import math
import pickle
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nettwin import pipeline
from nettwin.autodiff import (
    ADAM_BETA1,
    GRU_PARAM_KEYS,
    AdamState,
    AutodiffError,
    CheckpointError,
    DivergenceError,
    ParamSet,
    Tape,
    adam_step,
    checkpoint_payload,
    glorot_uniform,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from nettwin.autodiff import _sigmoid
from nettwin.fileio import SchemaError
from nettwin.pipeline import Normalizer
from nettwin.simulator import TASKS
from nettwin.twin import make_model

from conftest import BATCH_DIMS, kind_dims, mixed_samples
from oracles import (
    ComposedTape,
    fd_gradient,
    max_rel_err,
    reference_adam_step,
    reference_dense,
    reference_gru_step,
    reference_sigmoid,
    reference_weighted_l1,
)


def gru_shapes(d_in: int, d_h: int) -> dict[str, tuple[int, ...]]:
    return {
        "w_z": (d_in, d_h), "u_z": (d_h, d_h), "b_z": (d_h,),
        "w_r": (d_in, d_h), "u_r": (d_h, d_h), "b_r": (d_h,),
        "w_h": (d_in, d_h), "u_h": (d_h, d_h), "b_h": (d_h,),
    }


class TestForwardValues:
    def test_relu(self):
        t = ComposedTape()
        out = t.relu(t.constant([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_segment_sum(self):
        t = Tape()
        a = t.constant([[1.0], [2.0], [3.0]])
        out = t.segment_sum(a, [0, 0, 1], 2)
        assert np.array_equal(out.value, [[3.0], [3.0]])

    def test_matmul(self):
        t = Tape()
        a = t.constant([[1.0, 2.0], [3.0, 4.0]])
        b = t.constant([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(t.matmul(a, b).value, [[19.0, 22.0], [43.0, 50.0]])

    def test_add_broadcasts_bias_row(self):
        t = ComposedTape()
        x = t.constant([[1.0, 2.0], [3.0, 4.0]])
        b = t.constant([10.0, 20.0])
        assert np.array_equal(t.add(x, b).value, [[11.0, 22.0], [13.0, 24.0]])

    def test_sigmoid_tanh_stable(self):
        # +-800 pre-activations saturate the gates without overflow: z from
        # b_z, then r from b_r with h_tilde = tanh(1600 r - 800) and z = 1
        t = ComposedTape()
        params = {k: t.constant(np.zeros(s)) for k, s in gru_shapes(2, 3).items()}
        params["b_z"] = t.constant([-800.0, 0.0, 800.0])
        params["b_h"] = t.constant(np.full(3, 800.0))
        x = t.constant(np.zeros((1, 2)))
        z = t.gru_step(x, t.constant(np.zeros((1, 3))), np.ones((1, 1)), params)
        assert np.allclose(z.value, [[0.0, 0.5, 1.0]])
        assert np.all(np.isfinite(z.value))
        params["b_z"] = t.constant(np.full(3, 800.0))
        params["b_r"] = t.constant([-800.0, 0.0, 800.0])
        params["u_h"] = t.constant(1600.0 * np.eye(3))
        params["b_h"] = t.constant(np.full(3, -800.0))
        h = t.leaf(np.ones((1, 3)))
        th = t.gru_step(x, h, np.ones((1, 1)), params)
        assert np.array_equal(th.value, [[-1.0, 0.0, 1.0]])
        assert np.all(np.isfinite(t.backward(t.total_sum(th))[h]))

    def test_gather_and_reshape(self):
        t = Tape()
        a = t.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        g = t.gather(a, [2, 0])
        assert np.array_equal(g.value, [[5.0, 6.0], [1.0, 2.0]])
        assert np.array_equal(t.reshape(g, (4, 1)).value, [[5.0], [6.0], [1.0], [2.0]])
        with pytest.raises(AutodiffError, match="reshape"):
            t.reshape(g, (3, 1))

    def test_concat_axis1(self):
        t = Tape()
        a = t.constant([[1.0], [2.0]])
        b = t.constant([[3.0], [4.0]])
        out = t.concat([a, b], axis=1)
        assert np.array_equal(out.value, [[1.0, 3.0], [2.0, 4.0]])

    def test_reductions(self):
        t = ComposedTape()
        a = t.constant([[1.0, 2.0], [3.0, 4.0]])
        assert t.total_sum(a).value.item() == 10.0
        assert np.array_equal(t.absolute(t.constant([[-2.0, 3.0]])).value, [[2.0, 3.0]])


class TestShapeChecks:
    def test_matmul_mismatch(self):
        t = Tape()
        with pytest.raises(AutodiffError):
            t.matmul(t.constant(np.ones((2, 3))), t.constant(np.ones((2, 3))))

    def test_elementwise_mismatch(self):
        t = ComposedTape()
        with pytest.raises(AutodiffError):
            t.mul(t.constant(np.ones((2, 2))), t.constant(np.ones((2, 3))))
        with pytest.raises(AutodiffError):
            t.sub(t.constant(np.ones((2, 2))), t.constant(np.ones((3, 2))))

    def test_gather_bounds(self):
        t = Tape()
        with pytest.raises(AutodiffError):
            t.gather(t.constant(np.ones((2, 2))), [0, 2])

    def test_segment_bounds(self):
        t = Tape()
        for ids in ([0, 5], [0, 4], [-1, 0]):
            with pytest.raises(AutodiffError, match="segment id"):
                t.segment_sum(t.constant(np.ones((2, 2))), ids, 3)
        # id 3 is the padding slot, which is allowed
        assert t.segment_sum(t.constant(np.ones((2, 2))), [0, 3], 3).value.shape == (3, 2)

    def test_weighted_l1_mismatch(self):
        t = Tape()
        pred = t.constant(np.ones((2, 3)))
        for target, weight, scale in (
            (np.ones((3, 2)), np.ones((2, 3)), None),
            (np.ones((2, 3)), np.ones(3), None),
            (np.ones((2, 3)), np.ones((2, 3)), np.ones((1, 3))),
        ):
            with pytest.raises(AutodiffError, match="weighted_l1"):
                t.weighted_l1(pred, target, weight, scale)

    def test_fused_mismatch(self):
        t = Tape()
        x, w = t.constant(np.ones((2, 3))), t.constant(np.ones((3, 4)))
        b = t.constant(np.ones(4))
        with pytest.raises(AutodiffError, match="dense"):
            t.dense(x, t.constant(np.ones((2, 4))), b, relu=False)
        with pytest.raises(AutodiffError, match="dense"):
            t.dense(x, w, t.constant(np.ones(3)), relu=True)
        params = {k: t.constant(np.zeros(s)) for k, s in gru_shapes(3, 4).items()}
        h = t.constant(np.ones((2, 4)))
        with pytest.raises(AutodiffError, match="gru_step"):
            t.gru_step(x, h, np.ones((2, 4)), params)
        with pytest.raises(AutodiffError, match="gru_step"):
            t.gru_step(t.constant(np.ones((2, 2))), h, np.ones((2, 1)), params)

    def test_backward_scalar_only(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(AutodiffError, match="scalar"):
            t.backward(x)

    def test_cross_tape_rejected(self):
        t1, t2 = ComposedTape(), ComposedTape()
        x1 = t1.leaf(np.ones((1, 1)))
        with pytest.raises(AutodiffError, match="different tape"):
            t2.add(x1, t2.constant(np.ones((1, 1))))
        with pytest.raises(AutodiffError, match="different tape"):
            t2.add(t2.constant(np.ones((1, 1))), x1)
        with pytest.raises(AutodiffError, match="different tape"):
            t2.concat([t2.constant(np.ones((1, 1))), x1, t2.constant(np.ones((1, 1)))], 0)
        loss = t1.total_sum(x1)
        grads = t1.backward(loss)
        with pytest.raises(AutodiffError):
            grads[t2.constant(np.ones((1, 1)))]


class TestTapeLifetime:
    def test_finished_tape_freed_without_cyclic_collector(self):
        # pullbacks must not hold tensors (which point back at the tape):
        # a cycle would keep every finished tape's arrays alive until the
        # collector ran, which batched tapes turn into hundreds of MB
        gc.disable()
        try:
            t = Tape()
            x = t.leaf(np.ones((3, 2)))
            w = t.leaf(np.ones((2, 2)))
            b = t.leaf(np.zeros(2))
            h = t.dense(t.matmul(x, w), w, b, relu=True)
            both = t.segment_sum(t.concat([h, h], 0), [0, 1, 2, 3, 3, 3], 3)
            loss = t.weighted_l1(both, np.zeros((3, 2)), np.ones((3, 2)))
            grads = t.backward(loss)
            ref = weakref.ref(t)
            del t, x, w, b, h, both, loss, grads
            assert ref() is None
        finally:
            gc.enable()

    def test_train_model_keeps_one_step_alive(self, monkeypatch):
        # each step's tape (and the input, loss and gradients that point at
        # it) is gone before the next step records
        tapes = []

        def fresh_tape(*args, **kwargs):
            assert [ref for ref in tapes if ref() is not None] == []
            tape = Tape(*args, **kwargs)
            tapes.append(weakref.ref(tape))
            return tape

        monkeypatch.setattr(pipeline, "Tape", fresh_tape)
        model = make_model("glance", TASKS, 0, dims=kind_dims("glance", BATCH_DIMS, 2))
        norm = Normalizer(np.ones(4), np.zeros(4), np.zeros(4))
        gc.disable()
        try:
            pipeline.train_model(
                model, mixed_samples(), [], norm, epochs=2, batch_size=2,
                lr=1e-3, l2_link=0.0, l2_readout=0.0, seed=0,
            )
        finally:
            gc.enable()
        assert len(tapes) == 4

    def test_backward_frees_captured_arrays(self):
        gc.disable()
        try:
            t = Tape()
            w = t.leaf(np.ones((2, 2)))
            h = t.matmul(t.leaf(np.ones((3, 2))), w)
            out = t.matmul(h, w)  # its pullback captures h's value
            captured = weakref.ref(h.value)
            del h
            loss = t.weighted_l1(out, np.zeros((3, 2)), np.ones((3, 2)))
            assert captured() is not None
            grads = t.backward(loss)
            assert captured() is None
            assert np.array_equal(grads[w], [[12.0, 12.0], [12.0, 12.0]])
        finally:
            gc.enable()

    def test_backward_runs_once(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        loss = t.weighted_l1(t.matmul(x, x), np.zeros((2, 2)), np.ones((2, 2)))
        t.backward(loss)
        with pytest.raises(AutodiffError, match="runs once"):
            t.backward(loss)

    def test_gradients_keep_leaves_only(self):
        t = Tape()
        x, c = t.leaf(np.ones((2, 2))), t.constant(np.ones((2, 2)))
        h = t.matmul(x, c)
        grads = t.backward(t.weighted_l1(h, np.zeros((2, 2)), np.ones((2, 2))))
        assert np.array_equal(grads[x], np.full((2, 2), 2.0))
        assert np.array_equal(grads[c], np.zeros((2, 2)))  # a constant is a leaf
        with pytest.raises(AutodiffError, match="not a leaf"):
            grads[h]


class TestValueOnlyTape:
    """A tape made with record=False: same values and checks, no nodes kept."""

    def test_backward_refused(self):
        t = Tape(record=False)
        x = t.leaf(np.ones((2, 2)))
        loss = t.weighted_l1(x, np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(AutodiffError, match="records no nodes"):
            t.backward(loss)

    def test_keeps_checks_and_stores_no_node(self):
        t = Tape(record=False)
        a = t.constant(np.ones((2, 3)))
        with pytest.raises(AutodiffError, match="matmul shape mismatch"):
            t.matmul(a, a)
        with pytest.raises(AutodiffError, match="gather index out of range"):
            t.gather(a, [2])
        with pytest.raises(AutodiffError, match="segment id out of range"):
            t.segment_sum(a, [0, 3], 2)
        with pytest.raises(AutodiffError, match="different tape"):
            t.matmul(a, Tape(record=False).constant(np.ones((3, 1))))
        h = t.dense(a, t.leaf(np.ones((3, 2))), t.leaf(np.zeros(2)), relu=True)
        assert h.node_id == 3  # ids still count the nodes made
        assert (t._parents, t._pullbacks, t._needs) == ([], [], [])

    def test_only_a_value_only_tape_stacks_blocks(self):
        # a recording tape would need blocked pullbacks, which none has
        with pytest.raises(AutodiffError, match="only without recording"):
            Tape(blocks=2)
        with pytest.raises(AutodiffError, match="only without recording"):
            Tape(record=False, blocks=0)
        assert Tape(record=False, blocks=3).blocks == 3

    def test_stacked_products_are_the_blocks_own(self):
        # each block's rows are those of its product alone, byte for byte,
        # for row operands and for a shared left operator
        rng = np.random.default_rng(12)
        k, m, n = 3, 5, 4
        x, w, b = rng.normal(size=(k * m, n)), rng.normal(size=(n, 7)), rng.normal(size=7)
        op, rows = rng.normal(size=(m, m)), rng.normal(size=(k * m, n))
        t = Tape(record=False, blocks=k)
        got = t.dense(t.constant(x), t.constant(w), t.constant(b), relu=False).value
        shared = t.matmul(t.constant(op), t.constant(rows)).value
        for i in range(k):
            lone = Tape(record=False)
            blk = slice(i * m, (i + 1) * m)
            want = lone.dense(lone.constant(x[blk]), lone.constant(w), lone.constant(b), False)
            assert got[blk].tobytes() == want.value.tobytes()
            assert shared[blk].tobytes() == (op @ rows[blk]).tobytes()
        with pytest.raises(AutodiffError, match="matmul shape mismatch"):
            t.matmul(t.constant(x[:4]), t.constant(w))  # 4 rows in 3 blocks

    def test_values_match_recording_tape(self):
        rng = np.random.default_rng(11)
        x, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        outs = []
        for record in (True, False):
            t = Tape(record=record)
            h = t.dense(t.constant(x), t.constant(w), t.constant(b), relu=True)
            y = t.segment_sum(t.concat([h, h], 0), [0, 1, 2, 3, 3, 0, 1, 2, 3, 3], 3)
            outs.append(t.gather(y, [2, 0]).value.tobytes())
        assert outs[0] == outs[1]

    def test_intermediate_freed_once_dropped(self):
        # with record=False nothing but its tensor holds an intermediate's
        # array; a recording tape keeps it for the next node's pullback
        gc.disable()
        try:
            for record in (True, False):
                t = Tape(record=record)
                w, b = t.leaf(np.ones((2, 2))), t.leaf(np.zeros(2))
                h = t.dense(t.constant(np.ones((3, 2))), w, b, relu=True)
                out = t.dense(h, w, b, relu=False)
                ref = weakref.ref(h.value)
                del h
                assert (ref() is not None) == record
                del t, w, b, out
        finally:
            gc.enable()


class TestScatterBytes:
    """gather's pullback and segment_sum's forward against np.add.at, bit for bit."""

    def cases(self):
        rng = np.random.default_rng(7)
        for n_rows, n_out, cols in ((300, 481, 32), (50, 7, 3), (9, 12, 1), (0, 4, 2)):
            a = rng.normal(size=(n_rows, cols))
            a[rng.random(a.shape) < 0.1] = -0.0
            a[rng.random(a.shape) < 0.05] = 0.0
            # ids repeat and leave some outputs empty
            ids = rng.integers(0, max(n_out // 2, 1), size=n_rows)
            yield a, ids, n_out

    def test_segment_sum_matches_add_at(self):
        for a, ids, n_out in self.cases():
            want = np.zeros((n_out, a.shape[1]))
            np.add.at(want, ids, a)
            t = Tape()
            got = t.segment_sum(t.constant(a), ids, n_out).value
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_gather_pullback_matches_add_at(self):
        for g, ids, n_in in self.cases():
            t = ComposedTape()
            x = t.leaf(np.ones((n_in, g.shape[1])))
            gathered = t.gather(x, ids)
            loss = t.total_sum(t.mul(gathered, t.constant(g)))
            want = np.zeros((n_in, g.shape[1]))
            np.add.at(want, ids, g)
            assert t.backward(loss)[x].tobytes() == want.tobytes()


class TestGradients:
    def test_square_gradient(self):
        t = ComposedTape()
        x = t.leaf([[3.0]])
        loss = t.total_sum(t.mul(x, x))
        grads = t.backward(loss)
        assert grads[x].item() == 6.0

    def test_segment_sum_padding_rows_get_zero_gradient(self):
        # id 2 == n_segments marks a padding row: summed nowhere, and its
        # gradient is an exact +0.0 whatever flows into the buckets
        t = ComposedTape()
        x = t.leaf([[1.0], [2.0], [3.0], [4.0]])
        seg = t.segment_sum(x, [0, 2, 1, 2], 2)
        assert np.array_equal(seg.value, [[1.0], [3.0]])
        loss = t.total_sum(t.mul(seg, t.constant([[-5.0], [-0.0]])))
        want = np.array([[-5.0], [0.0], [-0.0], [0.0]])
        assert t.backward(loss)[x].tobytes() == want.tobytes()

    def test_segment_sum_gradient_is_ones(self):
        t = ComposedTape()
        x = t.leaf([[1.0], [2.0], [3.0]])
        loss = t.total_sum(t.segment_sum(x, [0, 0, 1], 2))
        assert np.array_equal(t.backward(loss)[x], [[1.0], [1.0], [1.0]])

    def test_bias_broadcast_gradient_sums_rows(self):
        t = ComposedTape()
        b = t.leaf([1.0, -1.0])
        loss = t.total_sum(t.add(t.constant(np.zeros((3, 2))), b))
        assert np.array_equal(t.backward(loss)[b], [3.0, 3.0])

    def test_absolute_subgradient_zero_at_kink(self):
        t = ComposedTape()
        x = t.leaf([[0.0, -2.0, 5.0]])
        loss = t.total_sum(t.absolute(x))
        assert np.array_equal(t.backward(loss)[x], [[0.0, -1.0, 1.0]])

    def test_reshape_gradient_takes_input_shape(self):
        t = ComposedTape()
        x = t.leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        w = t.constant(np.arange(6.0).reshape(6, 1))
        loss = t.total_sum(t.mul(t.reshape(x, (6, 1)), w))
        assert np.array_equal(t.backward(loss)[x], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])

    def test_unused_leaf_reads_zero(self):
        t = ComposedTape()
        x = t.leaf([[1.0]])
        y = t.leaf([[2.0]])
        grads = t.backward(t.total_sum(t.mul(x, x)))
        assert np.array_equal(grads[y], [[0.0]])

    def test_composite_mlp_matches_fd(self):
        rng = np.random.default_rng(0)
        leaves = {
            "w1": rng.normal(size=(3, 5)),
            "b1": rng.normal(size=(5,)),
            "w2": rng.normal(size=(5, 4)),
            "b2": rng.normal(size=(4,)),
            "w3": rng.normal(size=(4, 2)),
            "x": rng.normal(size=(6, 3)),
        }

        def forward(values):
            t = ComposedTape()
            ts = {k: t.leaf(v) for k, v in values.items()}
            h1 = t.dense(ts["x"], ts["w1"], ts["b1"], relu=True)
            h2 = t.relu(t.dense(h1, ts["w2"], ts["b2"], relu=False))
            out = t.absolute(t.matmul(h2, ts["w3"]))
            return t, ts, t.total_sum(t.mul(out, out))

        t, ts, loss = forward(leaves)
        grads = t.backward(loss)
        for name, arr in leaves.items():
            def f(_arr, _name=name):
                _t, _ts, _loss = forward(leaves)
                return _loss.value.item()

            fd = fd_gradient(f, arr)
            assert max_rel_err(grads[ts[name]], fd) < 1e-5

    def test_mixed_ops_match_fd(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 3))

        def forward(values):
            t = ComposedTape()
            xs = t.leaf(values)
            g = t.gather(xs, [2, 0, 1, 3, 3])
            s = t.segment_sum(g, [0, 0, 1, 1, 2], 3)
            c = t.concat([s, t.relu(s)], axis=1)
            return t, xs, t.total_sum(t.absolute(c))

        t, xs, loss = forward(x)
        grads = t.backward(loss)
        fd = fd_gradient(lambda a: forward(a)[2].value.item(), x)
        assert max_rel_err(grads[xs], fd) < 1e-5


class TestGruCell:
    def zero_params(self, tape, d_in, d_h):
        return {k: tape.leaf(np.zeros(s)) for k, s in gru_shapes(d_in, d_h).items()}

    def test_zero_params_halve_state(self):
        t = Tape()
        params = self.zero_params(t, 3, 4)
        h = t.constant(np.arange(8.0).reshape(2, 4))
        out = t.gru_step(t.constant(np.zeros((2, 3))), h, np.ones((2, 1)), params)
        assert np.array_equal(out.value, 0.5 * h.value)

    def test_saturated_update_gate_forgets_state(self):
        # b_z = 50 pushes z to 1, and with h_tilde = 0 the state is erased;
        # a row with mask 0 keeps its state all the same
        t = Tape()
        params = self.zero_params(t, 3, 4)
        params["b_z"] = t.constant(np.full(4, 50.0))
        h = t.constant(np.ones((2, 4)))
        out = t.gru_step(t.constant(np.zeros((2, 3))), h, np.array([[1.0], [0.0]]), params)
        assert np.max(np.abs(out.value[0])) < 1e-20
        assert np.array_equal(out.value[1], h.value[1])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        d_in, d_h = 3, 4
        values = {k: rng.normal(size=s) * 0.5 for k, s in gru_shapes(d_in, d_h).items()}
        values["x"] = rng.normal(size=(3, d_in))
        values["h"] = rng.normal(size=(3, d_h))
        mask = np.array([[1.0], [0.0], [1.0]])  # the middle row keeps its state

        def forward():
            t = ComposedTape()
            ts = {k: t.leaf(v) for k, v in values.items()}
            out = t.gru_step(ts["x"], ts["h"], mask, ts)
            return t, ts, t.total_sum(t.mul(out, out))

        t, ts, loss = forward()
        grads = t.backward(loss)
        for name in (*GRU_PARAM_KEYS, "x", "h"):
            fd = fd_gradient(lambda a: forward()[2].value.item(), values[name])
            assert max_rel_err(grads[ts[name]], fd) < 1e-5


class TestDense:
    @pytest.mark.parametrize("relu", [False, True])
    def test_gradient_matches_fd(self, relu):
        rng = np.random.default_rng(4)
        values = {
            "x": rng.normal(size=(5, 3)),
            "w": rng.normal(size=(3, 4)),
            "b": rng.normal(size=(4,)),
        }

        def forward():
            t = ComposedTape()
            ts = {k: t.leaf(v) for k, v in values.items()}
            out = t.dense(ts["x"], ts["w"], ts["b"], relu=relu)
            return t, ts, t.total_sum(t.mul(out, out))

        t, ts, loss = forward()
        if relu:  # some units are off, and none sits at the kink
            pre = values["x"] @ values["w"] + values["b"]
            assert (pre < 0).any() and np.abs(pre).min() > 1e-3
        grads = t.backward(loss)
        for name in values:
            fd = fd_gradient(lambda a: forward()[2].value.item(), values[name])
            assert max_rel_err(grads[ts[name]], fd) < 1e-5

    def test_relu_gives_positive_zero_for_nan(self):
        t = Tape()
        x = t.constant([[np.nan], [-1e-200], [1.0], [-1.0], [0.0], [np.inf], [-np.inf]])
        w = t.constant([[1e-200]])
        b = t.constant([-0.0])
        pre = x.value @ w.value + b.value
        got = t.dense(x, w, b, relu=True).value
        want = np.where(pre > 0, pre, 0.0)
        assert np.isnan(pre[0, 0])
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()

    #: signed zeros, infinities, NaNs, subnormals and the extremes of the range
    RELU_INPUTS = (
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
        1e-308, -1e-308, 1.7e308, -1.7e308, 3.0, -3.0,
    )

    @pytest.mark.parametrize("exact", [False, True], ids=["blas", "exact"])
    @pytest.mark.parametrize(
        "record, blocks", [(False, 1), (False, 3), (True, 1)],
        ids=["values", "stacked", "recording"],
    )
    def test_relu_bytes_at_every_length(self, monkeypatch, record, blocks, exact):
        # lengths 1 to 70 run numpy's SIMD body and its scalar tail. A BLAS
        # product turns -0.0 into +0.0, so the exact variant scales by the
        # 1x1 identity elementwise instead, and pre is the input itself
        if exact:
            monkeypatch.setattr(Tape, "_product", lambda self, av, bv, what: av * bv[0, 0])
        rng = np.random.default_rng(20)
        for n in range(1, 71):
            rows = np.resize(np.roll(self.RELU_INPUTS, n), n * blocks)[:, None]
            t = Tape(record=record, blocks=blocks)
            x, w, b = t.leaf(rows), t.leaf(np.eye(1)), t.leaf([-0.0])
            pre = (rows * 1.0 if exact else rows @ w.value) + b.value
            if exact:
                assert pre.tobytes() == rows.tobytes()
            h = t.dense(x, w, b, relu=True)
            mask = pre > 0
            assert h.value.tobytes() == np.where(mask, pre, 0.0).tobytes(), n
            if record:
                g = rng.normal(size=pre.shape)
                with np.errstate(all="ignore"):  # rows.T @ g meets inf and 1.7e308
                    got = t._pullbacks[h.node_id](g)
                    gm = g * mask
                    want = (gm @ w.value.T, rows.T @ gm, gm.sum(axis=0))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], n

    def test_values(self):
        t = Tape()
        x = t.constant([[1.0, -2.0]])
        w = t.constant([[1.0, 0.0], [0.0, 1.0]])
        b = t.constant([0.5, 0.5])
        assert np.array_equal(t.dense(x, w, b, relu=False).value, [[1.5, -1.5]])
        assert np.array_equal(t.dense(x, w, b, relu=True).value, [[1.5, 0.0]])


def fused_case(rng, tape, shapes, needs, scale):
    """Leaves or constants of the given shapes, drawn at the given scale;
    bit k of ``needs`` makes the k-th input a leaf."""
    return {
        name: (tape.leaf if needs >> k & 1 else tape.constant)(
            rng.normal(size=shape) * scale
        )
        for k, (name, shape) in enumerate(shapes.items())
    }


class TestFusedBytes:
    """The fused nodes against their compositions on ComposedTape, bit for bit.

    A second consumer of each input makes backward add the fused node's
    gradient into a running sum, as it does for a path state that feeds both
    the next step and the link update.
    """

    @staticmethod
    def run(build, rng_seed, shapes, needs, scale):
        out = {}
        for fused in (True, False):
            tape = ComposedTape()
            ts = fused_case(np.random.default_rng(rng_seed), tape, shapes, needs, scale)
            side = [
                tape.total_sum(tape.mul(t, tape.constant(np.full(t.value.shape, 0.25))))
                for t in ts.values()
            ]
            y = build(tape, ts, fused)
            weights = np.random.default_rng(rng_seed + 1).normal(size=y.value.shape)
            loss = tape.total_sum(tape.mul(y, tape.constant(weights)))
            for term in side:
                loss = tape.add(loss, term)
            grads = tape.backward(loss)
            out[fused] = [y.value.tobytes()] + [grads[t].tobytes() for t in ts.values()]
        assert out[True] == out[False]

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.integers(1, 12),
        width=st.sampled_from(["glance", "routenet"]),
        needs=st.integers(1, 2**11 - 1),
        scale=st.sampled_from([0.1, 1.0, 4.0]),
    )
    def test_gru_step(self, seed, rows, width, needs, scale):
        # compact dims: the GRU input is a link embedding (16) and, in
        # glance, the transmitting node's embedding (16) besides
        d_in, d_h = (32 if width == "glance" else 16), 32
        rng = np.random.default_rng(seed)
        mask = (rng.random((rows, 1)) < 0.6).astype(float)
        padded = rng.random(rows) < 0.3  # rows whose state is still zero
        shapes = {"x": (rows, d_in), "h": (rows, d_h), **gru_shapes(d_in, d_h)}

        def build(tape, ts, fused):
            h = ts["h"]
            if padded.any():
                h = tape.mul(h, tape.constant(np.repeat(~padded[:, None], d_h, 1) * 1.0))
            params = {k: ts[k] for k in GRU_PARAM_KEYS}
            if fused:
                return tape.gru_step(ts["x"], h, mask, params)
            return reference_gru_step(tape, ts["x"], h, mask, params)

        self.run(build, seed, shapes, needs, scale)

    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.integers(1, 12),
        d_in=st.sampled_from([8, 32, 64]),
        d_out=st.sampled_from([1, 16, 64]),
        relu=st.booleans(),
        needs=st.integers(1, 2**3 - 1),
    )
    def test_dense(self, seed, rows, d_in, d_out, relu, needs):
        shapes = {"x": (rows, d_in), "w": (d_in, d_out), "b": (d_out,)}

        def build(tape, ts, fused):
            if fused:
                return tape.dense(ts["x"], ts["w"], ts["b"], relu=relu)
            return reference_dense(tape, ts["x"], ts["w"], ts["b"], relu)

        self.run(build, seed, shapes, needs, 1.0)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.integers(1, 12),
        cols=st.integers(1, 4),
        scaled=st.booleans(),
    )
    def test_weighted_l1(self, seed, rows, cols, scaled):
        # some predictions are signed zeros, some cells sit on the kink (a
        # zero difference), some weights are +0 or -0
        rng = np.random.default_rng(seed)
        shape = (rows, cols)
        zeroed = rng.random(shape) < 0.2
        kink = rng.random(shape) < 0.3
        noise = np.where(rng.random(shape) < 0.2, -0.0, rng.normal(size=shape))
        weight = np.where(rng.random(shape) < 0.3, 0.0, rng.uniform(0.0, 2.0, shape))
        weight[rng.random(shape) < 0.1] = -0.0
        scale = rng.uniform(0.1, 4.0, shape) if scaled else None

        def build(tape, ts, fused):
            pred = tape.mul(ts["pred"], tape.constant(np.where(zeroed, 0.0, 1.0)))
            target = np.where(kink, pred.value if scale is None else pred.value * scale, noise)
            if fused:
                return tape.weighted_l1(pred, target, weight, scale)
            return reference_weighted_l1(tape, pred, target, weight, scale)

        self.run(build, seed, {"pred": shape}, 1, 1.0)


SIGMOID_SPECIALS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 709.0, -709.0,
    746.0, -746.0, 5e-324, -5e-324,
]


class TestSigmoidBytes:
    """The one-division logistic against the two-division form, bit for bit."""

    @settings(max_examples=200)
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(SIGMOID_SPECIALS),
            min_size=1,
            max_size=64,
        )
    )
    def test_matches_two_division_form(self, values):
        x = np.array(values)
        assert _sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_every_scale(self):
        rng = np.random.default_rng(2)
        for scale in 10.0 ** np.arange(-300, 309, 7):
            x = rng.normal(size=(40, 8)) * scale
            assert _sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
        x = np.array(SIGMOID_SPECIALS)
        assert _sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()


class TestWeightedL1:
    def test_values_and_subgradient_at_kink(self):
        t = Tape()
        x = t.leaf([[1.0, -2.0, 3.0]])
        j = t.weighted_l1(x, np.array([[0.0, 0.0, 3.0]]), np.array([[2.0, 1.0, 5.0]]))
        assert j.value.item() == 4.0
        assert np.array_equal(t.backward(j)[x], [[2.0, -1.0, 0.0]])

    @pytest.mark.parametrize("scaled", [False, True])
    def test_gradient_matches_fd(self, scaled):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(6, 3))
        target = rng.normal(size=(6, 3))
        weight = rng.uniform(0.0, 2.0, size=(6, 3))
        weight[0] = 0.0
        scale = rng.uniform(0.5, 2.0, size=(6, 3)) if scaled else None

        def forward(values):
            t = Tape()
            x = t.leaf(values)
            return t, x, t.weighted_l1(x, target, weight, scale)

        # no cell within a finite-difference step of the kink
        assert np.abs((pred if scale is None else pred * scale) - target).min() > 1e-3
        t, x, loss = forward(pred)
        fd = fd_gradient(lambda a: forward(a)[2].value.item(), pred)
        assert max_rel_err(t.backward(loss)[x], fd) < 1e-5


class TestParamSet:
    def test_duplicate_and_unknown_names(self):
        ps = ParamSet({"a": np.zeros(2)})
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("a", np.zeros(2))
        with pytest.raises(KeyError):
            ps["b"] = np.zeros(2)

    def test_setitem_shape_checked(self):
        ps = ParamSet({"a": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="shape"):
            ps["a"] = np.zeros((3, 2))

    def test_count_and_copy_independent(self):
        ps = ParamSet({"a": np.zeros((2, 3)), "b": np.ones(4)})
        assert ps.count() == 10
        dup = ps.copy()
        dup["a"] = np.ones((2, 3))
        assert np.all(ps["a"] == 0.0)

    def test_bind_registers_leaves(self):
        ps = ParamSet({"a": np.ones((1, 2))})
        t = ComposedTape()
        bound = ps.bind(t)
        loss = t.total_sum(bound["a"])
        assert np.array_equal(t.backward(loss)[bound["a"]], [[1.0, 1.0]])

    def test_glorot_bounds(self):
        rng = np.random.default_rng(3)
        w = glorot_uniform(rng, 30, 50)
        assert w.shape == (30, 50)
        assert np.max(np.abs(w)) <= math.sqrt(6.0 / 80.0)


class TestParamSetBuffer:
    def test_arrays_view_one_flat_buffer(self):
        ps = ParamSet({"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
        assert ps.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 1.0]
        assert ps.layout == (("a", (2, 3)), ("b", (2,)))
        for name in ps.names():
            assert np.shares_memory(ps[name], ps.flat)

    def test_holds_no_array_of_the_caller(self):
        src = np.zeros(3)
        ps = ParamSet({"a": src})
        ps["a"] = np.ones(3)
        new = np.full(3, 2.0)
        ps["a"] = new
        new[:] = 5.0
        assert np.all(src == 0.0) and np.all(ps["a"] == 2.0)

    def test_copy_is_a_snapshot(self):
        ps = ParamSet({"a": np.ones(2), "b": np.ones(3)})
        snap = ps.copy()
        held = ps["b"]
        adam_step(ps, {"a": np.ones(2), "b": np.ones(3)}, AdamState.zeros_like(ps), 0.1)
        assert np.all(snap["a"] == 1.0) and np.all(snap["b"] == 1.0)
        assert not np.shares_memory(snap.flat, ps.flat)
        assert np.all(held < 1.0)  # a held array is live

    def test_pickle_round_trip_keeps_one_buffer(self):
        # results come back from worker processes by pickle
        ps = ParamSet({"a": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})
        state = AdamState.zeros_like(ps)
        adam_step(ps, {"a": np.ones((2, 3)), "b": np.ones(2)}, state, 0.1)
        q, q_state = pickle.loads(pickle.dumps((ps, state)))
        assert q.layout == ps.layout and q.flat.tobytes() == ps.flat.tobytes()
        for got in (q, q_state.m, q_state.v):
            for name in got.names():
                assert np.shares_memory(got[name], got.flat)
        held = q["a"]
        before = held.copy()
        adam_step(q, {"a": np.ones((2, 3)), "b": np.ones(2)}, q_state, 0.1)
        adam_step(ps, {"a": np.ones((2, 3)), "b": np.ones(2)}, state, 0.1)
        assert np.all(held < before) and held.tobytes() == ps["a"].tobytes()
        assert q_state.m.flat.tobytes() == state.m.flat.tobytes()

    def test_add_lays_out_again(self):
        ps = ParamSet({"a": np.ones(2)})
        assert ps.flat.size == 2
        ps.add("b", np.zeros((1, 3)))
        assert ps.flat.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert ps.layout == (("a", (2,)), ("b", (1, 3)))

    def test_adam_rejects_moments_of_another_layout(self):
        ps = ParamSet({"a": np.ones(2), "b": np.ones(2)})
        swapped = AdamState({"b": np.zeros(2), "a": np.zeros(2)}, {"a": np.zeros(2), "b": np.zeros(2)}, 0)
        with pytest.raises(AutodiffError, match="laid out"):
            adam_step(ps, {"a": np.ones(2), "b": np.ones(2)}, swapped, 0.1)

    def test_adam_rejects_gradient_of_another_shape(self):
        ps = ParamSet({"a": np.ones((2, 2))})
        with pytest.raises(AutodiffError, match="gradient for parameter 'a'"):
            adam_step(ps, {"a": np.ones(4)}, AdamState.zeros_like(ps), 0.1)


ADAM_SHAPES = {"w0": (3, 2), "b0": (2,), "w1": (1, 4), "b1": (4,), "out": (2, 1)}


def signed_zeros(rng, shape):
    """Normal draws with some cells +0.0 and some -0.0."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.15] = 0.0
    a[rng.random(shape) < 0.15] = -0.0
    return a


class TestFlatAdam:
    """adam_step over the flat buffers against Adam array by array, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        l2=st.dictionaries(
            st.sampled_from(sorted(ADAM_SHAPES)), st.sampled_from([0.0, 1e-4, 0.05, 2.0])
        ),
        update_only=st.none() | st.frozensets(st.sampled_from(sorted(ADAM_SHAPES))),
        steps=st.integers(1, 25),
        lr=st.sampled_from([1e-3, 0.1]),
        start_step=st.integers(0, 5),
    )
    def test_matches_array_by_array(self, seed, l2, update_only, steps, lr, start_step):
        rng = np.random.default_rng(seed)
        init = {n: signed_zeros(rng, s) for n, s in ADAM_SHAPES.items()}
        m0 = {n: signed_zeros(rng, s) for n, s in ADAM_SHAPES.items()}
        v0 = {n: np.abs(rng.normal(size=s)) for n, s in ADAM_SHAPES.items()}
        flat = ParamSet(init)
        state = AdamState(m0, v0, start_step)
        ref = {n: a.copy() for n, a in init.items()}
        ref_state = SimpleNamespace(
            m={n: a.copy() for n, a in m0.items()},
            v={n: a.copy() for n, a in v0.items()},
            step=start_step,
        )
        for _ in range(steps):
            grads = {n: signed_zeros(rng, s) for n, s in ADAM_SHAPES.items()}
            adam_step(flat, grads, state, lr, l2=l2, update_only=update_only)
            reference_adam_step(ref, grads, ref_state, lr, l2=l2, update_only=update_only)
        assert state.step == ref_state.step
        for name in ADAM_SHAPES:
            assert flat[name].tobytes() == ref[name].tobytes()
            assert state.m[name].tobytes() == ref_state.m[name].tobytes()
            assert state.v[name].tobytes() == ref_state.v[name].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_checked_before_anything_moves(self, bad):
        rng = np.random.default_rng(8)
        init = {n: rng.normal(size=s) for n, s in ADAM_SHAPES.items()}
        grads = {n: rng.normal(size=s) for n, s in ADAM_SHAPES.items()}
        grads["w1"][0, 2] = bad
        grads["out"][1, 0] = math.nan
        flat = ParamSet(init)
        state = AdamState.zeros_like(flat)
        with pytest.raises(DivergenceError) as got:
            adam_step(flat, grads, state, 0.1)
        ref_state = SimpleNamespace(
            m={n: np.zeros(s) for n, s in ADAM_SHAPES.items()},
            v={n: np.zeros(s) for n, s in ADAM_SHAPES.items()},
            step=0,
        )
        with pytest.raises(DivergenceError) as want:
            reference_adam_step(dict(init), grads, ref_state, 0.1)
        assert str(got.value) == str(want.value) == (
            "non-finite gradient for parameter 'w1'"
        )
        # nothing moved, not even the parameters ahead of the bad one
        assert state.step == 0
        for name, arr in init.items():
            assert flat[name].tobytes() == arr.tobytes()
        assert not state.m.flat.any() and not state.v.flat.any()

    def test_frozen_non_finite_gradient_is_ignored(self):
        ps = ParamSet({"a": np.ones(2), "b": np.ones(2)})
        grads = {"a": np.ones(2), "b": np.array([math.nan, 1.0])}
        adam_step(ps, grads, AdamState.zeros_like(ps), 0.1, update_only={"a"})
        assert np.all(ps["b"] == 1.0) and np.all(ps["a"] < 1.0)


class TestAdam:
    def test_zero_gradient_moves_nothing(self):
        ps = ParamSet({"a": np.array([1.0, -2.0])})
        state = AdamState.zeros_like(ps)
        adam_step(ps, {"a": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(ps["a"], [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        ps = ParamSet({"a": np.array([5.0])})
        state = AdamState.zeros_like(ps)
        adam_step(ps, {"a": np.array([1.0])}, state, lr=0.01)
        assert ps["a"][0] == pytest.approx(5.0 - 0.01, abs=1e-9)

    def test_l2_is_gradient_shift(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        coef = 0.05
        ps_a = ParamSet({"w": w.copy()})
        ps_b = ParamSet({"w": w.copy()})
        st_a = AdamState.zeros_like(ps_a)
        st_b = AdamState.zeros_like(ps_b)
        adam_step(ps_a, {"w": g}, st_a, lr=0.1, l2={"w": coef})
        adam_step(ps_b, {"w": g + coef * w}, st_b, lr=0.1)
        assert ps_a["w"].tobytes() == ps_b["w"].tobytes()

    def test_update_only_freezes_others(self):
        ps = ParamSet({"a": np.ones(2), "b": np.ones(2)})
        state = AdamState.zeros_like(ps)
        before = ps["b"].tobytes()
        adam_step(ps, {"a": np.ones(2)}, state, lr=0.1, update_only=frozenset({"a"}))
        assert ps["b"].tobytes() == before
        assert np.all(state.m["b"] == 0.0) and np.all(state.v["b"] == 0.0)
        assert not np.array_equal(ps["a"], [1.0, 1.0])

    def test_non_finite_gradient_raises(self):
        ps = ParamSet({"a": np.ones(2)})
        state = AdamState.zeros_like(ps)
        with pytest.raises(DivergenceError):
            adam_step(ps, {"a": np.array([1.0, math.nan])}, state, lr=0.1)

    def test_momentum_carries_across_steps(self):
        ps = ParamSet({"a": np.array([0.0])})
        state = AdamState.zeros_like(ps)
        adam_step(ps, {"a": np.array([1.0])}, state, lr=0.1)
        first = ps["a"][0]
        adam_step(ps, {"a": np.array([0.0])}, state, lr=0.1)
        # first moment decays by beta1, so the second step keeps moving
        assert ps["a"][0] < first
        assert state.m["a"][0] == pytest.approx(0.1 * ADAM_BETA1)


class TestCheckpoint:
    def build(self):
        rng = np.random.default_rng(5)
        ps = ParamSet({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))})
        adam = AdamState(
            {k: rng.normal(size=a.shape) for k, a in ps.items()},
            {k: np.abs(rng.normal(size=a.shape)) for k, a in ps.items()},
            7,
        )
        return ps, adam

    def test_round_trip_bit_exact(self, tmp_path):
        ps, adam = self.build()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ps, {"note": "x"}, adam)
        loaded, manifest, adam2 = load_checkpoint(path)
        assert manifest == {"note": "x"}
        for name, arr in ps.items():
            assert loaded[name].tobytes() == arr.tobytes()
            assert adam2.m[name].tobytes() == adam.m[name].tobytes()
            assert adam2.v[name].tobytes() == adam.v[name].tobytes()
        assert adam2.step == 7

    def test_adam_optional(self, tmp_path):
        ps, _ = self.build()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, ps, {})
        _, _, adam = load_checkpoint(path)
        assert adam is None

    def test_payload_format_checked(self):
        ps, _ = self.build()
        payload = checkpoint_payload(ps, {})
        assert payload["format"] == "nettwin-checkpoint"
        with pytest.raises(ValueError, match="checkpoint"):
            parse_checkpoint({"format": "something-else"}, "c.json")
        bad = dict(payload)
        bad["version"] = 99
        with pytest.raises(ValueError, match="version"):
            parse_checkpoint(bad, "c.json")

    def test_save_is_byte_deterministic(self, tmp_path):
        ps, adam = self.build()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, ps, {"k": 1}, adam)
        save_checkpoint(p2, ps, {"k": 1}, adam)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_payload_is_plain_data(self):
        ps, adam = self.build()
        json.dumps(checkpoint_payload(ps, {"x": [1, 2]}, adam))


class TestCheckpointLayout:
    """parse_checkpoint checks the layout of what it reads, naming the field or
    the parameter."""

    def payload(self):
        rng = np.random.default_rng(5)
        ps = ParamSet({"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(2,))})
        adam = AdamState.zeros_like(ps)
        adam.step = 4
        return json.loads(json.dumps(checkpoint_payload(ps, {"k": 1}, adam)))

    @staticmethod
    def encoded(shape):
        return checkpoint_payload(ParamSet({"x": np.zeros(shape)}), {})["params"]["x"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["order"].remove("b"), "parameter 'b' is not listed exactly once"),
            (lambda p: p["order"].append("w"), "parameter 'w' is not listed exactly once"),
            (lambda p: p["params"].pop("w"), "parameter 'w' is not listed exactly once"),
            (lambda p: p.update(order="w"), "'order' must be a list"),
            (lambda p: p.pop("manifest"), "'manifest' is missing"),
            (lambda p: p["params"]["w"].update(data="%%"), "parameter 'w' does not decode"),
            (lambda p: p["params"]["b"].update(shape=[3]), "parameter 'b' does not decode"),
            (lambda p: p["adam"]["m"].pop("w"), "parameter 'w' has no Adam 'm'"),
            (lambda p: p["adam"]["v"].update(z=p["adam"]["v"]["b"]),
             "Adam 'v' names parameter 'z'"),
            (lambda p: p["adam"]["m"].update(w=TestCheckpointLayout.encoded((6,))),
             r"parameter 'w' has shape \(3, 2\), its Adam 'm' \(6,\)"),
            (lambda p: p["adam"]["v"].update(b=TestCheckpointLayout.encoded((2, 1))),
             r"parameter 'b' has shape \(2,\), its Adam 'v' \(2, 1\)"),
            (lambda p: p["adam"].update(step=-1), "non-negative integer, got -1"),
            (lambda p: p["adam"].update(step=4.0), "'adam.step' must be an integer, not 4.0"),
            (lambda p: p["adam"].update(step=True), "'adam.step' must be an integer, not true"),
            (lambda p: p["adam"].pop("v"), "'adam.v' is missing"),
        ],
        ids=[
            "order-lacks", "order-repeats", "params-lack", "order-not-list",
            "no-manifest", "bad-base64", "bad-shape", "m-lacks", "v-extra",
            "m-shape-same-size", "v-shape", "negative-step", "float-step",
            "bool-step", "no-v",
        ],
    )
    def test_layout_mismatch_is_named(self, edit, message):
        payload = self.payload()
        parse_checkpoint(self.payload(), "c.json")  # the untouched payload loads
        edit(payload)
        # the schema names a field of the wrong type, the layout check a parameter
        with pytest.raises((CheckpointError, SchemaError), match=message):
            parse_checkpoint(payload, "c.json")
