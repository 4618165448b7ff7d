"""Engine gradients vs central finite differences (FP64)."""

import contextlib
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_dense import gelu, gelu_vjp
from reference_quant import assert_scale_grad_within_dot_bound, ste_grad_input, ste_grad_scale
from test_quant import KERNEL_SHAPES, bits_of, kernel_input
from ttq import autodiff as ad
from ttq.quant import BLOCK, code_bounds, quantize
from ttq.tt import TensorShapePlan, init_tt_cores, plan_factorization


def finite_diff(f, x, h=1e-6):
    """Central-difference gradient of scalar f at ndarray x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build_loss, params, rtol=1e-6, atol=1e-8, h=1e-6):
    """build_loss() -> scalar Tensor; params: list of leaf Tensors."""
    grads = ad.backward(build_loss())
    for p in params:
        fd = finite_diff(lambda: build_loss().item(), p.data, h=h)
        assert id(p) in grads, f"no grad for {p}"
        np.testing.assert_allclose(grads[id(p)], fd, rtol=rtol, atol=atol)


rng = np.random.default_rng(42)


def randp(*shape):
    return ad.Parameter(rng.normal(size=shape))


class TestElementwiseOps:
    def test_add_mul_broadcast(self):
        a, b = randp(3, 4), randp(4)
        check_op(lambda: ad.sum_all(ad.mul(ad.add(a, b), b)), [a, b])

    def test_sub_div(self):
        a, b = randp(5), ad.Parameter(rng.uniform(0.5, 2.0, size=5))
        check_op(lambda: ad.sum_all(ad.div(ad.sub(a, b), b)), [a, b])

    def test_pow_sqrt_exp_log(self):
        a = ad.Parameter(rng.uniform(0.5, 2.0, size=6))
        check_op(lambda: ad.sum_all(ad.log(ad.add(ad.sqrt(a), ad.pow_const(a, 2.0)))), [a])

    def test_tanh_gelu_relu(self):
        a = randp(7)
        check_op(lambda: ad.sum_all(ad.gelu(ad.tanh(a))), [a])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (0,), (7,), (3, BLOCK + 5), "transposed"])
    def test_gelu_bit_identical_to_expression_form(self, dtype, shape):
        data_rng = np.random.default_rng(7)
        if shape == "transposed":  # a non-contiguous input
            data = (4.0 * data_rng.normal(size=(BLOCK + 5, 3))).astype(dtype).T
            shape = data.shape
        else:
            data = (4.0 * data_rng.normal(size=shape)).astype(dtype)
        x = ad.Parameter(data)
        up = data_rng.normal(size=shape).astype(dtype)
        out = ad.gelu(x)
        gx = ad.backward(ad.sum_all(ad.mul(out, up)))[id(x)]
        want, want_grad = np.asarray(gelu(x.data)), np.asarray(gelu_vjp(x.data, up))
        assert out.data.dtype == dtype and gx.dtype == dtype
        np.testing.assert_array_equal(bits_of(out.data), bits_of(want))
        np.testing.assert_array_equal(bits_of(gx), bits_of(want_grad))

    def test_gelu_allocates_outputs_and_block_scratch_only(self):
        x = ad.Parameter(np.random.default_rng(3).normal(size=(256, 3072)).astype(np.float32))
        up = np.ones(x.shape, dtype=np.float32)
        slack = 4 * 8 * BLOCK
        tracemalloc.start()
        try:
            out = ad.gelu(x)
            held, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            (gx,) = out._node.vjp(up)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert forward_peak < 2 * x.data.nbytes + slack  # the output and the kept tanh
        assert backward_peak < gx.nbytes + slack

    def test_no_grad_gelu_allocates_its_output_and_block_scratch_only(self):
        x = ad.Parameter(np.random.default_rng(3).normal(size=(256, 3072)).astype(np.float32))
        slack = 4 * 8 * BLOCK
        tracemalloc.start()
        try:
            with ad.no_grad():
                out = ad.gelu(x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x.data.nbytes + slack  # the output; the tanh lives in block scratch
        assert held < x.data.nbytes + slack
        np.testing.assert_array_equal(bits_of(out.data), bits_of(gelu(x.data)))

    @pytest.mark.parametrize("grad", [False, True])
    def test_layer_norm_allocates_one_temporary(self, grad):
        data_rng = np.random.default_rng(5)
        x = ad.Parameter(data_rng.normal(size=(256, 3072)).astype(np.float32))
        gamma = ad.Parameter(data_rng.normal(size=3072).astype(np.float32))
        beta = ad.Parameter(data_rng.normal(size=3072).astype(np.float32))
        slack = 4 * 8 * BLOCK
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if grad else ad.no_grad():
                out = ad.layer_norm(x, gamma, beta)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = 2 if grad else 1  # the output, and xhat when a backward will read it
        assert held < kept * x.data.nbytes + slack
        assert peak < 2 * x.data.nbytes + slack  # plus the squares for the variance
        xd, g, b = x.data, gamma.data, beta.data  # the expression form
        mu = xd.mean(axis=-1, keepdims=True)
        xc = xd - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        np.testing.assert_array_equal(bits_of(out.data), bits_of(xc * inv * g + b))


class TestRebuiltOutputs:
    """A recorded ``layer_norm`` or ``gelu`` output carries a ``Rebuild``:
    the array it fills is the output bit for bit, and a TT layer reading it
    gets the gradients it gets from the output itself."""

    @staticmethod
    def recorded(op, data, leaves=None):
        """``op`` of a leaf holding ``data``; the leaves are appended to ``leaves``."""
        x = ad.Parameter(data)
        if op == "gelu":
            params = [x]
            out = ad.gelu(x)
        else:
            data_rng = np.random.default_rng(11)
            gamma, beta = (ad.Parameter(data_rng.normal(size=data.shape[-1]).astype(data.dtype))
                           for _ in range(2))
            params = [x, gamma, beta]
            out = ad.layer_norm(x, gamma, beta)
        if leaves is not None:
            leaves += params
        return out

    @pytest.mark.parametrize("op", ["layer_norm", "gelu"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 7), (5, 9), (2, 3, BLOCK // 3 + 11), (40, 1000)])
    def test_rebuild_is_the_output_bit_for_bit(self, op, dtype, shape):
        data_rng = np.random.default_rng(9)
        out = self.recorded(op, (3.0 * data_rng.normal(size=shape)).astype(dtype))
        rebuild = out.rebuild
        assert rebuild.shape == out.shape and rebuild.dtype == out.data.dtype
        whole = rebuild.array()
        assert whole.flags.c_contiguous
        np.testing.assert_array_equal(bits_of(whole), bits_of(out.data))
        assert rebuild.array() is whole  # filled once
        buf = np.full(out.shape, np.nan, dtype=out.data.dtype)
        assert rebuild.fill(buf) is buf
        np.testing.assert_array_equal(bits_of(buf), bits_of(out.data))

    def test_a_transposed_gelu_input_rebuilds_in_c_order(self):
        data = np.random.default_rng(10).normal(size=(BLOCK + 5, 3)).astype(np.float32).T
        out = self.recorded("gelu", data)
        np.testing.assert_array_equal(bits_of(out.rebuild.array()), bits_of(out.data))

    @pytest.mark.parametrize("op", ["layer_norm", "gelu"])
    def test_unrecorded_outputs_carry_no_rebuild(self, op):
        with ad.no_grad():
            assert self.recorded(op, np.ones((2, 3))).rebuild is None

    @pytest.mark.parametrize("op", ["layer_norm", "gelu"])
    @pytest.mark.parametrize("act_bits", [8, 32])
    @pytest.mark.parametrize("plan", [TensorShapePlan(5, 7, (2, 3), (2, 4), (1, 3, 2, 4, 1)),
                                      plan_factorization(64, 48, 2, 4)], ids=["padded", "48"])
    def test_a_tt_layer_reads_the_rebuild_as_the_output(self, op, act_bits, plan):
        data_rng = np.random.default_rng(12)
        data = data_rng.normal(size=(300, plan.cols)).astype(np.float32)
        cores = [c.astype(np.float32) for c in init_tt_cores(plan, data_rng)]
        u = data_rng.normal(size=(300, plan.rows)).astype(np.float32)
        grads = []
        for keep_output in (False, True):
            leaves = []
            x = self.recorded(op, data.copy(), leaves)
            if keep_output:
                x.rebuild = None  # the node then keeps x.data itself
            params = [ad.Parameter(c.copy()) for c in cores]
            a_scale = ad.Parameter(np.asarray(np.abs(x.data).max() / 127, dtype=np.float32))
            w_scale = ad.Parameter(np.asarray(0.01, dtype=np.float32))
            y = ad.tt_linear(x, params, plan, act=(a_scale, act_bits), weight=(w_scale, 8))
            g = ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(u))))
            grads.append([g.get(id(p)) for p in leaves + params + [a_scale, w_scale]])
        for got, want in zip(*grads):
            if want is not None:
                np.testing.assert_array_equal(bits_of(got), bits_of(want))


class TestShapeOps:
    def test_reshape_transpose(self):
        a = randp(2, 3, 4)
        check_op(lambda: ad.sum_all(ad.mul(ad.transpose(ad.reshape(a, (6, 4)), (1, 0)),
                                           ad.transpose(ad.reshape(a, (6, 4)), (1, 0)))), [a])

    def test_take_accumulates_repeats(self):
        a = randp(5, 3)
        idx = np.array([0, 2, 2, 4])
        check_op(lambda: ad.sum_all(ad.pow_const(ad.take(a, idx, axis=0), 2.0)), [a])

    def test_take_axis1_scatter_matches_add_at(self):
        # integer-valued upstream gradients make every summation order exact
        a = randp(3, 5, 2, 4)
        idx = np.array([4, 0, -1, 4, 2, 0, 4, 1, -3, 4])  # -1 is row 4, -3 is row 2
        w = rng.integers(-9, 10, size=(3, idx.size, 2, 4)).astype(np.float64)
        grads = ad.backward(ad.sum_all(ad.mul(ad.take(a, idx, axis=1), w)))
        ref = np.zeros_like(a.data)
        np.add.at(np.moveaxis(ref, 1, 0), idx, np.moveaxis(w, 1, 0))
        np.testing.assert_array_equal(grads[id(a)], ref)

    def test_slice_axis(self):
        a = randp(4, 6)
        check_op(lambda: ad.sum_all(ad.pow_const(ad.slice_axis(a, 1, 2, 5), 2.0)), [a])

    def test_sum_axis(self):
        a = randp(3, 5, 2)
        for axis in range(3):
            check_op(lambda: ad.sum_all(ad.pow_const(ad.sum_axis(a, axis), 2.0)), [a])


class TestContractionOps:
    def test_matmul_2d(self):
        a, b = randp(3, 4), randp(4, 2)
        check_op(lambda: ad.sum_all(ad.pow_const(ad.matmul(a, b), 2.0)), [a, b])

    def test_matmul_batched(self):
        a, b = randp(2, 3, 4, 5), randp(2, 3, 5, 4)
        check_op(lambda: ad.sum_all(ad.pow_const(ad.matmul(a, b), 2.0)), [a, b])

    def test_matmul_broadcast_weight(self):
        a, b = randp(2, 6, 4), randp(4, 3)
        check_op(lambda: ad.sum_all(ad.pow_const(ad.matmul(a, b), 2.0)), [a, b])

    def test_einsum_chain(self):
        a, b, c = randp(2, 3), randp(3, 4), randp(4, 2)
        check_op(lambda: ad.sum_all(ad.einsum("ij,jk,kl->il", a, b, c)), [a, b, c])

    def test_einsum_batched_tt_stage(self):
        x, core = randp(5, 4, 3), randp(2, 4, 3)
        check_op(lambda: ad.sum_all(ad.pow_const(ad.einsum("bnr,pnr->bp", x, core), 2.0)), [x, core])

    @pytest.mark.parametrize("subscripts", [
        "bln,rn->blr", "blnr,qnr->blq", "brt,qmr->bqmt",  # tests/reference_tt.py
        "blp,pbnq->blnq",  # composite_ttm_lookup, tests/reference_tt.py
    ])
    @given(sizes=st.lists(st.integers(1, 5), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_einsum_matches_plain_numpy(self, subscripts, sizes, seed):
        """Forward and every operand's VJP equal unoptimized np.einsum."""
        size = dict(zip("blnrqmpt", sizes))
        r = np.random.default_rng(seed)
        ins, out = subscripts.split("->")
        in_subs = ins.split(",")
        ops = [ad.Parameter(r.normal(size=[size[c] for c in sub])) for sub in in_subs]
        res = ad.einsum(subscripts, *ops)
        np.testing.assert_allclose(res.data, np.einsum(subscripts, *[o.data for o in ops]),
                                   rtol=1e-10, atol=0)
        w = r.normal(size=res.shape)
        grads = ad.backward(ad.sum_all(ad.mul(res, w)))
        for i, sub in enumerate(in_subs):
            other = in_subs[1 - i]
            ref = np.einsum(f"{out},{other}->{sub}", w, ops[1 - i].data)
            np.testing.assert_allclose(grads[id(ops[i])], ref, rtol=1e-10, atol=0)

    def test_einsum_private_index_rejected(self):
        a = randp(3, 4)
        with pytest.raises(ValueError):
            ad.einsum("ij->i", a)


class TestFusedOps:
    def test_softmax(self):
        a = randp(4, 6)
        w = rng.normal(size=(4, 6))
        check_op(lambda: ad.sum_all(ad.mul(ad.softmax(a), w)), [a])

    def test_softmax_rows_sum_to_one(self):
        s = ad.softmax(randp(8, 5)).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(8), rtol=1e-12)

    def test_log_softmax(self):
        a = randp(3, 7)
        w = rng.normal(size=(3, 7))
        check_op(lambda: ad.sum_all(ad.mul(ad.log_softmax(a), w)), [a])

    def test_layer_norm(self):
        x, g, b = randp(4, 6), randp(6), randp(6)
        w = rng.normal(size=(4, 6))
        check_op(lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, b), w)), [x, g, b], rtol=1e-5)


class TestFakeQuantNode:
    def test_input_gradient_is_masked_passthrough(self):
        x = ad.Parameter(np.array([0.4, 10.0, -10.0, 0.2]))
        s = ad.Parameter(np.asarray(0.1))
        up = np.array([1.0, 2.0, 3.0, 4.0])
        loss = ad.sum_all(ad.mul(ad.fake_quant(x, s, 4), up))
        grads = ad.backward(loss)
        np.testing.assert_array_equal(grads[id(x)], up * ste_grad_input(x.data, 0.1, 4))

    def test_scale_gradient_is_weighted_branch_sum(self):
        x = ad.Parameter(np.array([0.4, 10.0, -10.0, 0.23]))
        s = ad.Parameter(np.asarray(0.1))
        up = np.array([1.0, 2.0, 3.0, 4.0])
        loss = ad.sum_all(ad.mul(ad.fake_quant(x, s, 4), up))
        grads = ad.backward(loss)
        expected = (up * ste_grad_scale(x.data, 0.1, 4)).sum()
        np.testing.assert_allclose(grads[id(s)], expected, rtol=1e-12)

    def test_shared_scale_accumulates_over_uses(self):
        xs = [ad.Parameter(rng.normal(size=5)) for _ in range(3)]
        s = ad.Parameter(np.asarray(0.3))
        loss = ad.sum_all(ad.add(ad.add(ad.fake_quant(xs[0], s, 4), ad.fake_quant(xs[1], s, 4)),
                                 ad.fake_quant(xs[2], s, 4)))
        grads = ad.backward(loss)
        expected = sum(ste_grad_scale(x.data, 0.3, 4).sum() for x in xs)
        np.testing.assert_allclose(grads[id(s)], expected, rtol=1e-12)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale", [0.25, 0.37])
    def test_gradients_bit_identical_to_ste_references(self, bits, dtype, scale):
        lo, hi = code_bounds(bits)
        ratios = np.concatenate([
            [lo, hi, lo - 0.5, hi + 0.5, lo + 0.5, hi - 0.5, 0.5, -0.5, 1.5, -1.5, 0.0, -0.0],
            rng.uniform(lo - 4, hi + 4, size=200),
        ])
        x = ad.Parameter((ratios * scale).astype(dtype))
        s = ad.Parameter(np.asarray(scale))
        up = rng.normal(size=x.shape).astype(dtype)
        grads = ad.backward(ad.sum_all(ad.mul(ad.fake_quant(x, s, bits), up)))
        gx = up * ste_grad_input(x.data, scale, bits).astype(dtype)
        assert grads[id(x)].dtype == dtype
        np.testing.assert_array_equal(bits_of(grads[id(x)]), bits_of(gx))
        assert grads[id(s)].dtype == np.float64
        assert_scale_grad_within_dot_bound(grads[id(s)], x.data, up, scale, bits)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNEL_SHAPES),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([2, 4, 8]),
           st.floats(1e-3, 10.0), st.booleans())
    @settings(max_examples=60, deadline=None)
    # activation-sized: many blocks of the scale gradient's dot products
    @example(seed=5, shape=(248, 3072), dtype=np.float32, bits=8, scale=0.031, transposed=False)
    @example(seed=6, shape=(248, 3072), dtype=np.float64, bits=4, scale=0.4, transposed=True)
    def test_forward_and_backward_bit_identical_to_references(self, seed, shape, dtype, bits,
                                                              scale, transposed):
        x = ad.Parameter(kernel_input(seed, shape, dtype, bits, scale))
        s = ad.Parameter(np.asarray(scale, dtype=dtype))
        scale = float(s.data)
        out = ad.fake_quant(x, s, bits)
        up_rng = np.random.default_rng(seed + 1)
        if transposed and x.data.ndim == 2:
            # the upstream gradient reaches the node as a transposed view
            up = up_rng.normal(size=shape[::-1]).astype(dtype)
            loss = ad.sum_all(ad.mul(ad.transpose(out, (1, 0)), up))
            g = up.T
            assert not g.flags.c_contiguous or g.size <= 1
        else:
            up = up_rng.normal(size=shape).astype(dtype)
            loss = ad.sum_all(ad.mul(out, up))
            g = up
        grads = ad.backward(loss)
        expected = (scale * quantize(x.data, scale, bits)).astype(dtype)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(bits_of(out.data), bits_of(expected))
        gx = g * ste_grad_input(x.data, scale, bits).astype(dtype)
        assert grads[id(x)].dtype == dtype and grads[id(x)].shape == shape
        np.testing.assert_array_equal(bits_of(grads[id(x)]), bits_of(gx))
        assert grads[id(s)].dtype == dtype and grads[id(s)].shape == ()
        assert_scale_grad_within_dot_bound(grads[id(s)], x.data, g, scale, bits)

    def test_full_precision_sentinel_passthrough(self):
        x = randp(4)
        s = ad.Parameter(np.asarray(1.0))
        out = ad.fake_quant(x, s, 32)
        assert out is x


class TestBackwardMechanics:
    def test_double_backward_rejected(self):
        a = randp(3)
        loss = ad.sum_all(ad.mul(a, a))
        ad.backward(loss)
        with pytest.raises(ad.BackwardError):
            ad.backward(loss)

    def test_non_scalar_loss_rejected(self):
        a = randp(3)
        with pytest.raises(ad.BackwardError):
            ad.backward(ad.mul(a, a))

    def test_constant_loss_has_no_graph(self):
        c = ad.Tensor(np.ones(3))
        out = ad.sum_all(ad.mul(c, c))
        with pytest.raises(ad.BackwardError):
            ad.backward(out)

    def test_shared_subgraph_accumulates(self):
        a = randp(4)
        b = ad.mul(a, a)
        loss = ad.sum_all(ad.add(b, b))
        grads = ad.backward(loss)
        np.testing.assert_allclose(grads[id(a)], 4 * a.data, rtol=1e-12)

    def test_no_grad_context_skips_recording(self):
        a = randp(3)
        with ad.no_grad():
            out = ad.sum_all(ad.mul(a, a))
        assert out._node is None and not out.requires_grad

    def test_no_grad_loss_has_no_graph(self):
        a = randp(3)
        with ad.no_grad():
            out = ad.sum_all(ad.mul(a, a))
        with pytest.raises(ad.BackwardError):
            ad.backward(out)

    def test_backward_into_a_consumed_subgraph_rejected(self):
        a = randp(3)
        b = ad.mul(a, a)
        ad.backward(ad.sum_all(b))
        with pytest.raises(ad.BackwardError):
            ad.backward(ad.sum_all(ad.scale(b, 2.0)))

    def test_leaf_loss_gets_gradient_one(self):
        a = ad.Parameter(np.asarray(2.5))
        grads = ad.backward(a)
        assert list(grads) == [id(a)] and grads[id(a)] == 1.0


def gelu_loss(keep_input: bool):
    """sum(gelu(a + b) * w) on fresh leaves; returns the leaves, the loss and
    a weak reference to ``a + b``'s array, whose Tensor only the graph
    sees unless ``keep_input``."""
    data_rng = np.random.default_rng(8)
    a, b = ad.Parameter(data_rng.normal(size=(6, 5))), ad.Parameter(data_rng.normal(size=5))
    w = data_rng.normal(size=(6, 5))
    x = ad.add(a, b)
    loss = ad.sum_all(ad.mul(ad.gelu(x), w))
    return (a, b), loss, weakref.ref(x.data), (x if keep_input else None)


class TestSavedArrays:
    """A node keeps the arrays its backward reads and nothing else, and what
    it keeps does not depend on what the caller holds."""

    def test_an_output_no_backward_reads_is_freed_with_its_tensor(self):
        a, b = randp(6, 5), randp(5)
        w = rng.normal(size=(6, 5))
        grads = []
        for keep in (True, False):
            y = ad.add(a, b)
            alive = weakref.ref(y.data)
            loss = ad.sum_all(ad.mul(ad.scale(y, 3.0), w))
            if not keep:
                del y
                assert alive() is None
            g = ad.backward(loss)
            grads.append([g[id(a)], g[id(b)]])
        for held, freed in zip(*grads):
            np.testing.assert_array_equal(bits_of(freed), bits_of(held))

    def test_an_input_a_backward_reads_lives_until_the_backward(self):
        grads = []
        for keep in (True, False):
            leaves, loss, alive, _held = gelu_loss(keep)
            assert alive() is not None
            g = ad.backward(loss)
            if not keep:
                assert alive() is None  # the consumed node let go of it
            grads.append([g[id(p)] for p in leaves])
        for held, freed in zip(*grads):
            np.testing.assert_array_equal(bits_of(freed), bits_of(held))

    def test_parameters_free_without_the_cycle_collector(self):
        # a node refers to a parameter directly; nothing refers back
        gc.disable()
        try:
            p = randp(4)
            alive = weakref.ref(p.data)
            loss = ad.sum_all(ad.mul(p, p))
            ad.backward(loss)
            del p, loss
            assert alive() is None
        finally:
            gc.enable()
