"""The quantized TT layer as one ``ad.tt_linear`` node: outputs and every
gradient byte for byte those of the ``fake_quant`` + ``tt_linear`` + ``add``
composition (``reference_tt.composed_tt_layer``), the input scale's
first-forward init and the calibration peaks at the layer's call site, and
what the node keeps for its backward.  The quantized TTM lookup as one
``ad.ttm_lookup`` node: byte for byte the ``fake_quant`` per core + lookup
composition (``reference_tt.composed_ttm_lookup``)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_tt import chain_peaks, composed_tt_layer, composed_ttm_lookup, quantized_operands
from test_schedule import lookup_ids, tt_plans, ttm_plans

from ttq import autodiff as ad
from ttq import quant as q
from ttq.model import TTLinearLayer, tt_chain_apply
from ttq.tt import TensorShapePlan, TTFormat, plan_factorization, tt_stages


def run_layer(layer_fn, plan, arrays, act_bits, w_bits, use_bias):
    """Output and gradients of ``sum(u * layer_fn(...))`` on fresh leaves:
    (output, x grad, core grads..., bias grad, input scale grad, weight scale
    grad), leaves without a quantizer or bias omitted."""
    x, cores, bias, a_scale, w_scale, u = arrays
    xt = ad.Parameter(x.copy())
    params = [ad.Parameter(c.copy()) for c in cores]
    b = ad.Parameter(bias.copy()) if use_bias else None
    a_s, w_s = ad.Parameter(a_scale.copy()), ad.Parameter(w_scale.copy())
    y = layer_fn(xt, params, plan, b, (a_s, act_bits), (w_s, w_bits))
    grads = ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(u))))
    leaves = [xt, *params] + ([b] if use_bias else [])
    leaves += [s for s, bits in ((a_s, act_bits), (w_s, w_bits)) if bits != q.FULL_PRECISION]
    return [y.data] + [grads.get(id(leaf)) for leaf in leaves]


def layer_arrays(plan, batch, dtype, clip, seed):
    """Input, cores, bias, both scales (a ``clip`` fraction of the peak over
    127, so some values saturate at low widths) and the upstream gradient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, plan.cols)).astype(dtype)
    cores = [rng.normal(size=s).astype(dtype) for s in plan.core_shapes()]
    bias = rng.normal(size=plan.rows).astype(dtype)
    flat = np.concatenate([c.ravel() for c in cores])
    a_scale = np.asarray(clip * np.abs(x).max() / 127, dtype=dtype)
    w_scale = np.asarray(clip * np.abs(flat).max() / 127, dtype=dtype)
    u = rng.normal(size=(batch, plan.rows)).astype(dtype)
    return x, cores, bias, a_scale, w_scale, u


PADDED = TensorShapePlan(5, 7, (2, 3), (2, 4), (1, 3, 2, 4, 1))
UNPADDED = TensorShapePlan(6, 8, (2, 3), (2, 4), (1, 3, 2, 4, 1))


@given(plan=tt_plans(), batch=st.integers(1, 5),
       act_bits=st.sampled_from(q.ALLOWED_BITS), w_bits=st.sampled_from(q.ALLOWED_BITS),
       dtype=st.sampled_from([np.float32, np.float64]), clip=st.sampled_from([0.3, 1.0]),
       use_bias=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(plan=PADDED, batch=3, act_bits=8, w_bits=8, dtype=np.float32, clip=1.0,
         use_bias=True, seed=1)
@example(plan=UNPADDED, batch=3, act_bits=2, w_bits=4, dtype=np.float32, clip=0.3,
         use_bias=True, seed=2)
@settings(max_examples=80, deadline=None)
def test_node_is_byte_identical_to_the_composition(plan, batch, act_bits, w_bits, dtype, clip,
                                                   use_bias, seed):
    arrays = layer_arrays(plan, batch, dtype, clip, seed)
    got = run_layer(tt_chain_apply, plan, arrays, act_bits, w_bits, use_bias)
    want = run_layer(composed_tt_layer, plan, arrays, act_bits, w_bits, use_bias)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


@given(data=st.data(), bits=st.sampled_from(q.ALLOWED_BITS),
       dtype=st.sampled_from([np.float32, np.float64]), clip=st.sampled_from([0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(data=None, bits=8, dtype=np.float32, clip=1.0, seed=1)
@example(data=None, bits=2, dtype=np.float64, clip=0.3, seed=2)
@settings(max_examples=80, deadline=None)
def test_ttm_node_is_byte_identical_to_the_composition(data, bits, dtype, clip, seed):
    """Rows and every gradient, the weight scale's included, of the fused
    weight quantizer equal those of a ``fake_quant`` node per core feeding a
    plain lookup, byte for byte.  The explicit examples take the padded
    3-core ATIS-like plan below."""
    if data is None:
        plan = TensorShapePlan(23, 10, (2, 3, 4), (2, 1, 5), (1, 3, 2, 1), TTFormat.TTM)
        ids = np.array([0, 5, 22, 5, 13])
    else:
        plan = data.draw(ttm_plans())
        ids = data.draw(lookup_ids(plan))
    rng = np.random.default_rng(seed)
    cores = [rng.normal(size=s).astype(dtype) for s in plan.core_shapes()]
    flat = np.concatenate([c.ravel() for c in cores])
    scale = np.asarray(clip * np.abs(flat).max() / 127, dtype=dtype)
    u = rng.normal(size=(len(ids), plan.cols)).astype(dtype)

    def run(lookup):
        params = [ad.Parameter(c.copy()) for c in cores]
        s = ad.Parameter(scale.copy())
        y = lookup(ids, params, plan, (s, bits))
        grads = ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(u))))
        leaves = params + ([s] if bits != q.FULL_PRECISION else [])
        return [y.data] + [grads.get(id(leaf)) for leaf in leaves]

    got, want = run(ad.ttm_lookup), run(composed_ttm_lookup)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


def test_first_forward_sets_the_input_scale_and_calibration_folds_peaks():
    """Calibration folds the max |out| of each stage of the chain the
    forward runs: ``tt_chain`` over the fake-quantized input and cores, the
    same arithmetic, so the peaks are equal bit for bit."""
    rng = np.random.default_rng(3)
    layer = TTLinearLayer(plan_factorization(12, 16, 2, 3), 8, 8, rng)
    x1 = rng.normal(size=(6, 16)).astype(np.float32)
    x2 = 3 * rng.normal(size=(4, 16)).astype(np.float32)
    assert not layer.act_scale_ready
    layer._calib_peaks = np.full(len(tt_stages(layer.plan)), -np.inf)
    with ad.no_grad():
        layer.forward(ad.Tensor(x1))
        scale = float(layer.act_scale.data)
        assert layer.act_scale_ready and scale == np.float32(q.init_scale(x1, 8))
        peaks1 = chain_peaks(*quantized_operands(layer, x1, np.float32), layer.plan)
        np.testing.assert_array_equal(layer._calib_peaks, peaks1)
        layer.forward(ad.Tensor(x2))
        layer.forward(ad.Tensor(x2[:0]))  # no rows: nothing to fold
    assert float(layer.act_scale.data) == scale  # set once
    peaks2 = chain_peaks(*quantized_operands(layer, x2, np.float32), layer.plan)
    np.testing.assert_array_equal(layer._calib_peaks, np.maximum(peaks1, peaks2))
    # infer_fp reads neither the input scale nor the peaks
    fresh = TTLinearLayer(plan_factorization(12, 16, 2, 3), 8, 8, rng)
    fresh.forward(ad.Tensor(x1), mode="infer_fp")
    assert not fresh.act_scale_ready


def held_bytes(fn):
    """(result, bytes still allocated after ``fn()`` returned)."""
    fn()  # warm the plan's stage cache
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("plan", [PADDED, plan_factorization(64, 64, 2, 4)], ids=["padded", "64"])
def test_node_keeps_codes_not_values(plan):
    """Under ``no_grad`` the layer's walk keeps nothing but its output (the
    warm-up call builds the frozen cores).  Recorded, the node keeps the
    int8 codes of its input and cores and a few scalars: no float copy of
    the quantized input or cores, and no stage input, which the backward
    computes again from the codes."""
    rng = np.random.default_rng(4)
    layer = TTLinearLayer(plan, 8, 8, rng)
    x = ad.Parameter(rng.normal(size=(256, plan.cols)).astype(np.float32))
    with ad.no_grad():
        out, held = held_bytes(lambda: layer.forward(x))
    assert out._node is None and not out.requires_grad
    assert held < out.data.nbytes + 1024

    codes = x.data.size + sum(c.data.size for c in layer.cores)
    out, held = held_bytes(lambda: layer.forward(x))
    assert out._node is not None
    assert held < out.data.nbytes + codes + 4096
    assert math.prod(x.shape) * 4 > 4096  # a float32 copy of the input would not fit


def test_recorded_calibration_folds_each_stage_once_per_forward():
    """A calibrating ``no_grad`` forward, the layer's own walk, folds stage
    i once, to the peaks of ``chain_peaks``, records nothing, and returns
    the recorded node's output bit for bit (padded rows and columns,
    float64, included)."""
    for plan, dtype in ((plan_factorization(12, 16, 2, 3), np.float32), (PADDED, np.float64)):
        rng = np.random.default_rng(6)
        layer = TTLinearLayer(plan, 8, 8, rng, dtype=dtype)
        x = ad.Parameter(rng.normal(size=(5, plan.cols)).astype(dtype))
        n = len(tt_stages(layer.plan))
        calls = []
        fold = layer._fold_peaks
        layer._fold_peaks = lambda i, *args: calls.append(i) or fold(i, *args)
        want_y = layer.forward(x)
        assert want_y._node is not None and not calls
        layer._calib_peaks = np.full(n, -np.inf)
        with ad.no_grad():
            y = layer.forward(x)
        assert y._node is None and calls == list(range(n))
        assert y.data.dtype == want_y.data.dtype and y.data.tobytes() == want_y.data.tobytes()
        want = chain_peaks(*quantized_operands(layer, x.data, dtype), layer.plan)
        np.testing.assert_array_equal(layer._calib_peaks, want)
