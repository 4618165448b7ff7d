"""The TT contraction schedule: every walk of ``tt_stages`` matches the dense
oracle, and the ``ad.tt_linear`` node matches the composite einsum chain.
The TTM lookup schedule: the ``ad.ttm_lookup`` node along ``ttm_stages``
matches the dense oracle and the composite take/einsum chain."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference_tt import (
    calibrate_layer,
    chain_peaks,
    composite_tt_linear,
    composite_ttm_lookup,
    einsum_stages,
    measured_mults,
    quantized_operands,
    tt_matvec_vjp,
    tt_to_dense,
    ttm_to_dense,
)

from ttq import autodiff as ad
from ttq import quant as q
from ttq.accounting import flops_estimate
from ttq.checkpoint import checkpoint_load, checkpoint_save
from ttq.model import ModelConfig, PlanSpec, TransformerModel, TTLinearLayer
from ttq.train import AdamState, TrainConfig, adam_step
from ttq.tt import (
    Stage,
    TensorShapePlan,
    TTFormat,
    init_ttm_cores,
    plan_factorization,
    tt_chain,
    tt_matvec_mult_count,
    tt_stages,
    ttm_lookup_mult_count,
    ttm_stages,
)


@st.composite
def tt_plans(draw):
    d = draw(st.integers(1, 3))
    factors = st.lists(st.integers(1, 3), min_size=d, max_size=d)
    row_factors, col_factors = tuple(draw(factors)), tuple(draw(factors))
    inner = draw(st.lists(st.integers(1, 4), min_size=2 * d - 1, max_size=2 * d - 1))
    padded_rows, padded_cols = math.prod(row_factors), math.prod(col_factors)
    rows = padded_rows - draw(st.integers(0, padded_rows - 1))
    cols = padded_cols - draw(st.integers(0, padded_cols - 1))
    return TensorShapePlan(rows, cols, row_factors, col_factors, (1, *inner, 1))


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_walk_of_the_schedule_matches_dense(plan, batch, seed):
    rng = np.random.default_rng(seed)
    layer = TTLinearLayer(plan, 32, 32, rng, dtype=np.float64)
    cores = [c.data for c in layer.cores]
    x = rng.normal(size=(batch, plan.cols))
    ref = x @ tt_to_dense(cores, plan).T
    tol = dict(rtol=1e-10, atol=1e-12 * np.abs(ref).max())

    np.testing.assert_allclose(tt_chain(x, cores, plan), ref, **tol)
    one_by_one = [tt_chain(row[None], cores, plan)[0] for row in x]
    np.testing.assert_allclose(np.stack(one_by_one), ref, **tol)
    np.testing.assert_allclose(layer.forward(ad.Tensor(x), mode="infer_fp").data, ref, **tol)

    assert measured_mults(cores, plan) == tt_matvec_mult_count(plan)

    quantized = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
    quantized.forward(ad.Tensor(x))  # sets the input scale
    calibrate_layer(quantized, x)
    assert len(quantized.stage_scales) == len(tt_stages(plan))


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_tt_linear_matches_the_composite_chain(plan, batch, seed):
    rng = np.random.default_rng(seed)
    cores = [c.data for c in TTLinearLayer(plan, 32, 32, rng, dtype=np.float64).cores]
    x = rng.normal(size=(batch, plan.cols))
    u = rng.normal(size=(batch, plan.rows))

    def run(chain, rows):
        """The chain's output, then the input gradient and every core gradient."""
        xt = ad.Parameter(x[rows].copy())
        params = [ad.Parameter(c.copy()) for c in cores]
        y = chain(xt, params, plan)
        grads = ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(u[rows]))))
        return [y.data, grads[id(xt)]] + [grads[id(p)] for p in params]

    def close(got, ref):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12 * max(np.abs(ref).max(), 1.0))

    for got, ref in zip(run(ad.tt_linear, slice(None)), run(composite_tt_linear, slice(None))):
        close(got, ref)
    # the reference adjoint is the single-vector case of the same backward
    grads, gx = tt_matvec_vjp(cores, plan, x[0], u[0])
    _, gx_ref, *grads_ref = run(composite_tt_linear, slice(0, 1))
    close(gx, gx_ref[0])
    for g, g_ref in zip(grads, grads_ref):
        close(g, g_ref)


def int64_walk(layer, x):
    """The integer walk in int64: plain ``np.einsum`` over the codes, then the
    requantization rules of ``TTLinearLayer._forward_int``.  When the frozen
    codes ride in float32, the rescales are float32 products (each ratio
    rounded exactly, in float64, from its float32 value), else float64 ones."""
    plan, w_scale, in_scale = layer.plan, float(layer.weight_scale.data), float(layer.act_scale.data)
    work = layer.frozen_cores().codes[0].dtype.type
    cores = [q.quantize(c.data, w_scale, layer.bits).astype(np.int64) for c in layer.cores]
    acc = q.quantize(x, in_scale, layer.act_bits).astype(np.int64)
    acc = np.pad(acc, ((0, 0), (0, plan.padded_cols - plan.cols)))
    stages = einsum_stages(plan)
    for i, (k, in_shape, core_shape, subscripts) in enumerate(stages):
        acc = acc.reshape((len(x),) + in_shape)
        out = np.einsum(subscripts, acc, cores[k].reshape(core_shape)).astype(work)
        real_scale = in_scale * w_scale
        if i == len(stages) - 1:
            acc = out * work(real_scale)
        else:
            in_scale = layer.stage_scales[i]
            r = np.clip(out * work(real_scale / in_scale), -128, 127).astype(np.float64)
            acc = q.round_clipped(r, np.empty_like(r)).astype(np.int64)
    y = acc.reshape(len(x), plan.padded_rows)[:, : plan.rows]
    return y + layer.bias.data


def calibrated_int8_layer(plan, rng, batch, dtype=np.float64):
    layer = TTLinearLayer(plan, 8, 8, rng, dtype=dtype)
    layer.bias.data = rng.normal(size=plan.rows).astype(dtype)
    x = rng.normal(size=(batch, plan.cols)).astype(dtype)
    layer.forward(ad.Tensor(x), mode="train")  # sets the input scale
    calibrate_layer(layer, x)
    return layer


def assert_bitwise_equal(got, ref, dtype=np.float64):
    assert got.dtype == ref.dtype == dtype
    np.testing.assert_array_equal(got.view(f"i{got.itemsize}"), ref.view(f"i{ref.itemsize}"))


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_integer_walk_is_bit_identical_to_int64(plan, batch, seed):
    rng = np.random.default_rng(seed)
    layer = calibrated_int8_layer(plan, rng, batch)
    # wider than the calibration batch, so inputs and stages saturate too
    x = 2.0 * rng.normal(size=(batch, plan.cols))
    assert_bitwise_equal(layer._forward_int(x), int64_walk(layer, x))


def test_integer_walk_exact_next_to_the_accumulator_bound():
    # d=1 with rank 2**17: the last stage sums 2**17 products of saturated
    # codes, reaching 128 * 127 * 2**17 = 2**31 - 2**24, just inside the
    # bound.  One input code of +127 makes the sum odd, so it is not a
    # float32 value: a contraction that is not exact cannot match.
    r = 2 ** 17
    plan = TensorShapePlan(1, 2, (1,), (2,), (1, r, 1))
    layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(3), dtype=np.float64)
    layer.cores[0].data = np.full((1, 1, r), -127.0)
    layer.cores[1].data = np.zeros((r, 2, 1))
    layer.cores[1].data[:, 0, 0] = 1.0
    layer.cores[1].data[0, 0, 0] = -1.0  # stage 0 gives code 127 here, -128 elsewhere
    layer.weight_scale.data = np.asarray(1.0)
    layer.act_scale.data = np.asarray(1.0)
    layer.stage_scales = [1.0, 1.0]
    x = np.array([[-1000.0, -1000.0], [1000.0, 0.0]])
    got = layer._forward_int(x)
    assert_bitwise_equal(got, int64_walk(layer, x))
    assert got[:, 0].tolist() == [(r - 1) * 128 * 127 - 127 * 127, -(r - 2) * 127 * 127]


@given(plan=tt_plans(), batch=st.integers(1, 5), extra=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_integer_layer_rows_do_not_depend_on_batch_mates(plan, batch, extra, seed):
    rng = np.random.default_rng(seed)
    layer = calibrated_int8_layer(plan, rng, batch)
    x = 2.0 * rng.normal(size=(batch + extra, plan.cols))

    def infer(rows):
        return layer.forward(ad.Tensor(rows), mode="infer_int").data

    together = infer(x[:batch])
    for i in range(batch):
        assert_bitwise_equal(infer(x[i:i + 1])[0], together[i])
    assert_bitwise_equal(infer(x)[:batch], together)


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_float32_integer_walk_is_bit_identical_to_int64(plan, batch, seed):
    rng = np.random.default_rng(seed)
    layer = calibrated_int8_layer(plan, rng, batch, dtype=np.float32)
    x = (2.0 * rng.normal(size=(batch, plan.cols))).astype(np.float32)
    assert layer.frozen_cores().codes[0].dtype == np.float32  # K <= 12 here
    assert_bitwise_equal(layer._forward_int(x), int64_walk(layer, x).astype(np.float32),
                         np.float32)


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1),
       k=st.integers(0, 126),
       delta=st.sampled_from([0.0, 2.0 ** -40, -2.0 ** -40, 2.0 ** -24, -2.0 ** -24,
                              2.0 ** -16, -2.0 ** -16]))
@settings(max_examples=60, deadline=None)
# a float64 ratio of 0.49999999999999994, which rounds to 0
@example(plan=TensorShapePlan(3, 2, (3,), (2,), (1, 3, 1)), batch=3, seed=18, k=0, delta=0.0)
def test_float32_requantize_near_a_half_is_bit_identical_to_int64(plan, batch, seed, k, delta):
    # stage 0's largest output times its multiplier lands within |delta| of
    # k + 0.5, where the float32 product may fall on either side.
    rng = np.random.default_rng(seed)
    layer = calibrated_int8_layer(plan, rng, batch, dtype=np.float32)
    x = (2.0 * rng.normal(size=(batch, plan.cols))).astype(np.float32)
    frozen = layer.frozen_cores()
    assert frozen.codes[0].dtype == np.float32
    a_scale = float(layer.act_scale.data)
    x_codes, _ = q.quantize_blocks(x, a_scale, layer.act_bits, np.float32)
    stage = tt_stages(plan)[0]
    acc = np.pad(x_codes, ((0, 0), (0, plan.padded_cols - plan.cols)))
    peak = float(np.abs(stage.forward(acc, frozen.codes[stage.core])).max())
    assume(peak > 0)
    layer.stage_scales[0] = a_scale * frozen.scale * peak / (k + 0.5 + delta)
    assert_bitwise_equal(layer._forward_int(x), int64_walk(layer, x).astype(np.float32),
                         np.float32)


def test_float32_walk_rescales_in_float32(monkeypatch):
    """A float32 layer requantizes next to a half without a float64
    recompute (``round_clipped`` sees float32 ratios only), and its last
    stage's scale and bias make no float64 array the size of the output."""
    plan = TensorShapePlan(1024, 4, (32, 32), (2, 2), (1, 2, 2, 2, 1))
    rng = np.random.default_rng(7)
    layer = calibrated_int8_layer(plan, rng, 32, dtype=np.float32)
    x = (2.0 * rng.normal(size=(32, plan.cols))).astype(np.float32)
    frozen = layer.frozen_cores()
    assert frozen.codes[0].dtype == np.float32
    # each stage's largest output times its multiplier lands on 2.5
    a_scale = float(layer.act_scale.data)
    acc = q.quantize_blocks(x, a_scale, layer.act_bits, np.float32)[0]
    in_scale = a_scale
    for i, stage in enumerate(tt_stages(plan)[:-1]):
        out = stage.forward(acc, frozen.codes[stage.core])
        layer.stage_scales[i] = in_scale * frozen.scale * float(np.abs(out).max()) / 2.5
        acc = q.requantize(out, in_scale * frozen.scale / layer.stage_scales[i])
        in_scale = layer.stage_scales[i]
    ref = int64_walk(layer, x)

    round_clipped = q.round_clipped

    def float32_only(r, out):
        assert r.dtype == out.dtype == np.float32, "a float32 stage was rounded in float64"
        return round_clipped(r, out)

    monkeypatch.setattr(q, "round_clipped", float32_only)
    tracemalloc.start()
    try:
        got = layer._forward_int(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.float32 and peak < 8 * got.size
    assert_bitwise_equal(got, ref, np.float32)


@pytest.mark.parametrize("core0_code, dtype", [(127, np.float32), (-128, np.float64)])
def test_stage_dtype_is_float32_exactly_below_two_to_the_24(core0_code, dtype):
    # d=1 with rank 2**10: stage 1 sums K = 2**10 products of core-0 codes,
    # bound 128 * |code| * 2**10, which is 2**24 at |code| = 128.
    r = 2 ** 10
    plan = TensorShapePlan(1, 2, (1,), (2,), (1, r, 1))
    layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(4), dtype=np.float32)
    layer.cores[0].data = np.full((1, 1, r), float(core0_code), dtype=np.float32)
    layer.cores[1].data = np.ones((r, 2, 1), dtype=np.float32)
    layer.weight_scale.data = np.asarray(1.0, dtype=np.float32)
    layer.act_scale.data = np.asarray(1.0, dtype=np.float32)
    layer.stage_scales = [1.0, 1.0]
    bounds = [128 * int(np.abs(q.quantize(layer.cores[s.core].data, 1.0, 8)).max()) * s.terms
              for s in tt_stages(plan)]
    assert (max(bounds) < 2 ** 24) == (dtype == np.float32)
    assert all(c.dtype == dtype for c in layer.frozen_cores().codes)
    x = np.array([[-1000.0, 3.0], [1000.0, -0.4]], dtype=np.float32)
    assert_bitwise_equal(layer._forward_int(x), int64_walk(layer, x).astype(np.float32),
                         np.float32)


def test_row_stage_bound_counts_rank_terms():
    # d=1 with row mode 2 and rank 2**10: the row stage sums r = 2**10
    # products of core-0 codes |127|, bound 128 * 127 * 2**10 < 2**24, so
    # the codes ride in float32; counting its mode * r terms would double
    # the bound past 2**24 and put them in float64.
    r = 2 ** 10
    plan = TensorShapePlan(2, 2, (2,), (2,), (1, r, 1))
    stage = tt_stages(plan)[-1]
    assert stage.row and stage.terms == r
    layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(5), dtype=np.float32)
    layer.cores[0].data = np.full((1, 2, r), 127.0, dtype=np.float32)
    layer.cores[0].data[0, 1, ::2] = -127.0
    layer.cores[1].data = np.ones((r, 2, 1), dtype=np.float32)
    layer.cores[1].data[::3, 1, 0] = -1.0
    layer.weight_scale.data = np.asarray(1.0, dtype=np.float32)
    layer.act_scale.data = np.asarray(1.0, dtype=np.float32)
    layer.stage_scales = [1.0, 1.0]
    assert 128 * 127 * r < 2 ** 24 <= 128 * 127 * 2 * r
    assert all(c.dtype == np.float32 for c in layer.frozen_cores().codes)
    x = np.array([[-1000.0, 3.0], [1000.0, -0.4], [7.0, 1000.0]], dtype=np.float32)
    assert_bitwise_equal(layer._forward_int(x), int64_walk(layer, x).astype(np.float32),
                         np.float32)


# ---------------------------------------------------------------------------
# The frozen integer plan: cores are quantized once per weight state


def int8_model_layer():
    """A calibrated float32 INT8 toy model and its first encoder's q layer,
    with a few rows to feed that layer."""
    cfg = ModelConfig(vocab_size=24, hidden=16, ffn_dim=32, num_layers=1, num_heads=2,
                      max_seq=8, num_intents=3, num_slots=5, weight_bits=8, act_bits=8,
                      emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM),
                      attn_spec=PlanSpec(d=2, rank=4), ffn_spec=PlanSpec(d=2, rank=4),
                      head_spec=PlanSpec(d=2, rank=4))
    model = TransformerModel(cfg, 13)
    rng = np.random.default_rng(13)
    ids = rng.integers(0, cfg.vocab_size, size=(3, 6))
    mask = (np.arange(6)[None] < np.array([[6], [4], [2]])).astype(np.float64)
    with ad.no_grad():
        model.forward(ids, mask)  # sets the input scales
    model.calibrate_int([(ids, mask)])
    x = rng.normal(size=(5, cfg.hidden)).astype(np.float32)
    return model, model.encoders[0].q_proj, x, (ids, mask)


def assert_matches_int64_walk(layer, x):
    got = layer.forward(ad.Tensor(x), mode="infer_int").data
    assert_bitwise_equal(got, int64_walk(layer, x).astype(np.float32), np.float32)
    return got


def test_adam_steps_refreeze_the_cores():
    model, layer, x, _ = int8_model_layer()
    first = assert_matches_int64_walk(layer, x)
    state, config = AdamState(), TrainConfig(learning_rate=0.05, scale_lr=1e-3)
    for moved in (layer.cores[1], layer.weight_scale):
        before = layer.frozen_cores()
        adam_step([moved], {id(moved): np.ones_like(moved.data)}, state, config,
                  scale_params={id(layer.weight_scale)})
        got = assert_matches_int64_walk(layer, x)
        assert layer.frozen_cores() is not before
        assert not np.array_equal(got, first)
        first = got


def test_set_cores_refreezes_the_cores():
    _, layer, x, _ = int8_model_layer()
    first = assert_matches_int64_walk(layer, x)
    old = weakref.ref(layer.cores[0].data)
    layer.set_cores([-2.0 * c.data for c in layer.cores], layer.plan)
    assert old() is None  # the frozen codes keep no old core alive
    assert not np.array_equal(assert_matches_int64_walk(layer, x), first)


def test_checkpoint_load_freezes_its_own_cores(tmp_path):
    model, layer, x, _ = int8_model_layer()
    first = assert_matches_int64_walk(layer, x)
    checkpoint_save(model, tmp_path / "m.ttq")
    loaded = checkpoint_load(tmp_path / "m.ttq").encoders[0].q_proj
    assert_bitwise_equal(assert_matches_int64_walk(loaded, x), first, np.float32)


def test_new_input_and_stage_scales_apply_without_refreezing():
    _, layer, x, _ = int8_model_layer()
    first = assert_matches_int64_walk(layer, x)
    frozen = layer.frozen_cores()
    layer.act_scale.data = np.asarray(1.5 * float(layer.act_scale.data), dtype=np.float32)
    second = assert_matches_int64_walk(layer, x)
    layer.stage_scales = [2.0 * s for s in layer.stage_scales]
    third = assert_matches_int64_walk(layer, x)
    assert layer.frozen_cores() is frozen
    assert not np.array_equal(first, second) and not np.array_equal(second, third)


def test_calibration_runs_no_chain_beyond_its_forwards(monkeypatch):
    """calibrate_int reads each TT layer's peaks from the chain its
    surrogate forwards run: over two batches it runs the stages of two plain
    no_grad train forwards, and not one more."""
    model, _, _, (ids, mask) = int8_model_layer()
    batches = [(ids, mask), (ids[1:], mask[1:])]
    calls = []
    stage_forward = Stage.forward

    def counting(stage, acc, core, *recycle):
        calls.append(stage)
        return stage_forward(stage, acc, core, *recycle)

    monkeypatch.setattr(Stage, "forward", counting)
    with ad.no_grad():
        for batch in batches:
            model.forward(*batch, mode="train")
    plain = len(calls)
    calls.clear()
    model.calibrate_int(batches)
    assert plain and len(calls) == plain


def test_calibration_scales_are_the_chain_peaks_of_the_node_operands(monkeypatch):
    """calibrate_int over two batches sets each TT layer's stage scales to
    max(peak, 1e-12) / 127 of the stage peaks ``chain_peaks`` reads over the
    fake-quantized input rows and cores of the layer's ``train`` forwards."""
    model, _, _, (ids, mask) = int8_model_layer()
    batches = [(ids, mask), (ids[1:], mask[1:])]
    inputs = {id(layer): [] for layer in model.tt_layers()}
    layer_forward = TTLinearLayer.forward

    def recording(layer, x2d, mode="train"):
        if id(layer) in inputs:
            inputs[id(layer)].append(x2d.data.copy())
        return layer_forward(layer, x2d, mode)

    monkeypatch.setattr(TTLinearLayer, "forward", recording)
    with ad.no_grad():
        for batch in batches:
            model.forward(*batch, mode="train")
    monkeypatch.undo()
    model.calibrate_int(batches)
    for layer in model.tt_layers():
        xs = inputs[id(layer)]
        assert len(xs) == 2
        peaks = np.maximum(*(chain_peaks(*quantized_operands(layer, x, np.float32), layer.plan)
                             for x in xs))
        assert layer.stage_scales == [max(float(p), 1e-12) / 127.0 for p in peaks]


def test_calibration_leaves_every_integer_plan_frozen(monkeypatch):
    """calibrate_int ends with each TT layer's integer cores frozen, so the
    first integer forward quantizes only its input."""
    model, _, _, _ = int8_model_layer()  # calibrated
    frozen = [layer._frozen for layer in model.tt_layers()]

    def requantize(*args, **kwargs):
        raise AssertionError("frozen_cores quantized the cores again")

    monkeypatch.setattr(q, "quantize_blocks", requantize)
    for layer, plan in zip(model.tt_layers(), frozen):
        assert plan is not None and layer.frozen_cores() is plan


def test_calibration_quantizes_each_layers_cores_once(monkeypatch):
    """Over four calibration batches each TT layer's cores are quantized
    once, by ``frozen_cores`` for the weight state, and not once per batch:
    the calibration forwards read the frozen values."""
    model, _, _, (ids, mask) = int8_model_layer()
    for layer in model.tt_layers():  # a new weight state: the frozen cores are stale
        for c in layer.cores:
            c.data = c.data.copy()
    calls = []
    quantize_blocks = q.quantize_blocks

    def counting(x, *args, **kwargs):
        calls.append(id(x))
        return quantize_blocks(x, *args, **kwargs)

    monkeypatch.setattr(q, "quantize_blocks", counting)
    model.calibrate_int([(ids, mask), (ids[1:], mask[1:]), (ids[:2], mask[:2]), (ids, mask)])
    for layer in model.tt_layers():
        assert [calls.count(id(c.data)) for c in layer.cores] == [1] * len(layer.cores)


def test_embedding_integer_lookup_reads_the_fake_quant_values():
    model, _, _, (ids, mask) = int8_model_layer()
    rows = ids.reshape(-1)[mask.reshape(-1) > 0]
    with ad.no_grad():
        got = model.embedding.forward(rows, mode="infer_int").data
        ref = model.embedding.forward(rows, mode="train").data
    assert_bitwise_equal(got, ref, np.float32)


def assert_integer_forward_quantizes_activations_only(monkeypatch, model, ids, mask):
    calls = []
    quantize_blocks = q.quantize_blocks

    def counting(x, *args, **kwargs):
        calls.append(x)
        return quantize_blocks(x, *args, **kwargs)

    monkeypatch.setattr(q, "quantize_blocks", counting)
    with ad.no_grad():
        model.forward(ids, mask, mode="infer_int")
    tt_layers = model.tt_layers()
    assert len(calls) == len(tt_layers)
    cores = [c.data for layer in model.layers() for c in getattr(layer, "cores", [])]
    tokens = int(mask.sum())
    for x, layer in zip(calls, tt_layers):
        assert x.shape == (tokens, layer.in_dim)
        assert not any(x is c for c in cores)


def test_repeated_integer_forward_quantizes_activations_only(monkeypatch):
    model, _, _, (ids, mask) = int8_model_layer()
    with ad.no_grad():
        model.forward(ids, mask, mode="infer_int")
    assert_integer_forward_quantizes_activations_only(monkeypatch, model, ids, mask)


def test_calibration_freezes_the_embedding_cores(monkeypatch):
    """calibrate_int also builds the frozen cores (codes and values) that
    the integer TTM lookup reads, so the first integer forward after it
    quantizes and dequantizes no core."""
    model, _, _, (ids, mask) = int8_model_layer()  # calibrated, no integer forward yet
    frozen = model.embedding._frozen
    assert frozen is not None and "values" in vars(frozen)

    def dequantize(*args, **kwargs):
        raise AssertionError("the first integer forward dequantized the cores")

    monkeypatch.setattr(q, "dequantize", dequantize)
    assert_integer_forward_quantizes_activations_only(monkeypatch, model, ids, mask)
    assert model.embedding._frozen is frozen


# ---------------------------------------------------------------------------
# The TTM lookup schedule


@st.composite
def ttm_plans(draw):
    d = draw(st.integers(1, 5))
    factors = st.lists(st.integers(1, 3), min_size=d, max_size=d)
    row_factors, col_factors = tuple(draw(factors)), tuple(draw(factors))
    inner = draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1))
    padded_rows, padded_cols = math.prod(row_factors), math.prod(col_factors)
    rows = padded_rows - draw(st.integers(0, padded_rows - 1))
    cols = padded_cols - draw(st.integers(0, padded_cols - 1))
    return TensorShapePlan(rows, cols, row_factors, col_factors, (1, *inner, 1), TTFormat.TTM)


def suffix_radix(plan):
    """Rows per prefix: the product of the row factors past the split."""
    return math.prod(plan.row_factors[(plan.order + 1) // 2:])


@st.composite
def lookup_ids(draw, plan):
    """A single id, one id repeated, ids sharing one prefix, or any ids."""
    kind = draw(st.sampled_from(["single", "equal", "shared_prefix", "any"]))
    some_id = st.integers(0, plan.rows - 1)
    if kind == "single":
        return np.array([draw(some_id)])
    count = draw(st.integers(2, 12))
    if kind == "equal":
        return np.full(count, draw(some_id))
    if kind == "any":
        return np.array(draw(st.lists(some_id, min_size=count, max_size=count)))
    tail = suffix_radix(plan)
    prefix = draw(st.integers(0, (plan.rows - 1) // tail))
    suffix = st.integers(0, min(tail, plan.rows - prefix * tail) - 1)
    return prefix * tail + np.array(draw(st.lists(suffix, min_size=count, max_size=count)))


def hand_lookup_mults(plan, ids):
    """The schedule's multiplies counted from its description: prefix cores
    once per distinct prefix, suffix cores once per distinct suffix, one
    (width x r_h) @ (r_h x tail) join per distinct id."""
    h, (r, n) = (plan.order + 1) // 2, (plan.ranks, plan.col_factors)
    prefix = sum(math.prod(n[:k]) * r[k] * n[k] * r[k + 1] for k in range(h))
    suffix = sum(r[k] * n[k] * r[k + 1] * math.prod(n[k + 1:]) for k in range(h, plan.order))
    join = math.prod(n[:h]) * r[h] * math.prod(n[h:])
    tail = suffix_radix(plan)
    return (len(set(ids // tail)) * prefix + len(set(ids % tail)) * suffix
            + len(set(ids)) * join)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_ttm_lookup_matches_dense_rows_and_the_composite_chain(data):
    plan = data.draw(ttm_plans())
    ids = data.draw(lookup_ids(plan))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    cores = init_ttm_cores(plan, rng)
    dense = ttm_to_dense(cores, plan)
    u = rng.normal(size=(len(ids), plan.cols))

    def run(lookup):
        """The rows, then every core gradient of sum(u * rows)."""
        params = [ad.Parameter(c.copy()) for c in cores]
        y = lookup(ids, params, plan)
        grads = ad.backward(ad.sum_all(ad.mul(y, ad.Tensor(u))))
        return [y.data] + [grads[id(p)] for p in params]

    def close(got, ref):
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12 * max(np.abs(ref).max(), 1.0))

    got = run(ad.ttm_lookup)
    close(got[0], dense[ids])
    for g, ref in zip(got, run(composite_ttm_lookup)):
        close(g, ref)
    # the rows are linear in each core: <grad_k, D> is the loss with core k set to D
    for k, grad in enumerate(got[1:]):
        direction = rng.normal(size=grad.shape)
        swapped = cores[:k] + [direction] + cores[k + 1:]
        want = np.sum(u * ttm_to_dense(swapped, plan)[ids])
        np.testing.assert_allclose(np.sum(grad * direction), want, rtol=1e-10,
                                   atol=1e-12 * max(np.abs(u).sum(), 1.0))
    assert ttm_lookup_mult_count(plan) == hand_lookup_mults(plan, ids[:1])


def test_atis_lookup_counts():
    # ATIS embedding: 800 x 768, rows 5*5*4 | 4*2, cols 3*4*4 | 4*4, rank 30
    plan = plan_factorization(800, 768, 5, 30, TTFormat.TTM, row_factors=(5, 5, 4, 4, 2),
                              col_factors=(3, 4, 4, 4, 4))
    assert [(st.side, st.core, st.shape) for st in ttm_stages(plan)] == [
        ("prefix", 0, (1, 1, 90)), ("prefix", 1, (3, 30, 120)), ("prefix", 2, (12, 30, 120)),
        ("suffix", 4, (120, 1, 1)), ("suffix", 3, (120, 30, 4)), ("join", None, (48, 30, 16))]
    # one id alone: 90 + 10,800 + 43,200 prefix, 120 + 14,400 suffix, 23,040 join
    assert ttm_lookup_mult_count(plan) == 91_650
    assert flops_estimate(plan).flops == 2 * 91_650
    # 256 ids over every prefix (100) and suffix (8), 220 distinct: ~10.6M
    # multiplies, tables included, against 256 * 249,840 = 64M per-id chains
    p = np.arange(100)
    ids = np.concatenate([p * 8 + p % 8, p * 8 + (p + 1) % 8, p[:20] * 8 + (p[:20] + 2) % 8])
    ids = np.concatenate([ids, ids[:36]])
    assert len(set(ids)) == 220
    assert hand_lookup_mults(plan, ids) == 100 * 54_090 + 8 * 14_520 + 220 * 23_040 == 10_593_960
