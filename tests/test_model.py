"""Model-level tests: TT layer modes, encoder behaviour, traces, accounting."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_dense import reference_forward, tt_model_from_dense
from reference_tt import (calibrate_layer, chain_peaks, quantized_operands, tt_to_dense,
                          ttm_to_dense)

from ttq import autodiff as ad
from ttq import quant as q
from ttq.config import RunConfig
from ttq.model import (
    ModeError,
    ModelConfig,
    PlanSpec,
    TransformerModel,
    TTLinearLayer,
    TTMEmbedding,
    model_flops,
    model_size_bytes,
)
from ttq.quant import KernelError
from ttq.train import intent_slot_loss
from ttq.tt import (
    TensorShapePlan,
    TTFormat,
    plan_factorization,
    tt_stages,
)


def toy_config(**kw):
    base = dict(
        vocab_size=24, hidden=16, ffn_dim=32, num_layers=2, num_heads=2,
        max_seq=8, num_intents=3, num_slots=5, compress=True,
        weight_bits=32, act_bits=32, dtype="float64",
        emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM),
        attn_spec=PlanSpec(d=2, rank=4),
        ffn_spec=PlanSpec(d=2, rank=4),
        head_spec=PlanSpec(d=2, rank=4),
    )
    base.update(kw)
    return ModelConfig(**base)


def random_batch(cfg, batch=3, seq=6, seed=0, ragged=True):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, cfg.vocab_size, size=(batch, seq))
    mask = np.ones((batch, seq), dtype=np.float64)
    if ragged:
        mask[0, seq - 2:] = 0.0
    return ids, mask


def ragged_batch(cfg, lengths, width, seed=0):
    """Utterances of ``lengths`` real tokens, padded to ``width``."""
    ids = np.random.default_rng(seed).integers(0, cfg.vocab_size, size=(len(lengths), width))
    return ids, (np.arange(width) < np.array(lengths)[:, None]).astype(np.float64)


def all_padding(cfg, batch=2):
    """A batch whose every position is padding."""
    return np.zeros((batch, cfg.max_seq), dtype=np.int64), np.zeros((batch, cfg.max_seq))


class TestTTLinearLayer:
    def test_rank_one_ones_fp32_sums_input(self):
        plan = TensorShapePlan(6, 6, (2, 3), (3, 2), (1, 1, 1, 1, 1), TTFormat.TT)
        layer = TTLinearLayer(plan, 32, 32, np.random.default_rng(0), dtype=np.float64)
        for i, c in enumerate(layer.cores):
            c.data = np.ones_like(c.data)
        layer.bias.data[:] = 0.0
        x = np.arange(12.0).reshape(2, 6)
        y = layer.forward(ad.Tensor(x), mode="train")
        np.testing.assert_allclose(y.data, np.repeat(x.sum(axis=1, keepdims=True), 6, axis=1))

    def test_zero_cores_zero_output(self):
        plan = plan_factorization(8, 8, 2, 3)
        layer = TTLinearLayer(plan, 32, 32, np.random.default_rng(1), dtype=np.float64)
        for c in layer.cores:
            c.data = np.zeros_like(c.data)
        layer.bias.data[:] = 0.0
        y = layer.forward(ad.Tensor(np.ones((2, 8))), mode="train")
        np.testing.assert_allclose(y.data, np.zeros((2, 8)))

    def test_chain_matches_dense_reconstruction(self):
        rng = np.random.default_rng(2)
        plan = plan_factorization(12, 18, 2, 5)
        layer = TTLinearLayer(plan, 32, 32, rng, dtype=np.float64)
        x = rng.normal(size=(4, 18))
        y = layer.forward(ad.Tensor(x), mode="infer_fp")
        w = tt_to_dense([c.data for c in layer.cores], plan)
        np.testing.assert_allclose(y.data, x @ w.T + layer.bias.data, rtol=1e-11, atol=1e-12)

    def test_train_mode_uses_fake_quant_surrogate(self):
        rng = np.random.default_rng(3)
        plan = plan_factorization(8, 8, 2, 2)
        layer = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
        x = rng.normal(size=(2, 8))
        y = layer.forward(ad.Tensor(x), mode="train")
        assert layer.act_scale_ready
        y_fp = layer.forward(ad.Tensor(x), mode="infer_fp")
        assert not np.allclose(y.data, y_fp.data)  # quantization visibly differs

    def test_infer_int_close_to_train_surrogate(self):
        # documented bound: 2.5e-2 relative L2 (2d-1 INT8 requant stages; see
        # module docstring for the noise budget)
        for seed in range(5):
            rng = np.random.default_rng(4 + seed)
            plan = plan_factorization(24, 24, 2, 4)
            layer = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
            x = rng.normal(size=(16, 24))
            ref = layer.forward(ad.Tensor(x), mode="train").data
            calibrate_layer(layer, x)
            out = layer.forward(ad.Tensor(x), mode="infer_int").data
            rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
            assert rel < 2.5e-2

    def test_float32_infer_int_close_to_train_surrogate(self):
        # a float32 layer's codes ride in float32 and it rescales in float32;
        # the documented 2.5e-2 relative L2 bound is the same
        for seed in range(5):
            rng = np.random.default_rng(4 + seed)
            plan = plan_factorization(24, 24, 2, 4)
            layer = TTLinearLayer(plan, 8, 8, rng, dtype=np.float32)
            x = rng.normal(size=(16, 24)).astype(np.float32)
            ref = layer.forward(ad.Tensor(x), mode="train").data
            calibrate_layer(layer, x)
            assert layer.frozen_cores().codes[0].dtype == np.float32
            out = layer.forward(ad.Tensor(x), mode="infer_int").data
            assert out.dtype == np.float32
            rel = np.linalg.norm(out - ref) / np.linalg.norm(ref)
            assert rel < 2.5e-2

    def test_infer_int_single_core_stage_within_spec_bound(self):
        # with a single intermediate requantization (d=1) the 1e-2 bound holds
        rng = np.random.default_rng(40)
        plan = plan_factorization(24, 24, 1, 4)
        layer = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
        x = rng.normal(size=(16, 24))
        ref = layer.forward(ad.Tensor(x), mode="train").data
        calibrate_layer(layer, x)
        out = layer.forward(ad.Tensor(x), mode="infer_int").data
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-2

    def test_infer_int_requires_quantized_layer(self):
        plan = plan_factorization(8, 8, 2, 2)
        layer = TTLinearLayer(plan, 32, 32, np.random.default_rng(5), dtype=np.float64)
        with pytest.raises(ModeError):
            layer.forward(ad.Tensor(np.zeros((1, 8))), mode="infer_int")

    def test_infer_int_requires_calibration(self):
        rng = np.random.default_rng(6)
        plan = plan_factorization(8, 8, 2, 2)
        layer = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
        layer.forward(ad.Tensor(rng.normal(size=(2, 8))), mode="train")
        with pytest.raises(ModeError):
            layer.forward(ad.Tensor(np.zeros((1, 8))), mode="infer_int")

    @pytest.mark.parametrize("core1_code, raises", [(-128, True), (-127, False)])
    def test_infer_int_accumulator_bound_names_stage(self, core1_code, raises):
        # d=1: stage 0, a column stage, contracts core 1 (1, 2**17, 1) over
        # its 2**17 modes, so saturated inputs (|code| 128) against |core
        # code| 128 sum to 2**31.  Stage 1, a row stage, sums one term.
        n = 2 ** 17
        plan = TensorShapePlan(1, n, (1,), (n,), (1, 1, 1))
        layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(8), dtype=np.float64)
        layer.cores[0].data = np.ones((1, 1, 1))
        layer.cores[1].data = np.full((1, n, 1), float(core1_code))
        layer.weight_scale.data = np.asarray(1.0)
        layer.act_scale.data = np.asarray(1.0)
        layer.stage_scales = [1.0, 1.0]
        x = ad.Tensor(np.full((1, n), -1000.0))
        if raises:
            with pytest.raises(KernelError, match="stage 0 exceeds"):
                layer.forward(x, mode="infer_int")
        else:
            assert np.all(np.isfinite(layer.forward(x, mode="infer_int").data))

    def test_infer_int_row_stage_bound_counts_rank_terms(self):
        # d=1: stage 1, a row stage, contracts core 0 (1, 512, 256) over its
        # rank of 256, so saturated codes bound its sums by 2**22, not by the
        # 2**31 that 512 * 256 terms would give.
        plan = TensorShapePlan(512, 2, (512,), (2,), (1, 256, 1))
        layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(8), dtype=np.float64)
        layer.cores[0].data = np.full((1, 512, 256), -128.0)
        layer.cores[1].data = np.ones((256, 2, 1))
        layer.weight_scale.data = np.asarray(1.0)
        layer.act_scale.data = np.asarray(1.0)
        layer.stage_scales = [1.0, 1.0]
        out = layer.forward(ad.Tensor(np.full((1, 2), -1000.0)), mode="infer_int").data
        assert np.all(out == 256 * 128 * 128)

    def test_input_dim_checked(self):
        plan = plan_factorization(8, 8, 2, 2)
        layer = TTLinearLayer(plan, 32, 32, np.random.default_rng(7))
        with pytest.raises(ValueError):
            layer.forward(ad.Tensor(np.zeros((1, 9))), mode="train")


class TestTTMEmbedding:
    def test_lookup_matches_dense_rows(self):
        rng = np.random.default_rng(8)
        plan = plan_factorization(24, 16, 2, 4, TTFormat.TTM)
        emb = TTMEmbedding(plan, 32, rng, dtype=np.float64)
        ids = np.array([0, 7, 23, 7])
        out = emb.forward(ids, mode="train")
        dense = ttm_to_dense([c.data for c in emb.cores], plan)
        np.testing.assert_allclose(out.data, dense[ids], rtol=1e-11, atol=1e-12)

    def test_out_of_vocab_rejected(self):
        plan = plan_factorization(24, 16, 2, 4, TTFormat.TTM)
        emb = TTMEmbedding(plan, 32, np.random.default_rng(9))
        with pytest.raises(IndexError):
            emb.forward(np.array([24]), mode="train")

    def test_padded_vocab_lookup(self):
        rng = np.random.default_rng(10)
        plan = plan_factorization(23, 16, 2, 3, TTFormat.TTM)
        assert plan.padded_rows > 23
        emb = TTMEmbedding(plan, 32, rng, dtype=np.float64)
        dense = ttm_to_dense([c.data for c in emb.cores], plan)
        out = emb.forward(np.arange(23), mode="train")
        np.testing.assert_allclose(out.data, dense, rtol=1e-11, atol=1e-12)


class TestCoreLayer:
    """The weight quantizer both core layers share: one scale over all the
    cores, the parameter order, and the cores each forward mode reads."""

    @pytest.mark.parametrize("bits", [2, 4, 8, 32])
    @pytest.mark.parametrize("kind", ["tt", "ttm"])
    def test_weight_scale_params_and_mode_cores(self, kind, bits):
        rng = np.random.default_rng(12)
        if kind == "tt":
            layer = TTLinearLayer(plan_factorization(12, 8, 2, 3), bits, bits, rng)
            own = [("bias", layer.bias)]
            x = rng.normal(size=(5, 8)).astype(np.float32)

            def forward(mode):
                return layer.forward(ad.Tensor(x), mode).data

            def reference(cores, quantized_input):
                x_in = ad.fake_quant(x, float(layer.act_scale.data), bits).data \
                    if quantized_input else x
                return ad.tt_linear(ad.Tensor(x_in), cores, layer.plan).data + layer.bias.data
        else:
            layer = TTMEmbedding(plan_factorization(24, 16, 2, 4, TTFormat.TTM), bits, rng)
            own = []
            ids = np.array([0, 7, 23, 7])

            def forward(mode):
                return layer.forward(ids, mode).data

            def reference(cores, quantized_input):
                return ad.ttm_lookup(ids, cores, layer.plan).data

        masters = [c.data for c in layer.cores]
        scales = []
        if bits == 32:
            assert layer.weight_scale is None
        else:
            flat = np.concatenate([c.ravel() for c in masters])
            assert layer.weight_scale.data == np.float32(q.init_scale(flat, bits))
            scales = [("wscale", layer.weight_scale)]
            if kind == "tt":
                scales.append(("ascale", layer.act_scale))
        cores = [(f"core{i}", c) for i, c in enumerate(layer.cores)]
        expected = [(f"{layer.name}.{n}", p) for n, p in cores + own + scales]
        assert [(n, id(p)) for n, p in layer.params()] == [(n, id(p)) for n, p in expected]
        assert [id(p) for p in layer.scale_params()] == [id(p) for _, p in scales]

        # infer_fp, and every mode at 32 bits, reads the master cores
        np.testing.assert_array_equal(forward("infer_fp"), reference(masters, False))
        train_out = forward("train")
        if bits == 32:
            np.testing.assert_array_equal(train_out, forward("infer_fp"))
            return
        # train reads the cores fake-quantized at the one weight scale
        scale = float(layer.weight_scale.data)
        fq = [ad.fake_quant(c, scale, bits).data for c in masters]
        np.testing.assert_array_equal(train_out, reference(fq, True))
        # infer_int reads the frozen cores, bit for bit the fake-quantized ones
        for frozen, ref in zip(layer.frozen_cores().values, fq):
            np.testing.assert_array_equal(frozen, ref)
        if kind == "ttm":
            np.testing.assert_array_equal(forward("infer_int"), train_out)


class TestEncoderAndModelForward:
    def test_single_token_attention_is_one(self):
        cfg = toy_config()
        model = TransformerModel(cfg, 0)
        ids = np.array([[3]])
        trace = model.forward(ids, mode="train")
        for attn in trace.attn_probs:
            np.testing.assert_allclose(attn.data, np.ones_like(attn.data))

    def test_attention_rows_sum_to_one(self):
        cfg = toy_config()
        model = TransformerModel(cfg, 1)
        ids, mask = random_batch(cfg)
        trace = model.forward(ids, mask, mode="train")
        for attn in trace.attn_probs:
            np.testing.assert_allclose(attn.data.sum(axis=-1), np.ones(attn.data.shape[:-1]),
                                       rtol=1e-5)

    def test_trace_lengths_match_depth(self):
        cfg = toy_config(num_layers=2)
        model = TransformerModel(cfg, 2)
        ids, mask = random_batch(cfg)
        trace = model.forward(ids, mask)
        assert len(trace.encoder_outs) == 2 and len(trace.attn_probs) == 2

    def test_zero_encoder_model_heads_consume_embedding(self):
        cfg = toy_config(num_layers=0)
        model = TransformerModel(cfg, 3)
        ids, mask = random_batch(cfg)
        trace = model.forward(ids, mask)
        assert trace.encoder_outs == [] and trace.attn_probs == []
        assert trace.intent_logits.shape == (3, cfg.num_intents)

    def test_forward_deterministic(self):
        cfg = toy_config(weight_bits=8, act_bits=8)
        model = TransformerModel(cfg, 4)
        ids, mask = random_batch(cfg)
        t1 = model.forward(ids, mask, mode="train")
        t2 = model.forward(ids, mask, mode="train")
        np.testing.assert_array_equal(t1.intent_logits.data, t2.intent_logits.data)
        np.testing.assert_array_equal(t1.slot_logits.data, t2.slot_logits.data)

    def test_sequence_length_cap(self):
        cfg = toy_config()
        model = TransformerModel(cfg, 5)
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, cfg.max_seq + 1), dtype=int))


class TestDenseEquivalenceOracles:
    def test_dense_model_matches_numpy_reference(self):
        cfg = toy_config(compress=False)
        model = TransformerModel(cfg, 6)
        ids, mask = random_batch(cfg, seed=11)
        trace = model.forward(ids, mask, mode="train")
        emb, outs, attns, intent, slots = reference_forward(model, ids, mask)
        np.testing.assert_allclose(trace.emb_out.data, emb, rtol=1e-10, atol=1e-12)
        for got, want in zip(trace.encoder_outs, outs):
            np.testing.assert_allclose(got.data, want, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(trace.intent_logits.data, intent, rtol=1e-9, atol=1e-11)
        np.testing.assert_allclose(trace.slot_logits.data, slots, rtol=1e-9, atol=1e-11)

    def test_full_rank_tt_model_matches_dense_source(self):
        cfg = toy_config(compress=False)
        dense = TransformerModel(cfg, 7)
        student = tt_model_from_dense(dense)
        ids, mask = random_batch(cfg, seed=12)
        td = dense.forward(ids, mask, mode="train")
        ts = student.forward(ids, mask, mode="train")
        np.testing.assert_allclose(ts.emb_out.data, td.emb_out.data, rtol=1e-9, atol=1e-5)
        np.testing.assert_allclose(ts.intent_logits.data, td.intent_logits.data,
                                   rtol=1e-9, atol=1e-5)
        np.testing.assert_allclose(ts.slot_logits.data, td.slot_logits.data,
                                   rtol=1e-9, atol=1e-5)
        for a, b in zip(ts.attn_probs, td.attn_probs):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-9, atol=1e-7)


class TestIntInferenceModelLevel:
    def test_int8_logits_close_to_surrogate(self):
        cfg = toy_config(weight_bits=8, act_bits=8, dtype="float64")
        model = TransformerModel(cfg, 8)
        ids, mask = random_batch(cfg, batch=8, seed=13)
        ref = model.forward(ids, mask, mode="train")
        model.calibrate_int([(ids, mask)])
        out = model.forward(ids, mask, mode="infer_int")
        scale = max(np.abs(ref.intent_logits.data).max(), 1.0)
        err = np.abs(out.intent_logits.data - ref.intent_logits.data).max() / scale
        assert err < 0.2  # documented model-level requantization bound

    def test_streamed_calibration_equals_one_shot(self, monkeypatch):
        # calibrate_int folds each batch's stage outputs into running
        # per-stage peaks; a max is exact over any split of the rows, so only
        # BLAS rounding of the stage products may differ
        cfg = toy_config(weight_bits=8, act_bits=8)
        model = TransformerModel(cfg, 21)
        batches = [ragged_batch(cfg, lengths, cfg.max_seq, seed) for seed, lengths
                   in enumerate([[3, 8], [1, 5, 2], [7], [4, 4, 0]])]
        with ad.no_grad():
            model.forward(*batches[0], mode="train")  # sets the activation scales
        seen = {}
        tt_forward = TTLinearLayer.forward

        def record(layer, x2d, mode="train"):
            seen.setdefault(layer.name, []).append(x2d.data)
            return tt_forward(layer, x2d, mode)

        monkeypatch.setattr(TTLinearLayer, "forward", record)
        model.calibrate_int(batches)
        monkeypatch.undo()
        for layer in model.tt_layers():
            streamed = layer.stage_scales
            rows = np.concatenate(seen[layer.name])
            assert len(rows) == 34
            calibrate_layer(layer, rows)
            np.testing.assert_allclose(streamed, layer.stage_scales, rtol=1e-13)

    def test_calibration_without_rows_rejected(self):
        model = TransformerModel(toy_config(weight_bits=8, act_bits=8), 22)
        with pytest.raises(ModeError):
            model.calibrate_int([])
        with ad.no_grad():
            model.forward(*random_batch(model.config), mode="train")  # sets the input scales
        with pytest.raises(ModeError):
            model.calibrate_int([all_padding(model.config)])

    CALIB_LENGTHS = [[3, 8], [1, 5, 2], [7]]

    def calibrated(self, cfg, seed, batches):
        """A model of ``cfg`` whose input scales are set, calibrated on
        ``batches``, and the rows each TT layer saw while it calibrated."""
        model = TransformerModel(cfg, seed)
        with ad.no_grad():
            model.forward(*batches[0], mode="train")  # sets the activation scales
        seen = {}
        tt_forward = TTLinearLayer.forward

        def record(layer, x2d, mode="train"):
            seen.setdefault(layer.name, []).append(x2d.data)
            return tt_forward(layer, x2d, mode)

        TTLinearLayer.forward = record
        try:
            model.calibrate_int(batches)
        finally:
            TTLinearLayer.forward = tt_forward
        return model, {name: np.concatenate(rows) for name, rows in seen.items()}

    def test_float32_stage_scales_within_the_sum_bound_of_the_float64_walk(self):
        """A float32 model's stage sums run in float32.  Against the float64
        walk over the same codes (how calibration ran before it read the
        forward's own chain), stage i's max |out| moves by at most
        sum_{j<=i} (K_j + 2) * 2**-24 of the largest sum of |products| at
        that stage, to first order: each stage of K_j products adds K_j - 1
        summation roundings and one for each operand's float32 value, and a
        stage's input carries the earlier stages' errors.  That sum of
        magnitudes is the max of the chain walked on |input| and |cores|."""
        cfg = toy_config(weight_bits=8, act_bits=8, dtype="float32")
        batches = [ragged_batch(cfg, lengths, cfg.max_seq, seed)
                   for seed, lengths in enumerate(self.CALIB_LENGTHS)]
        model, seen = self.calibrated(cfg, 25, batches)
        moved = 0
        for layer in model.tt_layers():
            x64, cores64 = quantized_operands(layer, seen[layer.name], np.float64)
            ref = chain_peaks(x64, cores64, layer.plan)
            magnitude = chain_peaks(np.abs(x64), [np.abs(c) for c in cores64], layer.plan)
            terms = np.cumsum([math.prod(s.core_shape[1:]) + 2 for s in tt_stages(layer.plan)])
            bound = terms * (2.0 ** -24 + 2.0 ** -53) * magnitude * (1 + 1e-6)
            got = np.array(layer.stage_scales) * 127
            assert np.all(np.abs(got - ref) <= bound + 2.0 ** -50 * ref), layer.name
            moved += int(np.any(got != ref))
        assert moved  # float32 sums, not float64 ones

    def test_calibration_forwards_return_the_surrogate_logits(self, monkeypatch):
        """The peak hook reads each stage's output and changes none: while
        calibrate_int runs, every forward's logits are byte for byte those
        of a plain no_grad train forward."""
        cfg = toy_config(weight_bits=8, act_bits=8, dtype="float32")
        batches = [ragged_batch(cfg, lengths, cfg.max_seq, seed)
                   for seed, lengths in enumerate(self.CALIB_LENGTHS)]
        model = TransformerModel(cfg, 23)
        with ad.no_grad():
            model.forward(*batches[0], mode="train")  # sets the activation scales
        seen = []
        forward = TransformerModel.forward

        def record(self, *args, **kwargs):
            trace = forward(self, *args, **kwargs)
            seen.append((trace.intent_logits.data.tobytes(), trace.slot_logits.data.tobytes()))
            return trace

        monkeypatch.setattr(TransformerModel, "forward", record)
        model.calibrate_int(batches)
        monkeypatch.undo()
        assert len(seen) == len(batches)
        for got, (ids, mask) in zip(seen, batches):
            with ad.no_grad():
                trace = model.forward(ids, mask, mode="train")
            assert got == (trace.intent_logits.data.tobytes(), trace.slot_logits.data.tobytes())

    def test_all_padding_batch_leaves_the_scales(self):
        cfg = toy_config(weight_bits=8, act_bits=8)
        batches = [ragged_batch(cfg, lengths, cfg.max_seq, seed)
                   for seed, lengths in enumerate(self.CALIB_LENGTHS)]
        model, _ = self.calibrated(cfg, 24, batches)
        want = [layer.stage_scales for layer in model.tt_layers()]
        model.calibrate_int(batches[:1] + [all_padding(cfg)] + batches[1:])
        assert [layer.stage_scales for layer in model.tt_layers()] == want


class TestBatchAndPaddingInvariance:
    """An utterance's logits do not depend on its batch mates or on extra
    padded positions, in every forward mode.

    The runs differ only in summation order: BLAS may block a GEMM
    differently for another row count, and padded positions add exact zeros
    (a masked attention weight underflows to 0.0; pooling multiplies by a
    zero mask).  In float64 a reordered sum of K terms moves by at most
    K * 2**-53 of the sum of their magnitudes: about 7e-15 for K <= 64
    (``ffn_dim``).  About 30 such sums lie in sequence from the embedding to
    the logits, so with the layer norms' gain the logits can move by some
    1e-13 of the largest one; ``TOL`` = 1e-9 leaves margin for that and is
    still far below any real dependence, which moves logits by percents.
    The integer TT walk is exact and sees the same input codes unless an
    activation lies within ~1e-15 of a rounding boundary.
    """

    TOL = 1e-9

    @pytest.mark.parametrize("mode", ["train", "infer_fp", "infer_int"])
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           extra=st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_logits_do_not_depend_on_batch_mates_or_padding(self, mode, seed, lengths, extra):
        cfg = toy_config(weight_bits=8, act_bits=8)
        model = TransformerModel(cfg, seed)
        rng = np.random.default_rng(seed)
        calib = random_batch(cfg, batch=4, seq=cfg.max_seq, seed=seed)
        with ad.no_grad():
            model.forward(*calib, mode="train")  # sets the activation scales
        model.calibrate_int([calib])

        def logits(ids, mask):
            with ad.no_grad():
                trace = model.forward(ids, mask, mode=mode)
            return trace.intent_logits.data, trace.slot_logits.data

        width = max(lengths) + extra
        ids = rng.integers(0, cfg.vocab_size, size=(len(lengths), width))  # pads hold any id
        mask = (np.arange(width) < np.array(lengths)[:, None]).astype(np.float64)
        batch_intent, batch_slots = logits(ids, mask)
        for i, n in enumerate(lengths):
            alone_intent, alone_slots = logits(ids[i:i + 1, :n], mask[i:i + 1, :n])
            padded_intent, padded_slots = logits(ids[i:i + 1, :n + extra], mask[i:i + 1, :n + extra])
            atol = self.TOL * max(np.abs(alone_intent).max(), np.abs(alone_slots).max())
            for intent, slots in ((batch_intent[i], batch_slots[i, :n]),
                                  (padded_intent[0], padded_slots[0, :n])):
                np.testing.assert_allclose(intent, alone_intent[0], rtol=0, atol=atol)
                np.testing.assert_allclose(slots, alone_slots[0], rtol=0, atol=atol)


class TestPacking:
    """The forward runs every token-wise layer on the real tokens only, and
    the trace holds exact zeros at padded positions."""

    MODES = ["train", "infer_fp", "infer_int"]

    def model(self, seed=0):
        cfg = toy_config(weight_bits=8, act_bits=8)
        model = TransformerModel(cfg, seed)
        calib = random_batch(cfg, batch=4, seq=cfg.max_seq, seed=seed)
        with ad.no_grad():
            model.forward(*calib, mode="train")  # sets the activation scales
        model.calibrate_int([calib])
        return model

    @pytest.mark.parametrize("mode", MODES)
    def test_token_layers_see_only_real_rows(self, mode, monkeypatch):
        model = self.model()
        ids, mask = ragged_batch(model.config, [5, 2, 0, 7], 8)
        seen = {}
        tt_forward, emb_forward = TTLinearLayer.forward, TTMEmbedding.forward

        def record_tt(layer, x2d, mode="train"):
            seen.setdefault(layer.name, []).append(x2d.shape[0])
            return tt_forward(layer, x2d, mode)

        def record_emb(layer, ids, mode="train"):
            seen.setdefault(layer.name, []).append(np.asarray(ids).size)
            return emb_forward(layer, ids, mode)

        monkeypatch.setattr(TTLinearLayer, "forward", record_tt)
        monkeypatch.setattr(TTMEmbedding, "forward", record_emb)
        with ad.no_grad():
            model.forward(ids, mask, mode=mode)
        n = int(mask.sum())
        token_layers = [model.embedding] + model.tt_layers() + [model.slot_head.first]
        assert {l.name: seen[l.name] for l in token_layers} == {l.name: [n] for l in token_layers}
        assert seen[model.intent_head.first.name] == [len(ids)]  # one pooled row per utterance

    @pytest.mark.parametrize("mode", MODES)
    def test_trace_is_zero_at_padded_positions(self, mode):
        model = self.model(1)
        ids, mask = ragged_batch(model.config, [3, 8, 1], 8, seed=1)
        with ad.no_grad():
            trace = model.forward(ids, mask, mode=mode)
        pad = mask == 0
        for out in [trace.emb_out, *trace.encoder_outs, trace.slot_logits]:
            assert out.shape[:2] == mask.shape
            assert np.all(out.data[pad] == 0.0)
            assert np.all(np.abs(out.data[~pad]).max(axis=-1) > 0)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           extra=st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_loss_and_gradients_do_not_depend_on_padding(self, seed, lengths, extra):
        # Extra padded columns add no packed row; they reach only attention,
        # as masked keys with exact-zero weight.  So loss and gradients move
        # only by summation order, and the bound derived in
        # TestBatchAndPaddingInvariance holds for them as for the logits.
        model = self.model(seed % 1000)
        cfg = model.config
        width = max(lengths)
        ids, mask = ragged_batch(cfg, lengths, width + extra, seed)
        rng = np.random.default_rng(seed)
        intents = rng.integers(0, cfg.num_intents, size=len(lengths))
        slots = rng.integers(0, cfg.num_slots, size=ids.shape)

        def loss_and_grads(cols):
            loss = intent_slot_loss(model.forward(ids[:, :cols], mask[:, :cols], mode="train"),
                                    intents, slots[:, :cols])
            grads = ad.backward(loss)
            return float(loss.data), [grads.get(id(p)) for _, p in model.params()]

        ref_loss, ref_grads = loss_and_grads(width)
        loss, grads = loss_and_grads(width + extra)
        tol = TestBatchAndPaddingInvariance.TOL
        assert loss == pytest.approx(ref_loss, rel=tol)
        # relative to the largest gradient, as the logits' bound is to the
        # largest logit: a key bias's gradient is exactly zero in exact
        # arithmetic (softmax ignores a shift of a whole row), so what is
        # computed for it is rounding noise of the other terms' size
        atol = tol * max(np.abs(g).max() for g in ref_grads if g is not None)
        for (name, _), g, ref in zip(model.params(), grads, ref_grads):
            assert (g is None) == (ref is None), name
            if ref is not None:
                np.testing.assert_allclose(g, ref, rtol=0, atol=atol, err_msg=name)

    def test_all_padding_batch_backward(self):
        """A batch with no real token still trains: every TT stage adjoint
        runs on zero rows, and only the heads' and the intent path's
        parameters get a nonzero gradient."""
        model = self.model(3)
        cfg = model.config
        ids, mask = all_padding(cfg)
        loss = intent_slot_loss(model.forward(ids, mask), np.zeros(len(ids), dtype=np.int64),
                                np.zeros(ids.shape, dtype=np.int64))
        grads = ad.backward(loss)
        assert all(np.isfinite(g).all() for g in grads.values())
        for core in model.encoders[0].ffn_up.cores:
            assert not grads[id(core)].any()

    @pytest.mark.parametrize("mode", MODES)
    def test_no_mask_and_empty_rows(self, mode):
        model = self.model(2)
        ids, mask = ragged_batch(model.config, [4, 0, 6], 6, seed=2)

        def run(ids, mask):
            with ad.no_grad():
                trace = model.forward(ids, mask, mode=mode)
            return trace.intent_logits.data, trace.slot_logits.data

        full = run(ids, np.ones(ids.shape))
        for got, want in zip(run(ids, None), full):
            np.testing.assert_array_equal(got, want)
        intent, slots = run(ids, mask)
        assert np.all(slots[1] == 0.0)
        # an utterance with no real token pools to zeros
        zero = model.intent_head.forward(ad.Tensor(np.zeros((1, model.config.hidden))))
        np.testing.assert_allclose(intent[1], zero.data[0], rtol=1e-12)
        for i in (0, 2):
            alone_intent, alone_slots = run(ids[i:i + 1], mask[i:i + 1])
            np.testing.assert_allclose(intent[i], alone_intent[0], rtol=1e-9)
            np.testing.assert_allclose(slots[i], alone_slots[0], rtol=1e-9, atol=1e-12)


class TestRecordedForwardMemory:
    def test_int8_forward_keeps_two_ffn_arrays_per_encoder(self):
        """What a recorded INT8 forward leaves for its backward, by tracemalloc.
        Of the float (N, ffn_dim) arrays GELU's input and its tanh stay, two
        per encoder: GELU's output, which the FFN's down projection
        quantizes, is rebuilt from them.  The padding mask makes N unlike any
        other dimension."""
        cfg = toy_config(hidden=8, ffn_dim=200, act_bits=8, weight_bits=8, dtype="float32")
        model = TransformerModel(cfg, 0)
        ids, mask = random_batch(cfg, batch=3, seq=7)
        rng = np.random.default_rng(0)
        intents = rng.integers(0, cfg.num_intents, size=3)
        slots = rng.integers(0, cfg.num_slots, size=ids.shape)
        with ad.no_grad():
            model.forward(ids, mask)  # the first forward sets the input scales
        tracemalloc.start()
        try:
            trace = model.forward(ids, mask)
            traces = tracemalloc.take_snapshot().traces
        finally:
            tracemalloc.stop()
        ffn_bytes = int(mask.sum()) * cfg.ffn_dim * 4
        assert sum(t.size == ffn_bytes for t in traces) == 2 * cfg.num_layers
        grads = ad.backward(intent_slot_loss(trace, intents, slots))
        assert all(id(p) in grads for p in model.encoders[0].ffn_up.cores)


class TestNoGradForwardMemory:
    @pytest.mark.parametrize("mode", ["infer_int", "train"])
    def test_int8_forward_never_holds_two_ffn_arrays(self, mode):
        """A ``no_grad`` forward's tracemalloc peak above what was held
        before it stays below two float (N, ffn_dim) arrays: GELU writes over
        its input, and ``ffn_down``'s input quantizer over GELU's output
        (codes in ``infer_int``, fake-quant values in ``train``).  Holding
        GELU's input beside its output, or its output beside the quantized
        input, read 2.22 (``infer_int``) and 2.61 (``train``) such arrays
        here.  ffn_dim = 3000 factors without padding and is unlike any
        other dimension, and N * ffn_dim is several kernel blocks, so the
        blocks' scratch is a small share of an array."""
        cfg = toy_config(hidden=8, ffn_dim=3000, act_bits=8, weight_bits=8, dtype="float32")
        model = TransformerModel(cfg, 0)
        ids, mask = random_batch(cfg, batch=10, seq=8)
        with ad.no_grad():
            model.forward(ids, mask)  # the first forward sets the input scales
        model.calibrate_int([(ids, mask)])
        ffn_bytes = int(mask.sum()) * cfg.ffn_dim * 4
        with ad.no_grad():
            model.forward(ids, mask, mode=mode)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                model.forward(ids, mask, mode=mode)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert ffn_bytes < peak < 2 * ffn_bytes

    def test_tt_layer_drops_its_quantized_input_after_stage_0(self):
        """A ``no_grad`` ``train`` forward hands the input quantizer's values
        to ``tt.tt_chain`` as a temporary, which drops them after stage 0, so
        they are not held beside the last stage's output.  The input stays
        held by its caller, as the residual stream holds an encoder's, so
        the peak counts the values, the stage outputs and the block scratch.
        Square and 256 rows: the output is as large as the values, and the
        scratch is a small share of either.  Holding the values to the end
        read 2.13 input-sized arrays here."""
        plan = plan_factorization(2048, 2048, 2, 4)
        layer = TTLinearLayer(plan, 8, 8, np.random.default_rng(0), dtype=np.float32)
        x = ad.Tensor(np.random.default_rng(1).normal(size=(256, 2048)).astype(np.float32))
        with ad.no_grad():
            want = layer.forward(x).data  # the first forward sets the input scale
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                got = layer.forward(x).data
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert x.data.nbytes < peak < 1.5 * x.data.nbytes


class TestLogitPins:
    """The logits of a toy float32 INT8 model, by sha256 of the intent then
    the slot logits of three ragged batches, recorded before ``no_grad``
    forwards wrote GELU and the quantized TT inputs over their inputs.  Any
    later change that moves a bit of either path fails here."""

    PINS = {"infer_int": "946c55a3276775b0ae2da8ae5d46a9092c9eb6424f5cb0d8623671d8fd17871f",
            "train": "1e2cb9881120d993e36e6fb306a681f844c7a4e3e9f17ff6cf46337a9d8aea88"}

    @pytest.mark.parametrize("mode", ["infer_int", "train"])
    def test_no_grad_logits_are_pinned(self, mode):
        cfg = toy_config(hidden=16, ffn_dim=48, act_bits=8, weight_bits=8, dtype="float32")
        model = TransformerModel(cfg, 21)
        batches = [ragged_batch(cfg, lengths, 8, seed) for seed, lengths in
                   enumerate([(8, 5, 3), (2, 7), (6, 6, 1, 4)])]
        with ad.no_grad():
            model.forward(*batches[0])  # the first forward sets the input scales
        model.calibrate_int(batches[:2])
        digest = hashlib.sha256()
        for ids, mask in batches:
            with ad.no_grad():
                trace = model.forward(ids, mask, mode=mode)
            digest.update(trace.intent_logits.data.tobytes())
            digest.update(trace.slot_logits.data.tobytes())
        assert digest.hexdigest() == self.PINS[mode]


class TestAccounting:
    def test_size_bytes_int4_core_packing(self):
        plan = plan_factorization(768, 3072, 2, 10, row_factors=(32, 24), col_factors=(48, 64))
        layer = TTLinearLayer(plan, 4, 8, np.random.default_rng(9))
        core_entries = sum(c.data.size for c in layer.cores)
        assert core_entries == 8160
        cfg = toy_config()
        # packing rule: half a byte per entry plus one 4-byte scale
        from ttq.accounting import packed_code_bytes
        assert packed_code_bytes(core_entries, 4) + 4 == 8160 // 2 + 4 == 4084

    def test_fp32_model_bytes_are_four_per_param(self):
        cfg = toy_config(weight_bits=32, act_bits=32)
        model = TransformerModel(cfg, 10)
        report = model_size_bytes(model)
        total_params = sum(p.data.size for _, p in model.params())
        assert report.bytes == 4 * total_params

    def test_quantized_model_smaller(self):
        m32 = TransformerModel(toy_config(weight_bits=32, act_bits=32), 11)
        m4 = TransformerModel(toy_config(weight_bits=4, act_bits=8), 11)
        assert model_size_bytes(m4).bytes < model_size_bytes(m32).bytes

    def test_flops_zero_encoder_model(self):
        cfg = toy_config(num_layers=0)
        model = TransformerModel(cfg, 12)
        assert model_flops(model, seq_len=4).flops == 0.0

    def test_int4_flops_half_of_int8(self):
        m8 = TransformerModel(toy_config(weight_bits=8, act_bits=8), 13)
        m4 = TransformerModel(toy_config(weight_bits=4, act_bits=8), 13)
        f8 = model_flops(m8, seq_len=4)
        f4 = model_flops(m4, seq_len=4)
        assert f4.flops == 0.5 * f8.flops

    def test_dense_equivalent_reported(self):
        model = TransformerModel(toy_config(), 14)
        rep = model_flops(model, seq_len=4)
        assert rep.flops_dense > rep.flops > 0

    def test_architecture_flops_matches_model_flops(self):
        from ttq.model import architecture_flops
        cfg = toy_config(weight_bits=8, act_bits=8)
        model = TransformerModel(cfg, 15)
        assert architecture_flops(cfg, 4).flops == model_flops(model, 4).flops

    def test_dense_architecture_flops_matches_model_flops(self):
        from ttq.model import architecture_flops
        cfg = toy_config(compress=False)
        model = TransformerModel(cfg, 15)
        assert architecture_flops(cfg, 4).to_dict() == model_flops(model, 4).to_dict()

    def test_encoder_linears_follow_the_shape_list(self):
        from ttq.model import encoder_linear_shapes
        for compress in (True, False):
            cfg = toy_config(compress=compress)
            enc = TransformerModel(cfg, 15).encoders[0]
            shapes = encoder_linear_shapes(cfg)
            assert len(shapes) == len(enc.sublayers())
            for (tag, rows, cols, _), sub in zip(shapes, enc.sublayers()):
                assert (sub.name, sub.out_dim, sub.in_dim) == (f"{enc.name}.{tag}", rows, cols)

    def test_size_items_are_the_leaf_layers(self):
        from ttq.accounting import packed_code_bytes
        model = TransformerModel(toy_config(weight_bits=4, act_bits=8), 10)
        report = model_size_bytes(model)
        assert [it["name"] for it in report.items] == [l.name for l in model.layers()]
        by_name = {it["name"]: it["bytes"] for it in report.items}
        q = model.encoders[0].q_proj
        cores = sum(c.data.size for c in q.cores)
        # 4-bit cores, then the FP32 bias and the two FP32 scales
        assert by_name[q.name] == packed_code_bytes(cores, 4) + 4 * (q.bias.data.size + 2)
        first = model.intent_head.first
        assert by_name[first.name] == 4 * sum(p.data.size for _, p in first.params())

    def test_params_walk_the_leaf_layers(self):
        model = TransformerModel(toy_config(weight_bits=8, act_bits=8), 10)
        layers = model.layers()
        assert [l.name for l in layers[:3]] == ["embedding", "pos_emb", "ln_emb"]
        assert layers[1].params() == [("pos_emb", model.pos_emb)]
        assert model.params() == [named for l in layers for named in l.params()]
        assert {id(p) for p in model.scale_params()} == {
            id(p) for n, p in model.params() if n.endswith(("wscale", "ascale"))}

    def test_dense_count_is_the_uncompressed_parameter_count(self):
        dense = TransformerModel(toy_config(compress=False), 17)
        count = sum(p.data.size for _, p in dense.params())
        twins = [dense, tt_model_from_dense(dense)] + [
            TransformerModel(toy_config(weight_bits=b, act_bits=b), 17) for b in (2, 8, 32)]
        assert [model_size_bytes(m).param_count_dense for m in twins] == [count] * len(twins)
        configs = Path(__file__).resolve().parents[1] / "configs"
        for name, published in (("atis_shaped_int8", 16_681_883),
                                ("bert_shaped_rank30", 110_074_372)):
            cfg = RunConfig.load(configs / f"{name}.json").model
            assert model_size_bytes(TransformerModel(cfg, 0)).param_count_dense == published

    def test_published_shape_config_compression_ratio(self):
        # two encoders at hidden 768 with the published shapes and ranks land
        # near the 19x whole-model parameter reduction
        cfg = ModelConfig(
            vocab_size=800, hidden=768, ffn_dim=3072, num_layers=2, num_heads=12,
            max_seq=768, num_intents=26, num_slots=129, compress=True,
            weight_bits=32, act_bits=32, dtype="float32",
            emb_spec=PlanSpec(d=5, rank=30, fmt=TTFormat.TTM,
                              row_factors=(5, 5, 4, 4, 2), col_factors=(3, 4, 4, 4, 4)),
            attn_spec=PlanSpec(d=2, rank=10, row_factors=(24, 32), col_factors=(32, 24)),
            ffn_spec=PlanSpec(d=2, rank=10, row_factors=(32, 24), col_factors=(48, 64)),
            head_spec=PlanSpec(d=2, rank=10, row_factors=(24, 32), col_factors=(32, 24)),
        )
        report = model_size_bytes(TransformerModel(cfg, 16))
        assert 19.0 * 0.8 <= report.compression_ratio <= 19.0 * 1.2
