"""Acceptance suite: nine gate criteria, one pass/fail line each.

Expensive artifacts (corpus, trained baselines) are module-scoped fixtures so
the whole suite stays well inside its runtime budgets.
"""

import math
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from reference_checkpoint import payload_bytes
from reference_dense import tt_model_from_dense
from reference_distill import attention_entropy_floors, soft_label_entropy_floor
from reference_quant import ste_grad_input, ste_grad_scale
from reference_tt import tt_to_dense, ttm_to_dense

from ttq import autodiff as ad
from ttq.accounting import param_count
from ttq.checkpoint import checkpoint_load, checkpoint_save
from ttq.config import RunConfig
from ttq.data import gen_synthetic_dataset
from ttq.distill import (
    DistillConfig,
    loss_terms,
    run_distillation,
    stage_loss,
)
from ttq.model import (
    ModelConfig,
    PlanSpec,
    TransformerModel,
    architecture_flops,
    model_size_bytes,
)
from ttq.train import TrainConfig, evaluate, intent_slot_loss, train_end_to_end
from ttq.tt import (
    TTFormat,
    init_tt_cores,
    init_ttm_cores,
    plan_factorization,
    tt_chain,
    ttm_lookup_vjp,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# Shared desk-scale experiment setup


TOY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json"


def desk_model_config(compress, weight_bits, act_bits, rank=4, emb_rank=6):
    """The desk model of ``configs/toy_int8.json`` at the given precision and ranks."""
    cfg = RunConfig.load(TOY_CONFIG).model
    return replace(cfg, compress=compress, weight_bits=weight_bits, act_bits=act_bits,
                   emb_spec=replace(cfg.emb_spec, rank=emb_rank),
                   attn_spec=replace(cfg.attn_spec, rank=rank),
                   ffn_spec=replace(cfg.ffn_spec, rank=rank),
                   head_spec=replace(cfg.head_spec, rank=rank))


@pytest.mark.parametrize("compress, weight_bits, act_bits, rank, emb_rank", [
    (False, 32, 32, 4, 6), (True, 8, 8, 4, 6), (True, 2, 8, 4, 6), (True, 8, 8, 4, 4)])
def test_desk_config_is_the_spelled_out_desk_model(compress, weight_bits, act_bits, rank, emb_rank):
    spelled_out = ModelConfig(
        vocab_size=120, hidden=32, ffn_dim=64, num_layers=2, num_heads=2,
        max_seq=16, num_intents=6, num_slots=9, compress=compress,
        weight_bits=weight_bits, act_bits=act_bits, dtype="float32",
        emb_spec=PlanSpec(d=2, rank=emb_rank, fmt=TTFormat.TTM),
        attn_spec=PlanSpec(d=2, rank=rank), ffn_spec=PlanSpec(d=2, rank=rank),
        head_spec=PlanSpec(d=2, rank=rank),
    )
    resolved = desk_model_config(compress, weight_bits, act_bits, rank=rank, emb_rank=emb_rank)
    for f in fields(ModelConfig):
        assert getattr(resolved, f.name) == getattr(spelled_out, f.name), f.name


# Criteria 5 and 7, as scripts/report_acceptance_margins.py retrains them too
DESK_CORPUS = dict(seed=11, vocab_size=120, num_intents=6, num_slots=8, num_examples=2000)
DESK_TRAIN = dict(learning_rate=1e-3, epochs=30, batch_size=32, seed=42)
DESK_MODEL_SEED = 42  # the dense baseline and criterion 5's quantized models
STUDENT_SEED = 7
STUDENT_DISTILL = dict(stage_epochs=3, final_epochs=8, stage_lr=1e-3, final_lr=1e-3,
                       batch_size=32, seed=42)


def student_config():
    """Criterion 7's INT8 TT student, with a rank-4 embedding."""
    return desk_model_config(True, 8, 8, rank=4, emb_rank=4)


@pytest.fixture(scope="module")
def corpus():
    return gen_synthetic_dataset(**DESK_CORPUS)


@pytest.fixture(scope="module")
def dense_baseline(corpus):
    model = TransformerModel(desk_model_config(False, 32, 32), DESK_MODEL_SEED)
    train_end_to_end(model, corpus["train"], None, TrainConfig(**DESK_TRAIN))
    metrics = evaluate(model, corpus["test"])
    return model, metrics


class TestCriterion1OracleEquivalence:
    def test_tt_and_ttm_match_dense_reconstruction_over_100_seeds(self):
        t0 = time.time()
        worst_tt, worst_ttm = 0.0, 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rank = int(rng.integers(1, 9))
            rows = int(rng.integers(2, 65))
            cols = int(rng.integers(2, 65))
            d = int(rng.integers(1, 4))
            d = min(d, int(math.log2(rows)) or 1, int(math.log2(cols)) or 1)
            plan = plan_factorization(rows, cols, d, rank)
            cores = init_tt_cores(plan, rng)
            x = rng.normal(size=cols)
            y = tt_chain(x[None], cores, plan)[0]
            ref = tt_to_dense(cores, plan) @ x
            scale = max(np.linalg.norm(ref), 1e-30)
            worst_tt = max(worst_tt, np.linalg.norm(y - ref) / scale)

            mplan = plan_factorization(rows, cols, d, rank, TTFormat.TTM)
            mcores = init_ttm_cores(mplan, rng)
            dense = ttm_to_dense(mcores, mplan)
            row = int(rng.integers(0, rows))
            got = ttm_lookup_vjp(np.array([row]), mcores, mplan)[0][0]
            rscale = max(np.linalg.norm(dense[row]), 1e-30)
            worst_ttm = max(worst_ttm, np.linalg.norm(got - dense[row]) / rscale)
        elapsed = time.time() - t0
        ok = worst_tt < 1e-12 and worst_ttm < 1e-12 and elapsed < 60
        report(1, ok, f"100-seed TT/TTM oracle equivalence: worst rel err "
                      f"tt={worst_tt:.2e}, ttm={worst_ttm:.2e}, {elapsed:.1f}s")


class TestCriterion2ParamCounts:
    def test_published_attention_and_ffn_counts(self):
        attn = param_count(plan_factorization(768, 768, 2, 10,
                                              row_factors=(24, 32), col_factors=(32, 24)))
        ffn = param_count(plan_factorization(768, 3072, 2, 10,
                                             row_factors=(32, 24), col_factors=(48, 64)))
        ok = (attn.param_count_compressed == 6880 and attn.param_count_dense == 589_824
              and ffn.param_count_compressed == 8160 and ffn.param_count_dense == 2_359_296)
        report(2, ok, f"attention {attn.param_count_compressed}/589824, "
                      f"ffn {ffn.param_count_compressed}/2359296 exact")


class TestCriterion3SteUnitSuite:
    def test_all_branch_values(self):
        checks = [
            (float(ste_grad_scale(np.array([0.4]), 1.0, 8)[0]), -0.4),
            (float(ste_grad_scale(np.array([10.0]), 0.1, 4)[0]), 7.0),
            (float(ste_grad_scale(np.array([-10.0]), 0.1, 4)[0]), -8.0),
            (float(ste_grad_input(np.array([0.4]), 1.0, 8)[0]), 1.0),
            (float(ste_grad_input(np.array([10.0]), 0.1, 4)[0]), 0.0),
        ]
        ok = all(got == want for got, want in checks)
        report(3, ok, f"scale-gradient branches and input indicator exact: "
                      f"{[g for g, _ in checks]}")


class TestCriterion4GradientCheck:
    def test_every_parameter_matches_central_differences(self):
        t0 = time.time()
        cfg = ModelConfig(
            vocab_size=64, hidden=32, ffn_dim=64, num_layers=2, num_heads=2,
            max_seq=10, num_intents=4, num_slots=6, compress=True,
            weight_bits=32, act_bits=32, dtype="float64",
            emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM),
            attn_spec=PlanSpec(d=2, rank=4), ffn_spec=PlanSpec(d=2, rank=4),
            head_spec=PlanSpec(d=2, rank=4),
        )
        model = TransformerModel(cfg, 3)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, 64, size=(4, 8))
        mask = np.ones((4, 8))
        mask[0, 6:] = 0.0
        intents = rng.integers(0, 4, size=4)
        slots = rng.integers(0, 6, size=(4, 8))

        def loss_value():
            with ad.no_grad():
                trace = model.forward(ids, mask, mode="train")
                return intent_slot_loss(trace, intents, slots).item()

        trace = model.forward(ids, mask, mode="train")
        loss = intent_slot_loss(trace, intents, slots)
        grads = ad.backward(loss)

        h = 1e-5
        worst = 0.0
        n_checked = 0
        for name, p in model.params():
            flat = p.data.reshape(-1)
            gflat = grads[id(p)].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = loss_value()
                flat[j] = orig - h
                fm = loss_value()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                a = gflat[j]
                denom = max(abs(fd), abs(a))
                if denom > 1e-4:
                    worst = max(worst, abs(a - fd) / denom)
                else:
                    assert abs(a - fd) < 1e-8, f"{name}[{j}]: tiny-gradient mismatch"
                n_checked += 1
        elapsed = time.time() - t0
        ok = worst < 1e-4 and elapsed < 120
        report(4, ok, f"{n_checked} parameters FD-checked, max rel err {worst:.3e}, "
                      f"{elapsed:.0f}s")


class TestCriterion5EndToEndTraining:
    def test_quantized_models_track_dense_baseline(self, corpus, dense_baseline):
        t0 = time.time()
        _, dense_metrics = dense_baseline
        dense_acc = dense_metrics["intent_accuracy"]

        int8 = TransformerModel(desk_model_config(True, 8, 8), DESK_MODEL_SEED)
        train_end_to_end(int8, corpus["train"], None, TrainConfig(**DESK_TRAIN))
        int8_acc = evaluate(int8, corpus["test"])["intent_accuracy"]

        int2 = TransformerModel(desk_model_config(True, 2, 8), DESK_MODEL_SEED)
        train_end_to_end(int2, corpus["train"], None, TrainConfig(**DESK_TRAIN))
        int2_acc = evaluate(int2, corpus["test"])["intent_accuracy"]

        elapsed = time.time() - t0
        ok = (dense_acc - int8_acc <= 0.03 and dense_acc - int2_acc <= 0.05
              and int8_acc >= 0.90 and int2_acc >= 0.90 and elapsed < 900)
        report(5, ok, f"intent acc dense={dense_acc:.4f} int8={int8_acc:.4f} "
                      f"int2={int2_acc:.4f} (gaps {dense_acc-int8_acc:.4f}/"
                      f"{dense_acc-int2_acc:.4f}), {elapsed:.0f}s")


class TestCriterion6DistillationFloor:
    def test_exact_full_rank_student_sits_at_stage_floors(self):
        t0 = time.time()
        cfg = ModelConfig(vocab_size=40, hidden=16, ffn_dim=32, num_layers=2,
                          num_heads=2, max_seq=12, num_intents=3, num_slots=5,
                          compress=False, dtype="float64")
        teacher = TransformerModel(cfg, 8)
        student = tt_model_from_dense(teacher)
        data = gen_synthetic_dataset(seed=9, vocab_size=40, num_intents=3,
                                     num_slots=4, num_examples=64)
        ids, mask, _, _ = next(data["train"].batches(48))
        with ad.no_grad():
            t_trace = teacher.forward(ids, mask, mode="train")
            s_trace = student.forward(ids, mask, mode="train")
        terms = loss_terms(t_trace, s_trace, temperature=1.0)
        mse_cos = [terms["mse_emb"].item(), terms["cos_emb"].item()]
        mse_cos += [t.item() for t in terms["mse_layers"] + terms["cos_layers"]]
        attn_floors = attention_entropy_floors(t_trace)
        attn_vals = [t.item() for t in terms["attn_ce_layers"]]
        attn_dev = max(abs(v - f) for v, f in zip(attn_vals, attn_floors))
        soft_floor = soft_label_entropy_floor(t_trace, 1.0)
        soft_val = terms["ce_soft"].item()
        stage_vals = [stage_loss(i, terms, 2).item() for i in range(3)]
        stage_final = stage_loss(2, terms, 2, final=True).item()
        recurrence_ok = (
            abs(stage_vals[1] - stage_vals[0]
                - (terms["mse_layers"][0].item() + terms["cos_layers"][0].item()
                   + attn_vals[0])) < 1e-12
            and abs(stage_final - stage_vals[2] - soft_val) < 1e-12)
        elapsed = time.time() - t0
        ok = (all(v < 1e-8 for v in mse_cos)
              and attn_dev < 1e-6
              and abs(soft_val - soft_floor) < 1e-6
              and recurrence_ok and elapsed < 60)
        report(6, ok, f"floors: max mse/cos {max(mse_cos):.2e}, "
                      f"attn CE within {attn_dev:.2e} of per-layer entropy, "
                      f"soft CE within {abs(soft_val - soft_floor):.2e}, "
                      f"{elapsed:.1f}s")


class TestCriterion7LayerByLayerDistillation:
    def test_int8_student_tracks_teacher(self, corpus, dense_baseline):
        t0 = time.time()
        teacher, teacher_metrics = dense_baseline
        student = TransformerModel(student_config(), STUDENT_SEED)
        run_distillation(teacher, student, corpus["train"], DistillConfig(**STUDENT_DISTILL))
        s_acc = evaluate(student, corpus["test"])["intent_accuracy"]
        t_acc = teacher_metrics["intent_accuracy"]
        elapsed = time.time() - t0
        ok = t_acc - s_acc <= 0.03 and elapsed < 900
        report(7, ok, f"distilled INT8 student intent acc {s_acc:.4f} vs teacher "
                      f"{t_acc:.4f} (gap {t_acc - s_acc:.4f}), {elapsed:.0f}s")


def atis_shaped_config(weight_bits):
    return ModelConfig(
        vocab_size=800, hidden=768, ffn_dim=3072, num_layers=2, num_heads=12,
        max_seq=768, num_intents=26, num_slots=129, compress=True,
        weight_bits=weight_bits, act_bits=32 if weight_bits == 32 else 8,
        dtype="float32",
        emb_spec=PlanSpec(d=5, rank=30, fmt=TTFormat.TTM,
                          row_factors=(5, 5, 4, 4, 2), col_factors=(3, 4, 4, 4, 4)),
        attn_spec=PlanSpec(d=2, rank=10, row_factors=(24, 32), col_factors=(32, 24)),
        ffn_spec=PlanSpec(d=2, rank=10, row_factors=(32, 24), col_factors=(48, 64)),
        head_spec=PlanSpec(d=2, rank=10, row_factors=(24, 32), col_factors=(32, 24)),
    )


def bert_shaped_config(rank):
    return ModelConfig(
        vocab_size=30522, hidden=768, ffn_dim=3072, num_layers=12, num_heads=12,
        max_seq=512, num_intents=2, num_slots=2, compress=True,
        weight_bits=32, act_bits=32, dtype="float32",
        emb_spec=PlanSpec(d=4, rank=rank, fmt=TTFormat.TTM,
                          row_factors=(16, 10, 20, 10), col_factors=(4, 8, 4, 6)),
        attn_spec=PlanSpec(d=2, rank=rank, row_factors=(24, 32), col_factors=(32, 24)),
        ffn_spec=PlanSpec(d=2, rank=rank, row_factors=(32, 24), col_factors=(48, 64)),
        head_spec=PlanSpec(d=2, rank=rank, row_factors=(24, 32), col_factors=(32, 24)),
    )


class TestCriterion8AccountingCrossChecks:
    def test_sizes_and_flops(self):
        int2 = model_size_bytes(TransformerModel(atis_shaped_config(2), 0)).bytes
        int4 = model_size_bytes(TransformerModel(atis_shaped_config(4), 0)).bytes
        size_ok = abs(int2 - int4) / int4 < 0.15

        f50 = architecture_flops(bert_shaped_config(50), seq_len=128).flops
        f30 = architecture_flops(bert_shaped_config(30), seq_len=128).flops
        ratio = f50 / f30
        target = 3.8 / 1.8
        flops_ok = abs(ratio - target) / target < 0.15

        cfg8 = replace(bert_shaped_config(30), weight_bits=8, act_bits=8)
        cfg4 = replace(bert_shaped_config(30), weight_bits=4, act_bits=8)
        f8 = architecture_flops(cfg8, seq_len=128).flops
        f4 = architecture_flops(cfg4, seq_len=128).flops
        halving_ok = f4 == 0.5 * f8

        ok = size_ok and flops_ok and halving_ok
        report(8, ok, f"int2/int4 size delta {abs(int2-int4)/int4:.3f} (<0.15), "
                      f"rank50:rank30 flops ratio {ratio:.3f} vs {target:.3f}, "
                      f"int4 = 0.5 x int8 exactly: {halving_ok}")


class TestCriterion9Serialization:
    def test_roundtrip_and_size(self, tmp_path):
        model = TransformerModel(atis_shaped_config(4), 1)
        p1, p2 = tmp_path / "a.ttq", tmp_path / "b.ttq"
        written = checkpoint_save(model, p1)
        loaded = checkpoint_load(p1)
        checkpoint_save(loaded, p2)
        bytes_identical = p1.read_bytes() == p2.read_bytes()
        size_report = model_size_bytes(model)
        framing = written - size_report.bytes
        payload_exact = payload_bytes(model) == size_report.bytes
        size_ok = 0 < framing < 16384
        ok = bytes_identical and payload_exact and size_ok
        report(9, ok, f"round trip byte-identical={bytes_identical}, payload bytes "
                      f"exactly match accounting={payload_exact}, framing {framing} B")
