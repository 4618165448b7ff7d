"""Distillation losses, schedule recurrence, floors, and the toy pipeline."""

import numpy as np
import pytest

from reference_dense import tt_model_from_dense
from reference_distill import attention_entropy_floor, soft_label_entropy_floor

from ttq import autodiff as ad
from ttq import train
from ttq.data import gen_synthetic_dataset
from ttq.distill import (
    DistillConfig,
    StageError,
    compare_schedules,
    loss_terms,
    run_distillation,
    stage_loss,
)
from ttq.model import ModelConfig, PlanSpec, TransformerModel
from ttq.train import DivergenceError, snapshot_params
from ttq.tt import TTFormat


def toy_teacher_and_data(seed=0, num_layers=2):
    cfg = ModelConfig(
        vocab_size=40, hidden=16, ffn_dim=32, num_layers=num_layers, num_heads=2,
        max_seq=12, num_intents=3, num_slots=5, compress=False, dtype="float64",
    )
    teacher = TransformerModel(cfg, seed)
    data = gen_synthetic_dataset(seed=9, vocab_size=40, num_intents=3, num_slots=4,
                                 num_examples=160)
    return teacher, data


def student_config(teacher_cfg, weight_bits=8, act_bits=8, rank=4):
    from dataclasses import replace
    return replace(
        teacher_cfg, compress=True, weight_bits=weight_bits, act_bits=act_bits,
        emb_spec=PlanSpec(d=2, rank=rank, fmt=TTFormat.TTM),
        attn_spec=PlanSpec(d=2, rank=rank), ffn_spec=PlanSpec(d=2, rank=rank),
        head_spec=PlanSpec(d=2, rank=rank),
    )


def traces_for(teacher, student, data, batch=16):
    ids, mask, _, _ = next(data["train"].batches(batch))
    with ad.no_grad():
        t_trace = teacher.forward(ids, mask, mode="train")
    s_trace = student.forward(ids, mask, mode="train")
    return t_trace, s_trace


class TestLossTerms:
    def test_identical_traces_hit_floors(self):
        teacher, data = toy_teacher_and_data()
        twin = tt_model_from_dense(teacher)
        t_trace, s_trace = traces_for(teacher, twin, data)
        terms = loss_terms(t_trace, s_trace, temperature=1.0)
        assert terms["mse_emb"].item() < 1e-8
        assert terms["cos_emb"].item() < 1e-8
        for t in terms["mse_layers"] + terms["cos_layers"]:
            assert t.item() < 1e-8
        attn_floor = attention_entropy_floor(t_trace)
        attn_total = sum(t.item() for t in terms["attn_ce_layers"]) / len(terms["attn_ce_layers"])
        assert abs(attn_total - attn_floor) < 1e-6
        soft_floor = soft_label_entropy_floor(t_trace, 1.0)
        assert abs(terms["ce_soft"].item() - soft_floor) < 1e-6

    def test_uniform_attention_ce_is_log_n(self):
        teacher, data = toy_teacher_and_data()
        ids, mask, _, _ = next(data["train"].batches(4))
        with ad.no_grad():
            trace = teacher.forward(ids, mask, mode="train")
        n = ids.shape[1]
        uniform = np.full_like(trace.attn_probs[0].data, 1.0 / n)
        from ttq.distill import _attn_ce
        ce = _attn_ce(ad.Tensor(uniform), ad.Tensor(uniform.copy()), mask)
        assert ce.item() == pytest.approx(np.log(n), rel=1e-9)

    def test_infinite_temperature_flattens_soft_labels(self):
        teacher, data = toy_teacher_and_data()
        student = tt_model_from_dense(teacher)
        t_trace, s_trace = traces_for(teacher, student, data, batch=8)
        from ttq.distill import _soft_ce
        big_t = 1e9
        ce = _soft_ce(t_trace.intent_logits, s_trace.intent_logits, big_t)
        assert ce.item() == pytest.approx(np.log(teacher.config.num_intents), rel=1e-6)

    def test_temperature_scaling_consistency(self):
        teacher, data = toy_teacher_and_data()
        student = tt_model_from_dense(teacher)
        t_trace, s_trace = traces_for(teacher, student, data, batch=8)
        from ttq.distill import _soft_ce
        temp = 2.5
        a = _soft_ce(t_trace.intent_logits, s_trace.intent_logits, temp).item()
        b = _soft_ce(ad.Tensor(t_trace.intent_logits.data / temp),
                     ad.Tensor(s_trace.intent_logits.data / temp), 1.0).item()
        assert a == pytest.approx(b, rel=1e-10)

    def test_depth_mismatch_rejected(self):
        teacher, data = toy_teacher_and_data(num_layers=2)
        shallow, _ = toy_teacher_and_data(num_layers=1)
        t_trace, s_trace = traces_for(teacher, shallow, data)
        with pytest.raises(ValueError):
            loss_terms(t_trace, s_trace)


class TestStageLoss:
    def _terms(self):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 1)
        t_trace, s_trace = traces_for(teacher, student, data)
        return loss_terms(t_trace, s_trace)

    def test_recurrence_identity(self):
        terms = self._terms()
        l0 = stage_loss(0, terms, 2).item()
        l1 = stage_loss(1, terms, 2).item()
        l2 = stage_loss(2, terms, 2).item()
        inc1 = (terms["mse_layers"][0].item() + terms["cos_layers"][0].item()
                + terms["attn_ce_layers"][0].item())
        inc2 = (terms["mse_layers"][1].item() + terms["cos_layers"][1].item()
                + terms["attn_ce_layers"][1].item())
        assert l1 - l0 == pytest.approx(inc1, rel=1e-12)
        assert l2 - l1 == pytest.approx(inc2, rel=1e-12)

    def test_final_stage_adds_soft_term(self):
        terms = self._terms()
        l2 = stage_loss(2, terms, 2).item()
        lall = stage_loss(2, terms, 2, final=True).item()
        assert lall - l2 == pytest.approx(terms["ce_soft"].item(), rel=1e-12)

    def test_out_of_range_stage_rejected(self):
        terms = self._terms()
        with pytest.raises(StageError):
            stage_loss(3, terms, 2)

    def test_stage_losses_at_or_above_floors(self):
        terms = self._terms()
        assert terms["mse_emb"].item() >= 0
        assert terms["cos_emb"].item() >= -1e-12
        for t in terms["attn_ce_layers"]:
            assert t.item() > 0


class TestRunDistillation:
    def test_divergence_carries_last_good_student(self):
        teacher, data = toy_teacher_and_data()
        teacher.pos_emb.data[:] = np.nan
        student = TransformerModel(student_config(teacher.config), 2)
        before = snapshot_params(student)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=1)
        with pytest.raises(DivergenceError) as info:
            run_distillation(teacher, student, data["train"], cfg)
        last_good = info.value.last_good
        assert set(last_good) == {name for name, _ in student.params()}
        for name, value in before.items():
            np.testing.assert_array_equal(last_good[name], value)

    def test_nan_gradient_carries_last_good_student(self, monkeypatch):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 2)
        (_, first), (_, second) = student.params()[:2]
        before = snapshot_params(student)
        backward = ad.backward

        def poisoned(loss):
            grads = backward(loss)
            grads[id(second)] = np.full_like(grads[id(second)], np.nan)
            return grads

        monkeypatch.setattr(ad, "backward", poisoned)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=1)
        with pytest.raises(DivergenceError, match=f"{second.name!r}") as info:
            run_distillation(teacher, student, data["train"], cfg)
        np.testing.assert_array_equal(first.data, before[first.name])
        last_good = info.value.last_good
        assert set(last_good) == set(before)
        for name, value in before.items():
            np.testing.assert_array_equal(last_good[name], value)

    def test_divergence_names_its_stage(self, monkeypatch):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 2)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=1)
        stage_steps = -(-len(data["train"]) // cfg.batch_size)
        backward = ad.backward
        calls = []

        def poisoned_in_stage_1(loss):
            grads = backward(loss)
            calls.append(None)
            if len(calls) > stage_steps:
                return {key: np.full_like(g, np.nan) for key, g in grads.items()}
            return grads

        monkeypatch.setattr(ad, "backward", poisoned_in_stage_1)
        with pytest.raises(DivergenceError,
                           match="^distillation stage 1, epoch 0: non-finite gradient"):
            run_distillation(teacher, student, data["train"], cfg)
        assert len(calls) == stage_steps + 1

    def test_adam_sees_every_step_of_every_stage(self, monkeypatch):
        teacher, data = toy_teacher_and_data()
        steps = []
        adam = train.adam_step

        def counted(*args):
            steps.append(None)
            return adam(*args)

        monkeypatch.setattr(train, "adam_step", counted)
        cfg = DistillConfig(stage_epochs=1, final_epochs=2, batch_size=32, seed=4)

        def factory():
            return TransformerModel(student_config(teacher.config), 4)

        run_distillation(teacher, factory(), data["train"], cfg)
        batches = -(-len(data["train"]) // cfg.batch_size)
        epochs = (teacher.config.num_layers + 1) * cfg.stage_epochs + cfg.final_epochs
        assert len(steps) == epochs * batches
        steps.clear()
        compare_schedules(teacher, factory, data["train"], cfg)
        # the all-at-once run takes as many epochs as the staged one
        assert len(steps) == 2 * epochs * batches

    def test_zero_epochs_leaves_student_unchanged(self):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 2)
        before = snapshot_params(student)
        cfg = DistillConfig(stage_epochs=0, final_epochs=0, seed=1)
        run_distillation(teacher, student, data["train"], cfg)
        after = snapshot_params(student)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_teacher_frozen(self):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 3)
        before = snapshot_params(teacher)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=2)
        run_distillation(teacher, student, data["train"], cfg)
        after = snapshot_params(teacher)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_exact_twin_stays_at_floor(self):
        # stage 0 has a zero floor; stages >= 1 carry the cumulative teacher
        # attention entropy; training at the floor is a no-op within tolerance
        teacher, data = toy_teacher_and_data()
        twin = tt_model_from_dense(teacher)
        ids, mask, _, _ = next(data["train"].batches(len(data["train"])))
        with ad.no_grad():
            t_trace = teacher.forward(ids, mask, mode="train")
        per_layer_entropy = attention_entropy_floor(t_trace)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=3,
                            stage_lr=1e-6, final_lr=1e-6)
        report = run_distillation(teacher, twin, data["train"], cfg, dev_set=data["dev"])
        curves = [s["loss_curve"][0] for s in report["stages"]]
        assert curves[0] < 1e-6
        for i in (1, 2):
            assert curves[i] == pytest.approx(i * per_layer_entropy, rel=0.05)
        soft_floor = soft_label_entropy_floor(t_trace, cfg.temperature)
        assert curves[3] == pytest.approx(2 * per_layer_entropy + soft_floor, rel=0.05)
        teacher_dev = None
        from ttq.train import evaluate
        assert (report["stages"][-1]["dev_metrics"]["intent_accuracy"]
                == evaluate(teacher, data["dev"])["intent_accuracy"])

    def test_report_structure(self):
        teacher, data = toy_teacher_and_data()
        student = TransformerModel(student_config(teacher.config), 4)
        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=32, seed=4)
        report = run_distillation(teacher, student, data["train"], cfg)
        assert len(report["stages"]) == teacher.config.num_layers + 2
        assert report["stages"][-1]["final"]


class TestCompareSchedules:
    def test_trajectories_have_equal_lengths_and_reproduce(self):
        teacher, data = toy_teacher_and_data()

        def factory():
            return TransformerModel(student_config(teacher.config), 5)

        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=32, seed=6)
        r1 = compare_schedules(teacher, factory, data["train"], cfg)
        r2 = compare_schedules(teacher, factory, data["train"], cfg)
        tr1 = r1["loss_trajectories"]
        assert len(tr1["layer_by_layer"]) == len(tr1["all_at_once"])
        assert tr1["layer_by_layer"] == r2["loss_trajectories"]["layer_by_layer"]
        assert tr1["all_at_once"] == r2["loss_trajectories"]["all_at_once"]

    def test_self_distillation_converges_to_floors_both_ways(self):
        teacher, data = toy_teacher_and_data()

        def factory():
            return tt_model_from_dense(teacher)

        cfg = DistillConfig(stage_epochs=1, final_epochs=1, batch_size=16, seed=7,
                            stage_lr=1e-6, final_lr=1e-6)
        result = compare_schedules(teacher, factory, data["train"], cfg)
        staged_last = result["loss_trajectories"]["layer_by_layer"][0]
        flat_last = result["loss_trajectories"]["all_at_once"][-1]
        # stage-0 loss of an exact twin is its floor (~0); the flat run carries
        # the attention + soft-label entropy floor
        assert staged_last < 1e-6
        ids, mask, _, _ = next(data["train"].batches(64))
        with ad.no_grad():
            t_trace = teacher.forward(ids, mask, mode="train")
        floor = (attention_entropy_floor(t_trace) * teacher.config.num_layers
                 + soft_label_entropy_floor(t_trace, cfg.temperature))
        assert flat_last == pytest.approx(floor, rel=0.05)
