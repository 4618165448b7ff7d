"""Layer-by-layer distillation of a quantized TT student from a dense teacher.

The stage-i loss accumulates embedding and encoder matching terms from the
bottom of the network upward:

    stage 0:      embedding MSE + embedding cosine distance
    stage i:      stage i-1  + encoder-i MSE + cosine + attention cross-entropy
    final stage:  stage L    + soft-label cross-entropy at temperature T

Stages train sequentially on the same data; the teacher stays frozen.  The
cosine term is one minus the mean per-position cosine similarity, so it is
zero for perfectly aligned outputs.  Soft-label cross-entropy covers both
classifier heads (sequence-level intent and token-level slots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset
from .model import ForwardTrace, TransformerModel
from .train import TrainConfig, evaluate, fit, snapshot_params


@dataclass
class DistillConfig:
    temperature: float = 1.0
    stage_epochs: int = 3
    final_epochs: int = 3
    stage_lr: float = 1e-3
    final_lr: float = 5e-5
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.stage_lr <= 0 or self.final_lr <= 0:
            raise ValueError("learning rates must be positive")
        for key, low in (("batch_size", 1), ("stage_epochs", 0), ("final_epochs", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")


@dataclass
class DistillStage:
    index: int  # 0..L for cumulative stages; L+1 marks the final soft-label stage
    is_final: bool
    learning_rate: float
    epochs: int


class StageError(ValueError):
    """Stage index outside 0..L(+final)."""


# ---------------------------------------------------------------------------
# Loss terms


def _masked_positions(mask: np.ndarray):
    flat = mask.reshape(-1).astype(bool)
    return np.nonzero(flat)[0], max(float(mask.sum()), 1.0)


def _mse(t: ad.Tensor, s: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Mean squared difference over unmasked positions (all feature dims)."""
    b, sq, h = t.shape
    idx, count = _masked_positions(mask)
    diff = ad.sub(ad.reshape(s, (b * sq, h)), ad.Tensor(t.data.reshape(b * sq, h)))
    picked = ad.gather_rows(diff, idx)
    return ad.scale(ad.sum_all(ad.pow_const(picked, 2.0)), 1.0 / (count * h))


def _cos_distance(t: ad.Tensor, s: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """1 - mean per-position cosine similarity over unmasked positions."""
    b, sq, h = t.shape
    idx, count = _masked_positions(mask)
    tv = ad.gather_rows(ad.Tensor(t.data.reshape(b * sq, h)), idx)
    sv = ad.gather_rows(ad.reshape(s, (b * sq, h)), idx)
    dot = ad.sum_axis(ad.mul(tv, sv), 1)
    ns = ad.sqrt(ad.add(ad.sum_axis(ad.mul(sv, sv), 1), ad.Tensor(np.asarray(1e-12))))
    nt = ad.sqrt(ad.add(ad.sum_axis(ad.mul(tv, tv), 1), ad.Tensor(np.asarray(1e-12))))
    cos = ad.div(dot, ad.mul(ns, nt))
    return ad.sub(ad.Tensor(np.asarray(1.0, dtype=cos.data.dtype)),
                  ad.scale(ad.sum_all(cos), 1.0 / count))


def _attn_ce(t: ad.Tensor, s: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Cross-entropy between attention rows, averaged over batch, heads, and
    unmasked query positions.  Teacher and student rows are probabilities."""
    b, heads, sq, _ = t.shape
    logp = _attn_log(s)
    prod = ad.mul(ad.Tensor(t.data), logp)
    row_ce = ad.scale(ad.sum_axis(ad.sum_axis(prod, 3), 1), -1.0 / heads)  # (b, sq)
    m = ad.Tensor(mask.astype(row_ce.data.dtype))
    count = max(float(mask.sum()), 1.0)
    return ad.scale(ad.sum_all(ad.mul(row_ce, m)), 1.0 / count)


def _attn_log(attn: ad.Tensor) -> ad.Tensor:
    """log of attention probabilities, numerically floored."""
    eps = np.asarray(1e-30, dtype=attn.data.dtype)
    return ad.log(ad.add(attn, ad.Tensor(eps)))


def _soft_ce(t_logits: ad.Tensor, s_logits: ad.Tensor, temperature: float,
             mask: np.ndarray | None = None) -> ad.Tensor:
    """CE(softmax(teacher/T), log_softmax(student/T)); mean over rows.

    For token-level logits a mask selects the rows that count.
    """
    shape = t_logits.shape
    classes = shape[-1]
    t_flat = t_logits.data.reshape(-1, classes) / temperature
    s_flat = ad.scale(ad.reshape(s_logits, (-1, classes)), 1.0 / temperature)
    if mask is not None:
        idx, count = _masked_positions(mask)
    else:
        idx, count = np.arange(t_flat.shape[0]), float(t_flat.shape[0])
    t_sel = t_flat[idx]
    e = np.exp(t_sel - t_sel.max(axis=-1, keepdims=True))
    t_prob = e / e.sum(axis=-1, keepdims=True)
    s_sel = ad.gather_rows(s_flat, idx)
    logp = ad.log_softmax(s_sel, axis=-1)
    return ad.scale(ad.sum_all(ad.mul(ad.Tensor(t_prob.astype(logp.data.dtype)), logp)),
                    -1.0 / count)


def loss_terms(teacher: ForwardTrace, student: ForwardTrace, temperature: float = 1.0) -> dict:
    """All matching terms between two traces (teacher values detached)."""
    if len(teacher.encoder_outs) != len(student.encoder_outs):
        raise ValueError("teacher and student depths differ")
    mask = student.mask
    terms = {
        "mse_emb": _mse(teacher.emb_out, student.emb_out, mask),
        "cos_emb": _cos_distance(teacher.emb_out, student.emb_out, mask),
        "mse_layers": [], "cos_layers": [], "attn_ce_layers": [],
    }
    for t_out, s_out in zip(teacher.encoder_outs, student.encoder_outs):
        terms["mse_layers"].append(_mse(t_out, s_out, mask))
        terms["cos_layers"].append(_cos_distance(t_out, s_out, mask))
    for t_attn, s_attn in zip(teacher.attn_probs, student.attn_probs):
        terms["attn_ce_layers"].append(_attn_ce(t_attn, s_attn, mask))
    soft = ad.add(
        _soft_ce(teacher.intent_logits, student.intent_logits, temperature),
        _soft_ce(teacher.slot_logits, student.slot_logits, temperature, mask),
    )
    terms["ce_soft"] = soft
    return terms


def stage_loss(stage_index: int, terms: dict, num_layers: int,
               final: bool = False) -> ad.Tensor:
    """Cumulative stage loss, the unweighted sum of its terms (each weighs 1);
    ``final`` adds the soft-label term to stage L."""
    if not 0 <= stage_index <= num_layers:
        raise StageError(f"stage {stage_index} outside 0..{num_layers}")
    total = ad.add(terms["mse_emb"], terms["cos_emb"])
    for i in range(stage_index):
        total = ad.add(total, terms["mse_layers"][i])
        total = ad.add(total, terms["cos_layers"][i])
        total = ad.add(total, terms["attn_ce_layers"][i])
    if final:
        total = ad.add(total, terms["ce_soft"])
    return total


# ---------------------------------------------------------------------------
# Schedules


def make_stages(num_layers: int, config: DistillConfig) -> list[DistillStage]:
    stages = [DistillStage(i, False, config.stage_lr, config.stage_epochs)
              for i in range(num_layers + 1)]
    stages.append(DistillStage(num_layers + 1, True, config.final_lr, config.final_epochs))
    return stages


def _distill_stage(teacher: TransformerModel, student: TransformerModel, dataset: Dataset,
                   stage: DistillStage, config: DistillConfig, num_layers: int,
                   rng: np.random.Generator, log=None) -> list[float]:
    tc = TrainConfig(learning_rate=stage.learning_rate, batch_size=config.batch_size,
                     epochs=stage.epochs, seed=config.seed)
    idx = min(stage.index, num_layers)
    curve = []

    def batch_loss(ids, mask, _intents, _slots):
        with ad.no_grad():
            t_trace = teacher.forward(ids, mask, mode="train")
        s_trace = student.forward(ids, mask, mode="train")
        terms = loss_terms(t_trace, s_trace, config.temperature)
        return stage_loss(idx, terms, num_layers, final=stage.is_final)

    def end_epoch(epoch, mean_loss):
        curve.append(mean_loss)
        if log:
            log({"stage": stage.index, "epoch": epoch, "loss": mean_loss})

    fit(student, dataset, tc, batch_loss, rng, f"distillation stage {stage.index}", end_epoch)
    return curve


def run_distillation(teacher: TransformerModel, student: TransformerModel, dataset: Dataset,
                     config: DistillConfig, dev_set: Dataset | None = None, log=None) -> dict:
    """Sequentially train on stage losses 0..L then the final soft-label stage.

    Returns a report with per-stage loss curves; the student is trained in
    place and the teacher is left untouched.
    """
    if teacher.config.num_layers != student.config.num_layers:
        raise ValueError("teacher and student depths must match")
    if teacher.config.hidden != student.config.hidden:
        raise ValueError("teacher and student hidden dims must match")
    num_layers = teacher.config.num_layers
    teacher_before = snapshot_params(teacher)
    rng = np.random.default_rng(config.seed)
    report = {"stages": []}
    for stage in make_stages(num_layers, config):
        curve = _distill_stage(teacher, student, dataset, stage, config, num_layers, rng, log)
        entry = {"stage": stage.index, "final": stage.is_final,
                 "lr": stage.learning_rate, "epochs": stage.epochs, "loss_curve": curve}
        if dev_set is not None and len(dev_set) and stage.is_final:
            entry["dev_metrics"] = evaluate(student, dev_set)
        report["stages"].append(entry)
    for name, p in teacher.params():
        if not np.array_equal(p.data, teacher_before[name]):
            raise RuntimeError("teacher parameters changed during distillation")
    return report


def compare_schedules(teacher: TransformerModel, student_factory, dataset: Dataset,
                      config: DistillConfig, dev_set: Dataset | None = None) -> dict:
    """Run (a) the layer-by-layer schedule and (b) the all-at-once loss on
    identically initialized students; report both trajectories side by side.

    ``student_factory()`` must return a freshly initialized student each call
    (same seed for a fair comparison).  No assertion about which wins: this
    is an experiment harness.
    """
    num_layers = teacher.config.num_layers
    staged_student = student_factory()
    staged_report = run_distillation(teacher, staged_student, dataset, config, dev_set)
    staged_epochs = sum(s["epochs"] for s in staged_report["stages"])

    flat_student = student_factory()
    rng = np.random.default_rng(config.seed)
    flat_stage = DistillStage(num_layers + 1, True, config.stage_lr, staged_epochs)
    flat_curve = _distill_stage(teacher, flat_student, dataset, flat_stage, config,
                                num_layers, rng)
    flat_report = {"stages": [{"stage": "all_at_once", "final": True,
                               "lr": config.stage_lr, "epochs": staged_epochs,
                               "loss_curve": flat_curve}]}
    if dev_set is not None and len(dev_set):
        flat_report["stages"][0]["dev_metrics"] = evaluate(flat_student, dev_set)
    staged_flat_curve = [v for s in staged_report["stages"] for v in s["loss_curve"]]
    return {
        "layer_by_layer": staged_report,
        "all_at_once": flat_report,
        "loss_trajectories": {"layer_by_layer": staged_flat_curve, "all_at_once": flat_curve},
        "students": {"layer_by_layer": staged_student, "all_at_once": flat_student},
    }
