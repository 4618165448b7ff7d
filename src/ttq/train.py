"""Training: Adam and the optimization loop.

``train_step`` and ``fit`` are the one optimizer step and epoch loop, for
end-to-end training (intent plus slot cross-entropy) and every distillation
stage alike.  Behaviour is deterministic under a fixed seed: parameter
order, shuffle order, and summation order are all fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .data import DataFormatError, Dataset
from .model import ForwardTrace, TransformerModel
from .quant import MIN_SCALE


class DivergenceError(RuntimeError):
    """Loss or gradients became non-finite; carries the last good state."""

    def __init__(self, message: str, last_good: dict | None = None):
        super().__init__(message)
        self.last_good = last_good


@dataclass
class TrainConfig:
    """Optimizer and loop settings.

    Quantizer scales are orders of magnitude smaller than core entries, and
    Adam steps of the shared learning rate make them oscillate hard enough to
    stall INT8 training, so by default they train at a tenth of the main
    learning rate.  Set ``scale_lr`` explicitly (e.g. to ``learning_rate``)
    to override.
    """

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    scale_lr: float | None = None  # None: 0.1 * learning_rate

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be non-negative")
        for key, low in (("batch_size", 1), ("epochs", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")

    @property
    def effective_scale_lr(self) -> float:
        return 0.1 * self.learning_rate if self.scale_lr is None else self.scale_lr


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Step count, first and second moments, and for each parameter of rank
    >= 1 with rows never touched so far, the mask of the leading-axis rows
    that ever had a nonzero gradient.

    A parameter of rank >= 1 stores its moments only up to the last row that
    ever had a nonzero gradient; the rows past the stored ones are +0.0.  So
    the position table's moments cover the positions batches have reached,
    not ``max_seq``."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    live: dict = field(default_factory=dict)


def _adam_update(p, g, m, v, t: int, lr: float, config: TrainConfig):
    """The Adam arithmetic on matching arrays: the new (p, m, v)."""
    b1, b2 = config.beta1, config.beta2
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * (g * g)
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    # an ndarray even for a 0-d p, whose arithmetic gives numpy scalars
    return np.asarray(p - lr * m_hat / (np.sqrt(v_hat) + config.eps), dtype=p.dtype), m, v


def _stored(moment: np.ndarray, rows: int) -> np.ndarray:
    """``moment`` grown with +0.0 rows to at least ``rows`` leading rows."""
    if len(moment) >= rows:
        return moment
    grown = np.zeros((rows,) + moment.shape[1:])
    grown[:len(moment)] = moment
    return grown


def _live_rows(state: AdamState, key: int, g: np.ndarray):
    """Indices of the rows (leading axis) of parameter ``key`` that ever had a
    nonzero gradient, or None once that is all of them."""
    live = state.live.get(key)
    if live is None:
        return None
    live |= g.any(axis=tuple(range(1, g.ndim)))
    if live.all():
        del state.live[key]
        return None
    return np.flatnonzero(live)


def adam_step(params: list[ad.Tensor], grads: dict[int, np.ndarray], state: AdamState,
              config: TrainConfig, scale_params: set[int] = frozenset()):
    """One Adam update with bias correction.

    Quantizer scale parameters (ids in ``scale_params``) are clamped to stay
    positive after the step; they may use their own learning rate.  Every
    gradient is checked before any update, so a non-finite one raises
    ``DivergenceError`` with the parameters and the state untouched.

    Only live rows are updated: a row whose gradient has been zero (either
    sign) at every step so far has m = v = +0, so its update is exactly zero
    and skipping it is bit-identical.  A batch touches only its positions'
    rows of the position table.  The moments are stored up to the last live
    row and grow when a later row goes live (``AdamState``).
    """
    for p in params:
        g = grads.get(id(p))
        if g is not None and not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {p.name!r} "
                                  f"at step {state.step + 1}")
    state.step += 1
    t = state.step
    for p in params:
        g = grads.get(id(p))
        if g is None:
            continue
        key = id(p)
        if key not in state.m:  # no rows stored yet
            shape = (0,) + p.data.shape[1:] if p.data.ndim else ()
            state.m[key], state.v[key] = np.zeros(shape), np.zeros(shape)
            if p.data.ndim:
                state.live[key] = np.zeros(len(p.data), dtype=bool)
        lr = config.effective_scale_lr if key in scale_params else config.learning_rate
        rows = _live_rows(state, key, g)
        if p.data.ndim:
            n = len(p.data) if rows is None else (int(rows[-1]) + 1 if rows.size else 0)
            state.m[key], state.v[key] = _stored(state.m[key], n), _stored(state.v[key], n)
        m, v = state.m[key], state.v[key]
        if rows is None:
            p.data, state.m[key], state.v[key] = _adam_update(p.data, g, m, v, t, lr, config)
        else:
            data = p.data.copy()
            data[rows], m[rows], v[rows] = _adam_update(data[rows], g[rows], m[rows], v[rows],
                                                        t, lr, config)
            p.data = data
        if key in scale_params:
            np.maximum(p.data, MIN_SCALE, out=p.data)  # a fresh array: no alias sees it


# ---------------------------------------------------------------------------
# Losses and metrics


def intent_slot_loss(trace: ForwardTrace, intents: np.ndarray, slots: np.ndarray) -> ad.Tensor:
    """Sum of intent cross-entropy (mean over batch) and slot cross-entropy
    (mean over unmasked tokens).  A label outside the model's heads raises
    ``DataFormatError``."""
    b, s, k = trace.slot_logits.shape
    n = trace.intent_logits.shape[1]
    if intents.min() < 0 or intents.max() >= n or slots.min() < 0 or slots.max() >= k:
        raise DataFormatError(f"labels outside the model's {n} intents and {k} slots")
    logp_int = ad.log_softmax(trace.intent_logits, axis=-1)
    picked = ad.gather_rows(ad.reshape(logp_int, (-1,)), np.arange(b) * n + intents)
    intent_ce = ad.scale(ad.sum_all(picked), -1.0 / b)
    logp_slot = ad.log_softmax(trace.slot_logits, axis=-1)
    flat = ad.reshape(logp_slot, (-1,))
    mask = trace.mask.reshape(-1)
    slot_idx = np.arange(b * s) * k + slots.reshape(-1)
    picked_slots = ad.gather_rows(flat, slot_idx)
    m = ad.Tensor(mask.astype(flat.data.dtype))
    denom = max(mask.sum(), 1.0)
    slot_ce = ad.scale(ad.sum_all(ad.mul(picked_slots, m)), -1.0 / denom)
    return ad.add(intent_ce, slot_ce)


def evaluate(model: TransformerModel, dataset: Dataset, batch_size: int = 64,
             mode: str = "train") -> dict:
    """Intent accuracy and token-level slot F1 (``score_traces``) of the
    ``mode`` forward."""
    def traces():
        for ids, mask, intents, slots in dataset.batches(batch_size):
            with ad.no_grad():
                trace = model.forward(ids, mask, mode=mode)
            yield trace, intents, slots

    return score_traces(traces())


def score_traces(scored: Iterable[tuple[ForwardTrace, np.ndarray, np.ndarray]]) -> dict:
    """Intent accuracy and token-level slot F1 (micro, non-outside labels)
    over ``(trace, intents, slots)`` batches."""
    correct = 0
    total = 0
    tp = fp = fn = 0
    for trace, intents, slots in scored:
        pred_int = trace.intent_logits.data.argmax(axis=-1)
        correct += int((pred_int == intents).sum())
        total += len(intents)
        pred_slots = trace.slot_logits.data.argmax(axis=-1)
        valid = trace.mask > 0
        gold = slots[valid]
        pred = pred_slots[valid]
        tp += int(((pred == gold) & (gold > 0)).sum())
        fp += int(((pred != gold) & (pred > 0)).sum())
        fn += int(((pred != gold) & (gold > 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"intent_accuracy": correct / max(total, 1), "slot_f1": f1}


# ---------------------------------------------------------------------------
# The optimization loop: one step and one epoch loop for every objective


def snapshot_params(model: TransformerModel) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in model.params()}


def train_step(model: TransformerModel, state: AdamState, config: TrainConfig,
               loss: ad.Tensor) -> float:
    """One Adam step on ``loss``, a scalar from a forward of ``model``;
    returns the loss value.  A non-finite loss raises ``DivergenceError``
    before anything changes.

    The backward consumes the graph, which frees what the forward kept for
    it: for each TT layer, its one ``ad.tt_linear`` node's int8 codes and
    its input, or the ``ad.Rebuild`` of a LayerNorm or GELU input, and no
    float copy of a quantized input or stage input.
    Each ``.grad`` then lives until the next step clears it, and Adam's
    moments are stored up to each parameter's last live row (``AdamState``).

    ``.grad`` is cleared just before the backward, its only writer, so the
    values equal those of clearing before the forward.  ``ad.backward`` and
    ``adam_step`` are looked up at call time, so a hook on either sees every
    step.
    """
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite loss {value} at step {state.step + 1}")
    params = [p for _, p in model.params()]
    for p in params:
        p.zero_grad()
    adam_step(params, ad.backward(loss), state, config, {id(p) for p in model.scale_params()})
    return value


def fit(model: TransformerModel, dataset: Dataset, config: TrainConfig, batch_loss,
        rng: np.random.Generator, label: str, end_epoch) -> None:
    """``config.epochs`` epochs of ``train_step`` on ``batch_loss(ids, mask,
    intents, slots)`` with fresh Adam state, one ``rng.permutation`` of
    ``dataset`` per epoch; ``end_epoch(epoch, mean_loss)`` runs after each.
    A ``DivergenceError`` is raised again as ``"{label}, epoch {e}: ..."``
    with the parameters of the last complete epoch (or the initial ones).
    """
    state = AdamState()
    last_good = snapshot_params(model)
    for epoch in range(config.epochs):
        total, batches = 0.0, 0
        order = rng.permutation(len(dataset))
        for ids, mask, intents, slots in dataset.batches(config.batch_size, order=order):
            try:
                total += train_step(model, state, config, batch_loss(ids, mask, intents, slots))
            except DivergenceError as exc:
                raise DivergenceError(f"{label}, epoch {epoch}: {exc}",
                                      last_good=last_good) from exc
            batches += 1
        end_epoch(epoch, total / max(batches, 1))
        last_good = snapshot_params(model)


def train_end_to_end(model: TransformerModel, train_set: Dataset, dev_set: Dataset | None,
                     config: TrainConfig, log=None) -> dict:
    """Train on the joint intent+slot objective; returns the training report."""
    if len(train_set) == 0:
        raise ValueError("training dataset is empty")
    report = {"epochs": [], "config": {"lr": config.learning_rate, "epochs": config.epochs,
                                       "batch_size": config.batch_size, "seed": config.seed}}

    def batch_loss(ids, mask, intents, slots):
        return intent_slot_loss(model.forward(ids, mask, mode="train"), intents, slots)

    def end_epoch(epoch, mean_loss):
        entry = {"epoch": epoch, "train_loss": mean_loss}
        if dev_set is not None and len(dev_set):
            entry.update({f"dev_{k}": v for k, v in evaluate(model, dev_set).items()})
        report["epochs"].append(entry)
        if log:
            log(entry)

    fit(model, train_set, config, batch_loss, np.random.default_rng(config.seed), "training",
        end_epoch)
    return report
