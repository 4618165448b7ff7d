"""Training: Adam and the optimization loop.

``train_step`` and ``fit`` are the one optimizer step and epoch loop, for
end-to-end training (intent plus slot cross-entropy) and every distillation
stage alike.  Behaviour is deterministic under a fixed seed: parameter
order, shuffle order, and summation order are all fixed.

``adam_step`` updates the parameters whose rows have all gone live in flat
arenas (``_Arena``, as the flat buffers of Rajbhandari et al. 2020, ZeRO):
one fixed sequence of in-place ufuncs per group, with no temporary of
parameter size, and the same per-element arithmetic as Adam one parameter
at a time.  Every parameter is updated in place in Adam's one copy of it,
and a gradient lives only in the map ``ad.backward`` returns.  A step also
draws its activation-sized arrays from recycled buffers (``ttq.buffers``),
so after warm-up it maps no fresh pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .data import DataFormatError, Dataset
from .model import ForwardTrace, TransformerModel
from .quant import BLOCK, MIN_SCALE

SCORING_BATCH = 64  # examples per scored forward: evaluate and ``ttq eval --int8``


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
    """Step count, the float64 first and second moments of each parameter (by
    ``id``), for each parameter of rank >= 1 with rows never touched so far
    the mask of the leading-axis rows that ever had a nonzero gradient, the
    ``_Arena`` groups that hold every other parameter, and the view of its
    values that the last step bound to each parameter's ``.data``
    (``bound``).

    Each entry belongs to one Parameter object, which ``owners`` holds, so
    no new Tensor can take its ``id`` while the entry lives.  A step drops
    the entries of every parameter it is no longer passed (one that
    ``CoreLayer.set_cores`` replaced, say), so a new parameter starts from
    zero moments.

    A parameter of rank >= 1 stores its moments only up to the last row that
    ever had a nonzero gradient; the rows past the stored ones are +0.0.  So
    the position table's moments cover the positions batches have reached,
    not ``max_seq``.  Once every row of a parameter has gone live it joins
    an arena, and its ``m``/``v`` entries become views of the arena's.

    Adam owns one copy of each parameter's values and updates it in place.
    A ``.data`` that is not its ``bound`` view (the array a ``Parameter``
    was built from, or one assigned from outside) is copied into that
    storage at the next step and never written."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    live: dict = field(default_factory=dict)
    arenas: list = field(default_factory=list)
    layout: tuple = ()
    bound: dict = field(default_factory=dict)
    owners: dict = field(default_factory=dict)

    def adopt(self, params: list):
        """Hold ``params`` as the owners of their entries, and drop the
        entries of the parameters held before that are not among them."""
        owners = {id(p): p for p in params}
        for key in self.owners.keys() - owners.keys():
            for entries in (self.m, self.v, self.live, self.bound):
                entries.pop(key, None)
        self.owners = owners


def _adam(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, lr: float,
          config: TrainConfig):
    """Adam's arithmetic on matching flat arrays, all in place: ``m`` and
    ``v`` (float64) and the parameters ``p``.  Each element sees the
    operations, order and dtypes of ``m = b1*m + (1 - b1)*g``, ``v = b2*v +
    (1 - b2)*(g*g)`` and ``p - lr*(m/(1 - b1**t)) / (sqrt(v/(1 - b2**t)) +
    eps)`` stored in ``p``'s dtype, as fixed in-place ufuncs over blocks of
    ``quant.BLOCK`` elements through block-sized scratch."""
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1 - b1 ** t, 1 - b2 ** t
    width = min(p.size, BLOCK)
    scaled, m_hat, denom = np.empty(width, g.dtype), np.empty(width), np.empty(width)
    for start in range(0, p.size, BLOCK):
        sl = slice(start, start + BLOCK)
        gb, mb, vb = g[sl], m[sl], v[sl]
        s, a, d = scaled[:gb.size], m_hat[:gb.size], denom[:gb.size]
        mb *= b1
        np.multiply(gb, 1 - b1, out=s)
        mb += s
        vb *= b2
        np.multiply(gb, gb, out=s)
        s *= 1 - b2
        vb += s
        np.divide(mb, c1, out=a)
        np.divide(vb, c2, out=d)
        np.sqrt(d, out=d)
        d += config.eps
        a *= lr
        a /= d
        np.subtract(p[sl], a, out=p[sl])


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


class _Arena:
    """The parameters of one dtype, gradient dtype and learning rate whose
    rows are all live, in flat buffers (Rajbhandari et al. 2020, ZeRO):
    their values, their gradients and float64 ``m``/``v``, which the update
    writes in place.  Each ``p.data`` is a view of the values, and each
    ``state.m``/``state.v`` entry a view of the moments."""

    def __init__(self, params: list, g_dtype, scale: bool, state: AdamState):
        self.params, self.scale = params, scale
        ends = np.cumsum([p.data.size for p in params]).tolist()
        self.bounds = list(zip([0] + ends[:-1], ends))
        n = ends[-1]
        self.values, self.grad = np.empty(n, params[0].data.dtype), np.empty(n, g_dtype)
        self.m, self.v = np.empty(n), np.empty(n)
        for p, (lo, hi) in zip(params, self.bounds):
            key = id(p)
            state.bound.pop(key, None)  # no p.data is a view of this arena yet: each is adopted
            for moments, arena in ((state.m, self.m), (state.v, self.v)):
                arena[lo:hi] = _stored(moments[key], len(p.data)).reshape(-1) if p.data.ndim \
                    else moments[key].reshape(-1)
                moments[key] = arena[lo:hi].reshape(p.data.shape)

    def update(self, grads: dict, bound: dict, t: int, config: TrainConfig):
        """One Adam step: adopt each ``.data`` that is not its ``bound``
        view, run ``_adam`` on the values in place and bind each ``p.data``
        to a fresh view of them."""
        values, grad = self.values, self.grad
        for p, (lo, hi) in zip(self.params, self.bounds):
            if p.data is not bound.get(id(p)):
                values[lo:hi] = p.data.reshape(-1)
            grad[lo:hi] = grads[id(p)].reshape(-1)
        lr = config.effective_scale_lr if self.scale else config.learning_rate
        _adam(values, grad, self.m, self.v, t, lr, config)
        if self.scale:
            np.maximum(values, MIN_SCALE, out=values)
        for p, (lo, hi) in zip(self.params, self.bounds):
            p.data = bound[id(p)] = values[lo:hi].reshape(p.data.shape)


def _arenas(state: AdamState, full: list, grads: dict, scale_params) -> list:
    """The arenas of the fully-live parameters ``full``, rebuilt whenever
    their set, order, shapes or dtypes change, moments carried over."""
    layout = tuple((id(p), p.data.shape, p.data.dtype, grads[id(p)].dtype, id(p) in scale_params)
                   for p in full)
    if layout != state.layout:
        groups: dict = {}
        for p, (_, _, _, g_dtype, scale) in zip(full, layout):
            groups.setdefault((p.data.dtype, g_dtype, scale), []).append(p)
        state.arenas = [_Arena(params, g_dtype, scale, state)
                        for (_, g_dtype, scale), params in groups.items()]
        state.layout = layout
    return state.arenas


def adam_step(params: list[ad.Tensor], grads: dict[int, np.ndarray], state: AdamState,
              config: TrainConfig, scale_params: set[int] = frozenset()):
    """One Adam update with bias correction.

    Quantizer scale parameters (ids in ``scale_params``) are clamped to stay
    positive after the step; they may use their own learning rate.  Every
    gradient is checked before any update, so a non-finite one raises
    ``DivergenceError`` with the parameters and the state untouched.

    A parameter all of whose rows have gone live is updated in its
    ``_Arena``: a fixed sequence of in-place ufuncs over the flat buffers
    of its group, with no temporary of parameter size.  Every parameter is
    updated in place in Adam's one copy of it (``AdamState.bound``), and
    ``p.data`` becomes a fresh view of that copy after every step, so
    ``CoreLayer.frozen_cores``' identity check sees every step.  The array a
    ``Parameter`` was built from, or one assigned to ``.data`` from outside,
    is copied into Adam's copy and never written.

    Only live rows are updated: a row whose gradient has been zero (either
    sign) at every step so far has m = v = +0, so its update is exactly zero
    and skipping it is bit-identical.  A batch touches only its positions'
    rows of the position table.  The moments are stored up to the last live
    row and grow when a later row goes live (``AdamState``).
    """
    for p in params:
        g = grads.get(id(p))
        if g is not None and g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
            raise DivergenceError(f"non-finite gradient for parameter {p.name!r} "
                                  f"at step {state.step + 1}")
    state.adopt(params)
    state.step += 1
    t = state.step
    full = []
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
        rows = _live_rows(state, key, g)
        if rows is None:
            full.append(p)
            continue
        n = int(rows[-1]) + 1 if rows.size else 0
        state.m[key], state.v[key] = _stored(state.m[key], n), _stored(state.v[key], n)
        m, v = state.m[key], state.v[key]
        lr = config.effective_scale_lr if key in scale_params else config.learning_rate
        data = p.data if p.data is state.bound.get(key) else p.data.copy()
        p_rows, m_rows, v_rows = data[rows], m[rows], v[rows]
        _adam(p_rows.reshape(-1), g[rows].reshape(-1), m_rows.reshape(-1), v_rows.reshape(-1),
              t, lr, config)
        data[rows], m[rows], v[rows] = p_rows, m_rows, v_rows
        if key in scale_params:
            np.maximum(data, MIN_SCALE, out=data)
        p.data = state.bound[key] = data.view()
    for arena in _arenas(state, full, grads, scale_params):
        arena.update(grads, state.bound, t, config)


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


def evaluate(model: TransformerModel, dataset: Dataset) -> dict:
    """Intent accuracy and token-level slot F1 (``score_traces``) of the
    ``train`` forward."""
    def traces():
        for ids, mask, intents, slots in dataset.batches(SCORING_BATCH):
            with ad.no_grad():
                trace = model.forward(ids, mask, mode="train")
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
    float copy of a quantized input or stage input.  The gradients it
    returns live until ``adam_step`` returns, and Adam's moments are stored
    up to each parameter's last live row (``AdamState``).

    ``ad.backward`` and ``adam_step`` are looked up at call time, so a hook
    on either sees every step.
    """
    value = loss.item()
    if not math.isfinite(value):
        raise DivergenceError(f"non-finite loss {value} at step {state.step + 1}")
    params = [p for _, p in model.params()]
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
