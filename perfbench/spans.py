"""Span tracing for the traced run, installed from the benchmark's own files.

``Tracer.install`` replaces the public functions and methods listed in
``targets()`` with wrappers that record one span per call: name, start, end,
parent span and the step (optimizer step or scored batch) it belongs to.
The program's files are not modified; ``uninstall`` puts the originals back.
Spans stay in memory until ``write`` saves them at the end of the run.

Step ids: 0 is set-up (model construction, warm-up, checkpoint load and
calibration), 1..N are the timed steps.  Self time of a span is its duration
minus the durations of its direct children; calls are strictly nested in one
thread, so that is the time not covered by any child.
"""

from __future__ import annotations

import functools
import inspect
import json
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from ttq import autodiff, checkpoint, data, model, quant, train
from ttq.accounting import flops_estimate

# autodiff functions that are not graph operations
_NOT_OPS = {"backward", "Parameter", "fresh_letters"}


def autodiff_ops() -> list[str]:
    return sorted(n for n, f in vars(autodiff).items()
                  if inspect.isfunction(f) and f.__module__ == autodiff.__name__
                  and not n.startswith("_") and n not in _NOT_OPS)


def plan_ops(plan, bits: int, act_bits: int, tokens: int) -> float:
    """Predicted ops of one TT matvec or TTM lookup per token, times tokens, as
    ``model_flops`` counts them."""
    return flops_estimate(plan, bits, act_bits, seq_len=tokens).flops


def _tt_ops(layer, x2d, mode="train"):
    kind = "tt_encoder" if layer.name.startswith("encoder") else "tt_head"
    return kind, plan_ops(layer.plan, layer.bits, layer.act_bits, x2d.shape[0])


def _ttm_ops(emb, ids, mode="train"):
    # the lookup multiplies core slices by core slices, both at the weight width
    return "ttm", plan_ops(emb.plan, emb.bits, emb.bits, np.asarray(ids).size)


def targets():
    """(owner, attribute, span name, predicted-ops callback or None)."""
    out = [
        (data, "pad_batch", "data.pad_batch", None),
        (autodiff, "backward", "autodiff.backward", None),
        (quant, "quantize", "quant.quantize", None),
        (model.TransformerModel, "forward", "model.forward", None),
        (model.TransformerModel, "calibrate_int", "model.calibrate_int", None),
        (model.TTMEmbedding, "forward", "model.embedding", _ttm_ops),
        (model.TTLinearLayer, "forward", "model.tt_linear", _tt_ops),
        (model, "tt_chain_apply", "model.tt_chain_apply", None),
        (model.EncoderBlock, "forward", "model.encoder", None),
        (model.ClassifierHead, "forward", "model.heads", None),
        (checkpoint, "checkpoint_load", "checkpoint.load", None),
        (train, "intent_slot_loss", "train.intent_slot_loss", None),
        (train, "adam_step", "train.adam_step", None),
    ]
    out += [(autodiff, n, f"autodiff.{n}", None) for n in autodiff_ops()]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent index, step)
        self.ops: dict[int, tuple[str, float]] = {}  # span index -> (kind, predicted ops)
        self.step = 0
        self.paused = False
        self._stack: list[int] = []
        self._saved: list = []

    def install(self):
        for owner, attr, name, ops in targets():
            self._wrap(owner, attr, name, ops)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, name, ops):
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__[attr]))
        nid = len(self.names)
        self.names.append(name)
        spans, stack, ops_map = self.spans, self._stack, self.ops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if ops is not None:
                ops_map[idx] = ops(*args, **kwargs)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.step)

        setattr(owner, attr, traced)

    # -- analysis -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        cols = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {"name": cols[:, 0], "start_ns": cols[:, 1], "end_ns": cols[:, 2],
                "parent": cols[:, 3], "step": cols[:, 4]}

    def table(self, arr: dict[str, np.ndarray], steps) -> dict[str, dict]:
        """Per span name over spans whose step is in ``steps``: calls, inclusive
        and self time in ns."""
        dur = arr["end_ns"] - arr["start_ns"]
        child = np.zeros_like(dur)
        has_parent = arr["parent"] >= 0
        np.add.at(child, arr["parent"][has_parent], dur[has_parent])
        selfd = dur - child
        keep = np.isin(arr["step"], steps)
        out = {}
        for nid, name in enumerate(self.names):
            sel = keep & (arr["name"] == nid)
            out[name] = {"calls": int(sel.sum()), "incl_ns": int(dur[sel].sum()),
                         "self_ns": int(selfd[sel].sum())}
        return out

    def ops_by_kind(self, arr: dict[str, np.ndarray], steps) -> dict[str, dict]:
        """Predicted ops and inclusive span time of the TT and TTM spans."""
        dur = arr["end_ns"] - arr["start_ns"]
        keep = np.isin(arr["step"], steps)
        out = {k: {"ops": 0.0, "ns": 0} for k in ("tt_encoder", "tt_head", "ttm")}
        for idx, (kind, ops) in self.ops.items():
            if keep[idx]:
                out[kind]["ops"] += ops
                out[kind]["ns"] += int(dur[idx])
        return out

    def write(self, stem: Path, summary: dict):
        stem.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(stem.with_suffix(".spans.npz"), names=np.array(self.names),
                            **self.arrays())
        stem.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")


# name -> (unit, better); every name is a per-layer metric in BENCHMARK.json
PER_LAYER = {
    "data.batch_ms": ("ms", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.op_calls": ("count", "lower"),
    "autodiff.einsum_ms": ("ms", "lower"),
    "autodiff.einsum_calls": ("count", "lower"),
    "autodiff.gelu_ms": ("ms", "lower"),
    "autodiff.layer_norm_ms": ("ms", "lower"),
    "autodiff.softmax_ms": ("ms", "lower"),
    "quant.fake_quant_ms": ("ms", "lower"),
    "quant.fake_quant_calls": ("count", "lower"),
    "quant.quantize_ms": ("ms", "lower"),
    "quant.quantize_calls": ("count", "lower"),
    "model.forward_ms": ("ms", "lower"),
    "model.embedding_ms": ("ms", "lower"),
    "model.tt_linear_ms": ("ms", "lower"),
    "model.tt_chain_ms": ("ms", "lower"),
    "model.encoder_self_ms": ("ms", "lower"),
    "model.heads_ms": ("ms", "lower"),
    "model.calibrate_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "train.loss_ms": ("ms", "lower"),
    "train.adam_ms": ("ms", "lower"),
    "accounting.tt_ops_pred": ("count", "lower"),
    "accounting.embedding_ops_pred": ("count", "lower"),
    "accounting.tt_ns_per_op": ("ns", "lower"),
    "accounting.embedding_ns_per_op": ("ns", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.wrapped_calls": ("count", "lower"),
}

# spans the cost model has no prediction for; reported with null ops
_UNPREDICTED = ("autodiff.matmul", "autodiff.gelu", "autodiff.layer_norm", "autodiff.softmax",
                "autodiff.tanh")


def per_layer(tracer: Tracer, n_steps: int, overhead_pct: float) -> tuple[dict, dict]:
    """Per-layer metric values (per timed step, or per call for set-up spans)
    and the summary written beside the spans."""
    arr = tracer.arrays()
    timed = np.arange(1, n_steps + 1)
    tab = tracer.table(arr, timed)
    setup = tracer.table(arr, [0])
    kinds = tracer.ops_by_kind(arr, timed)
    n = max(n_steps, 1)

    def ms(name, key="incl_ns"):
        return tab[name][key] / n / 1e6

    def per_call_ms(name):
        row = setup[name]
        return row["incl_ns"] / row["calls"] / 1e6 if row["calls"] else 0.0

    def ns_per_op(*ks):
        ops = sum(kinds[k]["ops"] for k in ks)
        return sum(kinds[k]["ns"] for k in ks) / ops if ops else None

    op_names = [f"autodiff.{o}" for o in autodiff_ops()]
    values = {
        "data.batch_ms": ms("data.pad_batch"),
        "autodiff.backward_ms": ms("autodiff.backward"),
        "autodiff.op_calls": sum(tab[o]["calls"] for o in op_names) / n,
        "autodiff.einsum_ms": ms("autodiff.einsum"),
        "autodiff.einsum_calls": tab["autodiff.einsum"]["calls"] / n,
        "autodiff.gelu_ms": ms("autodiff.gelu"),
        "autodiff.layer_norm_ms": ms("autodiff.layer_norm"),
        "autodiff.softmax_ms": ms("autodiff.softmax"),
        "quant.fake_quant_ms": ms("autodiff.fake_quant"),
        "quant.fake_quant_calls": tab["autodiff.fake_quant"]["calls"] / n,
        "quant.quantize_ms": ms("quant.quantize"),
        "quant.quantize_calls": tab["quant.quantize"]["calls"] / n,
        "model.forward_ms": ms("model.forward"),
        "model.embedding_ms": ms("model.embedding"),
        "model.tt_linear_ms": ms("model.tt_linear", "self_ns"),
        "model.tt_chain_ms": ms("model.tt_chain_apply"),
        "model.encoder_self_ms": ms("model.encoder", "self_ns"),
        "model.heads_ms": ms("model.heads"),
        "model.calibrate_ms": per_call_ms("model.calibrate_int"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load"),
        "train.loss_ms": ms("train.intent_slot_loss"),
        "train.adam_ms": ms("train.adam_step"),
        "accounting.tt_ops_pred": (kinds["tt_encoder"]["ops"] + kinds["tt_head"]["ops"]) / n,
        "accounting.embedding_ops_pred": kinds["ttm"]["ops"] / n,
        "accounting.tt_ns_per_op": ns_per_op("tt_encoder", "tt_head"),
        "accounting.embedding_ns_per_op": ns_per_op("ttm"),
        "trace.overhead_pct": overhead_pct,
        "trace.wrapped_calls": sum(r["calls"] for r in tab.values()) / n,
    }
    cost = [{"span": f"model.tt_linear[{k}]" if k != "ttm" else "model.embedding",
             "ms_per_step": kinds[k]["ns"] / n / 1e6,
             "predicted_ops_per_step": kinds[k]["ops"] / n,
             "ns_per_op": ns_per_op(k)} for k in ("tt_encoder", "tt_head", "ttm")]
    cost += [{"span": name, "ms_per_step": ms(name), "predicted_ops_per_step": None,
              "ns_per_op": None} for name in _UNPREDICTED]
    summary = {
        "steps": n_steps,
        "span_names": tracer.names,
        "spans_total": len(tracer.spans),
        "per_step": {name: {"calls": row["calls"] / n, "incl_ms": row["incl_ns"] / n / 1e6,
                            "self_ms": row["self_ns"] / n / 1e6}
                     for name, row in tab.items() if row["calls"]},
        "setup": {name: row for name, row in setup.items() if row["calls"]},
        "cost_model": cost,
        "per_layer": values,
    }
    return values, summary
