"""The benchmark's contract with the program, checked without running it.

``pytest perfbench`` is not part of this suite, so a renamed or moved name
that the benchmark's tracer wraps would otherwise only fail there.
"""

import importlib
from pathlib import Path

import numpy as np

from ttq import autodiff as ad
from ttq.config import RunConfig
from ttq.model import TransformerModel, TTLinearLayer

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_every_traced_target_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    importlib.import_module("workloads")  # fails on a name the benchmark imports
    spans = importlib.import_module("spans")
    for owner, attr, name, _ in spans.targets():
        # Tracer._wrap saves and restores owner.__dict__[attr]
        assert attr in vars(owner), f"{name}: {owner.__name__}.{attr} is not defined there"


def test_per_layer_table_reads_only_traced_names(monkeypatch):
    # per_layer indexes its span table by name, so a target that disappears
    # (a deleted autodiff op, say) fails here with the KeyError a traced run
    # would raise
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.names = [name for _, _, name, _ in spans.targets()]
    values, _ = spans.per_layer(tracer, 1, 0.0)
    assert values.keys() == spans.PER_LAYER.keys()


def test_cost_callbacks_read_the_layers_they_are_handed(monkeypatch):
    # the traced wrappers hand _tt_ops and _ttm_ops the live layer, and
    # _check_cost_model reads the model's TT layers; a renamed attribute
    # fails here as it would in a traced run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    model = TransformerModel(RunConfig.load(ROOT / "configs" / "toy_int8.json").model, 0)
    tokens = 5
    tt_layers = [l for l in model.layers() if isinstance(l, TTLinearLayer)]
    assert tt_layers
    for layer in tt_layers:
        kind, ops = spans._tt_ops(layer, ad.Tensor(np.zeros((tokens, layer.in_dim))))
        assert kind in ("tt_encoder", "tt_head") and ops > 0
    kind, ops = spans._ttm_ops(model.embedding, np.zeros(tokens, dtype=np.int64))
    assert kind == "ttm" and ops > 0
    out = workloads.Outcome()
    workloads._check_cost_model(model, tokens, out)
    assert out.report["cost_model_matches_model_flops"]
