"""The benchmark's contract with the program, checked without running it.

``pytest perfbench`` is not part of this suite, so a renamed or moved name
that the benchmark's tracer wraps would otherwise only fail there.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
