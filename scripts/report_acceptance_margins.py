#!/usr/bin/env python3
"""Retrain the models behind acceptance criteria 5 and 7 and print how far
each lane sits from its bound.

Criterion 5 trains a dense FP32 baseline and INT8 and INT2 TT models end to
end; criterion 7 distills an INT8 TT student from that baseline.  This
script trains them with the corpus, settings and seeds of
``tests/test_acceptance.py`` (imported from it) and prints, per lane:

* its intent accuracy, and its gap to the dense baseline beside the bound;
* how many more test examples it may get wrong before its criterion fails
  (the bound on the gap and, in criterion 5, the 0.90 accuracy floor);
* the sha256 of its per-example correctness vector: one byte per test
  example, in corpus order, 1 where the predicted intent is the gold one;
* the sha256 of its final parameters: name, dtype, shape and bytes of each,
  in ``model.params()`` order.

Equal digests before and after a change show that it left training
bit-identical; when they differ, the margins say how much room the criteria
had.  The script measures and does not gate; it is not part of the test
suite.  It takes about two minutes on two cores.

Usage: PYTHONPATH=src python scripts/report_acceptance_margins.py
"""

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_acceptance as acc  # noqa: E402  (the criteria's settings)
from ttq import autodiff as ad  # noqa: E402
from ttq.data import gen_synthetic_dataset  # noqa: E402
from ttq.distill import DistillConfig, run_distillation  # noqa: E402
from ttq.model import TransformerModel  # noqa: E402
from ttq.train import SCORING_BATCH, TrainConfig, evaluate, train_end_to_end  # noqa: E402

# lane: (criterion, bound on its gap to the dense baseline, accuracy floor)
LANES = {"int8": (5, 0.03, 0.90), "int2": (5, 0.05, 0.90), "student": (7, 0.03, None)}


def correctness(model: TransformerModel, dataset) -> np.ndarray:
    """1 where the ``train`` forward's intent is the gold one, per example."""
    hits = []
    for ids, mask, intents, _ in dataset.batches(SCORING_BATCH):
        with ad.no_grad():
            trace = model.forward(ids, mask, mode="train")
        hits.append(trace.intent_logits.data.argmax(axis=-1) == intents)
    return np.concatenate(hits).astype(np.uint8)


def params_digest(model: TransformerModel) -> str:
    digest = hashlib.sha256()
    for name, p in model.params():
        a = np.ascontiguousarray(p.data)
        digest.update(f"{name} {a.dtype} {a.shape}\n".encode())
        digest.update(a.tobytes())
    return digest.hexdigest()


def may_lose(correct: int, total: int, dense_acc: float, bound: float, floor) -> int:
    """The most examples the lane may lose with its criterion still passing,
    by the test's own float comparisons; -1 when it fails already."""
    def passes(k):
        a = (correct - k) / total
        return dense_acc - a <= bound and (floor is None or a >= floor)

    k = -1
    while k + 1 <= correct and passes(k + 1):
        k += 1
    return k


def main():
    corpus = gen_synthetic_dataset(**acc.DESK_CORPUS)
    train, test = corpus["train"], corpus["test"]
    models = {}
    t0 = time.time()
    dense = TransformerModel(acc.desk_model_config(False, 32, 32), acc.DESK_MODEL_SEED)
    train_end_to_end(dense, train, None, TrainConfig(**acc.DESK_TRAIN))
    models["dense"] = dense
    for lane, weight_bits in (("int8", 8), ("int2", 2)):
        model = TransformerModel(acc.desk_model_config(True, weight_bits, 8), acc.DESK_MODEL_SEED)
        train_end_to_end(model, train, None, TrainConfig(**acc.DESK_TRAIN))
        models[lane] = model
    student = TransformerModel(acc.student_config(), acc.STUDENT_SEED)
    run_distillation(dense, student, train, DistillConfig(**acc.STUDENT_DISTILL))
    models["student"] = student

    dense_acc = evaluate(dense, test)["intent_accuracy"]
    print(f"{len(test.examples)} test examples; trained in {time.time() - t0:.0f}s")
    print(f"{'lane':8} {'crit':>4} {'acc':>7} {'gap':>7} {'bound':>6} {'may lose':>8}  "
          f"{'correctness sha256':64}  params sha256")
    for lane, model in models.items():
        hits = correctness(model, test)
        accuracy = evaluate(model, test)["intent_accuracy"]
        if int(hits.sum()) / len(hits) != accuracy:
            raise RuntimeError(f"{lane}: the correctness vector disagrees with evaluate()")
        if lane == "dense":
            crit, gap, bound, lose = "", "", "", ""
        else:
            crit, bound, floor = LANES[lane]
            gap = f"{dense_acc - accuracy:.4f}"
            lose = may_lose(int(hits.sum()), len(hits), dense_acc, bound, floor)
        print(f"{lane:8} {crit:>4} {accuracy:7.4f} {gap:>7} {bound:>6} {lose:>8}  "
              f"{hashlib.sha256(hits.tobytes()).hexdigest()}  {params_digest(model)}")


if __name__ == "__main__":
    main()
