#!/usr/bin/env python3
"""Train a dense teacher, distill an INT8 TT student stage by stage, and
compare the layer-by-layer schedule against training the all-layers loss from
scratch.

Usage: python scripts/run_layerwise_distillation.py [--seed N] [--compare]
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from ttq.config import RunConfig
from ttq.data import gen_synthetic_dataset
from ttq.distill import DistillConfig, compare_schedules, run_distillation
from ttq.model import TransformerModel
from ttq.train import TrainConfig, evaluate, train_end_to_end

TOY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--compare", action="store_true",
                    help="also run the all-at-once schedule on the same init")
    args = ap.parse_args()

    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6,
                                 num_slots=8, num_examples=2000)
    # the desk model of configs/toy_int8.json: a dense FP32 teacher, and an
    # INT8 TT student with a rank-4 embedding
    toy = RunConfig.load(TOY_CONFIG).model
    teacher_cfg = replace(toy, compress=False, weight_bits=32, act_bits=32)
    t0 = time.time()
    teacher = TransformerModel(teacher_cfg, args.seed)
    train_end_to_end(teacher, data["train"], None,
                     TrainConfig(learning_rate=1e-3, epochs=15, batch_size=32,
                                 seed=args.seed))
    t_metrics = evaluate(teacher, data["test"])
    print(f"teacher trained in {time.time()-t0:.0f}s: "
          f"intent {t_metrics['intent_accuracy']:.4f} slot f1 {t_metrics['slot_f1']:.4f}")

    student_cfg = replace(toy, emb_spec=replace(toy.emb_spec, rank=4))
    dcfg = DistillConfig(stage_epochs=3, final_epochs=8, stage_lr=1e-3,
                         final_lr=1e-3, batch_size=32, seed=args.seed)

    if args.compare:
        def factory():
            return TransformerModel(student_cfg, args.seed + 1)

        result = compare_schedules(teacher, factory, data["train"], dcfg,
                                   dev_set=data["dev"])
        for key in ("layer_by_layer", "all_at_once"):
            student = result["students"][key]
            m = evaluate(student, data["test"])
            print(f"{key:16s}: intent {m['intent_accuracy']:.4f} "
                  f"slot f1 {m['slot_f1']:.4f}")
    else:
        t1 = time.time()
        student = TransformerModel(student_cfg, args.seed + 1)
        report = run_distillation(teacher, student, data["train"], dcfg,
                                  dev_set=data["dev"])
        for stage in report["stages"]:
            tag = "final" if stage["final"] else f"stage {stage['stage']}"
            print(f"  {tag:8s} lr {stage['lr']:.0e} last loss {stage['loss_curve'][-1]:.5f}")
        m = evaluate(student, data["test"])
        print(f"student distilled in {time.time()-t1:.0f}s: "
              f"intent {m['intent_accuracy']:.4f} slot f1 {m['slot_f1']:.4f} "
              f"(teacher {t_metrics['intent_accuracy']:.4f})")


if __name__ == "__main__":
    main()
