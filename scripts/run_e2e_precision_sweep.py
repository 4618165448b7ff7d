#!/usr/bin/env python3
"""End-to-end precision sweep: dense FP32 baseline vs TT models at several
weight precisions on the synthetic intent/slot corpus.

Usage: python scripts/run_e2e_precision_sweep.py [--epochs N] [--seed N]
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from ttq.config import RunConfig
from ttq.data import gen_synthetic_dataset
from ttq.model import TransformerModel, model_size_bytes
from ttq.train import TrainConfig, evaluate, train_end_to_end

TOY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json"


def model_config(compress, weight_bits, act_bits):
    """The desk model of ``configs/toy_int8.json`` at the given precision."""
    return replace(RunConfig.load(TOY_CONFIG).model, compress=compress,
                   weight_bits=weight_bits, act_bits=act_bits)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--examples", type=int, default=2000)
    args = ap.parse_args()

    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6,
                                 num_slots=8, num_examples=args.examples)
    lanes = [
        ("dense fp32", model_config(False, 32, 32)),
        ("tt fp32", model_config(True, 32, 32)),
        ("tt int8", model_config(True, 8, 8)),
        ("tt int4", model_config(True, 4, 8)),
        ("tt int2", model_config(True, 2, 8)),
    ]
    print(f"{'model':12s} {'time':>6s} {'bytes':>9s} {'intent':>8s} {'slot f1':>8s}")
    for name, cfg in lanes:
        t0 = time.time()
        model = TransformerModel(cfg, args.seed)
        tc = TrainConfig(learning_rate=1e-3, epochs=args.epochs, batch_size=32,
                         seed=args.seed)
        train_end_to_end(model, data["train"], None, tc)
        metrics = evaluate(model, data["test"])
        size = model_size_bytes(model).bytes
        print(f"{name:12s} {time.time()-t0:5.0f}s {size:9d} "
              f"{metrics['intent_accuracy']:8.4f} {metrics['slot_f1']:8.4f}")


if __name__ == "__main__":
    main()
