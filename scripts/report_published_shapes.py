#!/usr/bin/env python3
"""Cost accounting for the shipped published-shape configs: per-matrix
parameter counts, whole-model sizes across precisions, and FLOPs at two
ranks.

Usage: python scripts/report_published_shapes.py
"""

import json
from pathlib import Path

from ttq.accounting import param_count
from ttq.config import RunConfig
from ttq.model import TransformerModel, architecture_flops, model_size_bytes
from ttq.tt import plan_factorization

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def main():
    print("per-matrix parameter counts (rank 10):")
    for name, rows, cols, rf, cf in [
        ("attention", 768, 768, (24, 32), (32, 24)),
        ("feed-forward", 768, 3072, (32, 24), (48, 64)),
    ]:
        plan = plan_factorization(rows, cols, 2, 10, row_factors=rf, col_factors=cf)
        rep = param_count(plan)
        print(f"  {name:14s} {rep.param_count_compressed:6d} vs {rep.param_count_dense:8d} "
              f"dense ({rep.compression_ratio:5.1f}x)")

    print("\nwhole-model size across precisions (two encoders, hidden 768):")
    for bits in ("fp32", "int8", "int4", "int2"):
        cfg = RunConfig.from_dict(json.loads((CONFIGS / f"atis_shaped_{bits}.json").read_text()))
        report = model_size_bytes(TransformerModel(cfg.model, 0))
        print(f"  {bits:5s} {report.bytes/1e6:6.2f} MB "
              f"(param ratio {report.compression_ratio:5.1f}x, "
              f"byte ratio {report.byte_ratio:5.1f}x)")

    print("\nencoder flops at seq 128 (12 encoders, hidden 768):")
    for rank in (50, 30):
        cfg = RunConfig.from_dict(
            json.loads((CONFIGS / f"bert_shaped_rank{rank}.json").read_text()))
        rep = architecture_flops(cfg.model, 128)
        print(f"  rank {rank}: {rep.flops/1e9:6.2f} G weighted ops "
              f"(dense-equivalent {rep.flops_dense/1e9:6.2f} G, "
              f"{rep.flops_dense/rep.flops:4.1f}x fewer)")


if __name__ == "__main__":
    main()
