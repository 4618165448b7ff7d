"""Tensor-train compressed, quantization-aware transformer toolkit."""

__version__ = "0.1.0"

from .accounting import CostReport, flops_estimate, param_count
from .data import Dataset, gen_synthetic_dataset
from .distill import DistillConfig, loss_terms, run_distillation, stage_loss
from .model import ModelConfig, PlanSpec, TransformerModel, model_flops, model_size_bytes
from .quant import QuantizedTensor, fake_quant_forward, quantize
from .train import TrainConfig, adam_step, train_end_to_end
from .tt import (
    TensorShapePlan,
    TTFormat,
    plan_factorization,
    tt_matvec,
    tt_to_dense,
    ttm_row_lookup,
    ttm_to_dense,
)

__all__ = [
    "CostReport", "Dataset", "DistillConfig", "ModelConfig", "PlanSpec",
    "QuantizedTensor", "TensorShapePlan", "TTFormat", "TrainConfig",
    "TransformerModel", "adam_step", "fake_quant_forward",
    "flops_estimate", "gen_synthetic_dataset", "loss_terms", "model_flops",
    "model_size_bytes", "param_count", "plan_factorization", "quantize",
    "run_distillation", "stage_loss", "train_end_to_end", "tt_matvec",
    "tt_to_dense", "ttm_row_lookup", "ttm_to_dense",
]
