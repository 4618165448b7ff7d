"""Parameter, FLOPs, and byte accounting for compressed layers.

FLOPs convention: one multiply-accumulate is counted as one multiply plus one
add.  A multiply between a w-bit and an a-bit operand costs (w*a)/64
fixed-point operations when either operand is quantized, and 1.0 when both
operands are 32-bit floats.  Adds are weighted the same as multiplies;
accumulator width is ignored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from .quant import FULL_PRECISION
from .tt import TensorShapePlan, TTFormat, tt_matvec_mult_count, ttm_lookup_mult_count

FLOPS_CONVENTION = (
    "ops = 2 * multiplies (adds weighted like multiplies); multiply weight = "
    "weight_bits*activation_bits/64 when either operand is quantized, 1.0 for FP32xFP32"
)


@dataclass
class CostReport:
    """Cost summary for one layer or a whole model."""

    param_count_compressed: int = 0
    param_count_dense: int = 0
    compression_ratio: float = 0.0
    flops: float = 0.0
    flops_dense: float = 0.0
    bytes: int = 0
    fixed_point: bool = False
    convention: str = FLOPS_CONVENTION
    items: list = field(default_factory=list)

    @property
    def byte_ratio(self) -> float:
        """Dense FP32 bytes (4 per dense parameter) over stored bytes."""
        return 4 * self.param_count_dense / self.bytes

    def to_dict(self) -> dict:
        return asdict(self)


def plan_param_count(plan: TensorShapePlan) -> int:
    """Trainable core entries of one compressed matrix."""
    return sum(math.prod(s) for s in plan.core_shapes())


def param_count(plan: TensorShapePlan) -> CostReport:
    """Compressed vs dense parameter counts; dense uses the logical dims."""
    compressed = plan_param_count(plan)
    dense = plan.rows * plan.cols
    return CostReport(
        param_count_compressed=compressed,
        param_count_dense=dense,
        compression_ratio=dense / compressed,
    )


def multiply_weight(weight_bits: int, activation_bits: int) -> float:
    if weight_bits == FULL_PRECISION and activation_bits == FULL_PRECISION:
        return 1.0
    return (weight_bits * activation_bits) / 64.0


def flops_estimate(
    plan: TensorShapePlan,
    weight_bits: int = 32,
    activation_bits: int = 32,
    seq_len: int = 1,
) -> CostReport:
    """Weighted op count of one matvec (or row lookup for TTM) per forward.

    ``flops`` walks the actual contraction order on the padded dims;
    ``flops_dense`` counts the uncompressed M*N matvec on the logical dims,
    unweighted.  A TTM row is counted as one id looked up alone
    (``ttm_lookup_mult_count`` without ids), an upper bound per id of a
    batched lookup.
    """
    if plan.format is TTFormat.TT:
        mults = tt_matvec_mult_count(plan)
    else:
        mults = ttm_lookup_mult_count(plan)
    weight = multiply_weight(weight_bits, activation_bits)
    ops = 2.0 * mults * seq_len
    dense_ops = 2.0 * plan.rows * plan.cols * seq_len
    return CostReport(
        flops=ops * weight,
        flops_dense=dense_ops,
        fixed_point=weight_bits != FULL_PRECISION or activation_bits != FULL_PRECISION,
    )


def packed_code_bytes(num_values: int, bits: int) -> int:
    """Bytes needed to store num_values codes at 2/4/8 bits, packed little-endian."""
    if bits == FULL_PRECISION:
        return 4 * num_values
    values_per_byte = 8 // bits
    return math.ceil(num_values / values_per_byte)
