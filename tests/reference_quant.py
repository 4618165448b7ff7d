"""The elementwise straight-through surrogates of the fake quantizer
``scale * round(clip(x / scale, lo, hi))``, in plain float64 numpy: the
reference ``quant.ste_backward`` and the autodiff quantizer nodes are
checked against."""

import numpy as np

from ttq.quant import FULL_PRECISION, QuantParamError, code_bounds, round_clipped


def ste_grad_input(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Elementwise surrogate d(quantize)/dx: 1 inside the clip range, else 0."""
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    if bits == FULL_PRECISION:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    lo, hi = code_bounds(bits)
    ratio = np.asarray(x, dtype=np.float64) / scale
    return ((ratio >= lo) & (ratio <= hi)).astype(np.float64)


def ste_grad_scale(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Elementwise surrogate d(quantize)/d(scale).

    In range: (Q(x) - x) / scale.  Below range: the lower clip bound.  Above:
    the upper clip bound.  A layer's scalar scale gradient is the sum of this
    over every element sharing the scale.
    """
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    if bits == FULL_PRECISION:
        return np.zeros_like(np.asarray(x, dtype=np.float64))
    lo, hi = code_bounds(bits)
    x = np.asarray(x, dtype=np.float64)
    ratio = x / scale
    clipped = np.empty(ratio.shape)  # an array even for 0-d x, as round_clipped writes in place
    np.clip(ratio, lo, hi, out=clipped)
    q = scale * round_clipped(clipped, np.empty_like(clipped))
    grad = (q - x) / scale
    grad = np.where(ratio < lo, float(lo), grad)
    grad = np.where(ratio > hi, float(hi), grad)
    return grad
