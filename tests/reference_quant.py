"""The elementwise straight-through surrogates of the fake quantizer
``scale * round(clip(x / scale, lo, hi))``, in plain float64 numpy: the
reference ``quant.ste_backward`` and the autodiff quantizer nodes are
checked against, and the float64 bound their scale gradients keep to it."""

import numpy as np

from ttq.quant import FULL_PRECISION, QuantParamError, code_bounds, quantize, round_clipped


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


def assert_scale_grad_within_dot_bound(got, x, g, scale, bits):
    """``got`` (the scale's gradient, in the scale's dtype) against the
    reference ``(g * ste_grad_scale(x)).sum()``, both summed in float64.

    Each term has ``|term| <= |g| (|code| + |x| / scale)``; call the sum of
    those bounds S.  Any float64 summation of n terms is within
    n * 2**-53 * S of the exact sum.  The reference adds four roundings per
    term and the two dot products three per result, so the two sums differ
    by at most (2n + 8) * 2**-53 * S, plus the cast to the scale's dtype.
    """
    x64, g64 = np.asarray(x, dtype=np.float64), np.asarray(g, dtype=np.float64)
    codes = quantize(x, scale, bits)
    ref = (g * ste_grad_scale(x, scale, bits)).sum()
    terms = np.abs(g64) * (np.abs(codes) + np.abs(x64) / scale)
    bound = (2 * x64.size + 8) * 2.0 ** -53 * terms.sum()
    bound += np.spacing(np.abs(got)).astype(np.float64)  # the cast of the float64 sum
    assert abs(np.float64(got) - ref) <= bound
