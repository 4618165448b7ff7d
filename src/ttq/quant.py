"""Symmetric fixed-point fake quantization with a learnable scale.

The quantizer maps x to scale * round(clip(x / scale, -2**(b-1), 2**(b-1)-1)).
Rounding ties go half-away-from-zero.  Gradients through the rounding are the
straight-through surrogates: the input gradient is an in-range indicator, and
the scale gradient follows the clipped-branch rule (quantization residual over
the scale in range, saturation values outside).

Bit width 32 is the full-precision sentinel: quantization becomes the
identity and no codes exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALLOWED_BITS = (2, 4, 8, 32)
FULL_PRECISION = 32
MIN_SCALE = 1e-8


class QuantParamError(ValueError):
    """Invalid quantizer parameters (non-positive scale, bad bit width)."""


class QuantInputError(ValueError):
    """Non-finite values fed to the quantizer."""


class KernelError(ArithmeticError):
    """Integer kernel contract violation (possible accumulator overflow)."""


def _check_bits(bits: int):
    if bits not in ALLOWED_BITS:
        raise QuantParamError(f"bits must be one of {ALLOWED_BITS}, got {bits}")


def code_bounds(bits: int) -> tuple[int, int]:
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, ties away from zero.

    Bitwise equal, signed zeros included, to ``sign(x) * floor(|x| + 0.5)``:
    x + 0.5*sign(x) has the magnitude of |x| + 0.5 and turns -0.0 into +0.0.
    """
    x = np.asarray(x)
    out = np.sign(x, dtype=np.result_type(x, 0.5))
    out *= 0.5
    out += x
    return np.trunc(out, out=out)


@dataclass
class QuantSpec:
    """Bit width plus the (learnable) positive scale of one tensor group."""

    bits: int
    scale: float = 1.0
    learnable: bool = True

    def __post_init__(self):
        _check_bits(self.bits)
        if self.bits != FULL_PRECISION and self.scale <= 0:
            raise QuantParamError(f"scale must be positive, got {self.scale}")

    @property
    def is_full_precision(self) -> bool:
        return self.bits == FULL_PRECISION


@dataclass
class QuantizedTensor:
    """Integer codes with their scale; the represented value is scale*codes."""

    codes: np.ndarray
    scale: float
    bits: int

    def __post_init__(self):
        _check_bits(self.bits)
        if self.bits == FULL_PRECISION:
            raise QuantParamError("a full-precision tensor has no integer codes")
        lo, hi = code_bounds(self.bits)
        if self.codes.size and (self.codes.min() < lo or self.codes.max() > hi):
            raise QuantParamError(f"codes outside [{lo}, {hi}] for {self.bits}-bit")

    @property
    def shape(self):
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        return self.scale * self.codes.astype(np.float64)


def quantize(x: np.ndarray, scale: float, bits: int) -> QuantizedTensor:
    """Quantize to integer codes: round(clip(x/scale, lo, hi))."""
    _check_bits(bits)
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise QuantInputError("input contains non-finite values")
    lo, hi = code_bounds(bits)
    codes = round_half_away(np.clip(x / scale, lo, hi)).astype(np.int32)
    return QuantizedTensor(codes=codes, scale=scale, bits=bits)


def fake_quant_forward(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Quantize-dequantize surrogate used inside training-mode forwards."""
    if bits == FULL_PRECISION:
        return np.asarray(x)
    q = quantize(x, scale, bits)
    return (q.scale * q.codes).astype(np.asarray(x).dtype)


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
    q = scale * round_half_away(np.clip(ratio, lo, hi))
    grad = (q - x) / scale
    grad = np.where(ratio < lo, float(lo), grad)
    grad = np.where(ratio > hi, float(hi), grad)
    return grad


def ste_grads(x: np.ndarray, scale: float, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Both straight-through surrogates from one float64 ratio x / scale.

    For a quantized bit width (not the full-precision sentinel), returns the
    in-range mask, equal to ``ste_grad_input`` as booleans, and the
    elementwise scale surrogate, bit-identical to ``ste_grad_scale``.  Out of
    range the clipped ratio is already the saturation value.
    """
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    lo, hi = code_bounds(bits)
    x = np.asarray(x, dtype=np.float64)
    ratio = x / scale
    codes = np.clip(ratio, lo, hi)
    in_range = codes == ratio
    codes = round_half_away(codes)
    grad = np.multiply(scale, codes, out=ratio)
    grad -= x
    grad /= scale
    np.copyto(grad, codes, where=~in_range)
    return in_range, grad


def init_scale(x: np.ndarray, bits: int) -> float:
    """Initial scale max|x| / (2**(b-1)-1), falling back to 1 for all zeros."""
    _check_bits(bits)
    x = np.asarray(x)
    if x.size == 0:
        raise QuantInputError("cannot initialize a scale from an empty array")
    peak = float(np.max(np.abs(x)))
    if peak == 0.0:
        return 1.0
    return peak / (2 ** (bits - 1) - 1)


def int_matvec(w: QuantizedTensor, x: QuantizedTensor) -> tuple[np.ndarray, float]:
    """Exact integer matvec: returns (int64 accumulator, combined scale).

    The real-valued result is accumulator * combined_scale.  Raises when the
    worst-case accumulation could exceed a 32-bit accumulator (cannot happen
    for INT8xINT8 with inner dim < 2**15).
    """
    if w.codes.ndim != 2 or x.codes.ndim != 1:
        raise ValueError("expected a 2-D weight and 1-D input")
    if w.codes.shape[1] != x.codes.shape[0]:
        raise ValueError(f"inner dims mismatch: {w.codes.shape[1]} vs {x.codes.shape[0]}")
    inner = w.codes.shape[1]
    w_peak = max(abs(code_bounds(w.bits)[0]), code_bounds(w.bits)[1])
    x_peak = max(abs(code_bounds(x.bits)[0]), code_bounds(x.bits)[1])
    worst = inner * w_peak * x_peak
    if worst >= 2 ** 31:
        raise KernelError(
            f"worst-case accumulation {worst} exceeds the 32-bit accumulator bound"
        )
    acc = w.codes.astype(np.int64) @ x.codes.astype(np.int64)
    return acc, w.scale * x.scale
