"""Symmetric fixed-point fake quantization with a learnable scale.

The quantizer maps x to scale * round(clip(x / scale, -2**(b-1), 2**(b-1)-1)).
Rounding ties go half-away-from-zero.  Gradients through the rounding are the
straight-through surrogates of learned step size quantization (Esser et al.
2020): the input gradient is an in-range indicator, and the scale gradient
follows the clipped-branch rule (quantization residual over the scale in
range, saturation values outside).

One blocked kernel, ``quantize_blocks``, does every quantization: it walks
the input in blocks of ``BLOCK`` elements so its float64 scratch stays in
cache, and stores the integer codes (and, on request, the dequantized values)
block by block.  ``quantize``, ``fake_quant_forward``, the autodiff
``fake_quant`` node and integer inference all call it, so rounding lives in
one place.  The autodiff node keeps only the int8 codes (1 byte per element)
between forward and backward; ``ste_backward`` rebuilds the in-range mask and
the scale surrogate from them, also block by block.  Two exactness notes:

* the ratio is ``np.divide(x, scale, dtype=float64)``.  Under NEP 50 a
  float32 input divided with ``out=`` but no ``dtype`` computes in float32,
  even into a float64 buffer, and some codes then differ;
* a code that rounds to -0.0 is stored as +0.0, as an integer round trip
  gives, so ``scale * code`` is never -0.0.

Bit width 32 is the full-precision sentinel: quantization becomes the
identity and no codes exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALLOWED_BITS = (2, 4, 8, 32)
FULL_PRECISION = 32
MIN_SCALE = 1e-8
BLOCK = 1 << 14  # elements per kernel block: each float64 scratch buffer is 128 KiB


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


def round_half_away(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round to nearest integer, ties away from zero, into ``out`` if given
    (``out`` must not share memory with ``x``).

    Bitwise equal, signed zeros included, to ``sign(x) * floor(|x| + 0.5)``:
    x + 0.5*sign(x) has the magnitude of |x| + 0.5 and turns -0.0 into +0.0.
    """
    x = np.asarray(x)
    if out is None:  # an array even for 0-d x, so the in-place steps below work
        out = np.empty(x.shape, dtype=np.result_type(x, 0.5))
    np.sign(x, out=out, dtype=out.dtype)
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


def quantize_blocks(x: np.ndarray, scale: float, bits: int, code_dtype,
                    value_dtype=None) -> tuple[np.ndarray, np.ndarray | None]:
    """The quantizer kernel: codes round(clip(x/scale, lo, hi)) shaped like x.

    Returns ``(codes, values)``: the codes stored as ``code_dtype`` and, when
    ``value_dtype`` is given, the dequantized surrogate ``scale * codes``
    computed in float64 and stored as ``value_dtype`` (else ``None``).  Each
    block of ``BLOCK`` elements runs divide, clip, round and store into
    reused buffers.
    """
    _check_bits(bits)
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    lo, hi = code_bounds(bits)
    if np.dtype(code_dtype).kind == "i" and np.iinfo(code_dtype).max < hi:
        raise QuantParamError(f"{np.dtype(code_dtype)} cannot hold {bits}-bit codes")
    x = np.asarray(x)
    flat = x.reshape(-1)
    n = flat.size
    codes = np.empty(n, dtype=code_dtype)
    values = None if value_dtype is None else np.empty(n, dtype=value_dtype)
    width = min(n, BLOCK)
    finite = np.empty(width, dtype=bool)
    ratio = np.empty(width, dtype=np.float64)
    code = np.empty(width, dtype=np.float64)
    for start in range(0, n, BLOCK):
        xb = flat[start:start + BLOCK]
        k = xb.size
        if not np.isfinite(xb, out=finite[:k]).all():
            raise QuantInputError("input contains non-finite values")
        r, c = ratio[:k], code[:k]
        np.divide(xb, scale, out=r, dtype=np.float64)
        np.clip(r, lo, hi, out=r)
        round_half_away(r, out=c)
        c += 0.0  # a code rounded to -0.0 becomes +0.0
        codes[start:start + k] = c
        if values is not None:
            np.multiply(c, scale, out=values[start:start + k], casting="unsafe")
    if n and (codes.min() < lo or codes.max() > hi):
        raise QuantParamError(f"codes outside [{lo}, {hi}] for {bits}-bit")
    return codes.reshape(x.shape), None if values is None else values.reshape(x.shape)


def quantize(x: np.ndarray, scale: float, bits: int) -> QuantizedTensor:
    """Quantize to integer codes: round(clip(x/scale, lo, hi))."""
    codes, _ = quantize_blocks(x, scale, bits, np.int32)
    return QuantizedTensor(codes=codes, scale=scale, bits=bits)


def fake_quant_forward(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Quantize-dequantize surrogate used inside training-mode forwards."""
    x = np.asarray(x)
    if bits == FULL_PRECISION:
        return x
    return quantize_blocks(x, scale, bits, np.int8, x.dtype)[1]


def ste_backward(x: np.ndarray, codes: np.ndarray, scale: float, bits: int,
                 g: np.ndarray) -> tuple[np.ndarray, float]:
    """Straight-through vector-Jacobian product of ``fake_quant_forward``.

    ``codes`` are the forward's codes of ``x``.  Returns ``g`` masked to the
    in-range elements (``g * ste_grad_input``, in ``g``'s dtype) and the
    float64 scale gradient ``(g * ste_grad_scale(x)).sum()``, bit for bit:
    the product fills one C-ordered float64 array shaped like ``x``, the
    layout numpy gives that expression, so ``.sum()`` adds in the same order.
    """
    lo, hi = code_bounds(bits)
    flat, cflat = x.reshape(-1), codes.reshape(-1)
    g = np.asarray(g)
    gflat = g.reshape(-1)
    n = flat.size
    gx = np.empty(n, dtype=g.dtype)
    prod = np.empty(n, dtype=np.float64)
    width = min(n, BLOCK)
    x64 = np.empty(width, dtype=np.float64)
    g64 = np.empty(width, dtype=np.float64)
    ratio = np.empty(width, dtype=np.float64)
    surr = np.empty(width, dtype=np.float64)
    inside = np.empty(width, dtype=bool)
    outside = np.empty(width, dtype=bool)
    for start in range(0, n, BLOCK):
        sl = slice(start, start + BLOCK)
        xb, cb, gb = flat[sl], cflat[sl], gflat[sl]
        k = xb.size
        xd, gd, r, s, m, o = x64[:k], g64[:k], ratio[:k], surr[:k], inside[:k], outside[:k]
        xd[...] = xb  # float64 copies of x and g: the values dtype promotion uses
        np.divide(xd, scale, out=r)
        np.greater_equal(r, lo, out=m)
        np.less_equal(r, hi, out=o)
        m &= o
        # in range (scale*code - x)/scale; out of range the code, lo or hi
        s[...] = cb
        s *= scale
        s -= xd
        s /= scale
        np.logical_not(m, out=o)
        np.copyto(s, cb, where=o)
        gd[...] = gb
        np.multiply(gd, s, out=prod[sl])
        np.multiply(gb, m, out=gx[sl])
    return gx.reshape(x.shape), prod.sum()


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
