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
between forward and backward, and ``ste_backward`` allocates nothing shaped
like the input but the input gradient.  Values and gradients are bit for bit
those of the elementwise references (``ste_grad_input``,
``ste_grad_scale``, and exact half-away-from-zero rounding):

* the ratio ``x / scale`` is divided in float64, from a float64 copy of the
  block.  Under NEP 50 a float32 input divided with ``out=`` but no
  ``dtype`` computes in float32, even into a float64 buffer, and some codes
  then differ;
* the clipped ratio r is rounded as ``trunc(2r) - trunc(r)``
  (``round_clipped``, which the integer TT walk's requantize shares): with
  ``r = n + f``, ``n = trunc(r)``, this is ``n + trunc(2f)``, which is
  half-away-from-zero rounding, and every step is exact for ``|r| <= 128``.
  It uses only vectorised ufuncs (``np.copysign`` and ``np.sign`` are
  several times slower), and a zero code comes out +0.0, as an integer round
  trip gives, so ``scale * code`` is never -0.0;
* the STE mask is two compares of the raw input against
  ``ratio_thresholds``: the smallest and the largest ``x`` of its dtype
  whose float64 ratio lies in ``[lo, hi]``.  The rounded ratio is monotone
  in ``x``, so the thresholds are exact and found by ``nextafter`` steps;
* the scale gradient is ``(g * ste_grad_scale(x)).sum()``.  numpy sums that
  C-ordered float64 product pairwise; ``pairwise_sum`` follows the same tree
  and sums each leaf of at most ``BLOCK`` terms with numpy as it is formed,
  so no full-size product array exists.

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
    (``out`` may be ``x``).

    Bitwise equal, signed zeros included, to ``sign(x) * floor(|x| + 0.5)``:
    x + 0.5*sign(x) has the magnitude of |x| + 0.5 and turns -0.0 into +0.0.
    Like that form it rounds ±0.49999999999999994 to ±1, so it is a test
    oracle only; the kernels round with ``round_clipped``.
    """
    x = np.asarray(x)
    half = np.empty(x.shape, dtype=np.result_type(x, 0.5))  # an array even for 0-d x
    np.sign(x, out=half, dtype=half.dtype)
    half *= 0.5
    out = np.add(x, half, out=half if out is None else out)
    return np.trunc(out, out=out)


def round_clipped(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half-away-from-zero rounding of a clipped ratio (``|r| <= 128``) into
    ``out``, as ``trunc(2r) - trunc(r)``; ``r`` is left holding ``trunc(r)``.

    Exact at these magnitudes, and a zero comes out +0.0, as an integer round
    trip gives.  Only vectorised ufuncs: no ``np.sign`` pass.

    ``out`` must be float64, else ``TypeError``: ``2r`` is stored into it
    before the truncation, and a float32 ``out`` rounds it: at
    ``r = 1 - 2**-30``, ``2r`` is stored as 2.0 and the code comes out 2.
    """
    if out.dtype != np.float64:
        raise TypeError(f"round_clipped needs a float64 out, got {out.dtype}")
    np.add(r, r, out=out)
    np.trunc(out, out=out)
    np.trunc(r, out=r)
    out -= r
    return out


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
        np.copyto(r, xb)  # float64 first: a float32 divide gives other codes
        r /= scale
        np.clip(r, lo, hi, out=r)
        round_clipped(r, c)
        codes[start:start + k] = c
        if values is not None:
            c *= scale
            values[start:start + k] = c
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


def ratio_thresholds(scale: float, bits: int, dtype) -> tuple:
    """The in-range interval of the STE mask as two values of ``dtype``.

    Returns ``(t_lo, t_hi)``: the smallest ``x`` of ``dtype`` with
    ``float64(x) / scale >= lo`` and the largest with ``<= hi``, so for every
    ``x`` of that dtype ``lo <= float64(x)/scale <= hi`` exactly when
    ``t_lo <= x <= t_hi``.  The rounded ratio is monotone in ``x``, so each
    threshold is a few ``nextafter`` steps from ``bound * scale``.
    """
    lo, hi = code_bounds(bits)
    ftype = np.dtype(dtype).type
    up, down = ftype(np.inf), ftype(-np.inf)

    def ratio(t):
        return np.float64(t) / scale

    with np.errstate(over="ignore"):  # a bound past the dtype's range is +-inf
        t_lo, t_hi = ftype(lo * scale), ftype(hi * scale)
    while ratio(t_lo) < lo:
        t_lo = np.nextafter(t_lo, up)
    while ratio(np.nextafter(t_lo, down)) >= lo:
        t_lo = np.nextafter(t_lo, down)
    while ratio(t_hi) > hi:
        t_hi = np.nextafter(t_hi, down)
    while ratio(np.nextafter(t_hi, up)) <= hi:
        t_hi = np.nextafter(t_hi, up)
    return t_lo, t_hi


def pairwise_sum(leaf_sum, start: int, stop: int) -> np.float64:
    """Sum of float64 terms ``start..stop-1`` in numpy's pairwise order.

    numpy sums a contiguous float64 run by halving any run longer than 128
    at ``n//2`` rounded down to a multiple of 8 and adding the two halves'
    sums.  This follows the same splits down to runs of at most ``BLOCK``
    terms, gets each run's sum from ``leaf_sum(start, stop)`` (numpy's own
    sum of that run gives numpy's subtree sum), calls it in ascending order
    and adds the results in the same tree order.  So with ``leaf_sum`` =
    ``a[start:stop].sum()``, ``pairwise_sum(leaf_sum, 0, a.size)`` is
    ``a.sum()`` bit for bit.
    """
    n = stop - start
    if n <= BLOCK:
        return leaf_sum(start, stop)
    half = start + n // 2 - (n // 2) % 8
    return pairwise_sum(leaf_sum, start, half) + pairwise_sum(leaf_sum, half, stop)


def ste_backward(x: np.ndarray, codes: np.ndarray, scale: float, bits: int,
                 g: np.ndarray) -> tuple[np.ndarray, float]:
    """Straight-through vector-Jacobian product of ``fake_quant_forward``.

    ``x`` is the floating input, ``codes`` the forward's codes of it.
    Returns ``g`` masked to the in-range elements (``g * ste_grad_input``, in
    ``g``'s dtype) and the float64 scale gradient
    ``(g * ste_grad_scale(x)).sum()``, bit for bit.  The mask is two
    compares of ``x`` against ``ratio_thresholds``.  The product is formed
    block by block over the leaves of ``pairwise_sum``, so its sum adds in
    numpy's order without a full-size product array.
    """
    t_lo, t_hi = ratio_thresholds(scale, bits, x.dtype)
    flat, cflat = x.reshape(-1), codes.reshape(-1)
    g = np.asarray(g)
    gflat = g.reshape(-1)
    n = flat.size
    gx = np.empty(n, dtype=g.dtype)
    width = min(n, BLOCK)
    surr = np.empty(width, dtype=np.float64)
    inside = np.empty(width, dtype=bool)
    outside = np.empty(width, dtype=bool)

    def leaf_sum(start, stop):
        xb, cb, gb = flat[start:stop], cflat[start:stop], gflat[start:stop]
        k = stop - start
        s, m, o = surr[:k], inside[:k], outside[:k]
        np.greater_equal(xb, t_lo, out=m)
        np.less_equal(xb, t_hi, out=o)
        m &= o
        np.multiply(gb, m, out=gx[start:stop])
        # in range (scale*code - x)/scale; out of range the code, lo or hi
        np.multiply(cb, scale, out=s, dtype=np.float64)
        np.subtract(s, xb, out=s)
        s /= scale
        np.logical_not(m, out=o)
        np.copyto(s, cb, where=o)
        s *= gb
        return s.sum()

    return gx.reshape(x.shape), pairwise_sum(leaf_sum, 0, n)


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
