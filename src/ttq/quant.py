"""Symmetric fixed-point fake quantization with a learnable scale.

The quantizer maps x to scale * round(clip(x / scale, -2**(b-1), 2**(b-1)-1)).
Rounding ties go half-away-from-zero.  Gradients through the rounding are the
straight-through surrogates of learned step size quantization (Esser et al.
2020): the input gradient is an in-range indicator, and the scale gradient
follows the clipped-branch rule (quantization residual over the scale in
range, saturation values outside).

One blocked kernel, ``quantize_blocks``, does every quantization: it walks
the input in blocks of 128 KiB of scratch per buffer (``block_size``), so
the scratch stays in cache, and stores the integer codes (and, on request,
the dequantized values) block by block.  ``quantize`` (the checkpoint
writer's codes), the autodiff ``tt_linear``, ``ttm_lookup`` and
``fake_quant`` nodes, calibration and integer inference all call it, so
rounding lives in one place.  The autodiff nodes keep only the int8 codes
between forward and backward; ``dequantize`` rebuilds the values from them
bit for bit, and ``ste_backward`` allocates nothing shaped like the input
but the input gradient, which it may write over ``g``.  The training
callers draw their activation-sized codes and values from
``buffers.take`` (the ``alloc`` arguments); a ``no_grad`` caller whose
input nothing else holds has the codes or the values written over it.
Codes and values are bit for bit those of the elementwise float64
reference (the float64 ratio ``x / scale``, clipped and rounded half away
from zero), and so is the input gradient:

* the elementwise work runs in float32 when that is exact (a float32 input
  with a float32 scale), else in float64.  ``round_ratio`` rounds the
  clipped ratio with ``np.rint``, recomputes only the ratios on a
  half-integer from the float64 ratio with ``round_clipped``, and turns
  -0.0 into +0.0, as an integer round trip gives, so ``scale * code`` is
  never -0.0;
* ``round_clipped`` rounds a ratio r as ``trunc(2r) - trunc(r)``: with
  ``r = n + f``, ``n = trunc(r)``, this is ``n + trunc(2f)``, which is
  half-away-from-zero rounding, and every step is exact for ``|r| <= 128``,
  in float64 and, for a float32 ``r``, in float32 (``requantize`` rounds
  so);
* the STE mask is two compares of the raw input against
  ``ratio_thresholds``: the smallest and the largest ``x`` of its dtype
  whose float64 ratio lies in ``[lo, hi]``.  The rounded ratio is monotone
  in ``x``, so the thresholds are exact and found by ``nextafter`` steps;
* the scale gradient is two float64 dot products over the whole flat
  arrays, ``sum(g * code) - sum(g_in * x) / scale``, one ``einsum`` each.
  It equals the sum of ``g`` times the elementwise scale surrogate
  (``code - x/scale`` in range, the clip bound outside) within the float64
  dot-product error bound.

Bit width 32 is the full-precision sentinel: quantization becomes the
identity and no codes exist.

This module holds no integer matmul: integer inference multiplies codes in
the staged TT walk (``model.TTLinearLayer._forward_int``), which takes its
codes from ``quantize_blocks`` and requantizes each stage with
``requantize`` (a float32 stage in float32).
"""

from __future__ import annotations

from functools import lru_cache

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


def round_clipped(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Half-away-from-zero rounding of a clipped ratio (``|r| <= 128``) into
    ``out``, as ``trunc(2r) - trunc(r)``; ``r`` is left holding ``trunc(r)``.

    Exact at these magnitudes, and a zero comes out +0.0, as an integer round
    trip gives.  Only vectorised ufuncs: no ``np.sign`` pass.

    ``out`` must be float64 or of ``r``'s dtype, in which ``2r`` is exact,
    else ``TypeError``: ``2r`` is stored into it before the truncation, and
    a float32 ``out`` for a float64 ``r`` rounds it: at ``r = 1 - 2**-30``,
    ``2r`` is stored as 2.0 and the code comes out 2.
    """
    if out.dtype != np.float64 and out.dtype != r.dtype:
        raise TypeError(f"round_clipped needs a float64 out or one of r's dtype, got {out.dtype}")
    np.add(r, r, out=out)
    np.trunc(out, out=out)
    np.trunc(r, out=r)
    out -= r
    return out


def block_size(dtype) -> int:
    """Elements per kernel block of ``dtype``: 128 KiB of scratch per buffer,
    ``BLOCK`` float64 or ``2 * BLOCK`` float32 elements."""
    return BLOCK * 8 // np.dtype(dtype).itemsize


def round_ratio(r: np.ndarray, out: np.ndarray, exact) -> np.ndarray:
    """Half-away-from-zero codes of a clipped ratio into ``out``, bit for bit
    those of ``round_clipped`` on the exact float64 ratio.

    ``r`` holds the clipped ratio in the working dtype (float32 or float64;
    ``out`` has the same dtype), on the same side of every half-integer as
    the clipped float64 ratio, or on it.  ``exact(idx)`` returns the clipped
    float64 ratio at the flat indices ``idx``.  The steps:

    1. ``out = rint(r)`` (ties to even);
    2. flag each element with ``|r - rint(r)| = 0.5``.  Elsewhere ``r`` is
       not a half-integer, and neither is the float64 ratio: its nearest
       integer is ``rint(r)``, whichever way ties go;
    3. recompute only the flagged elements from ``exact`` with
       ``round_clipped``;
    4. turn ``-0.0`` into ``+0.0`` (``+= 0.0``), as an integer round trip gives.

    ``r - rint(r)`` is exact (the two lie within a factor of 2 of each other,
    or ``rint(r)`` is 0), and ``r`` is left holding it.
    """
    np.rint(r, out=out)
    r -= out
    if r.max() >= 0.5 or r.min() <= -0.5:
        idx = np.flatnonzero(np.abs(r) >= 0.5)
        e = exact(idx)
        out[idx] = round_clipped(e, np.empty_like(e))
    out += 0.0
    return out


def quantize_blocks(x: np.ndarray, scale: float, bits: int, code_dtype, value_dtype=None,
                    alloc=np.empty) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The quantizer kernel: codes round(clip(x/scale, lo, hi)) shaped like x.

    Returns ``(codes, values)``: the codes stored as ``code_dtype`` (else
    ``None``, when ``code_dtype`` is None) and, when ``value_dtype`` is
    given, the dequantized surrogate ``scale * codes`` stored as
    ``value_dtype`` (else ``None``), each in a C-contiguous array from
    ``alloc(shape, dtype)`` (``buffers.take`` for a training activation).
    Each block of ``block_size`` elements runs divide, clip, ``round_ratio``
    and store into reused buffers (straight into the codes when
    ``code_dtype`` is the working dtype and the codes are not ``x``); a
    block whose ratios all lie in range skips the clip, and the two
    reductions that tell also catch a non-finite input.  The clip bounds
    every code and the entry check makes ``code_dtype`` hold that range, so
    the codes need no range check of their own.

    ``alloc`` may hand back ``x`` itself (same shape and dtype, C-contiguous)
    to write the codes or the values over the input.  Such an output is
    rounded in the block scratch and stored only after ``round_ratio``,
    whose exact fallback reads the block of ``x`` again at half-integer
    ratios; any other overlap with ``x`` raises ``ValueError``.

    The working dtype is float32 when ``x`` is float32 and ``scale`` is a
    float32 value (every scale of a float32 model), else float64.  In
    float32 the codes are exact: the float32 and float64 quotients round
    the same real ``x/scale``, every half-integer up to 128 is a value of
    both dtypes, and rounding is monotone, so the float32 quotient lies on
    the same side of each half-integer as the float64 one, or on it (a
    float64 quotient on a half-integer puts the float32 one on it too).
    The float32 value ``scale * code`` is the exact product correctly
    rounded, as the float64 product stored in float32 is.  Other value
    dtypes are multiplied in float64.
    """
    _check_bits(bits)
    if scale <= 0:
        raise QuantParamError(f"scale must be positive, got {scale}")
    lo, hi = code_bounds(bits)
    if (code_dtype is not None and np.dtype(code_dtype).kind == "i"
            and np.iinfo(code_dtype).max < hi):
        raise QuantParamError(f"{np.dtype(code_dtype)} cannot hold {bits}-bit codes")
    x = np.asarray(x)
    flat = x.reshape(-1)
    n = flat.size
    work = np.float32 if x.dtype == np.float32 and float(np.float32(scale)) == scale else np.float64
    codes = None if code_dtype is None else _output(alloc(x.shape, code_dtype), x)
    values = None if value_dtype is None else _output(alloc(x.shape, value_dtype), x)
    value_work = None if values is None or values.dtype == work else np.float64
    step = block_size(work)
    width = min(n, step)
    ratio = np.empty(width, dtype=work)
    # round straight into the codes, unless they are x, which the fallback reads
    direct = codes is not None and codes.dtype == work and not np.may_share_memory(codes, x)
    code = None if direct else np.empty(width, dtype=work)
    for start in range(0, n, step):
        xb = flat[start:start + step]
        k = xb.size
        r = ratio[:k]
        c = codes[start:start + k] if direct else code[:k]
        np.divide(xb, scale, out=r, dtype=work)
        if not (lo <= r.min() and r.max() <= hi):  # a NaN fails both compares
            if not np.isfinite(xb).all():  # a finite x may still overflow the ratio
                raise QuantInputError("input contains non-finite values")
            np.clip(r, lo, hi, out=r)
        round_ratio(r, c, lambda idx: np.clip(np.divide(xb[idx], scale, dtype=np.float64), lo, hi))
        if codes is not None and not direct:
            codes[start:start + k] = c
        if values is not None:
            np.multiply(c, scale, out=values[start:start + k], dtype=value_work)
    return (None if codes is None else codes.reshape(x.shape),
            None if values is None else values.reshape(x.shape))


def _output(out: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``out`` flat, after checking that it is ``x`` itself or does not
    overlap it: block by block, only an output laid over ``x`` element for
    element is written after its block of ``x`` was read."""
    if np.may_share_memory(out, x) and not (
            out.dtype == x.dtype and out.shape == x.shape and x.flags.c_contiguous
            and out.flags.c_contiguous and out.ctypes.data == x.ctypes.data):
        raise ValueError("a quantizer output may overlap its input only as the input itself")
    return out.reshape(-1)


def dequantize(codes: np.ndarray, scale: float, dtype, alloc=np.empty) -> np.ndarray:
    """``scale * codes`` stored as ``dtype`` into ``alloc(codes.shape,
    dtype)``: bit for bit the values ``quantize_blocks`` gives for an input
    of ``dtype`` at ``scale``.

    When ``quantize_blocks`` works in float32 (a float32 ``dtype`` and a
    float32 ``scale``) this is one float32 multiply, as there; otherwise the
    float64 product stored as ``dtype``, as there.  The codes are integers
    of at most 8 bits, so every dtype holds them exactly."""
    dtype = np.dtype(dtype)
    out = alloc(codes.shape, dtype)
    if dtype == np.float32 and float(np.float32(scale)) == scale:
        return np.multiply(codes, np.float32(scale), out=out, dtype=np.float32)
    return np.multiply(codes, scale, out=out, dtype=np.float64)


def requantize(out: np.ndarray, m: float) -> np.ndarray:
    """INT8 codes of a stage output: the ratio ``r = out * m`` clipped to
    [-128, 127] and rounded half away from zero by ``round_clipped``,
    written into ``out`` (float32 or float64, holding exact integers), which
    is returned.

    A float32 ``out`` is rescaled in float32 (``r`` is the float32 product
    ``out * float32(m)``) when ``m`` is a normal float32, else in float64, as
    a float64 ``out`` is.  For ``|r| <= 128`` every rounding step is exact
    in either dtype, and a zero comes out +0.0, so the float64 rule is
    ``round_clipped`` of the float64 ratio bit for bit.  The float32 ratio is
    the float64 one to within about ``2**-23 * |r|``, so a float32 code
    differs from the float64 rule's by one at most, and only where the
    float64 ratio lies that close to a half.  The work runs in blocks of
    ``block_size`` elements with reused buffers: no float64 array the size
    of ``out`` is made.
    """
    lo, hi = code_bounds(8)
    f32 = np.finfo(np.float32)
    fast = out.dtype == np.float32 and float(f32.smallest_normal) <= m <= float(f32.max)
    work = np.float32 if fast else np.float64
    flat = out.reshape(-1)
    step = block_size(work)
    width = min(flat.size, step)
    ratio = np.empty(width, dtype=work)
    code = None if flat.dtype == work else np.empty(width, dtype=work)
    for start in range(0, flat.size, step):
        ob = flat[start:start + step]
        r = ratio[:ob.size]
        np.multiply(ob, work(m), out=r, dtype=work)
        if not (lo <= r.min() and r.max() <= hi):
            np.clip(r, lo, hi, out=r)
        if code is None:
            round_clipped(r, ob)
        else:
            ob[...] = round_clipped(r, code[:ob.size])
    return flat.reshape(out.shape)


def quantize(x: np.ndarray, scale: float, bits: int) -> np.ndarray:
    """Integer codes round(clip(x/scale, lo, hi)) of ``x``, as int32."""
    return quantize_blocks(x, scale, bits, np.int32)[0]


@lru_cache(maxsize=64)
def ratio_thresholds(scale: float, bits: int, dtype) -> tuple:
    """The in-range interval of the STE mask as two values of ``dtype``.

    Returns ``(t_lo, t_hi)``: the smallest ``x`` of ``dtype`` with
    ``float64(x) / scale >= lo`` and the largest with ``<= hi``, so for every
    ``x`` of that dtype ``lo <= float64(x)/scale <= hi`` exactly when
    ``t_lo <= x <= t_hi``.  The rounded ratio is monotone in ``x``, so each
    threshold is a few ``nextafter`` steps from ``bound * scale``.  Cached,
    since all the cores of a layer share one scale.
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


def ste_backward(x, codes: np.ndarray, scale: float, bits: int,
                 g: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Straight-through vector-Jacobian product of the fake quantizer
    ``scale * quantize(x)``.

    ``x`` is the floating input and ``codes`` the forward's codes of it (a
    rebuilt LayerNorm or GELU output arrives whole, ``Rebuild.array``, filled
    once for all its consumers).  Returns ``g`` masked to the elements whose float64 ratio
    ``x/scale`` lies in the clip range (``gx``, in ``g``'s dtype, bit for
    bit) and the float64 scale gradient, the sum of ``g`` times the
    elementwise scale surrogate.  ``gx`` is written into ``out`` when given:
    a C-contiguous array of ``g``'s shape and dtype, which may be ``g``
    itself.  The mask is two compares of ``x`` against ``ratio_thresholds``.
    In range the surrogate is ``code - x/scale`` and outside it the code, so
    the scale gradient is the two dot products
    ``sum(g * code) - sum(gx * x) / scale``, each one float64 ``einsum``
    over the whole flat arrays: ``g``'s before the mask pass may write over
    it, ``gx``'s after.  The mask pass runs in blocks of ``BLOCK`` elements,
    and the ``einsum`` casts through its own small buffers, so nothing
    shaped like the input is allocated but ``gx`` (and a flat copy of a
    ``g`` that is not contiguous).  The dots add in another order than an
    elementwise sum, so the two agree within the float64 dot-product error
    bound, not bit for bit.  Cast to a float32 scale's dtype, the gradient
    moves with the order only where the float64 sum lies within a few
    float64 ulps of a float32 rounding boundary.
    """
    t_lo, t_hi = ratio_thresholds(scale, bits, x.dtype)
    cflat = codes.reshape(-1)
    g = np.asarray(g)
    gflat = g.reshape(-1)
    n = cflat.size
    if out is None:
        gx = np.empty(n, dtype=g.dtype)
    elif out.shape == g.shape and out.dtype == g.dtype and out.flags.c_contiguous:
        gx = out.reshape(-1)
    else:
        raise ValueError("out must be a C-contiguous array of g's shape and dtype")
    g_code = np.einsum("i,i->", gflat, cflat, dtype=np.float64)  # before gx may overwrite g
    width = min(n, BLOCK)
    inside = np.empty(width, dtype=bool)
    not_above = np.empty(width, dtype=bool)
    xflat = x.reshape(-1)
    for start in range(0, n, BLOCK):
        xb = xflat[start:start + BLOCK]
        m, o = inside[:xb.size], not_above[:xb.size]
        np.greater_equal(xb, t_lo, out=m)
        np.less_equal(xb, t_hi, out=o)
        m &= o
        np.multiply(gflat[start:start + BLOCK], m, out=gx[start:start + BLOCK])
    gx_x = np.einsum("i,i->", gx, xflat, dtype=np.float64)
    return gx.reshape(codes.shape), np.float64(g_code - gx_x / scale)


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

