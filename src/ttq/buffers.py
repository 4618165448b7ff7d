"""Recycled full-size buffers.

A training step makes the same activation-sized arrays again and again:
GELU's output, kept ``tanh`` and input gradient, a TT layer's input codes
and values, its stage outputs and their gradients, and a rebuilt GELU or
LayerNorm output.  Arrays that size came from fresh pages each time glibc
had trimmed its heap: at ATIS shape ~5,900 minor page faults and ~11 ms of
system time per ~105 ms step.  ``take`` hands them out from buffers kept
across steps instead, so after warm-up a step maps no new pages for them.

A buffer is keyed by its width (the last axis) and dtype and holds rows.
Its row capacity grows to the largest request, rounded up to a power of two
(pages past the rows written are never touched, so they take no memory): a
request that no idle buffer fits drops the largest idle one for a larger
one.  A buffer is handed out again only when nothing references it: every
view of it holds a reference to it, so its reference count tells whether a
caller still holds any part of it, and nothing is ever written into an
array a caller holds.  So the buffers can be process-wide, shared by every
model and step without being passed around: no caller sees another's data.

Requests under ``MIN_BYTES`` get a fresh array.  malloc's free lists reuse
arrays that small in place, while a buffer kept for each of their widths
would sit idle between uses: at ATIS shape, recycling every request from
128 KiB up held ~4 MB more at the step's peak than recycling those from
1 MiB up, for no fewer page faults.
"""

from __future__ import annotations

import math
import sys

import numpy as np

MIN_BYTES = 1 << 20
_buffers: dict[tuple[int, np.dtype], list[np.ndarray]] = {}
_created = 0  # buffers allocated so far, grown ones included


def idle(owner: list, i: int) -> bool:
    """Whether ``owner[i]`` is referenced by ``owner`` alone: no view of it,
    and so no part of it, is held anywhere else."""
    return sys.getrefcount(owner[i]) == 2  # the list's reference and the argument's


def take(shape: tuple, dtype, width: int | None = None) -> np.ndarray:
    """An uninitialized C-contiguous array of ``shape`` and ``dtype``: the
    leading elements of the smallest idle buffer of ``width`` (default the
    last axis; the size must be a multiple of it) that holds them, of a
    grown one when no idle buffer does, or of a new one when none is idle.
    Under ``MIN_BYTES`` a fresh array."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    if size * dtype.itemsize < MIN_BYTES:
        return np.empty(shape, dtype)
    width = width or (shape[-1] if shape else 1)
    pool = _buffers.setdefault((width, dtype), [])
    free = sorted((pool[i].size, i) for i in range(len(pool)) if idle(pool, i))
    fits = [i for n, i in free if n >= size]
    if fits:
        i = fits[0]
    else:
        global _created
        _created += 1
        rows = 1 << (size // width - 1).bit_length()
        if free:  # the largest idle buffer is too small: drop it for a larger one
            i = free[-1][1]
            pool[i] = np.empty(rows * width, dtype)
        else:
            i = len(pool)
            pool.append(np.empty(rows * width, dtype))
    return pool[i][:size].reshape(shape)
