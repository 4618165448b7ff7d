"""Minimal reverse-mode automatic differentiation over numpy arrays.

Graph records are kept apart from values.  An operation's output Tensor
carries a private ``_Node``: its parents' nodes (a parameter, a leaf, is
referenced as itself), the closure that maps the upstream gradient to
per-input gradients, and whether a backward has consumed it.  A node never
holds its parents' Tensors, and each closure saves at forward time only what
its backward reads: operand arrays where the derivative depends on them, only
shapes and dtypes where it does not.  So an intermediate array lives while the
caller holds its Tensor or a backward will read it, and no longer.

Calling ``backward`` on a scalar loss walks the recorded graph once in reverse
topological order and returns the accumulated gradients of all reachable
parameters.  Gradients for shared parameters (for example one quantizer scale
feeding many cores) accumulate additively.

Some arrays are cheaper to compute again than to keep (Chen et al. 2016,
"Training Deep Nets with Sublinear Memory Cost").  A recorded ``layer_norm``
or ``gelu`` output carries a ``Rebuild``: the op's own arithmetic on what
its backward keeps anyway (``xhat``; GELU's input and ``tanh``), which
gives the whole output bit for bit.  A consumer that reads the output in
its backward keeps the ``Rebuild`` in its place; ``array()`` fills it once
per backward, into a buffer that every consumer shares.

A recorded forward and its backward draw their activation-sized arrays
from ``buffers.take``, buffers kept across steps: GELU's output, ``tanh``
and input gradient, a TT layer's input codes and values, its stage outputs
and their gradients (``tt.Stage``) and its dequantized input, and a rebuilt
output.  So after warm-up a training step maps no fresh pages for them.  A
``no_grad`` forward allocates fresh arrays, which go to its caller, and
keeps one only while a later op reads it: an op handed a Tensor that
nothing else holds (``Tensor.spare``) may write its output over it, as
GELU and a TT layer's input quantizer do.

Quantization nodes use straight-through surrogates from :mod:`ttq.quant`;
everything else is an exact vector-Jacobian product.  Contractions, forward
and backward, run through BLAS matrix products.  A TT layer (input and
weight quantizers, TT product and bias) is one node, ``tt_linear``, with
no stage hook: calibration runs a chain of its own
(``model.TTLinearLayer._calibration_forward``).  The node keeps the int8
codes of its input and cores and its input's ``Rebuild`` (else its input).
Its backward rebuilds the quantized values from the codes and runs
``tt.tt_chain_vjp``, which reruns the stage forwards before the stage
adjoints; the input quantizer's straight-through backward reads the float
input, rebuilt once for all its consumers.  For an ATIS-shaped INT8 batch
of 233 real tokens a train forward so leaves 25.9 MB for its backward
(tracemalloc), against 45.6 MB when the node kept its stage inputs and its
input.  A TTM row lookup and its weight quantizer are one node too,
``ttm_lookup``, over ``tt.ttm_lookup_vjp``; both nodes' weight quantizers
are ``_quantize_cores``.  Scatter-adds (``take``, the lookup's backward) are
one sorted ``tt.segment_sum``; ``gather_rows`` and ``scatter_rows`` move
distinct rows, so each is the other's plain-indexing adjoint.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

import numpy as np

from . import buffers
from . import quant as q
from .tt import TensorShapePlan, segment_sum, tt_chain, tt_chain_vjp, ttm_lookup_vjp

_grad_enabled = True
_LN_EPS = 1e-5  # added to LayerNorm's variance


class no_grad:
    """Context manager disabling graph recording (evaluation / teacher passes)."""

    def __enter__(self):
        global _grad_enabled
        self.prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self.prev
        return False


class BackwardError(RuntimeError):
    """Backward misuse: double backward or non-scalar loss."""


class _Node:
    """The graph record of one operation's output.  ``parents`` holds, per
    input, the input's node, the input itself when it is a requires-grad
    leaf, or None when no gradient flows to it; ``vjp`` maps the output's
    gradient to one gradient per input.  A backward clears both and sets
    ``consumed``."""

    __slots__ = ("parents", "vjp", "consumed")

    def __init__(self, parents: tuple, vjp: Callable[[np.ndarray], tuple]):
        self.parents = parents
        self.vjp = vjp
        self.consumed = False


class Rebuild:
    """How to rebuild a recorded op's output rather than keep it.

    ``fill(buf)`` writes the whole output into ``buf`` (C-contiguous, of
    ``shape`` and ``dtype``) and returns ``buf``: the op's own arithmetic on
    what its backward keeps anyway, bit for bit the output.  A consumer
    whose backward reads the output keeps this instead of it, and reads it
    through ``array()``."""

    __slots__ = ("shape", "dtype", "fill", "_whole")

    def __init__(self, shape: tuple, dtype: np.dtype,
                 fill: Callable[[np.ndarray], np.ndarray]):
        self.shape, self.dtype, self.fill = shape, dtype, fill
        self._whole = None

    def array(self) -> np.ndarray:
        """The whole output, C-contiguous as the op made it: filled once,
        into a recycled buffer (``buffers.take``), and shared by every
        consumer while this recipe lives (the q, k and v projections read
        one LayerNorm output)."""
        if self._whole is None:
            self._whole = self.fill(buffers.take(self.shape, self.dtype))
        return self._whole


class Tensor:
    """An ndarray plus, for an operation's output, its graph record and,
    when the op can rebuild the output from what its backward keeps
    (``layer_norm`` and ``gelu``), its ``Rebuild``."""

    __slots__ = ("data", "requires_grad", "name", "_node", "rebuild")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.name = name
        self._node: _Node | None = None
        self.rebuild: Rebuild | None = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"

    def spare(self) -> bool:
        """Whether a ``no_grad`` op handed this Tensor may write over its
        array: no later op can read it.

        Nothing records (``no_grad``), the op's caller handed the Tensor
        over (the op's argument is its only reference), and the Tensor alone
        references its array, a C-contiguous, writeable one that owns its
        memory or views a base only it references.  An op asks this first
        thing, of its own argument: the reference count then tells a Tensor
        passed as a temporary from one its caller still holds, as
        ``_probe_refs`` read them at import.  On an interpreter where the
        two read the same (one that borrows references for arguments),
        nothing is spare.  A Tensor passed on through one more call, or
        through a wrapper, has one reference more: it is not spare either.
        """
        if _grad_enabled or not _HANDED_OVER < _HELD or sys.getrefcount(self) != _HANDED_OVER:
            return False
        if sys.getrefcount(self.data) != 2:  # the slot's reference and the argument's
            return False
        x = self.data
        base = x.base  # numpy points a view at the array that owns the memory
        return x.flags.c_contiguous and x.flags.writeable and (
            base is None or isinstance(base, np.ndarray) and base.base is None
            and sys.getrefcount(base) == 3)  # x's, ``base``'s and the argument's


class _Probe:
    __slots__ = ()

    def refs(self) -> int:
        return sys.getrefcount(self)


def _probe_refs() -> tuple[int, int]:
    """What ``Tensor.spare`` reads, in an op, for a Tensor the op's caller
    handed over as a temporary and for one the caller still holds."""
    def op(t):
        return t.refs()
    held = _Probe()
    return op(_Probe()), op(held)


_HANDED_OVER, _HELD = _probe_refs()


def Parameter(data, name: str | None = None) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(np.asarray(data), requires_grad=True, name=name)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _link(t: Tensor):
    """What a child node records for input ``t``: its node, ``t`` itself for
    a requires-grad leaf (so no node points back at its own Tensor), else
    None."""
    return t._node if t._node is not None else (t if t.requires_grad else None)


def _records(*inputs: Tensor) -> bool:
    """Whether an operation on ``inputs`` is recorded for a backward."""
    return _grad_enabled and any(_link(t) is not None for t in inputs)


def _make(data: np.ndarray, parents: Sequence[Tensor], vjp, fill=None) -> Tensor:
    """The op's output Tensor, recorded with ``vjp`` when a backward will
    reach it, and then also given ``Rebuild(fill)`` when ``fill`` is set."""
    out = Tensor(data)
    if _records(*parents):
        out._node = _Node(tuple(_link(p) for p in parents), vjp)
        out.requires_grad = True
        if fill is not None:
            out.rebuild = Rebuild(data.shape, data.dtype, fill)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape
    return _make(out, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    out = x * y
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g * y, x.shape),
        _unbroadcast(g * x, y.shape),
    ))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    out = x / y
    return _make(out, (a, b), lambda g: (
        _unbroadcast(g / y, x.shape),
        _unbroadcast(-g * x / (y * y), y.shape),
    ))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def pow_const(a, p: float) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    out = x ** p
    return _make(out, (a,), lambda g: (g * p * x ** (p - 1),))


def sqrt(a) -> Tensor:
    return pow_const(a, 0.5)


def log(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    return _make(np.log(x), (a,), lambda g: (g / x,))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def _gelu_from_tanh(xb: np.ndarray, tb: np.ndarray, ob: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``0.5*x*(1 + t)`` of one block into ``ob``, through the scratch ``u``."""
    np.multiply(xb, 0.5, out=ob)
    np.add(tb, 1.0, out=u)
    ob *= u
    return ob


def gelu(a) -> Tensor:
    """Gaussian error linear unit, tanh approximation (smooth everywhere).

    Forward and backward walk the input in blocks of ``quant.BLOCK``
    elements, each an in-place chain through block-sized scratch, so nothing
    activation-sized is allocated beyond the output, the gradient and, only
    when a backward will read it, the kept ``tanh``; a recorded node takes
    those from ``buffers.take``.  Under ``no_grad`` the output is written
    over the input when nothing else holds it (``Tensor.spare``): each block's
    ``tanh`` is taken before its input is overwritten.  A recorded output
    carries a ``Rebuild`` that computes its elements again from the input and
    the kept ``tanh``, so a consumer need not keep it.  The operations and
    their order are those of ``0.5*x*(1 + t)`` with
    ``t = tanh(c*(x + 0.044715*x*x*x))`` and of its derivative, so the values
    are the same bit for bit.  The ``tanh`` is kept rather than computed
    again: at ATIS shape that took 1.7 ms a call in the backward and 2.2 ms
    a call in the rebuild, against 0.6 ms for the rebuild from it.
    """
    overwrite = isinstance(a, Tensor) and a.spare()
    a = _as_tensor(a)
    x = a.data
    keep = _records(a)
    width = min(x.size, q.BLOCK)
    if keep:  # C order: flat views
        out, t = buffers.take(x.shape, x.dtype), buffers.take(x.shape, x.dtype)
    else:
        out = x if overwrite else np.empty(x.shape, dtype=x.dtype)
        t = np.empty(width, dtype=x.dtype)
    xf, of, tf = x.reshape(-1), out.reshape(-1), t.reshape(-1)
    scratch = np.empty(width, dtype=x.dtype)
    for start in range(0, xf.size, q.BLOCK):
        sl = slice(start, start + q.BLOCK)
        xb = xf[sl]
        tb = tf[sl] if keep else tf[:xb.size]
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        _gelu_from_tanh(xb, tb, of[sl], scratch[:xb.size])

    def vjp(g):
        gx = buffers.take(x.shape, np.result_type(g, x))
        gf, gxf = g.reshape(-1), gx.reshape(-1)
        d0, e0 = np.empty(width, dtype=x.dtype), np.empty(width, dtype=x.dtype)
        for start in range(0, xf.size, q.BLOCK):
            sl = slice(start, start + q.BLOCK)
            xb, tb = xf[sl], tf[sl]
            d, e = d0[:xb.size], e0[:xb.size]
            np.multiply(xb, xb, out=d)  # dinner = c*(1 + 3*0.044715*x*x)
            d *= 3 * 0.044715
            d += 1.0
            d *= _GELU_C
            np.multiply(tb, tb, out=e)  # dt = (1 - t*t)*dinner
            np.subtract(1.0, e, out=e)
            e *= d
            np.multiply(xb, 0.5, out=d)
            d *= e
            np.add(tb, 1.0, out=e)
            e *= 0.5
            e += d  # 0.5*(1 + t) + 0.5*x*dt
            np.multiply(gf[sl], e, out=gxf[sl])
        return (gx,)

    def fill(buf):
        bf, u = buf.reshape(-1), np.empty(width, dtype=x.dtype)
        for start in range(0, xf.size, q.BLOCK):
            sl = slice(start, start + q.BLOCK)
            xb = xf[sl]
            _gelu_from_tanh(xb, tf[sl], bf[sl], u[:xb.size])
        return buf

    return _make(out, (a,), vjp, fill)


# ---------------------------------------------------------------------------
# Shape and indexing


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.data.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def take(a, indices, axis: int = 0) -> Tensor:
    """Gather along an axis with a 1-D index; backward scatter-adds."""
    a = _as_tensor(a)
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ValueError("take expects a 1-D index array")
    out = np.take(a.data, idx, axis=axis)
    n, dtype = a.data.shape[axis], a.data.dtype

    def vjp(g):
        # Negative indices are wrapped first so that -1 and n-1 share a group.
        ga = segment_sum(np.moveaxis(g, axis, 0), idx % n, n)
        return (np.moveaxis(ga, 0, axis).astype(dtype, copy=False),)

    return _make(out, (a,), vjp)


def gather_rows(a, rows) -> Tensor:
    """Rows ``rows`` (1-D, distinct) of ``a``'s leading axis.  The rows are
    distinct, so the backward puts each gradient row back in place."""
    a = _as_tensor(a)
    rows = np.asarray(rows)
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        ga[rows] = g
        return (ga,)

    return _make(a.data[rows], (a,), vjp)


def scatter_rows(a, rows, n: int) -> Tensor:
    """``a``'s rows placed at rows ``rows`` (1-D, distinct) of ``n`` rows of
    zeros: the adjoint of ``gather_rows``."""
    a = _as_tensor(a)
    rows = np.asarray(rows)
    out = np.zeros((n,) + a.data.shape[1:], dtype=a.data.dtype)
    out[rows] = a.data
    return _make(out, (a,), lambda g: (g[rows],))


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    shape, dtype = a.data.shape, a.data.dtype

    def vjp(g):
        ga = np.zeros(shape, dtype=dtype)
        ga[sl] = g
        return (ga,)

    return _make(a.data[sl], (a,), vjp)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape
    return _make(np.asarray(a.data.sum()), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


def sum_axis(a, axis: int) -> Tensor:
    a = _as_tensor(a)
    shape = a.data.shape
    return _make(a.data.sum(axis=axis), (a,),
                 lambda g: (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),))


def matmul(a, b) -> Tensor:
    """Matrix product; batched on leading axes when both operands carry them."""
    a, b = _as_tensor(a), _as_tensor(b)
    x, y = a.data, b.data
    out = x @ y

    def vjp(g):
        bt = np.swapaxes(y, -1, -2)
        at = np.swapaxes(x, -1, -2)
        ga = g @ bt
        gb = at @ g
        return (_unbroadcast(ga, x.shape), _unbroadcast(gb, y.shape))

    return _make(out, (a, b), vjp)


def einsum(subscripts: str, *operands) -> Tensor:
    """Einstein summation with automatic VJPs.

    Subscripts must be explicit (no ellipsis), and every input index must
    appear in the output or another operand, which holds for all tensor-train
    contractions used here.  The forward and each operand's VJP are
    contracted along an optimized path, so they run as BLAS matrix products.
    """
    ins, out_sub = subscripts.replace(" ", "").split("->")
    in_subs = ins.split(",")
    tensors = [_as_tensor(t) for t in operands]
    if len(in_subs) != len(tensors):
        raise ValueError("subscript count does not match operand count")
    for i, sub in enumerate(in_subs):
        elsewhere = set(out_sub) | {c for j, s in enumerate(in_subs) if j != i for c in s}
        if not set(sub) <= elsewhere:
            raise ValueError(f"operand {i} has an index private to it; VJP undefined")
    arrays = [t.data for t in tensors]
    result = np.einsum(subscripts, *arrays, optimize=True)

    def vjp(g):
        grads = []
        for i, sub in enumerate(in_subs):
            other_subs = [s for j, s in enumerate(in_subs) if j != i]
            other_ops = [arrays[j] for j in range(len(arrays)) if j != i]
            call = ",".join([out_sub] + other_subs) + "->" + sub
            grads.append(np.einsum(call, g, *other_ops, optimize=True))
        return tuple(grads)

    return _make(result, tensors, vjp)


def tt_linear(x2d, cores: Sequence, plan: TensorShapePlan, bias=None, act=None,
              weight=None) -> Tensor:
    """Batched y = W x + bias, (batch, cols) to (batch, rows), for the TT cores
    of ``plan``: one node for a whole TT layer.

    ``act`` and ``weight`` are the input and weight quantizers, each a
    ``(scale Tensor, bits)`` pair or None; 32 bits is none.  The forward
    quantizes the input once and the cores once (``_quantize_cores``), walks
    ``tt.tt_stages`` and adds the bias in place on the last stage's fresh
    output.  A recorded node draws its input codes and values and its stage
    outputs from ``buffers.take``.

    For the backward the node keeps the int8 codes of the input and of the
    cores, the input's ``Rebuild`` when it has one (a LayerNorm or GELU
    output) or else the input, and the scalars.  Stage 0's input and the
    quantized cores are rebuilt from the codes with ``quant.dequantize``,
    bit for bit the forward's values, and ``tt.tt_chain_vjp`` reruns the
    stage forwards on them to rebuild the later stage inputs before it runs
    the adjoints.  The input gradient is the straight-through mask applied in
    place on the stage-0 gradient (into a fresh array when padded columns
    make that gradient a strided view); ``quant.ste_backward`` reads the
    float input, ``Rebuild.array()`` when there is one.  So
    every gradient equals that of a ``fake_quant`` node per input and core
    feeding a plain TT product and a bias ``add``.  Under ``no_grad``
    nothing is kept, and the input quantizer makes no codes, only the
    values.
    """
    x2d = _as_tensor(x2d)
    cores = [_as_tensor(c) for c in cores]
    act, weight = _quantizer(act), _quantizer(weight)
    scales = [spec[0] for spec in (act, weight) if spec is not None]
    inputs = [x2d, *cores] + [t for t in [bias] if t is not None] + scales
    keep = _records(*inputs)
    xd, masters = x2d.data, [c.data for c in cores]
    x_in, w_in, quant_w = [xd], masters, weight is not None
    if act is not None:
        a_scale, a_bits = float(act[0].data), act[1]
        a_like = (act[0].data.dtype, act[0].data.shape)
        x_codes, x_in[0] = q.quantize_blocks(xd, a_scale, a_bits, np.int8 if keep else None,
                                             xd.dtype, buffers.take if keep else np.empty)
    if quant_w:
        w_in, w_values, w_ste = _quantize_cores(masters, weight)
    # the quantized input goes to the chain as a temporary, freed after stage 0
    y = tt_chain(x_in.pop(), w_in, plan, recycle=keep)
    if bias is not None:
        b = bias.data
        fresh = not y.flags.c_contiguous or np.result_type(y, b) != y.dtype
        y = np.add(y, b, out=None if fresh else y)
    if not keep:
        return Tensor(y)
    quant_x = act is not None
    x_float, x_dtype = x2d.rebuild or xd, xd.dtype
    bias_shape = None if bias is None else bias.data.shape

    def vjp(g):
        if quant_x:
            x_vals = q.dequantize(x_codes, a_scale, x_dtype, buffers.take)
        else:
            x_vals = _whole(x_float)
        w_vals = w_values() if quant_w else masters
        gx, *g_cores = tt_chain_vjp(g, x_vals, w_vals, plan)
        del x_vals, w_vals
        scale_grads = []
        if quant_x:
            gx, gs = q.ste_backward(_whole(x_float), x_codes, a_scale, a_bits, gx,
                                    out=_owned(gx))
            scale_grads.append(_scale_grad(gs, *a_like))
        if quant_w:
            scale_grads.append(w_ste(g_cores))
        bias_grad = [] if bias_shape is None else [_unbroadcast(g, bias_shape)]
        return (gx, *g_cores, *bias_grad, *scale_grads)

    return _make(y, inputs, vjp)


def ttm_lookup(ids, cores: Sequence, plan: TensorShapePlan, weight=None) -> Tensor:
    """Rows ``ids`` (1-D) of the TTM matrix of ``plan``, (len(ids), cols),
    with the cores' quantizer ``weight`` as in ``tt_linear``: one node.  It
    keeps the cores' int8 codes and rebuilds the quantized cores from them
    for ``tt.ttm_lookup_vjp``'s pullback, so every gradient equals that of a
    ``fake_quant`` node per core feeding a plain lookup."""
    cores = [_as_tensor(c) for c in cores]
    weight = _quantizer(weight)
    masters = [c.data for c in cores]
    if weight is None:
        out, pullback = ttm_lookup_vjp(ids, masters, plan)
        return _make(out, cores, lambda g: pullback(g, masters))
    w_in, w_values, w_ste = _quantize_cores(masters, weight)
    out, pullback = ttm_lookup_vjp(ids, w_in, plan)

    def vjp(g):
        g_cores = list(pullback(g, w_values()))
        return (*g_cores, w_ste(g_cores))

    return _make(out, cores + [weight[0]], vjp)


def _quantizer(spec):
    """A ``(scale Tensor, bits)`` quantizer, or None for none or 32 bits."""
    return None if spec is None or spec[1] == q.FULL_PRECISION else spec


def _quantize_cores(masters: Sequence[np.ndarray], weight) -> tuple:
    """The weight quantizer ``weight`` on a node's cores: one
    ``quantize_blocks`` call over their concatenation.  Returns the
    quantized cores (views of one array) and, for the backward, which keeps
    only the int8 codes: ``values()``, the quantized cores again bit for bit
    (``quant.dequantize``), and ``ste(g_cores)``, which masks each core's
    gradient in place (``quant.ste_backward``) and returns the scale's: each
    core's cast to the scale's dtype, summed in core order, as a backward
    sums those of a ``fake_quant`` node per core."""
    scale, bits = float(weight[0].data), weight[1]
    like = (weight[0].data.dtype, weight[0].data.shape)
    flat = np.concatenate([m.reshape(-1) for m in masters])
    dtype = flat.dtype
    codes, values = q.quantize_blocks(flat, scale, bits, np.int8, dtype)

    def rebuild():
        return _split_like(q.dequantize(codes, scale, dtype), masters)

    def ste(g_cores):
        total = None
        for k, (m, c) in enumerate(zip(masters, _split_like(codes, masters))):
            g_cores[k], gs = q.ste_backward(m, c, scale, bits, g_cores[k], out=_owned(g_cores[k]))
            gs = _scale_grad(gs, *like)
            total = gs if total is None else total + gs
        return total

    return _split_like(values, masters), rebuild, ste


def _whole(x) -> np.ndarray:
    """``x``, or the whole output a ``Rebuild`` ``x`` stands for."""
    return x.array() if isinstance(x, Rebuild) else x


def _owned(g: np.ndarray) -> np.ndarray | None:
    """``g`` as ``ste_backward``'s in-place ``out`` when it is C-contiguous,
    else None (a fresh output).  A cropped stage-0 gradient, when the columns
    are padded, is a strided view, which cannot take the masked gradient in
    place."""
    return g if g.flags.c_contiguous else None


def _split_like(flat: np.ndarray, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Views of the concatenation ``flat`` in the shapes of ``arrays``."""
    offsets = np.cumsum([a.size for a in arrays])[:-1]
    return [part.reshape(a.shape) for part, a in zip(np.split(flat, offsets), arrays)]


def _scale_grad(gs, dtype, shape) -> np.ndarray:
    """A float64 scale gradient in its scale's dtype and shape."""
    return np.asarray(gs, dtype=dtype).reshape(shape)


# ---------------------------------------------------------------------------
# Fused neural-net ops


def softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _make(s, (a,), vjp)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), vjp)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    ``x - mean`` becomes ``xhat`` in place.  The output is written into
    ``xhat`` too when no backward will read it, else into one fresh array,
    and then carries a ``Rebuild`` that computes its elements again from the
    ``xhat`` the backward keeps, so a consumer need not keep it.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    g_data, b_data = gamma.data, beta.data
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    keep = _records(x, gamma, beta)
    dtype = np.result_type(xhat, g_data, b_data)
    out = xhat if not keep and dtype == xhat.dtype else np.empty(xhat.shape, dtype=dtype)
    np.multiply(xhat, g_data, out=out)
    np.add(out, b_data, out=out)
    n = xhat.shape[-1]

    def vjp(g):
        gg = (g * xhat).reshape(-1, n).sum(axis=0).reshape(g_data.shape)
        gb = g.reshape(-1, n).sum(axis=0).reshape(b_data.shape)
        gx_hat = g * g_data
        gx = inv * (gx_hat
                    - gx_hat.mean(axis=-1, keepdims=True)
                    - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True))
        return (gx, gg, gb)

    def fill(buf):
        """``xhat * gamma + beta`` into ``buf``: the forward's multiply and add."""
        np.multiply(xhat, g_data, out=buf)
        return np.add(buf, b_data, out=buf)

    return _make(out, (x, gamma, beta), vjp, fill)


def fake_quant(x, scale_t: Tensor, bits: int) -> Tensor:
    """Quantize-dequantize with straight-through gradients.

    Forward emits the dequantized surrogate in ``x``'s dtype and keeps only
    the int8 codes, which it makes only when a backward will read them.
    Backward passes the upstream gradient through in-range elements to x,
    and routes the branch-value surrogate, summed over every element sharing
    the scale, to ``scale_t``.
    """
    x = _as_tensor(x)
    scale_t = _as_tensor(scale_t)
    if bits == q.FULL_PRECISION:
        return x
    s = float(scale_t.data)
    xd = x.data
    s_like = (scale_t.data.dtype, scale_t.data.shape)
    keep = _records(x, scale_t)
    codes, out = q.quantize_blocks(xd, s, bits, np.int8 if keep else None, xd.dtype)

    def vjp(g):
        gx, gs = q.ste_backward(xd, codes, s, bits, g)
        return (gx, _scale_grad(gs, *s_like))

    return _make(out, (x, scale_t), vjp)


# ---------------------------------------------------------------------------
# Backward sweep


def _topo_order(root: _Node) -> list:
    """The nodes and requires-grad leaves reachable from ``root``, each after
    its parents.  Raises when one of the nodes was consumed already."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in visited:
            continue
        visited.add(id(item))
        stack.append((item, True))
        if isinstance(item, _Node):
            if item.consumed:
                raise BackwardError("graph already consumed; one backward per forward")
            for p in item.parents:
                if p is not None and id(p) not in visited:
                    stack.append((p, False))
    return order


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """One reverse sweep from a scalar loss.

    Returns a map from ``id(tensor)`` to gradient for every requires-grad
    leaf, the one place a gradient is kept: a leaf reached from two losses
    gets one gradient from each call, never their sum.  The recorded graph
    is consumed: a second backward through the same nodes raises.
    """
    if loss.data.size != 1:
        raise BackwardError("backward expects a scalar loss")
    root = _link(loss)
    if root is None:
        raise BackwardError("loss does not depend on any parameter")
    order = _topo_order(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(loss.data)}
    grads: dict[int, np.ndarray] = {}
    for item in reversed(order):
        g = adjoint.pop(id(item), None)
        if g is None:
            continue
        if isinstance(item, _Node):
            for p, pg in zip(item.parents, item.vjp(g)):
                if p is None or pg is None:
                    continue
                key = id(p)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg
            # consume: one backward per forward, and free what the vjp saved
            item.vjp, item.parents, item.consumed = None, (), True
        else:
            grads[id(item)] = g
    return grads
