"""The TT matvec written stage by stage as einsum contractions, independent
of ``tt.Stage``'s matmul layouts.

``einsum_stages`` spells out the contraction order of ``tt.tt_stages`` with
one einsum per stage.  ``measured_mults`` walks them and counts multiplies
from the arrays each one contracts.  ``composite_tt_linear`` chains them as
``ad.reshape`` + ``ad.einsum`` autodiff nodes, which is how a TT layer was
built before the fused ``ad.tt_linear`` node, and serves as its oracle.
``composed_tt_layer`` is a quantized TT layer as the ``fake_quant`` +
``tt_linear`` + ``add`` nodes it was before they became one node, and is
that node's oracle; ``composed_ttm_lookup`` is likewise the quantized TTM
lookup as a ``fake_quant`` node per core and a plain lookup.
``chain_peaks`` over ``quantized_operands`` is the rule calibration folds
each stage's peak by, and ``calibrate_layer`` calibrates one layer by it.
``composite_ttm_lookup`` is the TTM row lookup as the take/einsum/reshape
chain it was before the ``ad.ttm_lookup`` node: every core contracted again
for every id.  It is that node's gradient oracle.  ``tt_matvec_vjp`` is the
single-vector TT adjoint, checked against finite differences and the
composite chain.

``tt_to_dense`` and ``ttm_to_dense`` materialize the matrix a plan's cores
represent, the dense oracle of every factorized product.
``tt_from_dense_exact`` and ``ttm_from_dense_exact`` go the other way:
full-rank cores that reconstruct a given matrix exactly, by index encoding
(an exact TT representation in the sense of Oseledets 2011,
"Tensor-Train Decomposition").
"""

import math
from typing import Sequence

import numpy as np

from ttq import autodiff as ad
from ttq import quant as q
from ttq.tt import PlanError, StructureError, TensorShapePlan, TTFormat, tt_chain, tt_chain_vjp


def _check_cores(cores: Sequence[np.ndarray], plan: TensorShapePlan, fmt: TTFormat):
    if plan.format is not fmt:
        raise StructureError(f"plan is not {fmt.name} format")
    shapes = plan.core_shapes()
    if len(cores) != len(shapes):
        raise StructureError(f"expected {len(shapes)} cores, got {len(cores)}")
    for i, (core, shape) in enumerate(zip(cores, shapes)):
        if tuple(core.shape) != shape:
            raise StructureError(f"core {i} has shape {core.shape}, expected {shape}")


def tt_to_dense(cores: Sequence[np.ndarray], plan: TensorShapePlan) -> np.ndarray:
    """Materialize the full (rows x cols) matrix from TT cores.

    Slice-product reconstruction: chain the cores into the order-2d tensor,
    reshape to the padded matrix, crop to the logical shape.
    """
    core_list = list(cores)
    _check_cores(core_list, plan, TTFormat.TT)
    out = np.asarray(core_list[0], dtype=np.float64)  # (1, m1, r1)
    acc = out.reshape(out.shape[1], out.shape[2])
    modes = [core_list[0].shape[1]]
    for core in core_list[1:]:
        c = np.asarray(core, dtype=np.float64)
        acc = np.tensordot(acc, c, axes=([acc.ndim - 1], [0]))
        modes.append(c.shape[1])
    acc = acc.reshape(modes)  # trailing rank is 1
    padded = acc.reshape(plan.padded_rows, plan.padded_cols)
    return padded[: plan.rows, : plan.cols]


def ttm_to_dense(cores: Sequence[np.ndarray], plan: TensorShapePlan) -> np.ndarray:
    """Materialize the full matrix from TTM cores via joint (row, col) slices."""
    core_list = list(cores)
    _check_cores(core_list, plan, TTFormat.TTM)
    first = np.asarray(core_list[0], dtype=np.float64)
    acc = first.reshape(first.shape[1], first.shape[2], first.shape[3])  # (m1, n1, p1)
    row_modes = [first.shape[1]]
    col_modes = [first.shape[2]]
    for core in core_list[1:]:
        c = np.asarray(core, dtype=np.float64)
        acc = np.tensordot(acc, c, axes=([acc.ndim - 1], [0]))
        row_modes.append(c.shape[1])
        col_modes.append(c.shape[2])
    # modes are interleaved (m1, n1, m2, n2, ...); bring rows forward
    acc = acc.reshape([x for pair in zip(row_modes, col_modes) for x in pair])
    order = list(range(0, 2 * len(row_modes), 2)) + list(range(1, 2 * len(row_modes), 2))
    tensor = acc.transpose(order)
    padded = tensor.reshape(plan.padded_rows, plan.padded_cols)
    return padded[: plan.rows, : plan.cols]


def tt_from_dense_exact(w: np.ndarray, row_factors,
                        col_factors) -> tuple[list[np.ndarray], TensorShapePlan]:
    """Exact TT representation of a dense matrix by index encoding.

    Row cores are identity encoders of the row digits, the first column core
    holds the data, and remaining column cores decode the column digits.  The
    ranks are full (no approximation); useful for constructing students that
    reproduce a dense teacher bit-for-bit modulo arithmetic order.
    """
    w = np.asarray(w)
    rows, cols = w.shape
    rf, cf = tuple(row_factors), tuple(col_factors)
    d = len(rf)
    pr, pc = math.prod(rf), math.prod(cf)
    if pr < rows or pc < cols:
        raise PlanError("factors do not cover the matrix")
    padded = np.zeros((pr, pc), dtype=w.dtype)
    padded[:rows, :cols] = w
    ranks = [1]
    left = 1
    for k in range(d):
        left *= rf[k]
        ranks.append(left)
    right_tail = [1]
    for k in range(d - 1, 0, -1):
        right_tail.append(right_tail[-1] * cf[k])
    right_tail = list(reversed(right_tail))  # prod(cf[k:]) for k = 1..d, then 1
    ranks.extend(right_tail)
    plan = TensorShapePlan(rows=rows, cols=cols, row_factors=rf, col_factors=cf,
                           ranks=tuple(ranks), format=TTFormat.TT)
    cores: list[np.ndarray] = []
    left = 1
    for k in range(d):
        core = np.zeros((left, rf[k], left * rf[k]), dtype=w.dtype)
        for a in range(left):
            for i in range(rf[k]):
                core[a, i, a * rf[k] + i] = 1.0
        cores.append(core)
        left *= rf[k]
    # data core: (pr, cf[0], prod(cf[1:]))
    data = padded.reshape((pr, cf[0], math.prod(cf[1:]) if d > 1 else 1))
    cores.append(data)
    right = math.prod(cf[1:]) if d > 1 else 1
    for k in range(1, d):
        tail = math.prod(cf[k + 1:]) if k + 1 < d else 1
        core = np.zeros((right, cf[k], tail), dtype=w.dtype)
        for j in range(cf[k]):
            for b in range(tail):
                core[j * tail + b, j, b] = 1.0
        cores.append(core)
        right = tail
    return cores, plan


def ttm_from_dense_exact(w: np.ndarray, row_factors,
                         col_factors) -> tuple[list[np.ndarray], TensorShapePlan]:
    """Exact TTM representation: leading cores encode (row, col) digit pairs,
    the final core carries the data."""
    w = np.asarray(w)
    rows, cols = w.shape
    rf, cf = tuple(row_factors), tuple(col_factors)
    d = len(rf)
    pr, pc = math.prod(rf), math.prod(cf)
    if pr < rows or pc < cols:
        raise PlanError("factors do not cover the matrix")
    padded = np.zeros((pr, pc), dtype=w.dtype)
    padded[:rows, :cols] = w
    ranks = [1]
    vol = 1
    for k in range(d - 1):
        vol *= rf[k] * cf[k]
        ranks.append(vol)
    ranks.append(1)
    plan = TensorShapePlan(rows=rows, cols=cols, row_factors=rf, col_factors=cf,
                           ranks=tuple(ranks), format=TTFormat.TTM)
    if d == 1:
        return [padded.reshape(1, pr, pc, 1)], plan
    cores = []
    left = 1
    for k in range(d - 1):
        core = np.zeros((left, rf[k], cf[k], left * rf[k] * cf[k]), dtype=w.dtype)
        for a in range(left):
            for i in range(rf[k]):
                for j in range(cf[k]):
                    core[a, i, j, (a * rf[k] + i) * cf[k] + j] = 1.0
        cores.append(core)
        left *= rf[k] * cf[k]
    # final core: rank index enumerates (i1, j1, ..., i_{d-1}, j_{d-1})
    tensor = padded.reshape(list(rf) + list(cf))
    perm = [ax for k in range(d) for ax in (k, d + k)]
    interleaved = np.ascontiguousarray(tensor.transpose(perm))
    cores.append(interleaved.reshape(left, rf[-1], cf[-1], 1))
    return cores, plan

def einsum_stages(plan):
    """(core index, per-vector input shape, core view, subscripts) of every
    stage, in the order of ``tt_stages(plan)``."""
    d = plan.order
    shapes = plan.core_shapes()
    r, n, _ = shapes[2 * d - 1]
    length = plan.padded_cols // n
    stages = [(2 * d - 1, (length, n), (r, n), "bln,rn->blr")]
    for k in range(2 * d - 2, d - 1, -1):
        q, n, r = shapes[k]
        length //= n
        stages.append((k, (length, n, r), shapes[k], "blnr,qnr->blq"))
    tail = 1
    for k in range(d - 1, -1, -1):
        q, m, r = shapes[k]
        stages.append((k, (r, tail), shapes[k], "brt,qmr->bqmt"))
        tail *= m
    return stages


def measured_mults(cores, plan) -> int:
    """Multiplies of one matvec: for every einsum stage, one per output entry
    per combination of the indices it sums."""
    cores = list(cores)
    acc = np.ones(plan.padded_cols)
    mults = 0
    for k, in_shape, core_shape, subscripts in einsum_stages(plan):
        acc = acc.reshape((1,) + in_shape)
        out = np.einsum(subscripts, acc, np.asarray(cores[k]).reshape(core_shape))
        acc_subs, kept = subscripts.split(",")[0], subscripts.split("->")[1]
        mults += out.size * math.prod(n for c, n in zip(acc_subs, acc.shape) if c not in kept)
        acc = out
    return mults


def composite_tt_linear(x2d, cores, plan):
    """Batched y = W x as a chain of reshape and einsum autodiff nodes."""
    batch = x2d.shape[0]
    # zero-pad the columns by a 0/1 matmul: exact, and its gradient is the crop
    acc = ad.matmul(x2d, ad.Tensor(np.eye(plan.cols, plan.padded_cols)))
    for k, in_shape, core_shape, subscripts in einsum_stages(plan):
        core = cores[k]
        if core.shape != core_shape:
            core = ad.reshape(core, core_shape)
        acc = ad.einsum(subscripts, ad.reshape(acc, (batch,) + in_shape), core)
    out = ad.reshape(acc, (batch, plan.padded_rows))
    if plan.padded_rows != plan.rows:
        out = ad.slice_axis(out, 1, 0, plan.rows)
    return out


def composed_tt_layer(x2d, cores, plan, bias=None, act=None, weight=None):
    """A TT layer as separate autodiff nodes, as it was built before its
    quantizers and bias joined the ``ad.tt_linear`` node: ``ad.fake_quant``
    of the input and of each core (for ``act``/``weight`` quantizers
    ``(scale, bits)``), the plain ``ad.tt_linear`` product, and ``ad.add`` of
    the bias.  ``ad.fake_quant`` is looked up at call time.  It takes the
    arguments of ``model.tt_chain_apply`` and is that node's oracle."""
    if act is not None:
        x2d = ad.fake_quant(x2d, *act)
    if weight is not None:
        cores = [ad.fake_quant(c, *weight) for c in cores]
    y = ad.tt_linear(x2d, cores, plan)
    return y if bias is None else ad.add(y, bias)


_plain_ttm_lookup = ad.ttm_lookup  # a test patches ad.ttm_lookup with composed_ttm_lookup


def composed_ttm_lookup(ids, cores, plan, weight=None):
    """A TTM lookup as separate autodiff nodes, as it was built before its
    weight quantizer joined the ``ad.ttm_lookup`` node: ``ad.fake_quant`` of
    each core (for a ``weight`` quantizer ``(scale, bits)``), then the plain
    lookup.  ``ad.fake_quant`` is looked up at call time."""
    if weight is not None:
        cores = [ad.fake_quant(c, *weight) for c in cores]
    return _plain_ttm_lookup(ids, cores, plan)


def chain_peaks(x2d, cores, plan) -> np.ndarray:
    """max |out| of each stage of ``tt.tt_chain(x2d, cores, plan)``."""
    peaks = []

    def record(i, out):
        peaks.append(np.abs(out).max())
        return out

    tt_chain(x2d, cores, plan, record)
    return np.array(peaks, dtype=np.float64)


def quantized_operands(layer, x2d, dtype):
    """A quantized TT layer's input rows and cores as their fake quantizers
    give them, ``scale * code``, in ``dtype``.  In the layer's own dtype these
    are the operands of its ``train`` chain."""

    def values(a, scale, bits):
        return (scale * q.quantize(a, scale, bits)).astype(dtype)

    a_scale, w_scale = float(layer.act_scale.data), float(layer.weight_scale.data)
    return (values(x2d, a_scale, layer.act_bits),
            [values(c.data, w_scale, layer.bits) for c in layer.cores])


def calibrate_layer(layer, x2d):
    """Set a quantized TT layer's stage scales from the rows ``x2d`` by the
    rule ``TransformerModel.calibrate_int`` folds: the stage peaks of the
    layer's ``train`` chain.  The layer's input scale must be set."""
    dtype = layer.cores[0].data.dtype
    layer.set_stage_scales(chain_peaks(*quantized_operands(layer, x2d, dtype), layer.plan))


def composite_ttm_lookup(ids, cores, plan):
    """Rows ``ids`` of a TTM matrix as a chain of take, einsum and reshape
    autodiff nodes over the mixed-radix digits of every id."""
    ids = np.asarray(ids)
    batch = ids.shape[0]
    digits = []
    rem = ids
    for base in reversed(plan.row_factors):
        digits.append(rem % base)
        rem = rem // base
    digits.reverse()
    first = ad.take(cores[0], digits[0], axis=1)  # (1, b, n1, p1)
    acc = ad.reshape(first, (batch, first.shape[2], first.shape[3]))
    for k in range(1, plan.order):
        sl = ad.take(cores[k], digits[k], axis=1)  # (p, b, n, q)
        acc = ad.einsum("blp,pbnq->blnq", acc, sl)
        acc = ad.reshape(acc, (batch, acc.shape[1] * acc.shape[2], sl.shape[3]))
    out = ad.reshape(acc, (batch, plan.padded_cols))
    if plan.padded_cols != plan.cols:
        out = ad.slice_axis(out, 1, 0, plan.cols)
    return out


def tt_matvec_vjp(cores, plan, x, upstream):
    """Gradients of upstream . (W x) w.r.t. every core and x, without
    materializing W: the batch-1 case of the ``ad.tt_linear`` backward
    (``tt.tt_chain_vjp``)."""
    core_list = list(cores)
    _check_cores(core_list, plan, TTFormat.TT)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (plan.cols,):
        raise ValueError(f"expected input of length {plan.cols}, got {x.shape}")
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (plan.rows,):
        raise ValueError(f"expected upstream of length {plan.rows}, got {upstream.shape}")
    gx, *grads = tt_chain_vjp(upstream[None], x[None], core_list, plan)
    return grads, gx[0]
