"""Tensor-train (TT) and tensor-train-matrix (TTM) representations of weight matrices.

A weight matrix of logical shape (rows, cols) is reshaped into an order-2d
tensor whose row modes multiply to a padded row count and whose column modes
multiply to a padded column count.  The TT format stores 2d order-3 cores
(row cores followed by column cores); the TTM format stores d order-4 cores,
each carrying one row mode and one column mode jointly.

``tt_stages(plan)`` is the one TT contraction schedule: a tuple of stages,
each one matmul with one core, holding its forward, its adjoint and its
multiply count.  ``tt_chain`` walks it forward for the ``ad.tt_linear``
node's forward, and with a stage hook for integer inference and
calibration.
``tt_chain_vjp``, that node's backward, reruns the forward walk to rebuild
the stage inputs and then walks the adjoints in reverse, so a forward keeps
no stage input for it.  Its twin ``ttm_stages(plan)`` is the TTM row
lookup: shared prefix and suffix tables, then one join per distinct id;
``ttm_lookup_vjp`` walks it for the ``ad.ttm_lookup`` node; its pullback
takes the cores again, so that node keeps only their int8 codes.  The op
counts behind ``flops_estimate`` follow the same stages.

Cores are plain lists of arrays whose shapes are ``plan.core_shapes()``.
No dense matrix is ever built from them: a TT or TTM weight exists only as
its cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import buffers


class PlanError(ValueError):
    """Raised when a factorization plan cannot be built or validated."""


class StructureError(ValueError):
    """Raised when cores are inconsistent with their plan."""


class TTFormat(str, Enum):
    TT = "tt"
    TTM = "ttm"


@dataclass(frozen=True)
class TensorShapePlan:
    """Blueprint for compressing one (rows x cols) matrix.

    ``row_factors`` multiply to ``padded_rows >= rows`` and ``col_factors``
    to ``padded_cols >= cols``.  ``ranks`` has length 2d+1 for TT (leading
    and trailing entries are 1) and d+1 for TTM (same boundary rule).
    """

    rows: int
    cols: int
    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]
    ranks: tuple[int, ...]
    format: TTFormat = TTFormat.TT

    def __post_init__(self):
        object.__setattr__(self, "row_factors", tuple(int(f) for f in self.row_factors))
        object.__setattr__(self, "col_factors", tuple(int(f) for f in self.col_factors))
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        object.__setattr__(self, "format", TTFormat(self.format))
        self._validate()

    def _validate(self):
        d = len(self.row_factors)
        if d < 1 or len(self.col_factors) != d:
            raise PlanError("row and column factor lists must have equal length >= 1")
        if self.rows < 1 or self.cols < 1:
            raise PlanError("logical dims must be positive")
        if any(f < 1 for f in self.row_factors + self.col_factors):
            raise PlanError("factors must be positive")
        if self.padded_rows < self.rows or self.padded_cols < self.cols:
            raise PlanError(
                f"factor products ({self.padded_rows}, {self.padded_cols}) must cover "
                f"logical dims ({self.rows}, {self.cols})"
            )
        if any(r < 1 for r in self.ranks):
            raise PlanError("ranks must be positive")
        if self.format is TTFormat.TT:
            if len(self.ranks) != 2 * d + 1:
                raise PlanError(f"TT plan with d={d} needs {2 * d + 1} ranks, got {len(self.ranks)}")
        else:
            if len(self.ranks) != d + 1:
                raise PlanError(f"TTM plan with d={d} needs {d + 1} ranks, got {len(self.ranks)}")
        if self.ranks[0] != 1 or self.ranks[-1] != 1:
            raise PlanError("boundary ranks must equal 1")

    @property
    def order(self) -> int:
        return len(self.row_factors)

    @property
    def padded_rows(self) -> int:
        return math.prod(self.row_factors)

    @property
    def padded_cols(self) -> int:
        return math.prod(self.col_factors)

    def core_shapes(self) -> list[tuple[int, ...]]:
        d = self.order
        if self.format is TTFormat.TT:
            modes = self.row_factors + self.col_factors
            return [
                (self.ranks[i], modes[i], self.ranks[i + 1]) for i in range(2 * d)
            ]
        return [
            (self.ranks[i], self.row_factors[i], self.col_factors[i], self.ranks[i + 1])
            for i in range(d)
        ]

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "row_factors": list(self.row_factors),
            "col_factors": list(self.col_factors),
            "ranks": list(self.ranks),
            "format": self.format.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TensorShapePlan":
        return cls(
            rows=d["rows"],
            cols=d["cols"],
            row_factors=tuple(d["row_factors"]),
            col_factors=tuple(d["col_factors"]),
            ranks=tuple(d["ranks"]),
            format=TTFormat(d["format"]),
        )


def uniform_ranks(d: int, rank: int, fmt: TTFormat) -> tuple[int, ...]:
    """Boundary-1 rank tuple with constant interior rank."""
    n = 2 * d if fmt is TTFormat.TT else d
    if n == 1:
        return (1, 1)
    return (1,) + (rank,) * (n - 1) + (1,)


def _bounded_factors(n: int, d: int, lo: int, hi: int) -> tuple[int, ...] | None:
    """Most-balanced multiset of d factors, each in [lo, hi], with product n."""
    best: tuple[int, ...] | None = None

    def search(remaining: int, k: int, min_f: int, acc: list[int]):
        nonlocal best
        if k == 1:
            if min_f <= remaining <= hi:
                cand = tuple(acc + [remaining])
                if best is None or max(cand) - min(cand) < max(best) - min(best):
                    best = cand
            return
        f = min_f
        while f <= hi and f ** k <= remaining:
            if remaining % f == 0:
                search(remaining // f, k - 1, f, acc + [f])
            f += 1

    search(n, d, max(lo, 2), [])
    return best


def _plan_axis(n: int, d: int) -> tuple[int, ...]:
    """Factors for one axis: least padding among near-balanced splits.

    Scans padded products upward from n, accepting the first product that
    splits into d factors each within a factor of two of n**(1/d); falls back
    to the uniform ceil-root split, which always covers n.
    """
    if n == 1:
        return (1,) * d
    if d == 1:
        return (n,)
    if 2 ** d > n:
        raise PlanError(f"cannot split dim {n} into {d} factors >= 2")
    root = n ** (1.0 / d)
    lo, hi = max(2, int(root / 2)), max(2, math.ceil(root * 2))
    ceiling = math.ceil(root) ** d
    for padded in range(n, ceiling + 1):
        fac = _bounded_factors(padded, d, lo, hi)
        if fac is not None:
            return tuple(sorted(fac))
    return (math.ceil(root),) * d


def plan_factorization(
    rows: int,
    cols: int,
    d: int,
    rank: int,
    fmt: TTFormat | str = TTFormat.TT,
    row_factors: Sequence[int] | None = None,
    col_factors: Sequence[int] | None = None,
    ranks: Sequence[int] | None = None,
) -> TensorShapePlan:
    """Build a compression plan for a (rows x cols) matrix.

    Without explicit factors, each axis is split into d near-balanced factors
    with the least padding.  Explicit ``row_factors``/``col_factors`` override
    the search (used to reproduce published shape settings); explicit
    ``ranks`` override the uniform rank tuple.
    """
    fmt = TTFormat(fmt)
    if rows < 1 or cols < 1 or d < 1 or rank < 1:
        raise PlanError("rows, cols, d and rank must all be >= 1")
    rf = tuple(row_factors) if row_factors is not None else _plan_axis(rows, d)
    cf = tuple(col_factors) if col_factors is not None else _plan_axis(cols, d)
    if len(rf) != len(cf):
        raise PlanError("row and column factor lists must have equal length")
    rk = tuple(ranks) if ranks is not None else uniform_ranks(len(rf), rank, fmt)
    return TensorShapePlan(rows=rows, cols=cols, row_factors=rf, col_factors=cf, ranks=rk, format=fmt)


# ---------------------------------------------------------------------------
# Cores


def _gaussian_cores(plan: TensorShapePlan, rng: np.random.Generator, target_std: float,
                    dtype) -> list[np.ndarray]:
    """Random Gaussian cores scaled so the reconstructed matrix has roughly
    elementwise std ``target_std``.

    The reconstructed entry is a product chain over the cores with the
    interior ranks summed out, so each core draws i.i.d. values with std set
    to the n-th root of the target std after dividing out the accumulated
    rank volume.
    """
    shapes = plan.core_shapes()
    n = len(shapes)
    # Each summed product of k i.i.d. factors has variance prod(core_var) * rank_volume.
    rank_volume = math.prod(plan.ranks[1:-1]) if len(plan.ranks) > 2 else 1
    per_core_std = (target_std / math.sqrt(rank_volume)) ** (1.0 / n)
    return [rng.normal(0.0, per_core_std, size=s).astype(dtype) for s in shapes]


def init_tt_cores(plan: TensorShapePlan, rng: np.random.Generator,
                  dtype=np.float64) -> list[np.ndarray]:
    """Random TT cores of a linear weight: entries of std about
    1/sqrt(cols) (fan-in rule)."""
    return _gaussian_cores(plan, rng, 1.0 / math.sqrt(plan.cols), dtype)


def init_ttm_cores(plan: TensorShapePlan, rng: np.random.Generator,
                   dtype=np.float64) -> list[np.ndarray]:
    """Random TTM cores of an embedding table: entries of std about 0.02."""
    return _gaussian_cores(plan, rng, 0.02, dtype)


# ---------------------------------------------------------------------------
# The TT contraction schedule and the factorized matvec / lookup (hot path)


@dataclass(frozen=True)
class Stage:
    """One GEMM of the TT matvec.  Core ``core``, of shape ``core_shape`` =
    (q, mode, r), meets the running product, ``in_shape`` per input vector:
    a column stage computes ``acc (B*l, mode*r) @ core (q, mode*r)^T``, a row
    stage ``core (q*mode, r) @ acc (B, r, t)`` (2-D for the first, t = 1).
    Each stage's input is a view of the previous stage's output, so no path
    search or transposed copy runs.  ``mults`` counts multiplies per vector
    and ``terms`` the products each output value sums: mode*r for a column
    stage, r for a row stage.
    """

    core: int
    core_shape: tuple[int, int, int]
    in_shape: tuple[int, int]
    row: bool
    mults: int
    terms: int

    def _operands(self, acc, core):
        """(acc, core) as the matmul operands, and whether the product is batched."""
        q, mode, r = self.core_shape
        c = core.reshape(q * mode, r) if self.row else core.reshape(q, mode * r)
        if self.row and self.in_shape[1] > 1:
            return acc.reshape((-1,) + self.in_shape), c, True
        return acc.reshape(-1, c.shape[1]), c, False

    @property
    def out_size(self) -> int:
        """Values per input vector of the stage's output."""
        q, mode, _ = self.core_shape
        return q * mode * self.in_shape[1] if self.row else self.in_shape[0] * q

    def forward(self, acc: np.ndarray, core: np.ndarray, recycle: bool = False) -> np.ndarray:
        """The stage's output; with ``recycle``, into a recycled buffer
        (``buffers.take``) keyed by the values per input vector, as the
        layer's own arrays are."""
        a, c, batched = self._operands(acc, core)
        out = None
        if recycle:
            shape = (a.shape[0], c.shape[0], a.shape[2]) if batched else (a.shape[0], c.shape[0])
            out = buffers.take(shape, np.result_type(a, c), self.out_size)
        return np.matmul(c, a, out=out) if batched else np.matmul(a, c.T, out=out)

    def adjoint(self, acc: np.ndarray, core: np.ndarray, g: np.ndarray):
        """Gradients of ``sum(g * forward(acc, core))`` with respect to acc and
        core, in their shapes; ``g`` may have any shape of the output's size.
        The gradient of ``acc`` goes into a recycled buffer keyed as
        ``forward``'s output is."""
        a, c, batched = self._operands(acc, core)
        g_acc = buffers.take(a.shape, np.result_type(g, c), math.prod(self.in_shape))
        if batched:
            g = g.reshape(a.shape[0], c.shape[0], a.shape[2])
            g_acc, g_core = np.matmul(c.T, g, out=g_acc), (g @ a.transpose(0, 2, 1)).sum(axis=0)
        else:
            g = g.reshape(a.shape[0], c.shape[0])
            g_acc, g_core = np.matmul(g, c, out=g_acc), g.T @ a
        return g_acc.reshape(acc.shape), g_core.reshape(core.shape)


@lru_cache(maxsize=64)
def tt_stages(plan: TensorShapePlan) -> tuple[Stage, ...]:
    """The contraction order of every TT matvec (see the module docstring).

    The padded input is split into its column modes and the column cores run
    from the last one down to core d, each consuming one mode and leaving a
    (remaining modes x rank) intermediate; the row cores then run from core
    d-1 down to core 0, each emitting one output mode.  Built once per plan.
    """
    if plan.format is not TTFormat.TT:
        raise StructureError("plan is not TT format")
    d = plan.order
    shapes = plan.core_shapes()
    stages = []
    length = plan.padded_cols
    for k in range(2 * d - 1, d - 1, -1):
        q, n, r = shapes[k]
        length //= n
        stages.append(Stage(k, shapes[k], (length, n * r), False, length * n * r * q, n * r))
    tail = 1
    for k in range(d - 1, -1, -1):
        q, m, r = shapes[k]
        stages.append(Stage(k, shapes[k], (r, tail), True, r * tail * q * m, r))
        tail *= m
    return tuple(stages)


def tt_chain(x2d: np.ndarray, cores: Sequence[np.ndarray], plan: TensorShapePlan,
             post=None, recycle: bool = False) -> np.ndarray:
    """Batched y = W x in plain numpy along ``tt_stages(plan)``.

    Every stage is one ``Stage.forward`` matmul, into a recycled buffer with
    ``recycle`` (a recorded training forward).  ``post(i, out)`` sees stage
    i's output and returns what the next stage consumes: integer inference
    requantizes it, calibration folds its peak.  Returns the (batch, rows)
    result.  Each stage's input is dropped once the stage ran, ``x2d`` too
    when the caller passed it as a temporary.
    """
    batch = x2d.shape[0]
    pad = plan.padded_cols - plan.cols
    acc = np.pad(x2d, ((0, 0), (0, pad))) if pad else x2d
    del x2d
    for i, stage in enumerate(tt_stages(plan)):
        out = stage.forward(acc, cores[stage.core], recycle)
        acc = post(i, out) if post else out
    return acc.reshape(batch, plan.padded_rows)[:, : plan.rows]


def tt_chain_vjp(g: np.ndarray, x2d: np.ndarray, cores: Sequence[np.ndarray],
                 plan: TensorShapePlan) -> tuple:
    """The gradients ``(x2d, *cores)`` of ``sum(g * tt_chain(x2d, cores,
    plan))``, for ``g`` the gradient of the (batch, rows) result.

    Nothing is kept from the forward: the stage forwards rerun on ``x2d`` and
    the cores to rebuild every stage's input, the same GEMMs on the same
    operands as ``tt_chain``'s, so bit for bit its stage inputs.  Then each
    stage's ``adjoint`` runs in reverse, and each stage input is dropped
    once its adjoint ran.
    The last stage's forward does not rerun: no stage reads its output."""
    stages = tt_stages(plan)
    pad = plan.padded_cols - plan.cols
    acc = np.pad(x2d, ((0, 0), (0, pad))) if pad else x2d
    inputs = [acc]
    for stage in stages[:-1]:
        acc = stage.forward(acc, cores[stage.core], True)
        inputs.append(acc)
    del acc
    pad = plan.padded_rows - plan.rows
    g = np.pad(g, ((0, 0), (0, pad))) if pad else g
    grads = [None] * len(cores)
    for stage in reversed(stages):
        g, grads[stage.core] = stage.adjoint(inputs.pop(), cores[stage.core], g)
    return (g[:, : plan.cols], *grads)


def tt_matvec_mult_count(plan: TensorShapePlan) -> int:
    """Analytic multiply count of one TT matvec."""
    return sum(s.mults for s in tt_stages(plan))


def row_digits(row, row_factors: Sequence[int]) -> tuple:
    """Mixed-radix digits of a padded row index (or of an integer array of
    them, digit by digit), most significant first."""
    digits = []
    for base in reversed(row_factors):
        digits.append(row % base)
        row = row // base
    return tuple(reversed(digits))


def segment_sum(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """``out[i]``, for i in [0, size), is the sum along axis 0 of the
    ``values[j]`` with ``index[j] == i``.  One stable sort and one
    ``np.add.reduceat`` over the grouped slices: ``np.add.at`` takes a slow
    unbuffered path on multi-axis slices."""
    order = np.argsort(index, kind="stable")
    keys, starts = np.unique(index[order], return_index=True)
    out = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
    out[keys] = np.add.reduceat(values[order], starts, axis=0)
    return out


# ---------------------------------------------------------------------------
# The TTM lookup schedule: shared prefix and suffix tables


@dataclass(frozen=True)
class LookupStage:
    """One step of the TTM lookup: a ``(rows, inner) @ (inner, cols)`` product
    per table entry, ``shape`` = (rows, inner, cols).

    A ``prefix`` stage multiplies the running (columns so far, rank) product
    by the (rank, mode * rank') slice of core ``core`` at the entry's digit; a
    ``suffix`` stage multiplies the (rank * mode, rank') slice by the running
    (rank', columns so far) product.  Each side starts from a 1 x 1 one, so
    its first stage is the slice itself.  The ``join`` (``core`` None)
    multiplies an id's prefix table by its suffix table.
    """

    side: str
    core: int | None
    shape: tuple[int, int, int]

    @property
    def mults(self) -> int:
        return math.prod(self.shape)


@lru_cache(maxsize=64)
def ttm_stages(plan: TensorShapePlan) -> tuple[LookupStage, ...]:
    """The contraction order of every TTM row lookup.

    The cores split at h = ceil(d/2).  Cores 0..h-1 contract, once per
    distinct prefix (the top h row digits), into a (prod(n_0..n_{h-1}), r_h)
    table; cores d-1 down to h contract, once per distinct suffix, into an
    (r_h, prod(n_h..n_{d-1})) table; each distinct id is then one join of its
    two tables, whose row-major product is the padded row (Hrinchuk et al.
    2020, "Tensorized Embedding Layers").  Built once per plan.
    """
    if plan.format is not TTFormat.TTM:
        raise StructureError("plan is not TTM format")
    d, h = plan.order, (plan.order + 1) // 2
    shapes = plan.core_shapes()
    stages = []
    width = 1
    for k in range(h):
        r, _, n, r_next = shapes[k]
        stages.append(LookupStage("prefix", k, (width, r, n * r_next)))
        width *= n
    tail = 1
    for k in range(d - 1, h - 1, -1):
        r, _, n, r_next = shapes[k]
        stages.append(LookupStage("suffix", k, (r * n, r_next, tail)))
        tail *= n
    stages.append(LookupStage("join", None, (width, plan.ranks[h], tail)))
    return tuple(stages)


def _lookup_index(ids: np.ndarray, plan: TensorShapePlan):
    """Distinct ids, prefixes and suffixes, each with the map from its
    consumers (ids to distinct ids, distinct ids to prefixes and suffixes),
    and the digits of every prefix and suffix, one array per core."""
    h = (plan.order + 1) // 2
    tail = math.prod(plan.row_factors[h:])
    uniq, id_of = np.unique(np.asarray(ids).reshape(-1), return_inverse=True)
    prefixes, p_of = np.unique(uniq // tail, return_inverse=True)
    suffixes, s_of = np.unique(uniq % tail, return_inverse=True)
    digits = (row_digits(prefixes, plan.row_factors[:h])
              + row_digits(suffixes, plan.row_factors[h:]))
    entries = {"prefix": len(prefixes), "suffix": len(suffixes), "join": len(uniq)}
    return entries, id_of, p_of, s_of, digits


def _groups(index: np.ndarray):
    """(value, positions) for every distinct value of ``index``, in order."""
    order = np.argsort(index, kind="stable")
    keys, starts = np.unique(index[order], return_index=True)
    return zip(keys, np.split(order, starts[1:]))


def _sum_by_digit(x: np.ndarray, y: np.ndarray, digits: np.ndarray, modes: int) -> np.ndarray:
    """``out[i]``, for i in [0, modes), is the sum of ``x[e]^T @ y[e]`` over
    the entries e whose digit is i: one GEMM per digit over its entries
    stacked, so the sum runs inside the GEMM."""
    out = np.zeros((modes, x.shape[2], y.shape[2]), dtype=np.result_type(x, y))
    for i, group in _groups(digits):
        out[i] = x[group].reshape(-1, x.shape[2]).T @ y[group].reshape(-1, y.shape[2])
    return out


def ttm_lookup_vjp(ids: np.ndarray, cores: Sequence[np.ndarray], plan: TensorShapePlan):
    """Rows ``ids`` (any shape, flattened) of the TTM matrix along
    ``ttm_stages(plan)``, as (len(ids), cols), plus the pullback from their
    gradient to the gradients of every core.

    A side stage is one batched GEMM over its table entries.  The join is one
    GEMM per distinct suffix, over the prefix tables of its ids stacked.
    Repeated ids are looked up once and gathered.  The pullback runs the
    stages in reverse: it sums over repeated ids with ``segment_sum``, and
    over the ids sharing a prefix or suffix and the entries sharing a core
    slice inside GEMMs.  It keeps the tables each stage read, not the cores:
    ``pullback(g, cores)`` takes them again (arrays equal to the forward's,
    bit for bit) and gathers the core slices from them as the forward did.
    """
    entries, id_of, p_of, s_of, digits = _lookup_index(ids, plan)
    stages = ttm_stages(plan)
    dtype = np.result_type(*cores)
    tables = {side: np.ones((entries[side], 1, 1), dtype) for side in ("prefix", "suffix")}

    def operands(st, table, cores):
        """(a, b) of stage ``st``'s ``a @ b`` on the running ``table``; the
        digit's (r, n, r') slice of each entry is gathered contiguous."""
        rows, inner, cols = st.shape
        sl = np.moveaxis(cores[st.core], 1, 0)[digits[st.core]]
        a, b = (table, sl) if st.side == "prefix" else (sl, table)
        return a.reshape(-1, rows, inner), b.reshape(-1, inner, cols)

    kept = []  # the running table each side stage read
    for st in stages[:-1]:
        kept.append(tables[st.side])
        a, b = operands(st, tables[st.side], cores)
        tables[st.side] = a @ b
    width, rank, tail = stages[-1].shape
    prefix = tables["prefix"].reshape(-1, width, rank)
    suffix = tables["suffix"].reshape(-1, rank, tail)
    by_suffix = list(_groups(s_of))
    joined = np.empty((entries["join"], width, tail), dtype)
    for s, group in by_suffix:
        joined[group] = (prefix[p_of[group]].reshape(-1, rank) @ suffix[s]).reshape(-1, width, tail)
    out = joined.reshape(entries["join"], plan.padded_cols)[:, : plan.cols][id_of]

    def pullback(g: np.ndarray, cores: Sequence[np.ndarray]) -> tuple:
        pad = plan.padded_cols - plan.cols
        g = np.pad(g, ((0, 0), (0, pad))) if pad else g
        g = segment_sum(g, id_of, entries["join"]).reshape(-1, width, tail)
        grads = {"prefix": np.zeros_like(prefix), "suffix": np.empty_like(suffix)}
        for s, group in by_suffix:
            g_ids = g[group].reshape(-1, tail)
            grads["suffix"][s] = prefix[p_of[group]].reshape(-1, rank).T @ g_ids
            # the ids of one suffix have distinct prefixes: each += lands once
            grads["prefix"][p_of[group]] += (g_ids @ suffix[s].T).reshape(-1, width, rank)
        core_grads = [None] * len(cores)
        for st, table in zip(reversed(stages[:-1]), reversed(kept)):
            a, b = operands(st, table, cores)  # the forward's gather again
            g = grads[st.side].reshape(a.shape[0], a.shape[1], b.shape[2])
            r, m, n, r_next = cores[st.core].shape
            if st.side == "prefix":  # acc @ slice
                grads["prefix"] = g @ b.transpose(0, 2, 1)
                g_slices = _sum_by_digit(a, g, digits[st.core], m)
            else:  # slice @ acc
                grads["suffix"] = a.transpose(0, 2, 1) @ g
                g_slices = _sum_by_digit(b.transpose(0, 2, 1), g.transpose(0, 2, 1),
                                         digits[st.core], m).transpose(0, 2, 1)
            core_grads[st.core] = np.ascontiguousarray(
                np.moveaxis(g_slices.reshape(m, r, n, r_next), 0, 1))
        return tuple(core_grads)

    return out, pullback


def ttm_lookup_mult_count(plan: TensorShapePlan) -> int:
    """Multiplies of one id looked up alone along ``ttm_stages(plan)``.

    In a lookup, prefix stages run once per distinct prefix, suffix stages
    once per distinct suffix and the join once per distinct id, so a lookup
    of n ids costs at most n times this count, and less when ids share a
    prefix, a suffix or a value.  The TTM ``flops_estimate`` takes this upper
    bound per id.  The first stage of each side, a core slice times one, is
    counted.
    """
    return sum(st.mults for st in ttm_stages(plan))
