"""Quantization-aware tensor-compressed transformer for joint intent + slot tasks.

The compressed model holds a TTM embedding table, TT linear projections inside
every encoder block, and two classifier heads whose first linear layer is
TT-compressed at full precision with a dense final projection.  Layer norms,
biases, softmax, residual adds, and position embeddings stay full precision.

Three forward modes:

* ``train``     - fake-quantized surrogates (also used for evaluation),
* ``infer_fp``  - raw master parameters, no quantization,
* ``infer_int`` - integer core contractions with per-stage INT8 requantization
                  by static scales read from the stage outputs of ``train``
                  forwards over calibration batches (``calibrate_int``).
                  The cores are quantized once per weight state
                  (``CoreLayer.frozen_cores``), so a forward quantizes only
                  its input.  The integer codes are contracted as exact BLAS
                  GEMMs: a stage summing K products of input codes
                  (|code| <= 128) and core codes of peak |code| w is bounded
                  by 128 * w * K.  In a float32 layer with that bound below
                  2**24 for every stage, every partial sum is an exact
                  float32 integer and the codes ride in float32; otherwise
                  in float64, whose exact-integer range the 2**31
                  accumulator check keeps every sum inside.  A layer whose
                  codes ride in float32 rescales in float32: each stage is
                  requantized from the float32 product of its sums and
                  multiplier (``quant.requantize``), and the last stage's
                  scale and bias are float32 products and sums.  A code
                  then differs from the float64 rule's by one at most,
                  where the float64 ratio lies within ~2**-23 * |ratio| of
                  a half.  Float64 codes rescale in float64.

Integer-path error bound: each of the 2d-1 intermediate requantizations adds
uniform noise of half a step of that stage's static scale (max-abs / 127).
Relative to the stage RMS this is about (max/rms)/(127*sqrt(12)) ~ 0.8e-2 for
Gaussian-like intermediates, and the stages add in quadrature, so a d=2 layer
lands near 1.4e-2 (float32 stage sums move a float32 model's scales by only
~(K+2)*2**-24).  The documented layer-level bound is 2.5e-2 (relative L2
against the training-mode surrogate) and the model-level bound on logits,
``INT_LOGIT_BOUND``, is 0.2 normalized by the max-abs logit.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from . import autodiff as ad
from . import quant as q
from .accounting import CostReport, FLOPS_CONVENTION, flops_estimate, packed_code_bytes
from .tt import (
    TensorShapePlan,
    TTFormat,
    init_tt_cores,
    init_ttm_cores,
    plan_factorization,
    tt_chain,
    tt_stages,
)

MODES = ("train", "infer_fp", "infer_int")
INT_LOGIT_BOUND = 0.2  # the integer path's documented bound on logits (module docstring)
MASK_NEG = -1e9


class ModeError(ValueError):
    """Unsupported forward mode for this layer state."""


@dataclass
class PlanSpec:
    """Recipe for building one layer group's factorization plan."""

    d: int = 2
    rank: int = 8
    fmt: TTFormat = TTFormat.TT
    row_factors: tuple[int, ...] | None = None
    col_factors: tuple[int, ...] | None = None
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.d < 1 or self.rank < 1:
            raise ValueError(f"plan spec d and rank must be >= 1, "
                             f"got d={self.d}, rank={self.rank}")
        for key in ("row_factors", "col_factors", "ranks"):
            values = getattr(self, key)
            if values is not None and any(v < 1 for v in values):
                raise ValueError(f"plan spec {key} must all be >= 1, got {list(values)}")

    def resolve(self, rows: int, cols: int) -> TensorShapePlan:
        return plan_factorization(
            rows, cols, self.d, self.rank, self.fmt,
            row_factors=self.row_factors, col_factors=self.col_factors, ranks=self.ranks,
        )

    def transposed(self) -> "PlanSpec":
        return replace(self, row_factors=self.col_factors, col_factors=self.row_factors)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "rank": self.rank,
            "format": self.fmt.value,
            "row_factors": list(self.row_factors) if self.row_factors else None,
            "col_factors": list(self.col_factors) if self.col_factors else None,
            "ranks": list(self.ranks) if self.ranks else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PlanSpec":
        return cls(
            d=d.get("d", 2),
            rank=d.get("rank", 8),
            fmt=TTFormat(d.get("format", "tt")),
            row_factors=tuple(d["row_factors"]) if d.get("row_factors") else None,
            col_factors=tuple(d["col_factors"]) if d.get("col_factors") else None,
            ranks=tuple(d["ranks"]) if d.get("ranks") else None,
        )


# each layer group's plan spec and the one format its layers take
SPEC_FORMATS = {"emb_spec": TTFormat.TTM, "attn_spec": TTFormat.TT, "ffn_spec": TTFormat.TT,
                "head_spec": TTFormat.TT}


@dataclass
class ModelConfig:
    vocab_size: int
    hidden: int
    ffn_dim: int
    num_layers: int
    num_heads: int
    max_seq: int
    num_intents: int
    num_slots: int  # slot label count including the outside label
    compress: bool = True
    weight_bits: int = 32
    act_bits: int = 32
    emb_spec: PlanSpec = field(default_factory=lambda: PlanSpec(d=2, rank=8, fmt=TTFormat.TTM))
    attn_spec: PlanSpec = field(default_factory=lambda: PlanSpec(d=2, rank=8))
    ffn_spec: PlanSpec = field(default_factory=lambda: PlanSpec(d=2, rank=8))
    head_spec: PlanSpec = field(default_factory=lambda: PlanSpec(d=2, rank=8))
    dtype: str = "float32"

    def __post_init__(self):
        for key in ("vocab_size", "hidden", "ffn_dim", "num_heads", "max_seq", "num_intents",
                    "num_slots"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {self.num_layers}")
        if self.hidden % self.num_heads:
            raise ValueError("hidden dim must divide evenly over heads")
        if self.weight_bits not in q.ALLOWED_BITS or self.act_bits not in q.ALLOWED_BITS:
            raise ValueError(f"bits must be in {q.ALLOWED_BITS}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        for key, need in SPEC_FORMATS.items():
            fmt = TTFormat(getattr(self, key).fmt)
            if fmt is not need:
                raise ValueError(f"{key} format must be {need.value!r}, got {fmt.value!r}")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "vocab_size", "hidden", "ffn_dim", "num_layers", "num_heads", "max_seq",
            "num_intents", "num_slots", "compress", "weight_bits", "act_bits", "dtype")}
        for key in SPEC_FORMATS:
            d[key] = getattr(self, key).to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        kw = dict(d)
        for key in SPEC_FORMATS:
            if key in kw:
                kw[key] = PlanSpec.from_dict(kw[key])
        return cls(**kw)


@dataclass
class ForwardTrace:
    """Per-layer outputs used by distillation and evaluation."""

    emb_out: ad.Tensor
    encoder_outs: list[ad.Tensor]
    attn_probs: list[ad.Tensor]
    intent_logits: ad.Tensor
    slot_logits: ad.Tensor
    mask: np.ndarray


# ---------------------------------------------------------------------------
# Differentiable TT chains


def tt_chain_apply(x2d: ad.Tensor, cores: list[ad.Tensor], plan: TensorShapePlan,
                   bias: ad.Tensor | None = None, act=None, weight=None) -> ad.Tensor:
    """Batched y = W x + bias for TT cores, with the optional input and weight
    quantizers ``(scale, bits)``: one ``ad.tt_linear`` node."""
    return ad.tt_linear(x2d, cores, plan, bias, act, weight)


# ---------------------------------------------------------------------------
# Layers


def stored_bits(layer, param: ad.Tensor) -> int:
    """Storage width of one of ``layer``'s parameters: a quantized layer's
    cores are kept as ``layer.bits``-wide codes, everything else as FP32."""
    if isinstance(layer, CoreLayer) and any(param is c for c in layer.cores):
        return layer.bits
    return q.FULL_PRECISION


@dataclass(frozen=True)
class FrozenCores:
    """A quantized layer's cores at one weight state."""

    sources: tuple  # a weak reference to each core's .data array
    scale: float
    codes: list[np.ndarray]  # integer codes, in the dtype of the layer's integer GEMMs
    value_dtype: type  # the cores' dtype
    overflow: int | None = None  # the first integer stage whose sums may pass 2**31

    @cached_property
    def values(self) -> list[np.ndarray]:
        """scale * codes in the cores' dtype (``quant.dequantize``), bit for
        bit what the fake quantizer gives."""
        return [q.dequantize(c, self.scale, self.value_dtype) for c in self.codes]


class CoreLayer:
    """A layer whose weight is a plan's TT/TTM cores behind one learnable
    weight scale, shared by every core, when ``bits`` is below 32.

    The parameter order, cores, then ``bias`` and the scales where a layer
    has them, is the checkpoint's record order."""

    name: str
    bias: ad.Tensor | None = None
    act_scale: ad.Tensor | None = None  # the input quantizer's scale
    _frozen: FrozenCores | None = None

    def __init__(self, cores: list[np.ndarray], plan: TensorShapePlan, bits: int, name: str):
        self.name = name
        self.bits = bits
        self.set_cores(cores, plan)
        self.weight_scale = None
        if bits != q.FULL_PRECISION:
            flat = np.concatenate([c.data.ravel() for c in self.cores])
            self.weight_scale = ad.Parameter(np.asarray(q.init_scale(flat, bits), dtype=flat.dtype),
                                             name=f"{name}.wscale")

    def params(self):
        named = self.cores + [self.bias] + self.scale_params()
        return [(p.name, p) for p in named if p is not None]

    def scale_params(self):
        return [p for p in (self.weight_scale, self.act_scale) if p is not None]

    def weight_quantizer(self, mode: str):
        """``(scale, bits)`` of the fake quantizer a ``mode`` forward applies to
        the cores, or None: ``infer_fp`` and a 32-bit layer read the masters."""
        if mode == "infer_fp" or self.bits == q.FULL_PRECISION:
            return None
        return self.weight_scale, self.bits

    def set_cores(self, cores: list[np.ndarray], plan: TensorShapePlan):
        """Adopt ``plan`` and ``cores`` as fresh parameters named after the layer."""
        self.plan = plan
        self.cores = [ad.Parameter(c, name=f"{self.name}.core{i}") for i, c in enumerate(cores)]

    def frozen_cores(self) -> FrozenCores:
        """The cores' codes (and their dequantized values) at the current
        master cores and weight scale, quantized once per weight state
        (Jacob et al. 2018: inference quantizes only its activations).

        Every writer of a core (``adam_step``, ``checkpoint_load``,
        ``set_cores``) assigns a new ``.data`` array object (``adam_step`` a
        fresh view of the storage it updated in place), so the cores' arrays
        and the scale's value name the weight state.  The cache keeps weak
        references to the arrays: a freed array's id may be reused, but its
        reference then returns None, and old codes keep no old cores alive.
        """
        if self.bits == q.FULL_PRECISION:
            raise ModeError(f"{self.name}: full-precision cores have no integer codes")
        scale = float(self.weight_scale.data)
        frozen = self._frozen
        if (frozen is None or frozen.scale != scale or len(frozen.sources) != len(self.cores)
                or any(ref() is not c.data for ref, c in zip(frozen.sources, self.cores))):
            codes = [q.quantize_blocks(c.data, scale, self.bits, np.int8)[0] for c in self.cores]
            dtype, overflow = self._code_dtype(codes)
            frozen = self._frozen = FrozenCores(
                tuple(weakref.ref(c.data) for c in self.cores), scale,
                [c.astype(dtype, copy=False) for c in codes], self.cores[0].data.dtype, overflow)
        return frozen

    def _code_dtype(self, codes: list[np.ndarray]) -> tuple[type, int | None]:
        """The dtype the frozen codes are kept in, int8 unless the layer
        contracts them, and the first stage whose sums may overflow."""
        return np.int8, None


class TTLinearLayer(CoreLayer):
    """TT-compressed linear map with one shared weight scale and an INT8
    input quantizer (when ``act_bits`` < 32).  A recorded ``train`` or
    ``infer_fp`` forward is one ``ad.tt_linear`` node (through
    ``tt_chain_apply``): input quantizer, weight quantizer, TT product and
    bias together; a ``no_grad`` one is ``_forward_float``."""

    def __init__(self, plan: TensorShapePlan, bits: int, act_bits: int,
                 rng: np.random.Generator, dtype=np.float32, name: str = "tt_linear"):
        super().__init__(init_tt_cores(plan, rng, dtype=dtype), plan, bits, name)
        self.act_bits = act_bits
        self.bias = ad.Parameter(np.zeros(plan.rows, dtype=dtype), name=f"{name}.bias")
        self.act_scale_ready = act_bits == q.FULL_PRECISION
        if act_bits != q.FULL_PRECISION:
            self.act_scale = ad.Parameter(np.asarray(1.0, dtype=dtype), name=f"{name}.ascale")
        self.stage_scales: list[float] | None = None
        # running per-stage max |out| while TransformerModel.calibrate_int runs
        self._calib_peaks: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.plan.cols

    @property
    def out_dim(self) -> int:
        return self.plan.rows

    def forward(self, x2d: ad.Tensor, mode: str = "train") -> ad.Tensor:
        """The first ``train`` forward with an input quantizer and rows sets
        its scale from them.

        A ``no_grad`` forward handed an input that nothing else holds
        (``Tensor.spare``: the GELU output that feeds ``ffn_down``, the
        attention context that feeds the o-projection) writes the input
        quantizer's output over it: the integer codes of ``_forward_int``,
        or the fake-quant values of ``_forward_float``."""
        overwrite = x2d.spare()
        if x2d.shape[-1] != self.plan.cols:
            raise ValueError(f"{self.name}: expected input dim {self.plan.cols}, got {x2d.shape[-1]}")
        if mode == "infer_int":
            return ad.Tensor(self._forward_int(x2d.data, overwrite))
        if mode not in ("train", "infer_fp"):
            raise ModeError(f"unknown mode {mode!r}")
        act = None
        if mode == "train" and self.act_bits != q.FULL_PRECISION:
            if not self.act_scale_ready and len(x2d.data):
                self.act_scale.data = np.asarray(q.init_scale(x2d.data, self.act_bits),
                                                 dtype=self.act_scale.data.dtype)
                self.act_scale_ready = True
            act = (self.act_scale, self.act_bits)
        weight = self.weight_quantizer(mode)
        if ad.grad_enabled():
            return tt_chain_apply(x2d, self.cores, self.plan, self.bias, act, weight)
        return ad.Tensor(self._forward_float(x2d.data, act, weight, overwrite))

    def _forward_float(self, x2d: np.ndarray, act, weight, overwrite: bool) -> np.ndarray:
        """The ``ad.tt_linear`` node's output bit for bit, in plain numpy: the
        input quantizer ``act``'s values (written over ``x2d`` when
        ``overwrite``), the cores' values from ``frozen_cores`` under
        ``weight`` (quantized once per weight state) or else the masters,
        ``tt.tt_chain`` with ``_fold_peaks`` as its hook while
        ``_calib_peaks`` is set (calibration), then the bias."""
        x_in = [x2d]
        if act:
            x_in[0] = q.quantize_blocks(x2d, float(act[0].data), act[1], None, x2d.dtype,
                                        _alloc_over(x2d, overwrite))[1]
        cores = self.frozen_cores().values if weight else [c.data for c in self.cores]
        post = None if self._calib_peaks is None else self._fold_peaks
        # the quantized input goes to the chain as a temporary, freed after stage 0
        y, b = tt_chain(x_in.pop(), cores, self.plan, post), self.bias.data
        in_place = y.flags.c_contiguous and np.result_type(y, b) == y.dtype
        return np.add(y, b, out=y if in_place else None)

    def _fold_peaks(self, i, out):
        """Fold stage i's max |out| (no copy of ``out``), if it has rows, and
        return ``out`` itself."""
        if out.size:
            self._calib_peaks[i] = max(self._calib_peaks[i], np.maximum(out.max(), -out.min()))
        return out

    # -- integer inference -------------------------------------------------

    def _code_dtype(self, codes: list[np.ndarray]) -> tuple[type, int | None]:
        """The stage GEMM dtype, from the static bound 128 * peak|code| * K
        of each stage's sums of K = ``Stage.terms`` products of input codes
        (|code| <= 128) and core codes: float32 for float32 cores when every
        bound is below 2**24, so that every partial sum is an exact float32
        integer, else float64; and the first stage whose sums would overflow
        a 32-bit accumulator (a bound of 2**31 or more)."""
        worst, overflow = 0, None
        for i, stage in enumerate(tt_stages(self.plan)):
            core = codes[stage.core]
            peak_w = max(int(core.max()), -int(core.min()))  # no int8 abs: |-128| wraps
            bound = 128 * peak_w * stage.terms
            if bound >= 2 ** 31 and overflow is None:
                overflow = i
            worst = max(worst, bound)
        exact32 = worst < 2 ** 24 and self.cores[0].data.dtype == np.float32
        return np.float32 if exact32 else np.float64, overflow

    def set_stage_scales(self, peaks: np.ndarray):
        """Per-stage scales max|out| / 127 from each stage's calibration peak;
        the integer forward's cores are frozen here, not in that forward."""
        if not np.isfinite(peaks).all():
            raise ModeError(f"{self.name}: no calibration data reached this layer")
        self.frozen_cores()
        self.stage_scales = [max(float(p), 1e-12) / 127.0 for p in peaks]

    def _forward_int(self, x2d: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The integer TT walk of ``x2d``: its codes in the frozen stage
        dtype, written over ``x2d`` when ``overwrite`` and the dtypes match,
        each stage a GEMM requantized by its static scale
        (``quant.requantize``), then the last stage's scale and the bias."""
        if self.stage_scales is None:
            raise ModeError(f"{self.name}: calibrate_int must run before integer inference")
        if self.bits == q.FULL_PRECISION or self.act_bits == q.FULL_PRECISION:
            raise ModeError(f"{self.name}: integer inference needs quantized weights and inputs")
        # Codes ride in the frozen stage dtype so each stage is a BLAS GEMM
        # whose sums are exact integers in any order, as an int64 walk's.
        frozen = self.frozen_cores()
        if frozen.overflow is not None:  # the float walks read the values only
            raise q.KernelError(f"{self.name}: stage {frozen.overflow} exceeds the 32-bit "
                                f"accumulator bound")
        a_scale = float(self.act_scale.data)
        last = len(tt_stages(self.plan)) - 1
        in_scale = a_scale

        def requantize(i, out):
            nonlocal in_scale
            if i == last:
                return out
            real_scale = in_scale * frozen.scale
            in_scale = self.stage_scales[i]
            return q.requantize(out, real_scale / in_scale)

        # the input codes go to the chain as a temporary, freed after stage 0
        codes = tt_chain(q.quantize_blocks(x2d, a_scale, self.act_bits, frozen.codes[0].dtype,
                                           alloc=_alloc_over(x2d, overwrite))[0],
                         frozen.codes, self.plan, requantize)
        # the last stage's scale and bias, in place in the codes' dtype (a
        # float32 bias widens to float64 exactly), then one cast
        codes *= codes.dtype.type(in_scale * frozen.scale)
        codes += self.bias.data
        return codes.astype(x2d.dtype, copy=False)


def _alloc_over(x: np.ndarray, overwrite: bool):
    """``quant.quantize_blocks``' ``alloc``: with ``overwrite``, one that
    hands back ``x`` for an output of its shape and dtype, so the output is
    written over it; else ``np.empty``."""
    if not overwrite:
        return np.empty
    return lambda shape, dtype: (x if shape == x.shape and np.dtype(dtype) == x.dtype
                                 else np.empty(shape, dtype))


class DenseLinear:
    """Uncompressed full-precision linear layer (baseline and head tops)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float32, name: str = "dense"):
        self.name = name
        self.weight = ad.Parameter(
            rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(out_dim, in_dim)).astype(dtype),
            name=f"{name}.weight")
        self.bias = ad.Parameter(np.zeros(out_dim, dtype=dtype), name=f"{name}.bias")

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]

    def params(self):
        return [(self.weight.name, self.weight), (self.bias.name, self.bias)]

    def forward(self, x2d: ad.Tensor, mode: str = "train") -> ad.Tensor:
        if mode == "infer_int":
            raise ModeError(f"{self.name}: dense layer has no integer path")
        y = ad.matmul(x2d, ad.transpose(self.weight, (1, 0)))
        return ad.add(y, self.bias)


class TTMEmbedding(CoreLayer):
    """TTM-compressed embedding table.  A lookup is one ``ad.ttm_lookup`` node
    along ``tt.ttm_stages``: shared prefix and suffix tables, then one join
    per distinct id.  A quantized ``no_grad`` or ``infer_int`` lookup reads
    the frozen cores' values, bit for bit the weight quantizer's."""

    def __init__(self, plan: TensorShapePlan, bits: int, rng: np.random.Generator,
                 dtype=np.float32):
        super().__init__(init_ttm_cores(plan, rng, dtype=dtype), plan, bits, "embedding")

    def forward(self, ids: np.ndarray, mode: str = "train") -> ad.Tensor:
        if np.any(ids >= self.plan.rows) or np.any(ids < 0):
            raise IndexError(f"{self.name}: token id out of vocabulary range")
        quantizer = self.weight_quantizer(mode)
        if quantizer is not None and (mode == "infer_int" or not ad.grad_enabled()):
            return ad.ttm_lookup(ids, self.frozen_cores().values, self.plan)
        return ad.ttm_lookup(ids, self.cores, self.plan, quantizer)


class DenseEmbedding:
    def __init__(self, vocab: int, dim: int, rng: np.random.Generator, dtype=np.float32):
        self.name = "embedding"
        self.table = ad.Parameter(rng.normal(0.0, 0.02, size=(vocab, dim)).astype(dtype),
                                  name="embedding.table")

    @property
    def vocab(self):
        return self.table.shape[0]

    def params(self):
        return [(self.table.name, self.table)]

    def forward(self, ids: np.ndarray, mode: str = "train") -> ad.Tensor:
        if np.any(ids >= self.vocab) or np.any(ids < 0):
            raise IndexError(f"{self.name}: token id out of vocabulary range")
        return ad.take(self.table, np.asarray(ids).reshape(-1), axis=0)


class LayerNorm:
    def __init__(self, dim: int, dtype=np.float32, name: str = "ln"):
        self.name = name
        self.gamma = ad.Parameter(np.ones(dim, dtype=dtype), name=f"{name}.gamma")
        self.beta = ad.Parameter(np.zeros(dim, dtype=dtype), name=f"{name}.beta")

    def params(self):
        return [(self.gamma.name, self.gamma), (self.beta.name, self.beta)]

    def forward(self, x: ad.Tensor) -> ad.Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class ParamLeaf:
    """One bare parameter (the position table) as a leaf layer of its own."""

    def __init__(self, param: ad.Parameter):
        self.name = param.name
        self.param = param

    def params(self):
        return [(self.name, self.param)]


def encoder_linear_shapes(config: ModelConfig) -> list[tuple[str, int, int, PlanSpec]]:
    """(tag, rows, cols, spec) of an encoder's six linear maps, in sublayer order."""
    h, f, attn = config.hidden, config.ffn_dim, config.attn_spec
    return [("q", h, h, attn), ("k", h, h, attn), ("v", h, h, attn), ("o", h, h, attn),
            ("ffn_up", f, h, config.ffn_spec.transposed()), ("ffn_down", h, f, config.ffn_spec)]


class EncoderBlock:
    """Post-norm encoder: multi-head self-attention then position-wise FFN."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, name: str):
        self.name = name
        self.num_heads = config.num_heads
        self.hidden = config.hidden
        dtype = config.np_dtype

        def make_linear(tag, rows, cols, spec):
            if config.compress:
                plan = spec.resolve(rows, cols)
                return TTLinearLayer(plan, config.weight_bits, config.act_bits, rng,
                                     dtype=dtype, name=f"{name}.{tag}")
            return DenseLinear(cols, rows, rng, dtype=dtype, name=f"{name}.{tag}")

        (self.q_proj, self.k_proj, self.v_proj, self.o_proj, self.ffn_up,
         self.ffn_down) = [make_linear(*shape) for shape in encoder_linear_shapes(config)]
        self.ln_attn = LayerNorm(config.hidden, dtype, name=f"{name}.ln_attn")
        self.ln_ffn = LayerNorm(config.hidden, dtype, name=f"{name}.ln_ffn")

    def sublayers(self):
        return [self.q_proj, self.k_proj, self.v_proj, self.o_proj, self.ffn_up, self.ffn_down]

    def layers(self):
        """Leaf layers in parameter order: the six linears, then both norms."""
        return self.sublayers() + [self.ln_attn, self.ln_ffn]

    def forward(self, x: ad.Tensor, mask: np.ndarray, rows: np.ndarray, mode: str):
        """x: (N, hidden), the real tokens of mask (batch, seq) of {0,1},
        packed: row j is position ``rows[j]`` of the flattened batch*seq.

        Attention alone mixes positions, so only it sees the (batch, seq)
        layout: q, k and v are scattered into zeros (a padded key is masked
        out anyway) and the context's real rows gathered back.  Returns
        (packed hidden states, attention probabilities (batch, heads, seq, seq)).
        """
        b, s = mask.shape
        h = self.hidden
        dh = h // self.num_heads

        def split_heads(t):
            t = ad.reshape(ad.scatter_rows(t, rows, b * s), (b, s, self.num_heads, dh))
            return ad.transpose(t, (0, 2, 1, 3))

        def context(attn, v):
            t = ad.transpose(ad.matmul(attn, split_heads(v)), (0, 2, 1, 3))
            return ad.gather_rows(ad.reshape(t, (b * s, h)), rows)

        # Under no_grad an activation lives only while a later op reads it:
        # the heads, the scores and the context are gone before the
        # o-projection's output, and each is before the FFN.  The context,
        # the FFN's up-projection and its GELU are handed to their readers
        # as temporaries, which those may overwrite (``Tensor.spare``).  A
        # recorded graph keeps what its backward reads.
        scores = ad.matmul(split_heads(self.q_proj.forward(x, mode)),
                           ad.transpose(split_heads(self.k_proj.forward(x, mode)), (0, 1, 3, 2)))
        bias = ((1.0 - mask) * MASK_NEG).reshape(b, 1, 1, s)
        scores = ad.add(ad.scale(scores, 1.0 / math.sqrt(dh)),
                        ad.Tensor(bias.astype(scores.data.dtype)))
        attn = ad.softmax(scores, axis=-1)
        del scores
        attn_out = self.o_proj.forward(context(attn, self.v_proj.forward(x, mode)), mode)
        x = self.ln_attn.forward(ad.add(x, attn_out))
        del attn_out
        ffn = self.ffn_down.forward(ad.gelu(self.ffn_up.forward(x, mode)), mode)
        return self.ln_ffn.forward(ad.add(x, ffn)), attn


class ClassifierHead:
    """Two-linear head: TT-compressed bottom, dense top, full precision in
    every mode (both layers' ``train`` forward)."""

    def __init__(self, config: ModelConfig, out_classes: int, rng: np.random.Generator, name: str):
        self.name = name
        dtype = config.np_dtype
        h = config.hidden
        if config.compress:
            plan = config.head_spec.resolve(h, h)
            self.first = TTLinearLayer(plan, q.FULL_PRECISION, q.FULL_PRECISION, rng,
                                       dtype=dtype, name=f"{name}.first")
        else:
            self.first = DenseLinear(h, h, rng, dtype=dtype, name=f"{name}.first")
        self.top = DenseLinear(h, out_classes, rng, dtype=dtype, name=f"{name}.top")

    def layers(self):
        return [self.first, self.top]

    def forward(self, x2d: ad.Tensor) -> ad.Tensor:
        return self.top.forward(ad.tanh(self.first.forward(x2d)))


class TransformerModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator | int):
        if isinstance(rng, int):
            rng = np.random.default_rng(rng)
        self.config = config
        dtype = config.np_dtype
        if config.compress:
            emb_plan = config.emb_spec.resolve(config.vocab_size, config.hidden)
            self.embedding = TTMEmbedding(emb_plan, config.weight_bits, rng, dtype=dtype)
        else:
            self.embedding = DenseEmbedding(config.vocab_size, config.hidden, rng, dtype=dtype)
        self.pos_emb = ad.Parameter(
            rng.normal(0.0, 0.02, size=(config.max_seq, config.hidden)).astype(dtype),
            name="pos_emb")
        self.ln_emb = LayerNorm(config.hidden, dtype, name="ln_emb")
        self.encoders = [EncoderBlock(config, rng, name=f"encoder{i}")
                         for i in range(config.num_layers)]
        self.intent_head = ClassifierHead(config, config.num_intents, rng, "intent_head")
        self.slot_head = ClassifierHead(config, config.num_slots, rng, "slot_head")

    def layers(self) -> list:
        """Every leaf layer, in parameter order.  The parameter list, the
        checkpoint records and size accounting all walk this one list."""
        out = [self.embedding, ParamLeaf(self.pos_emb), self.ln_emb]
        for block in self.encoders + [self.intent_head, self.slot_head]:
            out.extend(block.layers())
        return out

    def params(self) -> list[tuple[str, ad.Tensor]]:
        return [named for layer in self.layers() for named in layer.params()]

    def scale_params(self) -> list[ad.Tensor]:
        return [p for layer in self.layers() if isinstance(layer, CoreLayer)
                for p in layer.scale_params()]

    def tt_layers(self) -> list[TTLinearLayer]:
        out = []
        for enc in self.encoders:
            out.extend(s for s in enc.sublayers() if isinstance(s, TTLinearLayer))
        return out

    def forward(self, ids: np.ndarray, mask: np.ndarray | None = None,
                mode: str = "train") -> ForwardTrace:
        """Every token-wise layer runs on the N real tokens of ``mask``,
        packed as (N, ·) rows; only attention sees the (batch, seq) layout.
        The trace's embedding, encoder and slot outputs are (batch, seq, ·)
        with exact zeros at padded positions."""
        if mode not in MODES:
            raise ModeError(f"unknown mode {mode!r}")
        ids = np.asarray(ids)
        b, s = ids.shape
        h = self.config.hidden
        if s > self.config.max_seq:
            raise ValueError(f"sequence length {s} exceeds max {self.config.max_seq}")
        if mask is None:
            mask = np.ones((b, s), dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)
        rows = np.flatnonzero(mask.reshape(-1) > 0)

        def padded(t):
            return ad.reshape(ad.scatter_rows(t, rows, b * s), (b, s, t.shape[-1]))

        emb = self.embedding.forward(ids.reshape(-1)[rows], mode)
        # The position rows are rows % s of the table broadcast over the
        # batch, so its gradient sums over the batch axis (no scatter-add).
        pos = ad.slice_axis(self.pos_emb, 0, 0, s)
        pos = ad.add(pos, ad.Tensor(np.zeros((b, 1, 1), dtype=pos.data.dtype)))
        x = self.ln_emb.forward(ad.add(emb, ad.gather_rows(ad.reshape(pos, (b * s, h)), rows)))
        del emb, pos  # read by no later op
        emb_out = padded(x)
        outs, attns = [], []
        for enc in self.encoders:
            x, attn = enc.forward(x, mask, rows, mode)
            outs.append(padded(x))
            attns.append(attn)
        pooled = _masked_mean(outs[-1] if outs else emb_out, mask)
        intent_logits = self.intent_head.forward(pooled)
        slot_logits = padded(self.slot_head.forward(x))
        return ForwardTrace(emb_out=emb_out, encoder_outs=outs, attn_probs=attns,
                            intent_logits=intent_logits, slot_logits=slot_logits, mask=mask)

    def calibrate_int(self, batches: Iterable[tuple[np.ndarray, np.ndarray]]):
        """Run ``no_grad`` surrogate forwards over calibration batches.  In
        them each encoder TT layer's ``_forward_float`` folds its chain's
        stage outputs into running per-stage max-abs peaks, from which the
        layer afterwards derives its static requantization scales.  Those
        forwards read the frozen cores of every TT layer and of a quantized
        TTM embedding, so the first integer forward quantizes only
        activations."""
        layers = self.tt_layers()
        for layer in layers:
            layer._calib_peaks = np.full(len(tt_stages(layer.plan)), -np.inf)
        try:
            with ad.no_grad():
                for ids, mask in batches:
                    self.forward(ids, mask, mode="train")
            for layer in layers:
                layer.set_stage_scales(layer._calib_peaks)
        finally:
            for layer in layers:
                layer._calib_peaks = None


def _masked_mean(x: ad.Tensor, mask: np.ndarray) -> ad.Tensor:
    """Mean over each sequence's real positions; ``x`` holds zeros at padding."""
    counts = np.maximum(mask.sum(axis=1, keepdims=True), 1.0).astype(x.data.dtype)
    return ad.div(ad.sum_axis(x, 1), ad.Tensor(counts))


# ---------------------------------------------------------------------------
# Accounting over whole models


def model_size_bytes(model: TransformerModel) -> CostReport:
    """Bit-packed storage cost, one item per leaf layer: quantized cores at
    their code width, everything else (scales included) FP32."""
    items = [{"name": layer.name,
              "bytes": sum(packed_code_bytes(p.data.size, stored_bits(layer, p))
                           for _, p in layer.params())}
             for layer in model.layers()]
    compressed = sum(p.data.size for _, p in model.params())
    dense = _dense_param_count(model)
    return CostReport(
        param_count_compressed=compressed,
        param_count_dense=dense,
        compression_ratio=dense / compressed,
        bytes=sum(it["bytes"] for it in items),
        items=items,
    )


def _dense_param_count(model: TransformerModel) -> int:
    """Parameter count of the architecturally congruent uncompressed model:
    a layer's cores count as the matrix they represent, its scales as none."""
    total = 0
    for layer in model.layers():
        skip = set()
        if isinstance(layer, CoreLayer):
            total += layer.plan.rows * layer.plan.cols
            skip = {id(p) for p in layer.cores + layer.scale_params()}
        total += sum(p.data.size for _, p in layer.params() if id(p) not in skip)
    return total


def _linear_flops(rows: int, cols: int, seq_len: int, plan: TensorShapePlan | None = None,
                  bits: int = 32, act_bits: int = 32) -> CostReport:
    """Weighted ops of one linear map over ``seq_len`` tokens: the TT walk of
    ``plan``, or the dense matvec when there is none."""
    if plan is None:
        ops = 2.0 * cols * rows * seq_len
        return CostReport(flops=ops, flops_dense=ops)
    return flops_estimate(plan, bits, act_bits, seq_len=seq_len)


def _sum_flops(reports: Iterable[CostReport], times: int = 1) -> CostReport:
    reports = list(reports)
    return CostReport(flops=sum((r.flops for r in reports), 0.0) * times,
                      flops_dense=sum((r.flops_dense for r in reports), 0.0) * times,
                      fixed_point=any(r.fixed_point for r in reports),
                      convention=FLOPS_CONVENTION)


def model_flops(model: TransformerModel, seq_len: int) -> CostReport:
    """Weighted op count per forward pass, encoder linear layers only."""
    return _sum_flops(
        _linear_flops(sub.out_dim, sub.in_dim, seq_len, sub.plan, sub.bits, sub.act_bits)
        if isinstance(sub, TTLinearLayer) else _linear_flops(sub.out_dim, sub.in_dim, seq_len)
        for enc in model.encoders for sub in enc.sublayers())


def architecture_flops(config: ModelConfig, seq_len: int) -> CostReport:
    """model_flops computed from the plan specs alone (no cores allocated);
    lets large published-shape configs be costed instantly."""
    c = config
    per_encoder = (
        _linear_flops(rows, cols, seq_len, spec.resolve(rows, cols), c.weight_bits, c.act_bits)
        if c.compress else _linear_flops(rows, cols, seq_len)
        for _, rows, cols, spec in encoder_linear_shapes(c))
    return _sum_flops(per_encoder, c.num_layers)
