"""Plain-numpy dense transformer forward, independent of the autodiff engine.

Mirrors the package architecture operation by operation so engine forwards can
be checked against straight-line array code.  ``tt_model_from_dense`` turns a
dense model into a full-precision TT model with the same weights, the twin
the compressed forward and distillation are checked against.
"""

from dataclasses import replace

import numpy as np

from reference_tt import tt_from_dense_exact, ttm_from_dense_exact

from ttq.model import TransformerModel, TTLinearLayer, TTMEmbedding
from ttq.tt import _plan_axis


def _ln(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _softmax(x, axis=-1):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x):
    """Tanh-approximate GELU written as one expression, the reference that
    ``ad.gelu``'s blocked in-place forward must equal bit for bit."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    return 0.5 * x * (1.0 + t)


def gelu_vjp(x, g):
    """Input gradient of ``gelu`` for the upstream gradient ``g``, one
    expression (the reference for ``ad.gelu``'s backward)."""
    t = np.tanh(_GELU_C * (x + 0.044715 * (x * x * x)))
    dinner = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    dt = (1.0 - t * t) * dinner
    return g * (0.5 * (1.0 + t) + 0.5 * x * dt)


def reference_forward(model, ids, mask):
    """Forward a *dense* TransformerModel's parameters through numpy only.

    Returns (emb_out, encoder_outs, attns, intent_logits, slot_logits).  Every
    position is computed; the embedding, encoder and slot outputs are then
    zeroed at padded positions, as the model's trace holds them.
    """
    cfg = model.config
    b, s = ids.shape
    h = cfg.hidden
    table = model.embedding.table.data.astype(np.float64)
    x = table[ids.reshape(-1)].reshape(b, s, h)
    x = x + model.pos_emb.data[:s].astype(np.float64)
    x = _ln(x, model.ln_emb.gamma.data, model.ln_emb.beta.data)
    real = (mask > 0).reshape(b, s, 1)
    emb_out = x * real
    outs, attns = [], []
    for enc in model.encoders:
        nh = enc.num_heads
        dh = h // nh
        flat = x.reshape(b * s, h)

        def lin(layer, v):
            return v @ layer.weight.data.T.astype(np.float64) + layer.bias.data

        def heads(t):
            return t.reshape(b, s, nh, dh).transpose(0, 2, 1, 3)

        qh, kh, vh = heads(lin(enc.q_proj, flat)), heads(lin(enc.k_proj, flat)), heads(lin(enc.v_proj, flat))
        scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(dh)
        scores = scores + ((1.0 - mask) * -1e9).reshape(b, 1, 1, s)
        attn = _softmax(scores)
        ctx = (attn @ vh).transpose(0, 2, 1, 3).reshape(b * s, h)
        x2 = _ln(flat + lin(enc.o_proj, ctx), enc.ln_attn.gamma.data, enc.ln_attn.beta.data)
        ffn = lin(enc.ffn_down, gelu(lin(enc.ffn_up, x2)))
        x2 = _ln(x2 + ffn, enc.ln_ffn.gamma.data, enc.ln_ffn.beta.data)
        x = x2.reshape(b, s, h)
        outs.append(x * real)
        attns.append(attn)
    m = mask.reshape(b, s, 1)
    pooled = (x * m).sum(axis=1) / np.maximum(mask.sum(axis=1, keepdims=True), 1.0)

    def head_fwd(head, v):
        hdn = np.tanh(v @ head.first.weight.data.T.astype(np.float64) + head.first.bias.data)
        return hdn @ head.top.weight.data.T.astype(np.float64) + head.top.bias.data

    intent = head_fwd(model.intent_head, pooled)
    slots = head_fwd(model.slot_head, x.reshape(b * s, h)).reshape(b, s, -1)
    return emb_out, outs, attns, intent, slots * real


def tt_model_from_dense(dense: TransformerModel) -> TransformerModel:
    """Exact full-rank TT re-representation of a dense model.

    Every dense weight matrix is embedded into TT (TTM for the table) cores
    that reconstruct it exactly; all other parameters are copied.  The result
    is a full-precision compressed model whose forward matches the source up
    to contraction-order rounding.
    """
    cfg = dense.config
    if cfg.compress:
        raise ValueError("source model must be dense")
    student_cfg = replace(cfg, compress=True, weight_bits=32, act_bits=32)
    student = TransformerModel(student_cfg, np.random.default_rng(0))

    def factors(matrix):
        return _plan_axis(matrix.shape[0], 2), _plan_axis(matrix.shape[1], 2)

    for layer, source in zip(student.layers(), dense.layers()):
        if isinstance(layer, TTLinearLayer):
            w = source.weight.data
            layer.set_cores(*tt_from_dense_exact(w, *factors(w)))
            layer.bias.data = source.bias.data.copy()
        elif isinstance(layer, TTMEmbedding):
            table = source.table.data
            layer.set_cores(*ttm_from_dense_exact(table, *factors(table)))
        else:
            for (_, p), (_, src) in zip(layer.params(), source.params()):
                p.data = src.data.copy()
    return student
