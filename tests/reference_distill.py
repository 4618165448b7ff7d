"""The attainable minima of the distillation terms, in plain numpy over a
teacher trace: a student's attention cross-entropy and soft-label
cross-entropy cannot fall below the teacher's own entropies."""

import numpy as np

from ttq.model import ForwardTrace


def attention_entropy_floors(trace: ForwardTrace) -> list[float]:
    """Per-encoder mean attention-row entropy: the attainable attn-CE minimum
    of each layer's matching term."""
    floors = []
    mask = trace.mask
    for attn in trace.attn_probs:
        p = attn.data
        ent = -(p * np.log(np.maximum(p, 1e-30))).sum(axis=-1)  # (b, h, s)
        m = mask[:, None, :]
        floors.append(float((ent * m).sum() / max(mask.sum() * p.shape[1], 1.0)))
    return floors


def attention_entropy_floor(trace: ForwardTrace) -> float:
    """Mean of the per-encoder attention entropy floors."""
    floors = attention_entropy_floors(trace)
    return sum(floors) / max(len(floors), 1)


def soft_label_entropy_floor(trace: ForwardTrace, temperature: float) -> float:
    """Mean teacher soft-label entropy (intent plus masked slots)."""
    def ent(logits, mask=None):
        z = logits / temperature
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=-1, keepdims=True)
        e = -(p * np.log(np.maximum(p, 1e-30))).sum(axis=-1)
        if mask is None:
            return float(e.mean())
        return float((e * mask).sum() / max(mask.sum(), 1.0))

    return ent(trace.intent_logits.data) + ent(trace.slot_logits.data.reshape(
        trace.slot_logits.shape[0], trace.slot_logits.shape[1], -1), trace.mask)
