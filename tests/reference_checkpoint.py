"""The checkpoint's array payload counted from its record stream, the
cross-check of ``model_size_bytes`` over the serialized records."""

import numpy as np

from ttq.accounting import packed_code_bytes
from ttq.checkpoint import _records_for_model


def payload_bytes(model) -> int:
    """Array payload bytes the checkpoint will contain (no framing): must
    agree with the size-accounting report."""
    total = 0
    for _, kind, value in _records_for_model(model):
        if kind == 0:
            total += 4 * int(np.asarray(value).size)
        elif kind == 1:
            data, _, bits = value
            total += packed_code_bytes(int(np.asarray(data).size), bits)
    return total
