"""The recycled full-size buffers of ``ttq.buffers``: a buffer is handed out
again only when no view of it is alive, grows by replacement, never crosses
width or dtype, and a training step at steady state creates none."""

import numpy as np
import pytest

from ttq import buffers
from ttq.model import ModelConfig, PlanSpec, TransformerModel
from ttq.train import AdamState, TrainConfig, intent_slot_loss, train_step
from ttq.tt import TTFormat


@pytest.fixture
def pool(monkeypatch):
    """An empty pool that recycles requests of every size."""
    monkeypatch.setattr(buffers, "_buffers", {})
    monkeypatch.setattr(buffers, "MIN_BYTES", 0)
    return buffers._buffers


def test_a_live_view_keeps_its_buffer_busy(pool):
    key = (8, np.dtype(np.float32))
    first = buffers.take((4, 8), np.float32)
    part = first[1:3, ::2]  # a strided slice of it, held alone
    del first
    second = buffers.take((4, 8), np.float32)
    assert not np.shares_memory(part, second) and len(pool[key]) == 2
    del second
    third = buffers.take((4, 8), np.float32)  # the second buffer, idle again
    assert not np.shares_memory(part, third) and len(pool[key]) == 2
    del part, third
    created = buffers._created
    both = [buffers.take((4, 8), np.float32) for _ in range(2)]
    assert buffers._created == created and not np.shares_memory(*both)


def test_an_idle_buffer_is_handed_out_again(pool):
    first = buffers.take((5, 6), np.float64)
    address = first.__array_interface__["data"][0]
    del first
    created = buffers._created
    again = buffers.take((3, 6), np.float64)
    assert again.__array_interface__["data"][0] == address
    assert again.shape == (3, 6) and again.flags.c_contiguous
    assert buffers._created == created


def test_a_grown_buffer_drops_the_smaller_one(pool):
    small = buffers.take((3, 16), np.float32)
    assert pool[(16, np.dtype(np.float32))][0].size == 4 * 16  # rows rounded up to 4
    del small
    created = buffers._created
    big = buffers.take((9, 16), np.float32)
    bufs = pool[(16, np.dtype(np.float32))]
    assert len(bufs) == 1 and bufs[0].size == 16 * 16
    assert np.shares_memory(big, bufs[0]) and buffers._created == created + 1
    del big
    assert np.shares_memory(buffers.take((2, 16), np.float32), bufs[0])  # the grown one serves


def test_buffers_never_cross_width_or_dtype(pool):
    a = buffers.take((4, 8), np.float32)
    del a
    b = buffers.take((8, 4), np.float32)  # the same bytes, another width
    c = buffers.take((4, 8), np.float64)
    d = buffers.take((4, 8), np.int8)
    assert set(pool) == {(8, np.dtype(np.float32)), (4, np.dtype(np.float32)),
                         (8, np.dtype(np.float64)), (8, np.dtype(np.int8))}
    for key, bufs in pool.items():
        assert len(bufs) == 1 and bufs[0].dtype == key[1]
    assert all(not np.shares_memory(x, y) for x, y in [(b, c), (b, d), (c, d)])


def test_a_request_under_min_bytes_is_a_fresh_array(monkeypatch):
    monkeypatch.setattr(buffers, "_buffers", {})
    x = buffers.take((2, 3), np.float32)
    assert x.shape == (2, 3) and x.base is None and not buffers._buffers
    y = buffers.take((buffers.MIN_BYTES // 4, 1), np.float32)
    assert y.base is buffers._buffers[(1, np.dtype(np.float32))][0]


def toy_int8_model():
    return TransformerModel(ModelConfig(
        vocab_size=40, hidden=16, ffn_dim=32, num_layers=2, num_heads=2, max_seq=12,
        num_intents=3, num_slots=5, weight_bits=8, act_bits=8, dtype="float32",
        emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM), attn_spec=PlanSpec(d=2, rank=4),
        ffn_spec=PlanSpec(d=2, rank=4), head_spec=PlanSpec(d=2, rank=4)), 0)


def test_training_steps_create_no_buffer_after_warm_up(pool):
    """Two warm-up steps at the largest batch (every position real), then
    steps at that size and below: the pool creates no buffer."""
    model = toy_int8_model()
    cfg = model.config
    rng = np.random.default_rng(0)
    state, config = AdamState(), TrainConfig(learning_rate=1e-3, epochs=1)

    def step(lengths):
        width = cfg.max_seq
        ids = rng.integers(0, cfg.vocab_size, size=(8, width))
        mask = (np.arange(width) < np.array(lengths)[:, None]).astype(np.float64)
        intents = rng.integers(0, cfg.num_intents, size=8)
        slots = rng.integers(0, cfg.num_slots, size=(8, width))
        train_step(model, state, config, intent_slot_loss(model.forward(ids, mask), intents, slots))

    for _ in range(2):
        step([cfg.max_seq] * 8)
    created = buffers._created
    assert created and pool
    for lengths in ([12] * 8, [3, 12, 7, 1, 12, 5, 9, 2], [6] * 8, [12] * 8):
        step(lengths)
    assert buffers._created == created
