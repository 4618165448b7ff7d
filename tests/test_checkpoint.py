"""Checkpoint round-trips, checksums, packing, and size cross-checks."""

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_checkpoint import payload_bytes
from reference_dense import tt_model_from_dense

from ttq import checkpoint as ckpt_module
from ttq.checkpoint import (
    CheckpointError,
    checkpoint_load,
    checkpoint_save,
    pack_codes,
    unpack_codes,
)
from ttq.data import gen_synthetic_dataset
from ttq.model import ModelConfig, PlanSpec, TransformerModel, model_size_bytes
from ttq.train import TrainConfig, evaluate, train_end_to_end
from ttq.tt import TTFormat


FIXTURE = Path(__file__).resolve().parent / "data" / "toy_int8_calibrated.ttq"


def small_config(**kw):
    base = dict(
        vocab_size=40, hidden=16, ffn_dim=32, num_layers=1, num_heads=2,
        max_seq=12, num_intents=3, num_slots=5, compress=True,
        weight_bits=4, act_bits=8, dtype="float32",
        emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM),
        attn_spec=PlanSpec(d=2, rank=4), ffn_spec=PlanSpec(d=2, rank=4),
        head_spec=PlanSpec(d=2, rank=4),
    )
    base.update(kw)
    return ModelConfig(**base)


class TestPacking:
    @given(st.sampled_from([2, 4, 8]), st.integers(1, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip(self, bits, n, seed):
        rng = np.random.default_rng(seed)
        lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
        codes = rng.integers(lo, hi + 1, size=n).astype(np.int32)
        packed = pack_codes(codes, bits)
        assert len(packed) == -(-n // (8 // bits))
        np.testing.assert_array_equal(unpack_codes(packed, bits, n), codes)

    def test_little_endian_within_byte(self):
        packed = pack_codes(np.array([1, -1], dtype=np.int32), 4)
        # element 0 in the low nibble: 0x1; element 1 (-1 -> 0xF) high nibble
        assert packed == bytes([0xF1])


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = TransformerModel(small_config(), 0)
        p1, p2 = tmp_path / "a.ttq", tmp_path / "b.ttq"
        checkpoint_save(model, p1)
        loaded = checkpoint_load(p1)
        checkpoint_save(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_params_are_fixed_points(self, tmp_path):
        # after one load, a second round trip reproduces parameters exactly
        model = TransformerModel(small_config(), 1)
        p = tmp_path / "m.ttq"
        checkpoint_save(model, p)
        first = checkpoint_load(p)
        checkpoint_save(first, p)
        second = checkpoint_load(p)
        for (n1, a), (n2, b) in zip(first.params(), second.params()):
            assert n1 == n2
            np.testing.assert_array_equal(a.data, b.data)

    def test_trained_model_eval_reproduces_after_reload(self, tmp_path):
        data = gen_synthetic_dataset(seed=5, vocab_size=40, num_intents=3, num_slots=4,
                                     num_examples=120)
        model = TransformerModel(small_config(weight_bits=8), 2)
        train_end_to_end(model, data["train"], None,
                         TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=6))
        before = evaluate(model, data["dev"])
        p = tmp_path / "trained.ttq"
        checkpoint_save(model, p)
        reloaded = checkpoint_load(p)
        after = evaluate(reloaded, data["dev"])
        assert before == after

    def test_full_rank_exact_model_roundtrips(self, tmp_path):
        dense_cfg = small_config(compress=False, weight_bits=32, act_bits=32)
        dense = TransformerModel(dense_cfg, 3)
        student = tt_model_from_dense(dense)
        p = tmp_path / "exact.ttq"
        checkpoint_save(student, p)
        loaded = checkpoint_load(p)
        assert loaded.tt_layers()[0].plan == student.tt_layers()[0].plan

    def test_dense_model_roundtrips(self, tmp_path):
        model = TransformerModel(small_config(compress=False, weight_bits=32, act_bits=32), 4)
        p = tmp_path / "dense.ttq"
        checkpoint_save(model, p)
        loaded = checkpoint_load(p)
        for (n1, a), (n2, b) in zip(model.params(), loaded.params()):
            np.testing.assert_array_equal(a.data, b.data)


class TestIntegrity:
    def test_flipped_payload_byte_detected(self, tmp_path):
        model = TransformerModel(small_config(), 5)
        p = tmp_path / "m.ttq"
        checkpoint_save(model, p)
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            checkpoint_load(p)

    def test_truncation_detected(self, tmp_path):
        model = TransformerModel(small_config(), 6)
        p = tmp_path / "m.ttq"
        checkpoint_save(model, p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(CheckpointError):
            checkpoint_load(p)

    def test_bad_magic_detected(self, tmp_path):
        model = TransformerModel(small_config(), 7)
        p = tmp_path / "m.ttq"
        checkpoint_save(model, p)
        raw = bytearray(p.read_bytes())
        raw[0:4] = b"NOPE"
        # fix up the checksum so the magic check itself fires
        import struct, zlib
        body = bytes(raw[:-12])
        crc = zlib.crc32(body) & 0xFFFFFFFF
        raw[-12:-8] = struct.pack("<I", crc)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            checkpoint_load(p)


class TestSizeCrossCheck:
    def test_payload_matches_size_accounting(self):
        for bits in (2, 4, 8, 32):
            model = TransformerModel(small_config(weight_bits=bits), 8)
            assert payload_bytes(model) == model_size_bytes(model).bytes

    def test_file_size_is_payload_plus_framing(self, tmp_path):
        model = TransformerModel(small_config(weight_bits=4), 9)
        p = tmp_path / "m.ttq"
        written = checkpoint_save(model, p)
        payload = payload_bytes(model)
        framing = written - payload
        assert framing > 0
        # framing (names, dims, metadata, header) is bounded and payload-independent
        assert framing < 8192

    def test_config_digest_stable(self, tmp_path):
        def header(cfg, seed):
            path = tmp_path / "header.ttq"
            checkpoint_save(TransformerModel(cfg, seed), path)
            raw = path.read_bytes()
            (n,) = struct.unpack("<I", raw[8:12])
            config, digest = raw[12:12 + n], raw[12 + n:12 + n + 32]
            assert digest == hashlib.sha256(config).digest()
            return config, digest

        # the header depends on the config alone, not on the weights
        assert header(small_config(), 0) == header(small_config(), 1)
        assert header(small_config(), 0)[1] != header(small_config(weight_bits=8), 0)[1]


def save_edited_records(model, path, monkeypatch, edit):
    """Write ``model`` with its record stream rewritten by ``edit``; framing,
    digest and checksum stay valid, so only the record check can object."""
    records = edit(list(ckpt_module._records_for_model(model)))
    monkeypatch.setattr(ckpt_module, "_records_for_model", lambda m: iter(records))
    checkpoint_save(model, path)


def replace_record(name, kind, value):
    return lambda records: [(n, kind, value) if n == name else (n, k, v) for n, k, v in records]


class TestMalformedRecords:
    def test_missing_record_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ttq"
        save_edited_records(TransformerModel(small_config(), 0), p, monkeypatch,
                            lambda records: [r for r in records if r[0] != "encoder0.q.bias"])
        with pytest.raises(CheckpointError, match="encoder0.q.bias"):
            checkpoint_load(p)

    def test_meta_of_wrong_kind_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ttq"
        save_edited_records(TransformerModel(small_config(), 0), p, monkeypatch,
                            replace_record("encoder0.q.meta", 0, np.zeros(3)))
        with pytest.raises(CheckpointError, match="encoder0.q.meta"):
            checkpoint_load(p)

    def test_array_of_wrong_shape_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ttq"
        save_edited_records(TransformerModel(small_config(), 0), p, monkeypatch,
                            replace_record("encoder0.q.bias", 0, np.zeros(3)))
        with pytest.raises(CheckpointError, match=r"encoder0.q.bias has shape \(3,\)"):
            checkpoint_load(p)

    def test_codes_of_wrong_width_name_the_record(self, tmp_path, monkeypatch):
        model = TransformerModel(small_config(weight_bits=4), 0)
        core = model.embedding.cores[0]
        p = tmp_path / "m.ttq"
        save_edited_records(model, p, monkeypatch, replace_record(
            core.name, 1, (core.data, float(model.embedding.weight_scale.data), 8)))
        with pytest.raises(CheckpointError, match=f"{core.name} holds 8-bit codes"):
            checkpoint_load(p)

    def test_plan_for_another_matrix_names_the_meta(self, tmp_path, monkeypatch):
        model = TransformerModel(small_config(), 0)
        other = TransformerModel(small_config(hidden=8, ffn_dim=16), 0).tt_layers()[0]
        meta = ckpt_module._meta(model.tt_layers()[0])
        meta["plan"] = other.plan.to_dict()
        p = tmp_path / "m.ttq"
        save_edited_records(model, p, monkeypatch, replace_record("encoder0.q.meta", 2, meta))
        with pytest.raises(CheckpointError, match="encoder0.q.meta plans a 8x8"):
            checkpoint_load(p)

    def test_unread_record_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ttq"
        save_edited_records(TransformerModel(small_config(), 0), p, monkeypatch,
                            lambda records: records + [("bogus.extra", 0, np.zeros(3))])
        with pytest.raises(CheckpointError, match="record bogus.extra is read by no layer"):
            checkpoint_load(p)

    def test_repeated_record_names_it(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ttq"
        save_edited_records(TransformerModel(small_config(), 0), p, monkeypatch,
                            lambda records: records + [r for r in records if r[0] == "pos_emb"])
        with pytest.raises(CheckpointError, match="record pos_emb appears twice"):
            checkpoint_load(p)


def with_crc(raw: bytearray) -> bytes:
    """``raw`` with its crc32 recomputed, so only the field checks can object."""
    raw[-12:-8] = struct.pack("<I", zlib.crc32(bytes(raw[:-12])) & 0xFFFFFFFF)
    return bytes(raw)


def record_kind_offset(raw: bytes, name: str) -> int:
    """File offset of record ``name``'s kind byte."""
    framed = struct.pack("<H", len(name)) + name.encode()
    return raw.index(framed) + len(framed)


def with_config(raw: bytes, edit) -> bytes:
    """``raw`` with its config JSON rewritten by ``edit`` (same length) and
    the digest and crc32 recomputed."""
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    cfg = edit(raw[12:12 + cfg_len])
    assert len(cfg) == cfg_len
    out = bytearray(raw)
    out[12:12 + cfg_len] = cfg
    out[12 + cfg_len:44 + cfg_len] = hashlib.sha256(cfg).digest()
    return with_crc(out)


class TestMalformedHeaders:
    @pytest.mark.parametrize("width", [0, 3, 16])
    def test_code_width_outside_2_4_8_names_the_record(self, tmp_path, width):
        raw = bytearray(FIXTURE.read_bytes())
        at = record_kind_offset(raw, "embedding.core0")
        assert raw[at] == 1  # a packed record: its code width follows
        raw[at + 1] = width
        p = tmp_path / "m.ttq"
        p.write_bytes(with_crc(raw))
        with pytest.raises(CheckpointError, match=f"record embedding.core0 has code width {width}"):
            checkpoint_load(p)

    @pytest.mark.parametrize("scale", [float("nan"), 0.0, -1.0, 0.5])
    def test_record_scale_other_than_the_layer_wscale_names_the_record(self, tmp_path, scale):
        raw = bytearray(FIXTURE.read_bytes())
        at = record_kind_offset(raw, "embedding.core0")
        assert raw[at] == 1  # a packed record: code width, then its f32 scale
        raw[at + 2:at + 6] = struct.pack("<f", scale)
        p = tmp_path / "m.ttq"
        p.write_bytes(with_crc(raw))
        with pytest.raises(CheckpointError, match="record embedding.core0 has scale"):
            checkpoint_load(p)

    @pytest.mark.parametrize("first", [b"\xff", b"["])
    def test_meta_blob_not_utf8_json_names_the_record(self, tmp_path, first):
        raw = bytearray(FIXTURE.read_bytes())
        at = record_kind_offset(raw, "encoder0.q.meta")
        assert raw[at] == 2  # a JSON record: u32 length, then the blob
        raw[at + 5:at + 6] = first
        p = tmp_path / "m.ttq"
        p.write_bytes(with_crc(raw))
        with pytest.raises(CheckpointError, match="record encoder0.q.meta is not UTF-8 JSON"):
            checkpoint_load(p)

    def test_record_name_not_utf8_is_a_checkpoint_error(self, tmp_path):
        raw = bytearray(FIXTURE.read_bytes())
        raw[record_kind_offset(raw, "pos_emb") - 1] = 0xFF
        p = tmp_path / "m.ttq"
        p.write_bytes(with_crc(raw))
        with pytest.raises(CheckpointError, match="name is not UTF-8"):
            checkpoint_load(p)

    @pytest.mark.parametrize("edit", [
        lambda cfg: b"\xff" + cfg[1:],  # not UTF-8
        lambda cfg: b"[" + cfg[1:],  # not JSON
        lambda cfg: cfg.replace(b'"hidden"', b'"hidder"'),  # TypeError: unknown field
        lambda cfg: cfg.replace(b'"format":"tt"', b'"format":"xx"'),  # ValueError
        lambda cfg: cfg.replace(b'"dtype":"float32"', b'"dtype":"float16"'),
        lambda cfg: cfg.replace(b'"format":"ttm"', b'"format":"tt" '),  # a TT embedding
        lambda cfg: cfg.replace(b'"num_heads":2', b'"num_heads":0'),  # was ZeroDivisionError
        lambda cfg: cfg.replace(b'"rank":4', b'"rank":0'),
    ], ids=["utf8", "json", "field", "value", "dtype", "spec_format", "size", "rank"])
    def test_bad_config_is_a_checkpoint_error(self, tmp_path, edit):
        p = tmp_path / "m.ttq"
        p.write_bytes(with_config(FIXTURE.read_bytes(), edit))
        with pytest.raises(CheckpointError, match="config"):
            checkpoint_load(p)


def with_meta(raw: bytes, name: str, edit) -> bytes:
    """``raw`` with JSON record ``name`` rewritten by ``edit`` (to any
    length) and the total length and crc32 recomputed."""
    at = record_kind_offset(raw, name)
    assert raw[at] == 2  # a JSON record: u32 length, then the blob
    (size,) = struct.unpack("<I", raw[at + 1:at + 5])
    blob = json.dumps(edit(json.loads(raw[at + 5:at + 5 + size]))).encode()
    out = bytearray(raw[:at + 1] + struct.pack("<I", len(blob)) + blob + raw[at + 5 + size:])
    out[-8:] = struct.pack("<Q", len(out))
    return with_crc(out)


def with_stage_scales(scales):
    return lambda meta: {**meta, "stage_scales": scales}


class TestStageScales:
    """A TT layer's ``stage_scales`` load only as null or one finite,
    positive number per stage; anything else failed only at the first
    integer forward, or gave wrong logits."""

    BAD = [[1.0], [0.0] * 4, [float("nan")] * 4, "abc", [-1.0] * 4, [float("inf")] * 4,
           [1.0] * 5, [True] * 4, ["1.0"] * 4, [10 ** 400] * 4, [], {"0": 1.0}]

    @pytest.mark.parametrize("scales", BAD, ids=["length", "zero", "nan", "string", "negative",
                                                 "inf", "long", "bool", "text", "huge", "empty",
                                                 "object"])
    def test_bad_stage_scales_name_the_meta(self, tmp_path, scales):
        p = tmp_path / "m.ttq"
        p.write_bytes(with_meta(FIXTURE.read_bytes(), "encoder0.q.meta", with_stage_scales(scales)))
        with pytest.raises(CheckpointError, match="record encoder0.q.meta has stage_scales"):
            checkpoint_load(p)

    @pytest.mark.parametrize("scales", [None, [0.5, 2, 1e-30, 3.0]], ids=["null", "numbers"])
    def test_good_stage_scales_load(self, tmp_path, scales):
        p = tmp_path / "m.ttq"
        p.write_bytes(with_meta(FIXTURE.read_bytes(), "encoder0.q.meta", with_stage_scales(scales)))
        assert checkpoint_load(p).encoders[0].q_proj.stage_scales == scales


def test_load_draws_no_random_values(monkeypatch):
    """Every parameter comes from its record, so load builds its model
    without drawing an initialization."""

    def draw(*args, **kwargs):
        raise AssertionError("checkpoint_load drew random values")

    monkeypatch.setattr(np.random, "default_rng", draw)
    model = checkpoint_load(FIXTURE)
    monkeypatch.undo()
    np.testing.assert_array_equal(model.pos_emb.data, checkpoint_load(FIXTURE).pos_emb.data)


def file_record_names(raw: bytes) -> list[str]:
    """Record names of a checkpoint in file order."""
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    start = 12 + cfg_len + 32
    (n_rec,) = struct.unpack("<I", raw[start:start + 4])
    reader = ckpt_module._Reader(raw[start + 4:-12])
    return list(ckpt_module._read_records(reader, n_rec))


class TestFormatStability:
    def test_committed_checkpoint_resaves_byte_identical(self, tmp_path):
        # toy_int8 after one calibrate_int, written before the record walk
        # went through TransformerModel.layers()
        model = checkpoint_load(FIXTURE)
        assert all(l.stage_scales and l.act_scale_ready for l in model.tt_layers())
        out = tmp_path / "resaved.ttq"
        checkpoint_save(model, out)
        assert out.read_bytes() == FIXTURE.read_bytes()

    def test_records_follow_layers_with_meta_first(self):
        model = checkpoint_load(FIXTURE)
        expected = []
        for layer in model.layers():
            if hasattr(layer, "plan"):
                expected.append(f"{layer.name}.meta")
            expected += [name for name, _ in layer.params()]
        assert file_record_names(FIXTURE.read_bytes()) == expected
