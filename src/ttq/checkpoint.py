"""Binary checkpoint format (little-endian, checksummed).

Layout:

    magic   4s   = b"TTQ1"
    version u32  = 1
    cfg_len u32, config JSON (canonical: sorted keys, compact separators)
    digest  32s  = sha256 of the config JSON
    n_rec   u32
    records      (see below)
    crc32   u32  over everything from magic through the last record
    total   u64  file length including this field

Record:

    name_len u16, name utf8
    kind     u8   0 = float32 array, 1 = bit-packed quantized array, 2 = JSON
    kind 0: ndim u8, dims u32*, float32 data
    kind 1: bits u8, scale f32, ndim u8, dims u32*, packed codes
            (two's complement within each field, little-endian within bytes)
    kind 2: len u32, utf8 JSON

Record order follows ``TransformerModel.layers()``: for each leaf layer, a
TT/TTM layer's JSON ``<layer>.meta`` record first, then one record per entry
of ``layer.params()``, kind 1 where ``stored_bits`` is below 32, else kind 0
(a 0-d scale is written with dims (1,)).  A missing, repeated or unread
record, a record of the wrong kind, shape or width (kind 1 allows 2, 4 or 8),
a kind-1 scale that is not finite and positive or differs from the float32
``<layer>.wscale`` of its layer, a blob that is not UTF-8 JSON, a plan for
another matrix, or ``stage_scales`` other than null or one finite positive
number per stage is a ``CheckpointError`` that names the record (a name that is
not UTF-8, by its index).  So is a config that is not a valid ``ModelConfig``.

Quantized layers store integer codes, not master floats: reloading yields the
dequantized surrogate, which forwards identically to the saved model by
quantizer idempotence.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import quant as q
from .accounting import packed_code_bytes
from .model import CoreLayer, ModelConfig, TransformerModel, TTLinearLayer, stored_bits
from .tt import TensorShapePlan, tt_stages

MAGIC = b"TTQ1"
VERSION = 1


class CheckpointError(IOError):
    """Corrupt, truncated, or incompatible checkpoint."""


def _canonical_config(config: ModelConfig) -> bytes:
    return json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# Bit packing


def pack_codes(codes: np.ndarray, bits: int) -> bytes:
    """Pack signed codes at 2/4/8 bits per value, little-endian within bytes."""
    flat = codes.reshape(-1).astype(np.int64)
    masked = (flat & ((1 << bits) - 1)).astype(np.uint8)
    per_byte = 8 // bits
    if per_byte == 1:
        return masked.tobytes()
    pad = (-len(masked)) % per_byte
    if pad:
        masked = np.concatenate([masked, np.zeros(pad, dtype=np.uint8)])
    grouped = masked.reshape(-1, per_byte)
    shifts = np.arange(per_byte, dtype=np.uint8) * bits
    return (grouped << shifts).astype(np.uint8).sum(axis=1, dtype=np.uint8).tobytes()


def unpack_codes(raw: bytes, bits: int, count: int) -> np.ndarray:
    data = np.frombuffer(raw, dtype=np.uint8)
    per_byte = 8 // bits
    if per_byte == 1:
        vals = data.astype(np.int64)
    else:
        shifts = np.arange(per_byte, dtype=np.uint8) * bits
        vals = ((data[:, None] >> shifts) & ((1 << bits) - 1)).reshape(-1).astype(np.int64)
    vals = vals[:count]
    sign_bit = 1 << (bits - 1)
    vals = np.where(vals >= sign_bit, vals - (1 << bits), vals)
    return vals.astype(np.int32)


# ---------------------------------------------------------------------------
# Record walk


def _meta(layer) -> dict:
    """The plan and quantizer state a plan layer is rebuilt from."""
    meta = {"plan": layer.plan.to_dict(), "bits": layer.bits}
    if isinstance(layer, TTLinearLayer):
        meta.update(act_bits=layer.act_bits, act_ready=layer.act_scale_ready,
                    stage_scales=layer.stage_scales)
    return meta


def _records_for_model(model: TransformerModel):
    """Deterministic (name, kind, value) record stream: for each leaf layer in
    ``model.layers()`` order, a plan layer's metadata, then its parameters."""
    for layer in model.layers():
        if isinstance(layer, CoreLayer):
            yield f"{layer.name}.meta", 2, _meta(layer)
        for name, param in layer.params():
            bits = stored_bits(layer, param)
            if bits < q.FULL_PRECISION:
                yield name, 1, (param.data, float(layer.weight_scale.data), bits)
            else:
                yield name, 0, param.data


def checkpoint_save(model: TransformerModel, path: str | Path) -> int:
    """Serialize the model; returns bytes written."""
    records = list(_records_for_model(model))
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    cfg = _canonical_config(model.config)
    out += struct.pack("<I", len(cfg))
    out += cfg
    out += hashlib.sha256(cfg).digest()
    out += struct.pack("<I", len(records))
    for name, kind, value in records:
        nb = name.encode()
        out += struct.pack("<H", len(nb)) + nb + struct.pack("<B", kind)
        if kind == 0:
            arr = np.ascontiguousarray(np.asarray(value, dtype=np.float32))
            out += struct.pack("<B", arr.ndim)
            out += struct.pack(f"<{max(arr.ndim, 0)}I", *arr.shape)
            out += arr.tobytes()
        elif kind == 1:
            data, scale, bits = value
            codes = q.quantize(data, scale, bits)
            out += struct.pack("<B", bits)
            out += struct.pack("<f", scale)
            out += struct.pack("<B", codes.ndim)
            out += struct.pack(f"<{codes.ndim}I", *codes.shape)
            out += pack_codes(codes, bits)
        else:
            blob = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
            out += struct.pack("<I", len(blob)) + blob
    crc = zlib.crc32(bytes(out)) & 0xFFFFFFFF
    out += struct.pack("<I", crc)
    out += struct.pack("<Q", len(out) + 8)
    Path(path).write_bytes(bytes(out))
    return len(out)


class _Reader:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise CheckpointError("truncated checkpoint")
        chunk = self.buf[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _json(raw: memoryview, what: str):
    try:
        return json.loads(str(raw, "utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{what} is not UTF-8 JSON: {exc}") from exc


def _read_records(reader: _Reader, n: int) -> dict:
    records = {}
    for i in range(n):
        (name_len,) = reader.unpack("<H")
        try:
            name = str(reader.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"record {i}: name is not UTF-8") from exc
        if name in records:
            raise CheckpointError(f"record {name} appears twice")
        (kind,) = reader.unpack("<B")
        if kind == 0:
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I") if ndim else ()
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(shape)
            records[name] = ("array", arr)
        elif kind == 1:
            (bits,) = reader.unpack("<B")
            if bits not in (2, 4, 8):
                raise CheckpointError(f"record {name} has code width {bits}, expected 2, 4 or 8")
            (scale,) = reader.unpack("<f")
            (ndim,) = reader.unpack("<B")
            shape = reader.unpack(f"<{ndim}I")
            count = int(np.prod(shape))
            codes = unpack_codes(reader.take(packed_code_bytes(count, bits)), bits, count)
            codes = codes.reshape(shape)
            records[name] = ("packed", (codes, scale, bits))
        elif kind == 2:
            (blen,) = reader.unpack("<I")
            records[name] = ("json", _json(reader.take(blen), f"record {name}"))
        else:
            raise CheckpointError(f"unknown record kind {kind}")
    return records


def checkpoint_load(path: str | Path) -> TransformerModel:
    """Rebuild a model from a checkpoint, verifying length and checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 24:
        raise CheckpointError("file too short")
    (total,) = struct.unpack("<Q", raw[-8:])
    if total != len(raw):
        raise CheckpointError(f"length mismatch: header says {total}, file is {len(raw)}")
    (crc_stored,) = struct.unpack("<I", raw[-12:-8])
    body = memoryview(raw)[:-12]  # the records are read in place
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError("checksum failure")
    reader = _Reader(body)
    if reader.take(4) != MAGIC:
        raise CheckpointError("bad magic")
    (version,) = reader.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = reader.unpack("<I")
    cfg_bytes = reader.take(cfg_len)
    digest = reader.take(32)
    if hashlib.sha256(cfg_bytes).digest() != digest:
        raise CheckpointError("config digest mismatch")
    try:
        config = ModelConfig.from_dict(_json(cfg_bytes, "config"))
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"config holds no valid model config: {exc!r}") from exc
    (n_rec,) = reader.unpack("<I")
    records = _read_records(reader, n_rec)
    # every parameter is overwritten from its record, so none is drawn
    model = TransformerModel(config, SimpleNamespace(normal=lambda loc, scale, size: np.zeros(size)))
    _restore_model(model, records)
    return model


def _restore_model(model: TransformerModel, records: dict):
    """Mirror of ``_records_for_model``: fill every leaf layer from its records,
    reading each record exactly once."""
    dtype = model.config.np_dtype
    records = dict(records)

    def take(name, kind):
        if name not in records:
            raise CheckpointError(f"record {name} is missing")
        got, value = records.pop(name)
        if got != kind:
            raise CheckpointError(f"record {name} is {got}, expected {kind}")
        return value

    for layer in model.layers():
        if isinstance(layer, CoreLayer):
            _restore_meta(layer, take(f"{layer.name}.meta", "json"), dtype)
        record_scales = []
        for name, param in layer.params():
            bits = stored_bits(layer, param)
            if bits < q.FULL_PRECISION:
                codes, scale, stored = take(name, "packed")
                if stored != bits:
                    raise CheckpointError(f"record {name} holds {stored}-bit codes, expected {bits}")
                record_scales.append((name, scale))
                value = scale * codes.astype(np.float64)
            else:
                value = take(name, "array")
            # the writer stores a 0-d scale as shape (1,)
            if value.shape != (param.data.shape or (1,)):
                raise CheckpointError(
                    f"record {name} has shape {value.shape}, expected {param.data.shape}")
            param.data = value.reshape(param.data.shape).astype(dtype)
        # the writer stores the layer's one weight scale in each packed record
        for name, scale in record_scales:
            wscale = float(np.float32(layer.weight_scale.data))
            if not (math.isfinite(scale) and scale > 0):
                raise CheckpointError(f"record {name} has scale {scale}, expected a finite "
                                      "positive one")
            if scale != wscale:
                raise CheckpointError(f"record {name} has scale {scale}, but "
                                      f"{layer.weight_scale.name} is {wscale}")
    if records:
        raise CheckpointError(f"record {next(iter(records))} is read by no layer")


def _restore_meta(layer, meta, dtype):
    name = f"{layer.name}.meta"
    try:
        plan = TensorShapePlan.from_dict(meta["plan"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"record {name} holds no valid plan: {exc!r}") from exc
    if (plan.rows, plan.cols, plan.format) != (layer.plan.rows, layer.plan.cols, layer.plan.format):
        raise CheckpointError(f"record {name} plans a {plan.rows}x{plan.cols} {plan.format.value} "
                              f"matrix, expected {layer.plan.rows}x{layer.plan.cols} "
                              f"{layer.plan.format.value}")
    if plan != layer.plan:
        layer.set_cores([np.zeros(s, dtype=dtype) for s in plan.core_shapes()], plan)
    if isinstance(layer, TTLinearLayer):
        if layer.act_scale is not None:
            layer.act_scale_ready = bool(meta.get("act_ready", True))
        scales, stages = meta.get("stage_scales"), len(tt_stages(plan))
        if scales is not None and not (
                isinstance(scales, list) and len(scales) == stages
                and all(type(s) in (int, float) and 0 < s <= sys.float_info.max for s in scales)):
            raise CheckpointError(f"record {name} has stage_scales {scales!r:.60}, "
                                  f"expected null or {stages} finite positive numbers")
        layer.stage_scales = None if scales is None else [float(s) for s in scales]
