"""Run configuration: one JSON file drives every CLI command.

Top-level keys:

    seed        int, overridable by the TTQ_SEED environment variable
    output_dir  where artifacts (reports, checkpoints, manifest) land
    data_dir    corpus directory in the documented line format
    model       ModelConfig fields (plus plan specs per layer group)
    train       TrainConfig fields
    distill     DistillConfig fields plus "teacher_checkpoint"
    bench       {"repeats": int, "seq_len": int, "batch": int}
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .distill import DistillConfig
from .model import ModelConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Missing or inconsistent run configuration."""


def positive_count(name: str, value) -> int:
    """``value`` as a count of at least 1, else ``ConfigError``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
    return value


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    distill: DistillConfig
    seed: int = 0
    output_dir: str = "runs/out"
    data_dir: str | None = None
    teacher_checkpoint: str | None = None
    bench: dict = field(default_factory=lambda: {"repeats": 10, "seq_len": 16, "batch": 8})
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if "model" not in d:
            raise ConfigError("config must define a 'model' section")
        try:
            model = ModelConfig.from_dict(d["model"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model section: {exc}") from exc
        seed = os.environ.get("TTQ_SEED", d.get("seed", 0))
        try:
            seed = int(seed) if isinstance(seed, str) else seed
        except ValueError:
            pass  # rejected below, with the value
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0 (TTQ_SEED or 'seed'), got {seed!r}")
        train_kw = dict(d.get("train", {}))
        train_kw.setdefault("seed", seed)
        distill_kw = dict(d.get("distill", {}))
        teacher = distill_kw.pop("teacher_checkpoint", None)
        distill_kw.setdefault("seed", seed)
        try:
            train = TrainConfig(**train_kw)
            distill = DistillConfig(**distill_kw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad train/distill section: {exc}") from exc
        bench = {"repeats": 10, "seq_len": 16, "batch": 8}
        bench.update(d.get("bench", {}))
        for key in ("repeats", "seq_len", "batch"):
            positive_count(f"bench.{key}", bench[key])
        return cls(model=model, train=train, distill=distill, seed=seed,
                   output_dir=d.get("output_dir", "runs/out"),
                   data_dir=d.get("data_dir"), teacher_checkpoint=teacher,
                   bench=bench, raw=d)

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            return cls.from_dict(json.loads(p.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
