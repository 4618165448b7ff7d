"""Synthetic intent/slot corpus generation and line-format I/O.

Corpus line format (UTF-8, one utterance per line):

    intent_id <tab> token_id:slot_id token_id:slot_id ...

Slot id 0 is the outside label.  Token id 0 is reserved for padding and never
appears in generated data.  Splits are stratified by intent so every split's
label distribution matches the corpus distribution up to rounding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_LEN, MAX_LEN = 6, 12  # tokens per synthetic utterance


class DataFormatError(ValueError):
    """Malformed corpus file."""


@dataclass
class Dataset:
    examples: list  # (token_ids: list[int], intent: int, slot_ids: list[int])
    vocab_size: int
    num_intents: int
    num_slots: int  # slot label count including the outside label 0
    split: str = "train"

    def __len__(self):
        return len(self.examples)

    def __post_init__(self):
        for toks, intent, slots in self.examples:
            if len(toks) != len(slots):
                raise DataFormatError("token and slot sequences must align")
            if any(t < 0 or t >= self.vocab_size for t in toks):
                raise DataFormatError("token id out of vocabulary range")
            if not 0 <= intent < self.num_intents:
                raise DataFormatError(f"intent id {intent} outside [0, {self.num_intents})")
            if any(s < 0 or s >= self.num_slots for s in slots):
                raise DataFormatError(f"slot id outside [0, {self.num_slots})")

    def batches(self, batch_size: int, order: np.ndarray | None = None):
        """Yield (ids, mask, intents, slots) arrays padded per batch, taking
        the examples in ``order`` (default: as stored)."""
        idx = np.arange(len(self.examples)) if order is None else np.asarray(order)
        for start in range(0, len(idx), batch_size):
            chunk = [self.examples[i] for i in idx[start:start + batch_size]]
            yield pad_batch(chunk)


def pad_batch(examples):
    """Pad a list of (tokens, intent, slots) to rectangular arrays, at least
    one position wide: a batch of empty utterances still gives attention a
    (masked) key to normalize over."""
    b = len(examples)
    s = max(1, max(len(toks) for toks, _, _ in examples))
    ids = np.zeros((b, s), dtype=np.int64)
    mask = np.zeros((b, s), dtype=np.float64)
    slots = np.zeros((b, s), dtype=np.int64)
    intents = np.zeros(b, dtype=np.int64)
    for i, (toks, intent, sl) in enumerate(examples):
        ids[i, : len(toks)] = toks
        mask[i, : len(toks)] = 1.0
        slots[i, : len(sl)] = sl
        intents[i] = intent
    return ids, mask, intents, slots


def gen_synthetic_dataset(seed: int, vocab_size: int = 120, num_intents: int = 6,
                          num_slots: int = 8, num_examples: int = 2000) -> dict[str, Dataset]:
    """Generate a learnable intent/slot corpus with an 80/10/10 split.

    Each intent owns a pool of marker tokens; each slot type owns a pool of
    carrier tokens emitted as short labeled spans.  Intent labels cycle so
    classes stay balanced, and the split is stratified by intent.
    """
    if min(vocab_size, num_intents, num_examples) < 1 or num_slots < 1:
        raise ValueError("sizes must be >= 1")
    usable = vocab_size - 1  # token 0 reserved for padding
    need = num_intents + num_slots
    if usable < need + 1:
        raise ValueError(f"vocab {vocab_size} too small for {num_intents} intents "
                         f"and {num_slots} slot types")
    rng = np.random.default_rng(seed)
    marker_per_intent = max(1, int(usable * 0.4) // num_intents)
    carrier_per_slot = max(1, int(usable * 0.4) // num_slots)
    tokens = np.arange(1, vocab_size)
    rng.shuffle(tokens)
    cursor = 0
    intent_pools = []
    for _ in range(num_intents):
        intent_pools.append(tokens[cursor:cursor + marker_per_intent])
        cursor += marker_per_intent
    slot_pools = []
    for _ in range(num_slots):
        slot_pools.append(tokens[cursor:cursor + carrier_per_slot])
        cursor += carrier_per_slot
    filler = tokens[cursor:]
    if len(filler) == 0:
        filler = tokens[:1]

    examples = []
    for n in range(num_examples):
        intent = n % num_intents
        length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
        toks, slots = [], []
        pos = 0
        while pos < length:
            u = rng.random()
            if u < 0.5:
                toks.append(int(rng.choice(intent_pools[intent])))
                slots.append(0)
                pos += 1
            elif u < 0.8:
                slot_type = int(rng.integers(1, num_slots + 1))
                span = min(int(rng.integers(1, 3)), length - pos)
                for _ in range(span):
                    toks.append(int(rng.choice(slot_pools[slot_type - 1])))
                    slots.append(slot_type)
                    pos += 1
            else:
                toks.append(int(rng.choice(filler)))
                slots.append(0)
                pos += 1
        examples.append((toks, intent, slots))

    splits = {"train": [], "dev": [], "test": []}
    per_intent_counters = {}
    for ex in examples:
        c = per_intent_counters.get(ex[1], 0)
        per_intent_counters[ex[1]] = c + 1
        slot_pos = c % 10
        if slot_pos < 8:
            splits["train"].append(ex)
        elif slot_pos == 8:
            splits["dev"].append(ex)
        else:
            splits["test"].append(ex)
    return {
        name: Dataset(exs, vocab_size, num_intents, num_slots + 1, split=name)
        for name, exs in splits.items()
    }


def write_corpus(datasets: dict[str, Dataset], out_dir: str | Path, seed: int | None = None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    any_ds = next(iter(datasets.values()))
    meta = {
        "vocab_size": any_ds.vocab_size,
        "num_intents": any_ds.num_intents,
        "num_slots": any_ds.num_slots,
        "seed": seed,
        "format": "intent_id<TAB>token_id:slot_id ...",
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    for name, ds in datasets.items():
        lines = []
        for toks, intent, slots in ds.examples:
            pairs = " ".join(f"{t}:{s}" for t, s in zip(toks, slots))
            lines.append(f"{intent}\t{pairs}")
        (out / f"{name}.tsv").write_text("\n".join(lines) + "\n")


def read_corpus(data_dir: str | Path) -> dict[str, Dataset]:
    root = Path(data_dir)
    meta_path = root / "meta.json"
    if not meta_path.exists():
        raise DataFormatError(f"missing {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        sizes = [meta[key] for key in ("vocab_size", "num_intents", "num_slots")]
    except (ValueError, TypeError, KeyError) as exc:
        raise DataFormatError(f"{meta_path}: not a JSON object with vocab_size, "
                              f"num_intents and num_slots ({exc!r})") from exc
    if not all(isinstance(n, int) and n > 0 for n in sizes):
        raise DataFormatError(f"{meta_path}: sizes must be positive integers, got {sizes}")
    datasets = {}
    for name in ("train", "dev", "test"):
        path = root / f"{name}.tsv"
        if not path.exists():
            continue
        examples = []
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                intent_part, tokens_part = line.split("\t")
                toks, slots = [], []
                for pair in tokens_part.split():
                    t, s = pair.split(":")
                    toks.append(int(t))
                    slots.append(int(s))
                examples.append((toks, int(intent_part), slots))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: malformed line") from exc
        datasets[name] = Dataset(examples, *sizes, split=name)
    if not datasets:
        raise DataFormatError(f"no split files found in {root}")
    return datasets
