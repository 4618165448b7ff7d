"""Seeded intent/slot inputs for the benchmark.

The benchmark builds its own utterances instead of calling
``ttq.data.gen_synthetic_dataset``, so an edit to the program's generator
cannot change what a workload runs.  Utterances are learnable: each intent
owns a pool of marker tokens and each slot type a pool of carrier tokens, so
training loss falls and ``final_loss`` measures learning.

Token 0 is padding and never emitted; slot label 0 is the outside label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ttq.data import Dataset

MARKER_SHARE = 0.4  # of the usable vocabulary, split over the intents
CARRIER_SHARE = 0.4  # of the usable vocabulary, split over the slot types


@dataclass(frozen=True)
class Lexicon:
    vocab_size: int
    num_intents: int
    num_slots: int  # slot labels including the outside label 0
    markers: tuple  # per intent, token ids
    carriers: tuple  # per slot type 1..num_slots-1, token ids
    filler: np.ndarray


def make_lexicon(rng: np.random.Generator, vocab_size: int, num_intents: int,
                 num_slots: int) -> Lexicon:
    tokens = rng.permutation(np.arange(1, vocab_size))
    n_marker = max(1, int(len(tokens) * MARKER_SHARE) // num_intents)
    n_carrier = max(1, int(len(tokens) * CARRIER_SHARE) // (num_slots - 1))
    if n_marker * num_intents + n_carrier * (num_slots - 1) >= len(tokens):
        raise ValueError(f"vocabulary {vocab_size} too small for {num_intents} intents "
                         f"and {num_slots - 1} slot types")
    markers = tuple(tokens[i * n_marker:(i + 1) * n_marker] for i in range(num_intents))
    start = n_marker * num_intents
    carriers = tuple(tokens[start + i * n_carrier:start + (i + 1) * n_carrier]
                     for i in range(num_slots - 1))
    filler = tokens[start + n_carrier * (num_slots - 1):]
    return Lexicon(vocab_size, num_intents, num_slots, markers, carriers, filler)


def utterances(rng: np.random.Generator, lex: Lexicon, count: int, min_len: int,
               max_len: int) -> list[tuple[list[int], int, list[int]]]:
    """``count`` (tokens, intent, slots) examples with lengths in [min_len, max_len].

    Half the positions carry a marker of the intent, three tenths start a slot
    span of one or two carrier tokens, the rest are filler.
    """
    out = []
    for _ in range(count):
        intent = int(rng.integers(lex.num_intents))
        length = int(rng.integers(min_len, max_len + 1))
        toks: list[int] = []
        slots: list[int] = []
        while len(toks) < length:
            u = rng.random()
            if u < 0.5:
                toks.append(int(rng.choice(lex.markers[intent])))
                slots.append(0)
            elif u < 0.8:
                slot = int(rng.integers(1, lex.num_slots))
                for _ in range(min(int(rng.integers(1, 3)), length - len(toks))):
                    toks.append(int(rng.choice(lex.carriers[slot - 1])))
                    slots.append(slot)
            else:
                toks.append(int(rng.choice(lex.filler)))
                slots.append(0)
        out.append((toks, intent, slots))
    return out


def dataset(examples, lex: Lexicon, split: str) -> Dataset:
    return Dataset(list(examples), lex.vocab_size, lex.num_intents, lex.num_slots, split=split)


def padding_share(batches) -> float:
    """1 - mean mask over padded (ids, mask, ...) batches, weighted by cells."""
    cells = sum(b[1].size for b in batches)
    return 1.0 - sum(float(b[1].sum()) for b in batches) / cells


def utterance_keys(batches) -> set[tuple[int, ...]]:
    """The unpadded token sequences of (ids, mask, ...) batches."""
    return {tuple(row[m > 0].tolist()) for b in batches for row, m in zip(b[0], b[1])}
