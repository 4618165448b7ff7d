"""Synthetic corpus generation and line-format I/O."""

import numpy as np
import pytest

from ttq.data import (
    DataFormatError,
    Dataset,
    gen_synthetic_dataset,
    pad_batch,
    read_corpus,
    write_corpus,
)


class TestGeneration:
    def test_split_sizes(self):
        splits = gen_synthetic_dataset(seed=0, num_examples=1000)
        assert len(splits["train"]) + len(splits["dev"]) + len(splits["test"]) == 1000
        assert len(splits["train"]) == pytest.approx(800, abs=20)
        assert len(splits["dev"]) == pytest.approx(100, abs=10)

    def test_deterministic_under_seed(self):
        a = gen_synthetic_dataset(seed=7, num_examples=200)
        b = gen_synthetic_dataset(seed=7, num_examples=200)
        assert a["train"].examples == b["train"].examples
        assert a["test"].examples == b["test"].examples

    def test_different_seeds_differ(self):
        a = gen_synthetic_dataset(seed=1, num_examples=200)
        b = gen_synthetic_dataset(seed=2, num_examples=200)
        assert a["train"].examples != b["train"].examples

    def test_label_distribution_balanced_across_splits(self):
        splits = gen_synthetic_dataset(seed=3, num_intents=5, num_examples=2000)
        global_counts = np.zeros(5)
        for ds in splits.values():
            for _, intent, _ in ds.examples:
                global_counts[intent] += 1
        global_frac = global_counts / global_counts.sum()
        for ds in splits.values():
            counts = np.zeros(5)
            for _, intent, _ in ds.examples:
                counts[intent] += 1
            frac = counts / counts.sum()
            np.testing.assert_allclose(frac, global_frac, atol=0.05)

    def test_single_intent_degenerate(self):
        splits = gen_synthetic_dataset(seed=4, num_intents=1, num_examples=50)
        for ds in splits.values():
            assert all(intent == 0 for _, intent, _ in ds.examples)

    def test_slot_labels_within_range_and_token_zero_reserved(self):
        splits = gen_synthetic_dataset(seed=5, num_slots=4, num_examples=300)
        for ds in splits.values():
            assert ds.num_slots == 5  # outside label + 4 slot types
            for toks, _, slots in ds.examples:
                assert all(1 <= t < ds.vocab_size for t in toks)
                assert all(0 <= s <= 4 for s in slots)

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(seed=0, vocab_size=5, num_intents=6, num_slots=8)


class TestBatches:
    def test_pad_batch_shapes_and_mask(self):
        exs = [([1, 2, 3], 0, [0, 1, 0]), ([4, 5], 1, [2, 0])]
        ids, mask, intents, slots = pad_batch(exs)
        assert ids.shape == (2, 3)
        np.testing.assert_array_equal(mask, [[1, 1, 1], [1, 1, 0]])
        np.testing.assert_array_equal(ids[1], [4, 5, 0])
        np.testing.assert_array_equal(slots[0], [0, 1, 0])
        np.testing.assert_array_equal(intents, [0, 1])

    def test_batches_cover_dataset(self):
        splits = gen_synthetic_dataset(seed=6, num_examples=100)
        seen = 0
        for ids, mask, intents, slots in splits["train"].batches(16):
            seen += len(intents)
        assert seen == len(splits["train"])

    def test_order_argument_respected(self):
        splits = gen_synthetic_dataset(seed=7, num_examples=60)
        ds = splits["train"]
        order = np.arange(len(ds))[::-1]
        first = next(ds.batches(4, order=order))
        expected = pad_batch([ds.examples[i] for i in order[:4]])
        np.testing.assert_array_equal(first[0], expected[0])


class TestCorpusIO:
    def test_write_read_roundtrip(self, tmp_path):
        splits = gen_synthetic_dataset(seed=8, num_examples=120)
        write_corpus(splits, tmp_path, seed=8)
        loaded = read_corpus(tmp_path)
        for name in ("train", "dev", "test"):
            assert loaded[name].examples == splits[name].examples
            assert loaded[name].vocab_size == splits[name].vocab_size

    def test_write_twice_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_corpus(gen_synthetic_dataset(seed=9, num_examples=80), a_dir, seed=9)
        write_corpus(gen_synthetic_dataset(seed=9, num_examples=80), b_dir, seed=9)
        for name in ("train.tsv", "dev.tsv", "test.tsv", "meta.json"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_malformed_line_rejected(self, tmp_path):
        splits = gen_synthetic_dataset(seed=10, num_examples=40)
        write_corpus(splits, tmp_path, seed=10)
        bad = tmp_path / "train.tsv"
        bad.write_text(bad.read_text() + "not a line\n")
        with pytest.raises(DataFormatError):
            read_corpus(tmp_path)

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            read_corpus(tmp_path)

    def test_misaligned_slots_rejected(self):
        with pytest.raises(DataFormatError):
            Dataset([([1, 2], 0, [0])], vocab_size=10, num_intents=2, num_slots=3)

    @pytest.mark.parametrize("intent, slots", [(2, [0, 1]), (-1, [0, 1]), (0, [0, 3]),
                                               (0, [99, 0]), (0, [-1, 0])])
    def test_label_outside_its_range_rejected(self, intent, slots):
        with pytest.raises(DataFormatError, match="intent id|slot id"):
            Dataset([([1, 2], intent, slots)], vocab_size=10, num_intents=2, num_slots=3)

    def test_labels_at_the_range_edges_accepted(self):
        assert len(Dataset([([1, 2], 1, [2, 0])], vocab_size=10, num_intents=2,
                           num_slots=3)) == 1

    @pytest.mark.parametrize("meta", ["{not json", "[1, 2]",
                                      '{"vocab_size": 120, "num_intents": 6}',
                                      '{"vocab_size": 120, "num_intents": "6", "num_slots": 9}'])
    def test_meta_not_json_lacking_a_key_or_a_size_rejected(self, tmp_path, meta):
        write_corpus(gen_synthetic_dataset(seed=10, num_examples=40), tmp_path, seed=10)
        (tmp_path / "meta.json").write_text(meta)
        with pytest.raises(DataFormatError, match="meta.json"):
            read_corpus(tmp_path)

    def test_label_outside_meta_range_rejected_on_read(self, tmp_path):
        splits = gen_synthetic_dataset(seed=10, num_examples=40)
        write_corpus(splits, tmp_path, seed=10)
        bad = tmp_path / "train.tsv"
        bad.write_text(bad.read_text() + f"{splits['train'].num_intents}\t5:0\n")
        with pytest.raises(DataFormatError, match="intent id"):
            read_corpus(tmp_path)
