"""CLI surface: every subcommand, manifests, reports, exit codes."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from ttq import autodiff as ad
from ttq.cli import main
from ttq.checkpoint import checkpoint_load
from ttq.data import read_corpus
from ttq.model import ModelConfig, TransformerModel, model_size_bytes
from ttq.train import SCORING_BATCH, score_traces


REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def toy_cfg_dict(data_dir, out_dir, weight_bits=8, compress=True, epochs=1):
    return {
        "seed": 5,
        "output_dir": str(out_dir),
        "data_dir": str(data_dir),
        "model": {
            "vocab_size": 40, "hidden": 16, "ffn_dim": 32, "num_layers": 1,
            "num_heads": 2, "max_seq": 12, "num_intents": 3, "num_slots": 5,
            "compress": compress, "weight_bits": weight_bits,
            "act_bits": 32 if weight_bits == 32 else 8, "dtype": "float32",
            "emb_spec": {"d": 2, "rank": 4, "format": "ttm"},
            "attn_spec": {"d": 2, "rank": 4, "format": "tt"},
            "ffn_spec": {"d": 2, "rank": 4, "format": "tt"},
            "head_spec": {"d": 2, "rank": 4, "format": "tt"},
        },
        "train": {"learning_rate": 1e-3, "epochs": epochs, "batch_size": 16},
        "bench": {"repeats": 2, "seq_len": 8, "batch": 2},
    }


@pytest.fixture()
def corpus(tmp_path):
    data_dir = tmp_path / "data"
    code = main(["gen-data", "--out", str(data_dir), "--seed", "3",
                 "--vocab-size", "40", "--num-intents", "3", "--num-slots", "4",
                 "--num-examples", "120"])
    assert code == 0
    return data_dir


def write_cfg(tmp_path, d):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(d))
    return p


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a), "--seed", "7", "--num-examples", "60"]) == 0
        assert main(["gen-data", "--out", str(b), "--seed", "7", "--num-examples", "60"]) == 0
        for name in ("train.tsv", "dev.tsv", "test.tsv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainEval:
    def test_train_writes_artifacts_and_eval_reproduces(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, epochs=2))
        assert main(["train", str(cfg_path)]) == 0
        assert (out / "model.ttq").exists()
        assert (out / "manifest.json").exists()
        report_lines = (out / "train_report.jsonl").read_text().strip().split("\n")
        entries = [json.loads(l) for l in report_lines]
        assert len(entries) == 2
        dev_acc = entries[-1]["dev_intent_accuracy"]
        # eval on the saved checkpoint reproduces the last reported dev metrics
        code = main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                     "--split", "dev"])
        assert code == 0
        record = json.loads((out / "eval_report.jsonl").read_text().strip())
        assert record["intent_accuracy"] == dev_acc

    def test_manifest_contents(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        main(["train", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 5
        assert len(manifest["config_digest"]) == 64

    def test_env_seed_override(self, tmp_path, corpus, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        monkeypatch.setenv("TTQ_SEED", "99")
        main(["train", str(cfg_path)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_int8_eval_path(self, tmp_path, corpus, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, epochs=2))
        main(["train", str(cfg_path)])
        seen, modes = [], []
        calibrate, forward = TransformerModel.calibrate_int, TransformerModel.forward

        def recording_calibrate(self, batches):
            batches = list(batches)
            seen.extend(batches)
            return calibrate(self, batches)

        def recording_forward(self, ids, mask=None, mode="train"):
            modes.append(mode)
            return forward(self, ids, mask, mode)

        monkeypatch.setattr(TransformerModel, "calibrate_int", recording_calibrate)
        monkeypatch.setattr(TransformerModel, "forward", recording_forward)
        code = main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                     "--split", "dev", "--int8"])
        assert code == 0
        record = json.loads((out / "eval_report.jsonl").read_text().strip())
        assert record["mode"] == "infer_int"
        assert 0.0 <= record["intent_accuracy"] <= 1.0
        assert 0.0 <= record["slot_f1"] <= 1.0
        assert modes[-1] == "infer_int"
        train_batches = list(read_corpus(corpus)["train"].batches(16))[:4]
        assert len(seen) == len(train_batches)
        for (ids, mask), (t_ids, t_mask, _, _) in zip(seen, train_batches):
            np.testing.assert_array_equal(ids, t_ids)
            np.testing.assert_array_equal(mask, t_mask)


    def test_int8_eval_runs_one_integer_forward_per_batch(self, tmp_path, corpus, monkeypatch):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, epochs=2))
        assert main(["train", str(cfg_path)]) == 0
        modes = []
        forward = TransformerModel.forward

        def recording_forward(self, ids, mask=None, mode="train"):
            modes.append(mode)
            return forward(self, ids, mask, mode)

        monkeypatch.setattr(TransformerModel, "forward", recording_forward)
        assert main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                     "--split", "dev", "--int8"]) == 0
        monkeypatch.undo()
        record = json.loads((out / "eval_report.jsonl").read_text().strip())
        corpus_data = read_corpus(corpus)
        assert modes.count("infer_int") == len(list(corpus_data["dev"].batches(SCORING_BATCH)))
        # the metrics are those of scoring the calibrated model's own integer forwards
        model = checkpoint_load(out / "model.ttq")
        model.calibrate_int((ids, mask) for ids, mask, _, _ in
                            list(corpus_data["train"].batches(16))[:4])
        with ad.no_grad():
            metrics = score_traces((model.forward(ids, mask, mode="infer_int"), intents, slots)
                                   for ids, mask, intents, slots
                                   in corpus_data["dev"].batches(SCORING_BATCH))
        assert {k: record[k] for k in metrics} == metrics

    def test_int8_eval_reports_the_logit_error(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, epochs=2))
        assert main(["train", str(cfg_path)]) == 0
        assert main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                     "--split", "dev", "--int8"]) == 0
        record = json.loads((out / "eval_report.jsonl").read_text().strip())
        assert record["int_logit_bound"] == 0.2
        assert 0.0 < record["int_logit_err"] <= record["int_logit_bound"]


    def test_a_split_of_empty_utterances_trains_and_evaluates(self, tmp_path, corpus):
        """``read_corpus`` accepts ``intent<TAB>`` lines.  A test split of only
        such utterances is scored by ``train``, ``eval`` and ``eval --int8``,
        whose logit error then reads the intent logits alone: with no real
        token they come from the full-precision heads on a zero pool, the
        same in both forwards."""
        (corpus / "test.tsv").write_text("0\t\n2\t\n")
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["train", str(cfg_path)]) == 0
        for flags in ([], ["--int8"]):
            assert main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                         "--split", "test", *flags]) == 0
            record = json.loads((out / "eval_report.jsonl").read_text().strip())
            assert record["slot_f1"] == 0.0
        assert record["mode"] == "infer_int" and record["int_logit_err"] == 0.0

    def test_int8_eval_on_a_train_split_of_empty_utterances_is_a_data_error(
            self, tmp_path, corpus, capsys):
        """``eval --int8`` calibrates on the train split's first batches.
        When they hold no token, no calibration data reaches a TT layer:
        that is a data error naming the split, not a traceback."""
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["train", str(cfg_path)]) == 0
        (corpus / "train.tsv").write_text("0\t\n2\t\n1\t\n")
        capsys.readouterr()
        assert main(["eval", str(cfg_path), "--checkpoint", str(out / "model.ttq"),
                     "--split", "test", "--int8"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: --int8 calibrates on the train split")
        assert "Traceback" not in err


class TestDistillCommand:
    def test_distill_runs_from_teacher_checkpoint(self, tmp_path, corpus):
        teacher_out = tmp_path / "teacher"
        t_cfg = write_cfg(tmp_path, toy_cfg_dict(corpus, teacher_out, weight_bits=32,
                                                 compress=False, epochs=3))
        assert main(["train", str(t_cfg)]) == 0
        student_out = tmp_path / "student"
        d = toy_cfg_dict(corpus, student_out, weight_bits=8, epochs=1)
        d["distill"] = {"stage_epochs": 1, "final_epochs": 1, "stage_lr": 1e-3,
                        "final_lr": 1e-3, "batch_size": 16,
                        "teacher_checkpoint": str(teacher_out / "model.ttq")}
        s_cfg = tmp_path / "student.json"
        s_cfg.write_text(json.dumps(d))
        assert main(["distill", str(s_cfg)]) == 0
        report = json.loads((student_out / "distill_report.json").read_text())
        assert len(report["stages"]) == 1 + 1 + 1  # stage 0, stage 1, final
        assert (student_out / "student.ttq").exists()

    def test_compare_flag_writes_side_by_side_report(self, tmp_path, corpus):
        teacher_out = tmp_path / "teacher"
        t_cfg = write_cfg(tmp_path, toy_cfg_dict(corpus, teacher_out, weight_bits=32,
                                                 compress=False, epochs=1))
        main(["train", str(t_cfg)])
        student_out = tmp_path / "student"
        d = toy_cfg_dict(corpus, student_out, weight_bits=8)
        d["distill"] = {"stage_epochs": 1, "final_epochs": 1,
                        "teacher_checkpoint": str(teacher_out / "model.ttq"),
                        "batch_size": 16}
        s_cfg = tmp_path / "student.json"
        s_cfg.write_text(json.dumps(d))
        assert main(["distill", str(s_cfg), "--compare"]) == 0
        rep = json.loads((student_out / "compare_report.json").read_text())
        tr = rep["loss_trajectories"]
        assert len(tr["layer_by_layer"]) == len(tr["all_at_once"])


class TestReports:
    def test_report_size_machine_readable_roundtrip(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, weight_bits=4))
        assert main(["report-size", str(cfg_path)]) == 0
        rec = json.loads((out / "size_report.jsonl").read_text().strip())
        cfg = ModelConfig.from_dict(json.loads(cfg_path.read_text())["model"])
        model = TransformerModel(cfg, 5)
        assert rec["bytes"] == model_size_bytes(model).bytes

    def test_report_size_prints_byte_ratio(self, tmp_path, corpus, capsys):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, weight_bits=4))
        assert main(["report-size", str(cfg_path)]) == 0
        rec = json.loads((out / "size_report.jsonl").read_text().strip())
        assert rec["byte_ratio"] == 4 * rec["param_count_dense"] / rec["bytes"]
        assert f"byte ratio:         {rec['byte_ratio']:.2f}x" in capsys.readouterr().out

    def test_atis_shaped_int2_close_to_int4(self, tmp_path, monkeypatch):
        records = {}
        for name in ("int2", "int4"):
            cfg = json.loads((REPO_CONFIGS / f"atis_shaped_{name}.json").read_text())
            cfg["output_dir"] = str(tmp_path / name)
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(cfg))
            assert main(["report-size", str(p)]) == 0
            records[name] = json.loads((tmp_path / name / "size_report.jsonl").read_text().strip())
        assert records["int2"]["bytes"] <= 1.15 * records["int4"]["bytes"]

    def test_report_flops(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["report-flops", str(cfg_path), "--seq-len", "8"]) == 0
        rec = json.loads((out / "flops_report.jsonl").read_text().strip())
        assert rec["flops"] > 0 and rec["flops_dense"] > rec["flops"]

    def test_bench_records_without_assertions(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["bench", str(cfg_path), "--repeats", "2"]) == 0
        lines = (out / "bench_report.jsonl").read_text().strip().split("\n")
        recs = [json.loads(l) for l in lines]
        assert {r["model"]: r["mode"] for r in recs} == {
            "dense": "train", "tensor_compressed": "train", "infer_fp": "infer_fp",
            "infer_int": "infer_int"}
        for r in recs:
            assert r["mean_s"] > 0

    def test_bench_times_a_training_step_after_the_forwards(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["bench", str(cfg_path), "--repeats", "2"]) == 0
        lines = (out / "bench_report.jsonl").read_text().strip().split("\n")
        assert [(r["model"], r["mode"], r["timed"]) for r in map(json.loads, lines)] == [
            ("dense", "train", "forward"), ("tensor_compressed", "train", "forward"),
            ("infer_fp", "infer_fp", "forward"), ("infer_int", "infer_int", "forward"),
            ("dense", "train", "train_step"), ("tensor_compressed", "train", "train_step")]

    def test_bench_reports_minor_faults_per_timed_step(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["bench", str(cfg_path), "--repeats", "2"]) == 0
        recs = [json.loads(l) for l in (out / "bench_report.jsonl").read_text().split("\n") if l]
        assert {r["timed"] for r in recs} == {"forward", "train_step"}
        for r in recs:
            faults = r["minor_faults_per_step"]
            assert isinstance(faults, int) and faults >= 0
        assert "minor faults" in (out / "bench_report.txt").read_text()

    def test_bench_reports_each_forward_modes_working_set(self, tmp_path, corpus):
        """Each forward record's ``peak_mib`` is the traced peak of one more,
        untimed repeat: more than the model's logits, far less than the
        whole process; a training step reports none."""
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["bench", str(cfg_path), "--repeats", "2"]) == 0
        recs = [json.loads(l) for l in (out / "bench_report.jsonl").read_text().split("\n") if l]
        forwards = [r for r in recs if r["timed"] == "forward"]
        assert [r["model"] for r in forwards] == ["dense", "tensor_compressed", "infer_fp",
                                                  "infer_int"]
        logits_mib = 2 * 8 * (3 + 5) * 4 / 2 ** 20  # bench batch x seq, intents + slots
        for r in forwards:
            assert logits_mib < r["peak_mib"] < 16
        assert all("peak_mib" not in r for r in recs if r["timed"] == "train_step")
        assert (out / "bench_report.txt").read_text().count("MiB") == len(forwards)

    @pytest.mark.parametrize("argv, repeats", [([], 2), (["--repeats", "1"], 1)],
                             ids=["from-config", "from-flag"])
    def test_bench_manifest_records_the_repeats_it_ran(self, tmp_path, corpus, argv, repeats):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        assert main(["bench", str(cfg_path), *argv]) == 0
        assert json.loads((out / "manifest.json").read_text())["repeats"] == repeats
        recs = [json.loads(l) for l in (out / "bench_report.jsonl").read_text().split("\n") if l]
        assert {r["repeats"] for r in recs} == {repeats}

    def test_bench_times_infer_int_only_for_quantized_models(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out, weight_bits=32))
        assert main(["bench", str(cfg_path), "--repeats", "1"]) == 0
        lines = (out / "bench_report.jsonl").read_text().strip().split("\n")
        assert {json.loads(l)["model"] for l in lines} == {"dense", "tensor_compressed"}


class TestErrorPaths:
    def test_missing_config_exit_code(self, capsys):
        assert main(["train", "/nonexistent/config.json"]) == 2

    def test_bad_json_exit_code(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["train", str(p)]) == 2

    def test_missing_data_dir_exit_code(self, tmp_path):
        cfg = toy_cfg_dict(tmp_path / "missing", tmp_path / "out")
        del cfg["data_dir"]
        p = write_cfg(tmp_path, cfg)
        assert main(["train", str(p)]) == 2

    @pytest.mark.parametrize("damage", ["label", "meta_json", "meta_key"])
    def test_bad_corpus_exit_code(self, tmp_path, corpus, capsys, damage):
        if damage == "label":
            train = corpus / "train.tsv"
            train.write_text(train.read_text() + "3\t5:0\n")  # intents are 0..2
        else:
            meta = corpus / "meta.json"
            meta.write_text("{not json" if damage == "meta_json" else '{"vocab_size": 40}')
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, tmp_path / "run"))
        assert main(["train", str(cfg_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_corpus_with_more_labels_than_the_model_exit_code(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--out", str(data_dir), "--seed", "3", "--vocab-size", "40",
                     "--num-intents", "5", "--num-slots", "4", "--num-examples", "60"]) == 0
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(data_dir, tmp_path / "run"))  # 3 intents
        assert main(["train", str(cfg_path)]) == 3
        assert "labels outside the model's 3 intents" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_code(self, tmp_path, corpus):
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        main(["train", str(cfg_path)])
        ckpt = out / "model.ttq"
        raw = bytearray(ckpt.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        ckpt.write_bytes(bytes(raw))
        assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt)]) == 5

    def test_bad_code_width_exit_code(self, tmp_path, corpus, capsys):
        from test_checkpoint import FIXTURE, record_kind_offset, with_crc
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, tmp_path / "run"))
        raw = bytearray(FIXTURE.read_bytes())
        raw[record_kind_offset(raw, "embedding.core0") + 1] = 0
        ckpt = tmp_path / "bad_width.ttq"
        ckpt.write_bytes(with_crc(raw))
        assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt), "--int8"]) == 5
        assert "embedding.core0" in capsys.readouterr().err

    def test_bad_record_scale_exit_code(self, tmp_path, corpus, capsys):
        from test_checkpoint import FIXTURE, record_kind_offset, with_crc
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, tmp_path / "run"))
        raw = bytearray(FIXTURE.read_bytes())
        at = record_kind_offset(raw, "embedding.core0")
        raw[at + 2:at + 6] = struct.pack("<f", float("nan"))
        ckpt = tmp_path / "bad_scale.ttq"
        ckpt.write_bytes(with_crc(raw))
        assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt)]) == 5
        assert "record embedding.core0 has scale nan" in capsys.readouterr().err

    def test_bad_stage_scales_exit_code(self, tmp_path, corpus, capsys):
        from test_checkpoint import FIXTURE, with_meta, with_stage_scales
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, tmp_path / "run"))
        ckpt = tmp_path / "bad_stage_scales.ttq"
        ckpt.write_bytes(with_meta(FIXTURE.read_bytes(), "encoder0.q.meta",
                                   with_stage_scales([-1.0] * 4)))
        assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt), "--int8"]) == 5
        assert "record encoder0.q.meta has stage_scales" in capsys.readouterr().err

    BAD_MODEL_CONFIGS = [
        ("model", "dtype", "float16"),
        ("attn_spec", "format", "ttm"),
        ("emb_spec", "format", "tt"),
        ("model", "num_heads", 0),
        ("model", "vocab_size", 0),
        ("model", "hidden", 0),
        ("model", "ffn_dim", 0),
        ("attn_spec", "rank", 0),
        ("model", "max_seq", 0),
        ("model", "num_intents", 0),
        ("model", "num_slots", 0),
        ("model", "num_layers", -1),
        ("ffn_spec", "d", 0),
        ("head_spec", "row_factors", [0, 4]),
        ("emb_spec", "ranks", [1, 0, 1]),
    ]

    @pytest.mark.parametrize("section, key, value", BAD_MODEL_CONFIGS,
                             ids=["-".join(str(part).replace(" ", "") for part in case)
                                  for case in BAD_MODEL_CONFIGS])
    def test_bad_model_config_exit_code(self, tmp_path, corpus, capsys, section, key, value):
        cfg = toy_cfg_dict(corpus, tmp_path / "run")
        target = cfg["model"] if section == "model" else cfg["model"][section]
        target[key] = value
        assert main(["report-size", str(write_cfg(tmp_path, cfg))]) == 2
        assert "config error" in capsys.readouterr().err

    BAD_LOOP_CONFIGS = [("train", "batch_size", 0), ("train", "batch_size", -4),
                        ("train", "epochs", -1), ("distill", "batch_size", 0),
                        ("distill", "stage_epochs", -1), ("distill", "final_epochs", -1)]

    @pytest.mark.parametrize("section, key, value", BAD_LOOP_CONFIGS,
                             ids=[f"{section}.{key}={value}"
                                  for section, key, value in BAD_LOOP_CONFIGS])
    def test_bad_loop_config_exit_code(self, tmp_path, corpus, capsys, section, key, value):
        out = tmp_path / "run"
        cfg = toy_cfg_dict(corpus, out)
        cfg.setdefault(section, {})[key] = value
        assert main(["train", str(write_cfg(tmp_path, cfg))]) == 2
        bound = 1 if key == "batch_size" else 0
        assert f"config error: bad train/distill section: {key} must be >= {bound}, got {value}" \
            in capsys.readouterr().err
        assert not out.exists()  # rejected before any training

    @pytest.mark.parametrize("compress", [False, True], ids=["dense", "fp32_compressed"])
    def test_int8_eval_without_an_integer_path_exit_code(self, tmp_path, corpus, capsys,
                                                         compress):
        from ttq.checkpoint import checkpoint_save
        cfg = toy_cfg_dict(corpus, tmp_path / "run", weight_bits=32, compress=compress)
        ckpt = tmp_path / "float.ttq"
        checkpoint_save(TransformerModel(ModelConfig.from_dict(cfg["model"]), 0), ckpt)
        assert main(["eval", str(write_cfg(tmp_path, cfg)), "--checkpoint", str(ckpt),
                     "--int8"]) == 2
        err = capsys.readouterr().err
        assert "config error: --int8 needs TT cores with quantized weights" in err
        assert f"compress={compress}, weight_bits=32" in err

    @pytest.mark.parametrize("env, seed, shown", [("abc", 5, "'abc'"), ("1.5", 5, "'1.5'"),
                                                  ("-1", 5, "-1"), (None, 1.5, "1.5"),
                                                  (None, True, "True")],
                             ids=["env-abc", "env-1.5", "env-minus1", "config-1.5", "config-true"])
    def test_bad_seed_exit_code(self, tmp_path, corpus, monkeypatch, capsys, env, seed, shown):
        if env is not None:
            monkeypatch.setenv("TTQ_SEED", env)
        cfg = dict(toy_cfg_dict(corpus, tmp_path / "run"), seed=seed)
        assert main(["report-size", str(write_cfg(tmp_path, cfg))]) == 2
        assert f"config error: seed must be an integer >= 0 (TTQ_SEED or 'seed'), got {shown}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv, bench, name", [
        pytest.param(["bench", "--repeats", "-1"], None, "--repeats", id="repeats=-1"),
        pytest.param(["bench", "--repeats", "0"], None, "--repeats", id="repeats=0"),
        pytest.param(["report-flops", "--seq-len", "-3"], None, "--seq-len", id="seq-len=-3"),
        pytest.param(["report-flops", "--seq-len", "0"], None, "--seq-len", id="seq-len=0"),
        pytest.param(["bench"], ("repeats", 0), "bench.repeats", id="bench.repeats=0"),
        pytest.param(["bench"], ("seq_len", -1), "bench.seq_len", id="bench.seq_len=-1"),
        pytest.param(["bench"], ("batch", 0), "bench.batch", id="bench.batch=0"),
        pytest.param(["bench"], ("batch", 2.5), "bench.batch", id="bench.batch=2.5"),
    ])
    def test_counts_below_one_exit_code(self, tmp_path, corpus, capsys, argv, bench, name):
        out = tmp_path / "run"
        cfg = toy_cfg_dict(corpus, out)
        if bench is not None:
            cfg["bench"][bench[0]] = bench[1]
        command, *flags = argv
        assert main([command, str(write_cfg(tmp_path, cfg)), *flags]) == 2
        assert f"config error: {name} must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()  # rejected before any report or manifest

    def test_bench_sequence_longer_than_the_model_exit_code(self, tmp_path, corpus, capsys):
        cfg = toy_cfg_dict(corpus, tmp_path / "run")
        cfg["bench"]["seq_len"] = cfg["model"]["max_seq"] + 1
        assert main(["bench", str(write_cfg(tmp_path, cfg))]) == 2
        assert "config error: bench.seq_len 13 exceeds model.max_seq 12" in capsys.readouterr().err
        assert main(["report-size", str(write_cfg(tmp_path, cfg))]) == 0  # only bench reads it

    def test_malformed_checkpoint_exit_code(self, tmp_path, corpus, monkeypatch, capsys):
        from ttq import checkpoint as ckpt_module
        out = tmp_path / "run"
        cfg_path = write_cfg(tmp_path, toy_cfg_dict(corpus, out))
        model = TransformerModel(ModelConfig.from_dict(toy_cfg_dict(corpus, out)["model"]), 0)
        records = [r for r in ckpt_module._records_for_model(model) if r[0] != "ln_emb.beta"]
        monkeypatch.setattr(ckpt_module, "_records_for_model", lambda m: iter(records))
        ckpt = tmp_path / "malformed.ttq"
        ckpt_module.checkpoint_save(model, ckpt)
        assert main(["eval", str(cfg_path), "--checkpoint", str(ckpt)]) == 5
        assert "ln_emb.beta" in capsys.readouterr().err
