"""Command-line surface.

    ttq gen-data     --out DIR [--seed N --vocab-size V ...]
    ttq train        CONFIG
    ttq distill      CONFIG [--compare]
    ttq eval         CONFIG --checkpoint PATH [--split dev|test] [--int8]
    ttq report-size  CONFIG
    ttq report-flops CONFIG [--seq-len N]
    ttq bench        CONFIG [--repeats N]

Every run writes ``manifest.json`` (command, config digest, seed, version)
into the output directory; reports are written both as human-readable text
and as line-delimited JSON.  Exit codes: 0 ok, 2 config, 3 data, 4 numeric
divergence, 5 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from . import __version__
from . import autodiff as ad
from .checkpoint import CheckpointError, checkpoint_load, checkpoint_save
from .config import ConfigError, RunConfig, positive_count
from .data import DataFormatError, gen_synthetic_dataset, read_corpus, write_corpus
from .distill import compare_schedules, run_distillation
from .model import INT_LOGIT_BOUND, TransformerModel, architecture_flops, model_size_bytes
from .quant import FULL_PRECISION
from .train import (SCORING_BATCH, AdamState, DivergenceError, evaluate, intent_slot_loss,
                    score_traces, train_end_to_end, train_step)

EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_IO = 2, 3, 4, 5


def _write_manifest(cfg: RunConfig, command: str, extra: dict | None = None):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "version": __version__,
        "argv": sys.argv[1:],
    }
    if extra:
        manifest.update(extra)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_report(cfg: RunConfig, stem: str, text: str, records: list[dict]):
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.txt").write_text(text)
    with open(out / f"{stem}.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _has_int_path(model_cfg) -> bool:
    """Whether a model of ``model_cfg`` has an ``infer_int`` forward: TT
    cores with quantized weights and activations."""
    return model_cfg.compress and FULL_PRECISION not in (model_cfg.weight_bits,
                                                         model_cfg.act_bits)


def _load_data(cfg: RunConfig):
    if cfg.data_dir is None:
        raise ConfigError("config has no 'data_dir'")
    return read_corpus(cfg.data_dir)


def cmd_gen_data(args) -> int:
    splits = gen_synthetic_dataset(
        seed=args.seed, vocab_size=args.vocab_size, num_intents=args.num_intents,
        num_slots=args.num_slots, num_examples=args.num_examples)
    write_corpus(splits, args.out, seed=args.seed)
    counts = {k: len(v) for k, v in splits.items()}
    print(f"wrote corpus to {args.out}: {counts}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    data = _load_data(cfg)
    _write_manifest(cfg, "train")
    model = TransformerModel(cfg.model, cfg.seed)
    out = Path(cfg.output_dir)

    def log(entry):
        print(json.dumps(entry, sort_keys=True))

    report = train_end_to_end(model, data["train"], data.get("dev"), cfg.train, log=log)
    ckpt = out / "model.ttq"
    checkpoint_save(model, ckpt)
    lines = [json.dumps(e, sort_keys=True) for e in report["epochs"]]
    (out / "train_report.jsonl").write_text("\n".join(lines) + "\n")
    test_metrics = evaluate(model, data["test"]) if "test" in data else {}
    summary = {"checkpoint": str(ckpt), **{f"test_{k}": v for k, v in test_metrics.items()}}
    (out / "train_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_distill(args) -> int:
    cfg = RunConfig.load(args.config)
    data = _load_data(cfg)
    if cfg.teacher_checkpoint is None:
        raise ConfigError("distill needs distill.teacher_checkpoint in the config")
    teacher = checkpoint_load(cfg.teacher_checkpoint)
    _write_manifest(cfg, "distill", {"compare": bool(args.compare)})
    out = Path(cfg.output_dir)

    def log(entry):
        print(json.dumps(entry, sort_keys=True))

    if args.compare:
        def factory():
            return TransformerModel(cfg.model, cfg.seed)

        result = compare_schedules(teacher, factory, data["train"], cfg.distill,
                                   dev_set=data.get("dev"))
        student = result["students"]["layer_by_layer"]
        record = {
            "layer_by_layer": result["layer_by_layer"]["stages"],
            "all_at_once": result["all_at_once"]["stages"],
            "loss_trajectories": result["loss_trajectories"],
        }
        (out / "compare_report.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        student = TransformerModel(cfg.model, cfg.seed)
        report = run_distillation(teacher, student, data["train"], cfg.distill,
                                  dev_set=data.get("dev"), log=log)
        (out / "distill_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    ckpt = out / "student.ttq"
    checkpoint_save(student, ckpt)
    metrics = evaluate(student, data["test"]) if "test" in data else {}
    summary = {"checkpoint": str(ckpt), **{f"test_{k}": v for k, v in metrics.items()}}
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    cfg = RunConfig.load(args.config)
    data = _load_data(cfg)
    model = checkpoint_load(args.checkpoint)
    _write_manifest(cfg, "eval", {"checkpoint": args.checkpoint, "split": args.split})
    split = data.get(args.split)
    if split is None:
        raise DataFormatError(f"split {args.split!r} not present in {cfg.data_dir}")
    if args.int8:
        mc = model.config
        if not _has_int_path(mc):
            raise ConfigError(f"--int8 needs TT cores with quantized weights and activations; "
                              f"the checkpoint has compress={mc.compress}, "
                              f"weight_bits={mc.weight_bits}, act_bits={mc.act_bits}")
        if "train" not in data:
            raise DataFormatError(f"--int8 calibrates on the train split, absent from {cfg.data_dir}")
        batches = [b[:2] for b in itertools.islice(data["train"].batches(cfg.train.batch_size), 4)]
        if not any(mask.any() for _, mask in batches):
            raise DataFormatError(f"--int8 calibrates on the train split of {cfg.data_dir}, "
                                  f"whose first {len(batches)} batches hold no token")
        model.calibrate_int(batches)
        metrics = _int8_metrics(model, split)
    else:
        metrics = evaluate(model, split)
    record = {"split": args.split, **metrics}
    _write_report(cfg, "eval_report", json.dumps(record, indent=2, sort_keys=True) + "\n", [record])
    print(json.dumps(record, sort_keys=True))
    return 0


def _int8_metrics(model: TransformerModel, split) -> dict:
    """``evaluate``'s metrics of the ``infer_int`` forward, and its logit
    error: the worst batch's max|int - surrogate| / max|surrogate|, each
    batch taking the larger of that ratio over the intent logits and over
    the slot logits of real tokens (a batch with none has only the
    intent pair).  One integer forward per batch serves both; each batch's
    surrogate forward runs first."""
    worst = 0.0

    def traces():
        nonlocal worst
        for ids, mask, intents, slots in split.batches(SCORING_BATCH):
            with ad.no_grad():
                ref = model.forward(ids, mask, mode="train")
                got = model.forward(ids, mask, mode="infer_int")
            pairs = [(got.intent_logits.data, ref.intent_logits.data)]
            valid = mask > 0
            if valid.any():
                pairs.append((got.slot_logits.data[valid], ref.slot_logits.data[valid]))
            for a, b in pairs:
                worst = max(worst, float(np.abs(a - b).max() / np.abs(b).max()))
            yield got, intents, slots

    metrics = score_traces(traces())
    return {**metrics, "mode": "infer_int", "int_logit_err": worst,
            "int_logit_bound": INT_LOGIT_BOUND}


def cmd_report_size(args) -> int:
    cfg = RunConfig.load(args.config)
    _write_manifest(cfg, "report-size")
    model = TransformerModel(cfg.model, cfg.seed)
    report = model_size_bytes(model)
    lines = [f"model size report ({cfg.model.weight_bits}-bit weights)"]
    lines.append(f"  total bytes:        {report.bytes}")
    lines.append(f"  compressed params:  {report.param_count_compressed}")
    lines.append(f"  dense params:       {report.param_count_dense}")
    lines.append(f"  compression ratio:  {report.compression_ratio:.2f}x")
    lines.append(f"  byte ratio:         {report.byte_ratio:.2f}x (dense FP32 bytes / stored bytes)")
    lines.append("  per-layer bytes:")
    for item in report.items:
        lines.append(f"    {item['name']:40s} {item['bytes']}")
    text = "\n".join(lines) + "\n"
    _write_report(cfg, "size_report", text, [dict(report.to_dict(), byte_ratio=report.byte_ratio)])
    print(text, end="")
    return 0


def cmd_report_flops(args) -> int:
    cfg = RunConfig.load(args.config)
    positive_count("--seq-len", args.seq_len)
    _write_manifest(cfg, "report-flops", {"seq_len": args.seq_len})
    report = architecture_flops(cfg.model, args.seq_len)
    text = (
        f"flops report (seq_len={args.seq_len}, weights {cfg.model.weight_bits}-bit, "
        f"activations {cfg.model.act_bits}-bit)\n"
        f"  factorized weighted ops: {report.flops:.4g}\n"
        f"  dense-equivalent ops:    {report.flops_dense:.4g}\n"
        f"  reduction:               {report.flops_dense / max(report.flops, 1e-12):.2f}x\n"
        f"  convention:              {report.convention}\n"
    )
    _write_report(cfg, "flops_report", text, [dict(report.to_dict(), seq_len=args.seq_len)])
    print(text, end="")
    return 0


def cmd_bench(args) -> int:
    cfg = RunConfig.load(args.config)
    repeats = (cfg.bench["repeats"] if args.repeats is None
               else positive_count("--repeats", args.repeats))
    seq = cfg.bench["seq_len"]
    batch = cfg.bench["batch"]
    if seq > cfg.model.max_seq:
        raise ConfigError(f"bench.seq_len {seq} exceeds model.max_seq {cfg.model.max_seq}")
    _write_manifest(cfg, "bench", {"repeats": repeats})
    rng = np.random.default_rng(cfg.seed)
    compressed = TransformerModel(cfg.model, cfg.seed)
    dense_cfg = dataclasses.replace(cfg.model, compress=False, weight_bits=32, act_bits=32)
    dense = TransformerModel(dense_cfg, cfg.seed)
    ids = rng.integers(0, cfg.model.vocab_size, size=(batch, seq))
    mask = np.ones((batch, seq))
    runs = [("dense", dense, "train"), ("tensor_compressed", compressed, "train")]
    if _has_int_path(cfg.model):
        compressed.calibrate_int([(ids, mask)])
        # the float forward of the same model, beside which infer_int is read
        runs += [("infer_fp", compressed, "infer_fp"), ("infer_int", compressed, "infer_int")]
    records = []
    text_lines = [f"bench: batch={batch} seq={seq} repeats={repeats} (informational only)"]

    def record(name, mode, timed, times, faults, **extra):
        """``faults``: minor page faults over the timed repeats."""
        rec = {"model": name, "mode": mode, "timed": timed, "mean_s": float(np.mean(times)),
               "std_s": float(np.std(times)), "repeats": repeats,
               "minor_faults_per_step": round(faults / repeats), **extra}
        records.append(rec)
        peak = f"  peak {rec['peak_mib']:7.2f} MiB" if "peak_mib" in rec else ""
        text_lines.append(f"  {name:18s} {timed:10s} mean {rec['mean_s']*1e3:8.2f} ms  "
                          f"std {rec['std_s']*1e3:6.2f} ms  "
                          f"{rec['minor_faults_per_step']:6d} minor faults{peak}")

    def minor_faults():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    for name, model, mode in runs:
        times = []
        with ad.no_grad():
            model.forward(ids, mask, mode=mode)  # warm-up
            faults = minor_faults()
            for _ in range(repeats):
                t0 = time.perf_counter()
                model.forward(ids, mask, mode=mode)
                times.append(time.perf_counter() - t0)
            faults = minor_faults() - faults
            # the working set: one more, untimed repeat's traced peak above
            # what was held before it
            tracemalloc.start()
            try:
                held = tracemalloc.get_traced_memory()[0]
                model.forward(ids, mask, mode=mode)
                peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        record(name, mode, "forward", times, faults, peak_mib=peak / 2 ** 20)
    # training steps change the parameters, so they run after every forward
    intents = rng.integers(0, cfg.model.num_intents, size=batch)
    slots = rng.integers(0, cfg.model.num_slots, size=(batch, seq))
    for name, model in (("dense", dense), ("tensor_compressed", compressed)):
        state = AdamState()
        times = []
        for i in range(repeats + 1):  # the first step warms up
            if i == 1:
                faults = minor_faults()
            t0 = time.perf_counter()
            loss = intent_slot_loss(model.forward(ids, mask, mode="train"), intents, slots)
            train_step(model, state, cfg.train, loss)
            if i:
                times.append(time.perf_counter() - t0)
        record(name, "train", "train_step", times, minor_faults() - faults)
    text = "\n".join(text_lines) + "\n"
    _write_report(cfg, "bench_report", text, records)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ttq",
                                 description="tensor-train compressed, quantization-aware "
                                             "transformer toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate the synthetic intent/slot corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--vocab-size", type=int, default=120)
    g.add_argument("--num-intents", type=int, default=6)
    g.add_argument("--num-slots", type=int, default=8)
    g.add_argument("--num-examples", type=int, default=2000)
    g.set_defaults(func=cmd_gen_data)

    for name, func, extras in (
        ("train", cmd_train, ()),
        ("distill", cmd_distill, ("compare",)),
        ("report-size", cmd_report_size, ()),
        ("bench", cmd_bench, ("repeats",)),
    ):
        p = sub.add_parser(name)
        p.add_argument("config")
        if "compare" in extras:
            p.add_argument("--compare", action="store_true",
                           help="also run the all-at-once schedule side by side")
        if "repeats" in extras:
            p.add_argument("--repeats", type=int, default=None)
        p.set_defaults(func=func)

    e = sub.add_parser("eval")
    e.add_argument("config")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", default="dev", choices=("train", "dev", "test"))
    e.add_argument("--int8", action="store_true", help="integer inference path")
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("report-flops")
    f.add_argument("config")
    f.add_argument("--seq-len", type=int, default=128)
    f.set_defaults(func=cmd_report_flops)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
