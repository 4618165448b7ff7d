"""The workloads: closed loops over the calls ``ttq train`` and
``ttq eval --int8`` make.

Each workload runs set-up several times (median is ``setup_s``), then one timed
phase of at least ``seconds`` of measured work and at least ``min_steps``
steps, so the tail percentile and ``final_loss`` always rest on the same step
indices.  With tracing on, an untraced phase is followed by a traced set-up and
a traced phase of the same work; the ratio of their throughputs is the tracing
overhead.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ttq import autodiff as ad
from ttq import checkpoint, train
from ttq.config import RunConfig
from ttq.model import ModeError, TransformerModel, model_flops
from ttq.quant import KernelError
from ttq.train import DivergenceError

import inputs
from spans import PER_LAYER, Tracer, per_layer, plan_ops

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
LOGIT_BOUND = 0.2  # documented model-level bound of the integer path (ttq.model)
FAILURES = (DivergenceError, KernelError, ModeError)
EPOCHS_UNBOUNDED = 10 ** 9  # the timed phase stops training, not the epoch count
FIXED_STREAM = 0  # seed of the inputs every run shares

# name -> unit; every name is an end-to-end metric in BENCHMARK.json
END_TO_END = {
    "examples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "int_logit_err": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    config: str  # relative to the repository root
    batch: int
    min_len: int
    max_len: int
    min_steps: int
    tail_pct: int  # at least ten of min_steps samples lie above it
    setup_repeats: int
    train_examples: int = 0
    loss_window: int = 0  # final_loss: mean over steps min_steps-window+1 .. min_steps
    warm_batches: int = 1  # warm-up step (train) or checkpoint preparation steps (infer)
    calib_batches: int = 4
    check_batches: int = 4  # batches scored for int_logit_err
    loss_must_fall: bool = False  # final_loss must be below the first-step loss


# train_toy_int8 is runnable but not in BENCHMARK.json: host speed regimes move
# its step time by up to 1.5x for minutes at a time (see README)
WORKLOADS = {w.name: w for w in (
    Workload("train_toy_int8", "train", "configs/toy_int8.json", batch=32, min_len=6,
             max_len=12, min_steps=200, tail_pct=95, setup_repeats=5, train_examples=1600,
             loss_window=100, loss_must_fall=True, check_batches=8),
    Workload("train_atis_int8", "train", "configs/atis_shaped_int8.json", batch=8,
             min_len=24, max_len=32, min_steps=40, tail_pct=75, setup_repeats=3,
             train_examples=320, loss_window=20, check_batches=2),
    Workload("infer_int_atis_int8", "infer", "configs/atis_shaped_int8.json", batch=8,
             min_len=6, max_len=32, min_steps=40, tail_pct=75, setup_repeats=3,
             check_batches=32),
)}


class StopPhase(Exception):
    """Raised from the step hook once the timed phase has measured enough."""


class Clock:
    """Step durations of one timed phase and its stopping rule."""

    def __init__(self, seconds: float, min_steps: int, cap_s: float):
        self.seconds, self.min_steps, self.cap_s = seconds, min_steps, cap_s
        self.step_s: list[float] = []
        self.examples = 0
        self.busy = 0.0

    def start(self):
        self.t_start = self.t_last = time.perf_counter()

    def add(self, dt: float, n: int) -> bool:
        """Record one step; True once the phase has measured enough."""
        self.step_s.append(dt)
        self.busy += dt
        self.examples += n
        enough = self.busy >= self.seconds and len(self.step_s) >= self.min_steps
        return enough or time.perf_counter() - self.t_start >= self.cap_s

    def lap(self, n: int) -> bool:
        """Record a step that ended now and began when the previous one ended."""
        now = time.perf_counter()
        dt, self.t_last = now - self.t_last, now
        return self.add(dt, n)

    def summary(self, tail_pct: int) -> dict:
        ms = np.array(self.step_s) * 1e3
        return {"steps": len(ms), "examples": self.examples, "busy_s": self.busy,
                "examples_per_s": self.examples / self.busy,
                "step_ms_p50": float(np.median(ms)),
                "step_ms_tail": float(np.percentile(ms, tail_pct)),
                "tail_pct": tail_pct, "beyond_tail": int((ms > np.percentile(ms, tail_pct)).sum()),
                "min_steps_reached": len(ms) >= self.min_steps}


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problem: str):
        self.failed += 1
        self.problems.append(problem)


def logits(trace) -> tuple[np.ndarray, np.ndarray]:
    return trace.intent_logits.data, trace.slot_logits.data


def logit_err(got, ref, mask: np.ndarray) -> float:
    """max|int - surrogate| / max|surrogate|, the larger of the value over
    intent logits and over the slot logits of real (unpadded) tokens.  ``got``
    and ``ref`` are (intent, slot) logit pairs."""
    valid = mask > 0
    pairs = ((got[0], ref[0]), (got[1][valid], ref[1][valid]))
    return max(float(np.abs(a - b).max() / np.abs(b).max()) for a, b in pairs)


def run_config(w: Workload) -> RunConfig:
    return RunConfig.load(ROOT / w.config)


def program_seed(cfg: RunConfig) -> int:
    """The config file's seed, which ``ttq train`` uses for weight init and
    shuffling.  ``--seed`` varies only the inputs.  Read from the file, not
    ``cfg.seed``, so a ``TTQ_SEED`` in the environment cannot change a run."""
    return int(cfg.raw.get("seed", 0))


def repeat_setup(setup, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, times


# ---------------------------------------------------------------------------
# Training workloads


@dataclass
class Inputs:
    warm: object  # Dataset: the warm-up step (train) or checkpoint preparation (infer)
    calib: list  # (ids, mask) calibration batches
    scored: list  # (ids, mask, intents, slots) held-out batches
    train_set: object = None  # Dataset the timed training phase iterates


def make_inputs(w: Workload, seed: int, cfg: RunConfig) -> Inputs:
    """``--seed`` draws the training utterances and, for inference, the scored
    ones.  Everything else comes from a fixed stream: the lexicon, the warm-up
    or checkpoint-preparation batches, the calibration batches, and the
    held-out batches a train workload checks its integer path on.  So set-up
    does the same work under every seed, and the train workloads'
    ``int_logit_err`` changes only when the program does.

    No scored utterance repeats a calibration utterance.  ``ttq eval --int8``
    calibrates on the split it scores; the benchmark does not."""
    m = cfg.model
    fixed = np.random.default_rng(FIXED_STREAM)
    lex = inputs.make_lexicon(fixed, m.vocab_size, m.num_intents, m.num_slots)
    warm = inputs.utterances(fixed, lex, w.warm_batches * w.batch, w.min_len, w.max_len)
    calib_ex = inputs.utterances(fixed, lex, w.calib_batches * w.batch, w.min_len, w.max_len)
    rng = np.random.default_rng(seed)
    train_ex = inputs.utterances(rng, lex, w.train_examples, w.min_len, w.max_len)
    scored_rng = rng if w.kind == "infer" else fixed
    seen = {tuple(t) for t, _, _ in calib_ex}
    scored_ex = []
    while len(scored_ex) < w.check_batches * w.batch:
        ex = inputs.utterances(scored_rng, lex, 1, w.min_len, w.max_len)[0]
        if tuple(ex[0]) not in seen:
            scored_ex.append(ex)
    return Inputs(
        warm=inputs.dataset(warm, lex, "warmup"),
        calib=[b[:2] for b in inputs.dataset(calib_ex, lex, "calib").batches(w.batch)],
        scored=list(inputs.dataset(scored_ex, lex, "test").batches(w.batch)),
        train_set=inputs.dataset(train_ex, lex, "train") if train_ex else None,
    )


def train_phase(model, data: Inputs, tcfg, w: Workload, clock: Clock,
                tracer: Tracer | None, out: Outcome) -> list[float]:
    """Run ``train_end_to_end`` until the clock stops it; returns step losses.

    Two hooks mark step boundaries: the loss hook records the step's loss and
    batch, the Adam hook closes the step on the clock.
    """
    losses: list[float] = []
    fills: list[float] = []
    pending = {}
    loss_fn, adam_fn = train.intent_slot_loss, train.adam_step

    def loss_hook(trace, intents, slots):
        loss = loss_fn(trace, intents, slots)
        pending.update(loss=float(loss.data), n=len(intents), fill=float(trace.mask.mean()))
        return loss

    def adam_hook(*args, **kwargs):
        adam_fn(*args, **kwargs)
        losses.append(pending["loss"])
        fills.append(pending["fill"])
        out.attempted += 1
        if not math.isfinite(pending["loss"]):
            out.fail(f"non-finite loss at step {len(losses)}")
        if tracer is not None:
            tracer.step = len(losses) + 1
        if clock.lap(pending["n"]):
            raise StopPhase

    train.intent_slot_loss, train.adam_step = loss_hook, adam_hook
    if tracer is not None:
        tracer.step = 1
    try:
        clock.start()
        train.train_end_to_end(model, data.train_set, None, tcfg)
    except StopPhase:
        pass
    except FAILURES as exc:
        out.attempted += 1
        out.fail(f"{type(exc).__name__}: {exc}")
    finally:
        train.intent_slot_loss, train.adam_step = loss_fn, adam_fn
    out.report["padding_share"] = 1.0 - float(np.mean(fills)) if fills else None
    return losses


def int_check(model, batches) -> list[float]:
    """Per-batch logit error of the integer path against the surrogate."""
    errs = []
    for ids, mask, _, _ in batches:
        with ad.no_grad():
            got = model.forward(ids, mask, mode="infer_int")
            ref = model.forward(ids, mask, mode="train")
        errs.append(logit_err(logits(got), logits(ref), mask))
    return errs


def run_train(w: Workload, seed: int, seconds: float, traced: bool, budget) -> Outcome:
    cfg = run_config(w)
    data = make_inputs(w, seed, cfg)
    tcfg = replace(cfg.train, batch_size=w.batch, seed=program_seed(cfg),
                   epochs=EPOCHS_UNBOUNDED)
    out = Outcome()

    def setup():
        model = TransformerModel(cfg.model, tcfg.seed)
        rep = train.train_end_to_end(model, data.warm, None, replace(tcfg, epochs=1))
        out.attempted += 1
        return model, rep["epochs"][0]["train_loss"]

    try:
        (model, first_loss), setup_times = repeat_setup(setup, w.setup_repeats)
    except FAILURES as exc:
        out.attempted += 1
        out.fail(f"set-up: {type(exc).__name__}: {exc}")
        return out
    out.report["first_step_loss"] = first_loss
    if not math.isfinite(first_loss):
        out.fail("non-finite warm-up loss")
    _check_cost_model(model, w.batch * w.max_len, out)
    # the integer path of the set-up model; reported, not gated (see README)
    errs = []
    try:
        model.calibrate_int(data.calib)
        errs = int_check(model, data.scored)
    except FAILURES as exc:
        out.fail(f"{type(exc).__name__}: {exc}")

    clock = Clock(seconds, w.min_steps, budget(phases_left=2 if traced else 1))
    losses = train_phase(model, data, tcfg, w, clock, None, out)
    if not losses:
        return out
    timing = clock.summary(w.tail_pct)
    final_loss = _final_loss(losses, w)
    if w.loss_must_fall and not final_loss < first_loss:
        out.fail(f"final_loss {final_loss:.4f} not below first-step loss {first_loss:.4f}")

    out.report.update(timing=timing, setup_times_s=setup_times, int_logit_errs=errs,
                      loss_first_timed=losses[:1], loss_last=losses[-1:])
    out.metrics = {
        "examples_per_s": timing["examples_per_s"],
        "step_ms_p50": timing["step_ms_p50"],
        "step_ms_tail": timing["step_ms_tail"],
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": peak_rss_mb(),
        "final_loss": final_loss,
        "int_logit_err": float(np.mean(errs)) if errs else float("nan"),
    }
    if traced and not out.failed:
        tracer = Tracer()
        tracer.install()
        try:
            model = setup()[0]
            tclock = Clock(seconds, w.min_steps, budget(phases_left=1))
            train_phase(model, data, tcfg, w, tclock, tracer, out)
        finally:
            tracer.uninstall()
        _finish_trace(out, tracer, w, seed, timing, tclock.summary(w.tail_pct))
    return out


def _final_loss(losses: list[float], w: Workload) -> float:
    """Mean loss over a fixed window of step indices, so it is deterministic
    under the seed whatever the machine's speed."""
    end = min(len(losses), w.min_steps)
    window = losses[max(0, end - w.loss_window):end]
    return float(np.mean(window)) if window else float("nan")


def _check_cost_model(model, tokens: int, out: Outcome):
    """The benchmark's per-span prediction must sum to ``model_flops`` over the
    encoder TT layers."""
    ours = sum(plan_ops(l.plan, l.bits, l.act_bits, tokens) for l in model.tt_layers())
    theirs = model_flops(model, tokens).flops
    out.report["cost_model_matches_model_flops"] = bool(math.isclose(ours, theirs, rel_tol=1e-12))


# ---------------------------------------------------------------------------
# Integer inference workload


def prepare_checkpoint(w: Workload, seed: int, path: Path):
    """Train two steps as ``ttq train`` would, so activation scales are set,
    and save the checkpoint.  Runs in a child process, outside the timing and
    the workload's memory peak."""
    cfg = run_config(w)
    data = make_inputs(w, seed, cfg)
    model = TransformerModel(cfg.model, program_seed(cfg))
    tcfg = replace(cfg.train, batch_size=w.batch, seed=program_seed(cfg), epochs=1)
    train.train_end_to_end(model, data.warm, None, tcfg)
    checkpoint.checkpoint_save(model, path)


def infer_phase(model, data: Inputs, clock: Clock, tracer: Tracer | None,
                out: Outcome, cache: dict) -> tuple[list[float], list[float]]:
    """Score the held-out batches round-robin through ``forward(mode="infer_int")``
    until the clock stops.  Every scored batch is checked against the bound;
    the surrogate logits and the integer-path loss are computed once per
    distinct batch, outside the timing and the trace.  Returns, per distinct
    batch, the worst logit error and the loss."""
    errs, losses = {}, {}  # by distinct batch
    clock.start()
    for i in itertools.count():
        k = i % len(data.scored)
        ids, mask, intents, slots = data.scored[k]
        if tracer is not None:
            tracer.step = i + 1
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with ad.no_grad():
                got = model.forward(ids, mask, mode="infer_int")
        except FAILURES as exc:
            out.fail(f"{type(exc).__name__}: {exc}")
            break
        dt = time.perf_counter() - t0
        if k not in losses:
            if tracer is not None:
                tracer.paused = True
            try:
                with ad.no_grad():
                    if k not in cache:
                        cache[k] = logits(model.forward(ids, mask, mode="train"))
                    losses[k] = float(train.intent_slot_loss(got, intents, slots).data)
            finally:
                if tracer is not None:
                    tracer.paused = False
        err = logit_err(logits(got), cache[k], mask)
        errs[k] = max(err, errs.get(k, 0.0))
        if not err <= LOGIT_BOUND:
            out.fail(f"scored batch {k}: int logit error {err:.4f} above {LOGIT_BOUND}")
        if clock.add(dt, len(ids)):
            break
    return list(errs.values()), list(losses.values())


def run_infer(w: Workload, seed: int, seconds: float, traced: bool, budget) -> Outcome:
    cfg = run_config(w)
    data = make_inputs(w, seed, cfg)
    out = Outcome()
    shared = inputs.utterance_keys(data.calib) & inputs.utterance_keys(data.scored)
    out.report["calibration_disjoint_from_scored"] = not shared
    if shared:
        out.fail(f"{len(shared)} scored utterances also calibrate the model")
    WORK.mkdir(exist_ok=True)
    ckpt = WORK / f"{w.name}-{seed}-{os.getpid()}.ttq"
    try:
        subprocess.run([sys.executable, str(Path(__file__).with_name("prepare_checkpoint.py")),
                        w.name, str(seed), str(ckpt)], check=True, timeout=120)

        def setup():
            model = checkpoint.checkpoint_load(ckpt)
            model.calibrate_int(data.calib)
            return model

        try:
            model, setup_times = repeat_setup(setup, w.setup_repeats)
        except FAILURES as exc:
            out.attempted += 1
            out.fail(f"set-up: {type(exc).__name__}: {exc}")
            return out
        cache: dict = {}
        clock = Clock(seconds, w.min_steps, budget(phases_left=2 if traced else 1))
        errs, losses = infer_phase(model, data, clock, None, out, cache)
        if not clock.step_s:
            return out
        timing = clock.summary(w.tail_pct)
        out.report.update(timing=timing, setup_times_s=setup_times,
                          int_logit_errs=errs,
                          padding_share=inputs.padding_share(data.scored))
        out.metrics = {
            "examples_per_s": timing["examples_per_s"],
            "step_ms_p50": timing["step_ms_p50"],
            "step_ms_tail": timing["step_ms_tail"],
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": peak_rss_mb(),
            "final_loss": float(np.mean(losses)) if losses else float("nan"),
            "int_logit_err": float(np.mean(errs)) if errs else float("nan"),
        }
        if traced and not out.failed:
            tracer = Tracer()
            tracer.install()
            try:
                model = setup()
                tclock = Clock(seconds, w.min_steps, budget(phases_left=1))
                infer_phase(model, data, tclock, tracer, out, cache)
            finally:
                tracer.uninstall()
            _finish_trace(out, tracer, w, seed, timing, tclock.summary(w.tail_pct))
    finally:
        ckpt.unlink(missing_ok=True)
    return out


# ---------------------------------------------------------------------------


def _finish_trace(out: Outcome, tracer: Tracer, w: Workload, seed: int, untraced: dict,
                  traced: dict):
    overhead = 100.0 * (1.0 - traced["examples_per_s"] / untraced["examples_per_s"])
    values, summary = per_layer(tracer, traced["steps"], overhead)
    summary.update(workload=w.name, seed=seed, untraced=untraced, traced=traced)
    stem = WORK / f"trace_{w.name}_seed{seed}"
    tracer.write(stem, summary)
    out.report.update(trace_files=[str(stem.with_suffix(s).relative_to(ROOT))
                                   for s in (".json", ".spans.npz")],
                      traced_timing=traced, cost_model=summary["cost_model"])
    out.metrics = values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, traced: bool, budget) -> Outcome:
    w = WORKLOADS[name]
    runner = run_train if w.kind == "train" else run_infer
    out = runner(w, seed, seconds, traced, budget)
    out.report.update(workload=name, seed=seed, batch=w.batch,
                      length_range=[w.min_len, w.max_len], min_steps=w.min_steps,
                      config=w.config)
    return out


def metric_units(traced: bool) -> dict[str, str]:
    if traced:
        return {k: unit for k, (unit, _) in PER_LAYER.items()}
    return dict(END_TO_END)
