"""Training machinery: TT adjoints, Adam, loop determinism, divergence guard."""

import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from reference_quant import ste_grad_input, ste_grad_scale
from reference_train import PerParameterAdamState, per_parameter_adam_step
from reference_tt import composed_tt_layer, composed_ttm_lookup, tt_matvec_vjp, tt_to_dense

from ttq import autodiff as ad
from ttq import quant as q
from ttq import model as model_module
from ttq import train
from ttq.checkpoint import checkpoint_load, checkpoint_save
from ttq.config import RunConfig
from ttq.data import DataFormatError, gen_synthetic_dataset
from ttq.model import ModelConfig, PlanSpec, TransformerModel
from ttq.train import (
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    evaluate,
    intent_slot_loss,
    snapshot_params,
    train_end_to_end,
    train_step,
)
from ttq.tt import TTFormat, init_tt_cores, plan_factorization, TensorShapePlan


class TestTtMatvecVjp:
    def test_rank_one_closed_form(self):
        # y = (g1 outer g2) x; loss = u.y; grad g2 = (u.g1) * x
        plan = TensorShapePlan(3, 4, (3,), (4,), (1, 1, 1), TTFormat.TT)
        rng = np.random.default_rng(0)
        g1 = rng.normal(size=(1, 3, 1))
        g2 = rng.normal(size=(1, 4, 1))
        x = rng.normal(size=4)
        u = rng.normal(size=3)
        grads, gx = tt_matvec_vjp([g1, g2], plan, x, u)
        inner = float(u @ g1[0, :, 0])
        np.testing.assert_allclose(grads[1][0, :, 0], inner * x, rtol=1e-12)
        np.testing.assert_allclose(grads[0][0, :, 0], u * float(g2[0, :, 0] @ x), rtol=1e-12)
        w = np.outer(g1[0, :, 0], g2[0, :, 0])
        np.testing.assert_allclose(gx, w.T @ u, rtol=1e-12)

    @pytest.mark.parametrize("rows,cols,d,rank", [(6, 6, 2, 2), (12, 8, 2, 3), (30, 16, 3, 2)])
    def test_matches_finite_differences(self, rows, cols, d, rank):
        rng = np.random.default_rng(rows + cols + d)
        plan = plan_factorization(rows, cols, d, rank)
        cores = init_tt_cores(plan, rng)
        x = rng.normal(size=cols)
        u = rng.normal(size=rows)

        def loss():
            return float(u @ (tt_to_dense(cores, plan) @ x))

        grads, gx = tt_matvec_vjp(cores, plan, x, u)
        h = 1e-5
        for ci, core in enumerate(cores):
            flat = core.reshape(-1)
            for j in range(0, flat.size, max(1, flat.size // 17)):
                orig = flat[j]
                flat[j] = orig + h
                fp = loss()
                flat[j] = orig - h
                fm = loss()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                got = grads[ci].reshape(-1)[j]
                assert abs(got - fd) <= 1e-4 * max(abs(fd), 1.0)
        for j in range(cols):
            orig = x[j]
            x[j] = orig + h
            fp = loss()
            x[j] = orig - h
            fm = loss()
            x[j] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(gx[j] - fd) <= 1e-4 * max(abs(fd), 1.0)

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        plan = plan_factorization(8, 8, 2, 2)
        cores = init_tt_cores(plan, rng)
        grads, gx = tt_matvec_vjp(cores, plan, rng.normal(size=8), np.zeros(8))
        for g in grads:
            np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_array_equal(gx, np.zeros(8))

    def test_matches_engine_chain(self):
        # independent adjoint vs the autodiff einsum-chain composition
        from ttq.model import tt_chain_apply
        rng = np.random.default_rng(6)
        plan = plan_factorization(12, 18, 2, 4)
        cores = init_tt_cores(plan, rng)
        x = rng.normal(size=18)
        u = rng.normal(size=12)
        params = [ad.Parameter(c) for c in cores]
        xt = ad.Parameter(x.reshape(1, -1))
        y = tt_chain_apply(xt, params, plan)
        loss = ad.sum_all(ad.mul(y, ad.Tensor(u.reshape(1, -1))))
        got = ad.backward(loss)
        grads, gx = tt_matvec_vjp(cores, plan, x, u)
        for p, g in zip(params, grads):
            np.testing.assert_allclose(got[id(p)], g, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(got[id(xt)].reshape(-1), gx, rtol=1e-11, atol=1e-12)


class TestAdam:
    def test_first_step_matches_hand_computation(self):
        p = ad.Parameter(np.array([1.0, -2.0]))
        g = np.array([0.5, -1.5])
        cfg = TrainConfig(learning_rate=0.01, beta1=0.9, beta2=0.98, epochs=1)
        state = AdamState()
        adam_step([p], {id(p): g}, state, cfg)
        # t=1: m_hat = g, v_hat = g^2 -> update = -lr * g / (|g| + eps)
        expected = np.array([1.0, -2.0]) - 0.01 * g / (np.abs(g) + cfg.eps)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_zero_grads_fresh_state_leaves_params(self):
        p = ad.Parameter(np.array([3.0]))
        state = AdamState()
        adam_step([p], {id(p): np.zeros(1)}, state, TrainConfig(epochs=1))
        np.testing.assert_array_equal(p.data, [3.0])
        assert_stored_moment(state.m[id(p)], np.zeros(1))
        assert_stored_moment(state.v[id(p)], np.zeros(1))

    def test_deterministic_across_runs(self):
        def run():
            p = ad.Parameter(np.array([1.0, 2.0, 3.0]))
            state = AdamState()
            cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=1)
            for t in range(5):
                g = np.sin(np.arange(3) + t)
                adam_step([p], {id(p): g}, state, cfg)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_nan_gradient_aborts(self):
        # the finite gradient comes first: no parameter moves before the raise
        first = ad.Parameter(np.ones(3), name="first")
        second = ad.Parameter(np.zeros(2), name="w")
        state = AdamState()
        grads = {id(first): np.ones(3), id(second): np.array([np.nan, 0.0])}
        with pytest.raises(DivergenceError, match="'w' at step 1"):
            adam_step([first, second], grads, state, TrainConfig(epochs=1))
        np.testing.assert_array_equal(first.data, np.ones(3))
        assert state.step == 0 and not state.m

    def test_scale_param_clamped_positive(self):
        s = ad.Parameter(np.asarray(1e-9))
        cfg = TrainConfig(learning_rate=1.0, epochs=1)
        adam_step([s], {id(s): np.asarray(5.0)}, AdamState(), cfg, scale_params={id(s)})
        assert s.data >= 1e-8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scale_params_stay_0d_arrays(self, dtype):
        # one scale is clamped at MIN_SCALE, the other moves freely
        clamped = ad.Parameter(np.asarray(1e-9, dtype=dtype), name="clamped")
        free = ad.Parameter(np.asarray(0.5, dtype=dtype), name="free")
        state, cfg = AdamState(), TrainConfig(learning_rate=1.0, epochs=1)
        for _ in range(3):
            adam_step([clamped, free], {id(clamped): np.asarray(5.0, dtype=dtype),
                                        id(free): np.asarray(-1.0, dtype=dtype)},
                      state, cfg, scale_params={id(clamped), id(free)})
            for p in (clamped, free):
                assert type(p.data) is np.ndarray and p.data.shape == () and p.data.dtype == dtype
        assert clamped.data == dtype(q.MIN_SCALE) and free.data > 0.5

    def test_live_rows_bit_identical_to_full_update(self):
        """12 steps over parameters of rank 0 to 3, float32 and float64, in
        which the set of rows with a nonzero gradient grows, shrinks and
        grows again, with rows of exact +0.0 and -0.0 gradients."""
        rng = np.random.default_rng(5)
        shapes = [(), (6,), (7, 3), (5, 2, 2), (9, 4)]
        dtypes = [np.float32, np.float64, np.float32, np.float64, np.float32]
        init = [rng.normal(size=s).astype(t) for s, t in zip(shapes, dtypes)]
        init[4][7:] = -0.0  # signed-zero rows that never get a nonzero gradient
        live_params = [ad.Parameter(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
        full_params = [ad.Parameter(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
        scales = {id(live_params[0])}
        cfg = TrainConfig(learning_rate=0.05, epochs=1)
        live, full = AdamState(), ReferenceAdamState()
        row_sets = [[0], [0, 2], [2], [], [1, 3], [3], [4], [0, 1, 2, 3, 4], [5], [], [2, 6], [1]]
        for step, rows in enumerate(row_sets):
            grads_live, grads_full = {}, {}
            for i, (p, q) in enumerate(zip(live_params, full_params)):
                g = np.zeros(p.data.shape, dtype=p.data.dtype)
                if g.ndim:
                    g[[r for r in rows if r < len(g)]] = rng.normal(size=(1,) + g.shape[1:])
                    g[len(g) - 1] = -0.0 if step % 2 else 0.0
                elif rows:
                    g[...] = rng.normal()
                grads_live[id(p)], grads_full[id(q)] = g, g.copy()
            adam_step(live_params, grads_live, live, cfg, scales)
            reference_adam_step(full_params, grads_full, full, cfg,
                                {id(full_params[0])})
            for p, q in zip(live_params, full_params):
                assert p.data.dtype == q.data.dtype
                assert p.data.tobytes() == q.data.tobytes(), (step, p.name)
                assert_stored_moment(live.m[id(p)], full.m[id(q)], (step, p.name))
                assert_stored_moment(live.v[id(p)], full.v[id(q)], (step, p.name))
        # rows 7 and 8 of the last parameter never had a nonzero gradient
        assert not live.live[id(live_params[4])][7:].any()
        assert np.signbit(live_params[4].data[7:]).all()

    def test_moments_grow_when_a_high_row_goes_live_late(self):
        """Rows 0 and 1 train for three steps, then row 8 of 10 goes live:
        the stored moments grow from 2 to 9 rows and then to all 10, equal
        byte for byte to the full-size reference, whose rows past them are
        +0.0."""
        rng = np.random.default_rng(7)
        init = rng.normal(size=(10, 3)).astype(np.float32)
        p, ref = ad.Parameter(init.copy(), name="p"), ad.Parameter(init.copy(), name="p")
        live, full = AdamState(), ReferenceAdamState()
        cfg = TrainConfig(learning_rate=0.05, epochs=1)
        stored = []
        for step, rows in enumerate([[0, 1], [1], [0], [8], [2, 8], [9], [3, 4, 5, 6, 7]]):
            g = np.zeros(init.shape, dtype=np.float32)
            g[rows] = rng.normal(size=(len(rows), 3))
            adam_step([p], {id(p): g}, live, cfg)
            reference_adam_step([ref], {id(ref): g.copy()}, full, cfg)
            assert p.data.tobytes() == ref.data.tobytes(), step
            assert_stored_moment(live.m[id(p)], full.m[id(ref)], step)
            assert_stored_moment(live.v[id(p)], full.v[id(ref)], step)
            stored.append(len(live.m[id(p)]))
        assert stored == [2, 2, 2, 9, 9, 10, 10]
        assert id(p) not in live.live  # every row has gone live


class TestArenaAdam:
    """``adam_step``'s flat arenas against ``reference_train``'s Adam one
    parameter at a time, byte for byte: parameters and stored moments."""

    @staticmethod
    def assert_same(params, ref_params, state, ref, label):
        for p, r in zip(params, ref_params):
            assert p.data.dtype == r.data.dtype and p.data.shape == r.data.shape, label
            assert p.data.tobytes() == r.data.tobytes(), (label, p.name)
            for mine, theirs in ((state.m, ref.m), (state.v, ref.v)):
                assert mine[id(p)].shape == theirs[id(r)].shape, (label, p.name)
                assert mine[id(p)].tobytes() == theirs[id(r)].tobytes(), (label, p.name)

    @staticmethod
    def model_pair(dtype):
        cfg = ModelConfig(
            vocab_size=40, hidden=16, ffn_dim=32, num_layers=1, num_heads=2, max_seq=12,
            num_intents=3, num_slots=5, weight_bits=8, act_bits=8, dtype=dtype,
            emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM), attn_spec=PlanSpec(d=2, rank=4),
            ffn_spec=PlanSpec(d=2, rank=4), head_spec=PlanSpec(d=2, rank=4))
        data = gen_synthetic_dataset(seed=7, vocab_size=40, num_intents=3, num_slots=4,
                                     num_examples=120)
        return TransformerModel(cfg, 3), TransformerModel(cfg, 3), list(data["train"].batches(16))

    @staticmethod
    def step_both(model, ref, state, ref_state, config, batch):
        ids, mask, intents, slots = batch
        train_step(model, state, config, intent_slot_loss(model.forward(ids, mask), intents, slots))
        params = [p for _, p in ref.params()]
        loss = intent_slot_loss(ref.forward(ids, mask), intents, slots)
        per_parameter_adam_step(params, ad.backward(loss), ref_state, config,
                                {id(p) for p in ref.scale_params()})

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_training_matches_the_oracle(self, dtype):
        """INT8 QAT steps of a whole model, scales at their own ``scale_lr``."""
        model, ref, batches = self.model_pair(dtype)
        state, ref_state = AdamState(), PerParameterAdamState()
        config = TrainConfig(learning_rate=0.01, scale_lr=0.003, epochs=1)
        for step, batch in enumerate(batches[:6]):
            self.step_both(model, ref, state, ref_state, config, batch)
            self.assert_same([p for _, p in model.params()], [p for _, p in ref.params()],
                             state, ref_state, step)
        assert {arena.scale for arena in state.arenas} == {False, True}

    def test_scale_clamp_scale_lr_and_live_row_growth_match_the_oracle(self):
        """Parameters of rank 0 to 3 in both dtypes, two 0-d scales (one
        driven to the clamp), rows going live late, and a parameter that
        gets no gradient at some steps, which rebuilds the arenas."""
        rng = np.random.default_rng(8)
        shapes = [(), (), (6,), (7, 3), (5, 2, 2), (10, 3)]
        dtypes = [np.float32, np.float64, np.float32, np.float64, np.float64, np.float32]
        init = [rng.normal(size=s).astype(t) for s, t in zip(shapes, dtypes)]
        init[0] = np.asarray(1e-6, dtype=np.float32)
        params = [ad.Parameter(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
        ref_params = [ad.Parameter(x.copy(), name=f"p{i}") for i, x in enumerate(init)]
        scales = {id(params[0]), id(params[1])}
        config = TrainConfig(learning_rate=0.05, scale_lr=0.5, epochs=1)
        state, ref_state = AdamState(), PerParameterAdamState()
        live = [[0], [0, 1], [], [2, 8], [0, 1, 2, 3, 4], [3], [1, 5], [9], [0], [4]]
        for step, rows in enumerate(live):
            grads, ref_grads = {}, {}
            for i, (p, r) in enumerate(zip(params, ref_params)):
                if i == 3 and step in (2, 5):
                    continue  # no gradient: the arenas are rebuilt without it
                g = np.zeros(p.data.shape, dtype=p.data.dtype)
                if g.ndim:
                    picked = [k for k in rows if k < len(g)] or [0]
                    g[picked] = rng.normal(size=(len(picked),) + g.shape[1:])
                else:
                    g[...] = 50.0 if i == 0 else rng.normal()
                grads[id(p)], ref_grads[id(r)] = g, g.copy()
            adam_step(params, grads, state, config, scales)
            per_parameter_adam_step(ref_params, ref_grads, ref_state, config,
                                    {id(ref_params[0]), id(ref_params[1])})
            self.assert_same(params, ref_params, state, ref_state, step)
        assert params[0].data == np.float32(q.MIN_SCALE)  # clamped
        assert id(params[5]) in state.live  # rows 5..7 never went live
        assert {a.scale for a in state.arenas} == {False, True} and len(state.arenas) == 4

    def test_a_non_finite_gradient_raises_before_any_arena_write(self):
        model, _, batches = self.model_pair("float32")
        state, config = AdamState(), TrainConfig(learning_rate=0.01, epochs=1)
        for batch in batches[:2]:
            ids, mask, intents, slots = batch
            train_step(model, state, config,
                       intent_slot_loss(model.forward(ids, mask), intents, slots))
        params = [p for _, p in model.params()]
        ids, mask, intents, slots = batches[2]
        grads = ad.backward(intent_slot_loss(model.forward(ids, mask), intents, slots))
        grads[id(params[-1])] = np.full_like(grads[id(params[-1])], np.inf)
        data = [(p.data, p.data.tobytes()) for p in params]
        arenas = [[buf.tobytes() for buf in (a.values, a.grad, a.m, a.v)] for a in state.arenas]
        with pytest.raises(DivergenceError, match=f"{params[-1].name!r} at step 3"):
            adam_step(params, grads, state, config, {id(p) for p in model.scale_params()})
        assert state.step == 2
        for p, (array, raw) in zip(params, data):
            assert p.data is array and p.data.tobytes() == raw
        assert arenas == [[buf.tobytes() for buf in (a.values, a.grad, a.m, a.v)]
                          for a in state.arenas]

    def test_set_cores_between_steps_is_adopted(self):
        model, ref, batches = self.model_pair("float32")
        state, ref_state = AdamState(), PerParameterAdamState()
        config = TrainConfig(learning_rate=0.01, scale_lr=0.003, epochs=1)
        for step, batch in enumerate(batches[:5]):
            if step == 2:
                for m in (model, ref):
                    layer = m.encoders[0].ffn_up
                    layer.set_cores([0.5 * c.data for c in layer.cores], layer.plan)
            self.step_both(model, ref, state, ref_state, config, batch)
            self.assert_same([p for _, p in model.params()], [p for _, p in ref.params()],
                             state, ref_state, step)

    def test_set_cores_of_other_shapes_start_from_zero_moments(self, monkeypatch):
        """``set_cores`` to a plan of another rank before each of three
        steps: the steps run, each new core's moments after its first step
        are those of a fresh Adam state, and every step matches the oracle.
        Moments keyed by an ``id`` alone passed a freed core's moments to a
        new core that took its ``id``, and ``_Arena`` raised on their
        shapes."""
        model, ref, batches = self.model_pair("float32")
        state, ref_state = AdamState(), PerParameterAdamState()
        config = TrainConfig(learning_rate=0.01, scale_lr=0.003, epochs=1)
        rng = np.random.default_rng(5)
        adam, seen = train.adam_step, []

        def adam_hook(params, grads, *args, **kwargs):
            seen.append({id(c): grads[id(c)].copy() for c in layer.cores})
            adam(params, grads, *args, **kwargs)

        monkeypatch.setattr(train, "adam_step", adam_hook)
        for step, batch in enumerate(batches[:5]):
            if step >= 2:
                plan = PlanSpec(d=2, rank=1 + step).resolve(32, 16)  # ranks 3, 4, 5
                cores = init_tt_cores(plan, rng, dtype=np.float32)
                for m in (model, ref):
                    m.encoders[0].ffn_up.set_cores([c.copy() for c in cores], plan)
            layer = model.encoders[0].ffn_up
            self.step_both(model, ref, state, ref_state, config, batch)
            self.assert_same([p for _, p in model.params()], [p for _, p in ref.params()],
                             state, ref_state, step)
            if step >= 2:
                assert layer.plan.ranks[1] == 1 + step
                for c in layer.cores:
                    alone, fresh = ad.Parameter(c.data.copy()), PerParameterAdamState()
                    per_parameter_adam_step([alone], {id(alone): seen[-1][id(c)]}, fresh, config)
                    for mine, theirs in ((state.m, fresh.m), (state.v, fresh.v)):
                        assert mine[id(c)].tobytes() == theirs[id(alone)].tobytes(), (step, c.name)

    def test_values_set_from_outside_are_adopted(self, tmp_path):
        """Values loaded from a checkpoint of an earlier state and assigned
        to the parameters between steps are what the next step updates."""
        model, ref, batches = self.model_pair("float32")
        state, ref_state = AdamState(), PerParameterAdamState()
        config = TrainConfig(learning_rate=0.01, scale_lr=0.003, epochs=1)
        checkpoint_save(model, tmp_path / "start.ttq")
        for step, batch in enumerate(batches[:5]):
            if step == 3:
                loaded = dict(checkpoint_load(tmp_path / "start.ttq").params())
                for m in (model, ref):
                    for name, p in m.params():
                        p.data = loaded[name].data.copy()
            self.step_both(model, ref, state, ref_state, config, batch)
            self.assert_same([p for _, p in model.params()], [p for _, p in ref.params()],
                             state, ref_state, step)
        assert all(p.data is state.bound[id(p)] for p in state.arenas[0].params)

    @staticmethod
    def arena_and_live_row_steps(arrays, steps, before_step=lambda step, params: None):
        """``steps`` Adam steps on a parameter built from each of ``arrays``
        (a (2, 3) and a (5, 3) one): every row of the first gets a gradient,
        so it joins an arena, and only rows 0 and 1 of the second do, so it
        stays on the live-row path.  ``before_step(step, params)`` runs
        before each step; returns the parameters' ``.data`` after each."""
        rng = np.random.default_rng(4)
        params = [ad.Parameter(a) for a in arrays]
        state, config = AdamState(), TrainConfig(learning_rate=0.01, epochs=1)
        bound = []
        for step in range(steps):
            before_step(step, params)
            grads = {id(p): rng.normal(size=p.data.shape) for p in params}
            grads[id(params[1])][2:] = 0.0
            adam_step(params, grads, state, config)
            bound.append([p.data for p in params])
        assert len(state.arenas) == 1 and state.arenas[0].params == [params[0]]
        assert id(params[1]) in state.live
        return bound

    def test_each_parameter_is_updated_in_one_storage(self):
        """Each step after the first writes an arena parameter and a
        live-row parameter in place in the storage the first step copied
        them into, and binds ``p.data`` to a fresh view object of it."""
        rng = np.random.default_rng(5)
        bound = self.arena_and_live_row_steps([rng.normal(size=(2, 3)),
                                               rng.normal(size=(5, 3))], 5)
        for last, now in zip(bound, bound[1:]):
            for old, new in zip(last, now):
                assert new is not old and np.shares_memory(new, old)

    def test_arrays_from_outside_keep_their_bytes(self):
        """The arrays the parameters were built from, and arrays assigned to
        ``.data`` between steps, are copied into Adam's storage and never
        written, on the arena and on the live-row path."""
        rng = np.random.default_rng(6)
        arrays = [rng.normal(size=(2, 3)), rng.normal(size=(5, 3))]
        assigned = [rng.normal(size=a.shape) for a in arrays]
        kept = [a.copy() for a in arrays + assigned]

        def assign(step, params):
            if step == 3:
                for p, a in zip(params, assigned):
                    p.data = a

        bound = self.arena_and_live_row_steps(arrays, 5, assign)
        for a, raw in zip(arrays + assigned, kept):
            assert a.tobytes() == raw.tobytes()
        assert not any(np.shares_memory(a, b) for a in arrays + assigned for b in bound[-1])


def assert_stored_moment(stored, full, label=None):
    """``stored`` holds the leading rows of the full-size moment ``full`` byte
    for byte (all of it for a 0-d one), and every row of ``full`` past them
    is +0.0."""
    assert stored.dtype == full.dtype and stored.shape[1:] == full.shape[1:], label
    if full.ndim == 0:
        assert stored.shape == () and stored.tobytes() == full.tobytes(), label
        return
    assert stored.tobytes() == full[:len(stored)].tobytes(), label
    rest = full[len(stored):]
    assert not rest.any() and not np.signbit(rest).any(), label


@dataclass
class ReferenceAdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def reference_adam_step(params, grads, state, config, scale_params=frozenset()):
    """Adam over every row of every parameter, as ``adam_step`` was before it
    skipped rows that never had a gradient."""
    state.step += 1
    t = state.step
    b1, b2 = config.beta1, config.beta2
    for p in params:
        g = grads.get(id(p))
        if g is None:
            continue
        key = id(p)
        m = state.m.get(key)
        if m is None:
            m = np.zeros_like(p.data, dtype=np.float64)
            state.v[key] = np.zeros_like(p.data, dtype=np.float64)
        v = state.v[key]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        state.m[key], state.v[key] = m, v
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        lr = config.effective_scale_lr if key in scale_params else config.learning_rate
        p.data = (p.data - lr * m_hat / (np.sqrt(v_hat) + config.eps)).astype(p.data.dtype)
        if key in scale_params:
            p.data = np.maximum(p.data, q.MIN_SCALE).astype(p.data.dtype)


def tiny_model_and_data(compress=True, weight_bits=32, act_bits=32, seed=0):
    cfg = ModelConfig(
        vocab_size=40, hidden=16, ffn_dim=32, num_layers=1, num_heads=2,
        max_seq=12, num_intents=3, num_slots=5, compress=compress,
        weight_bits=weight_bits, act_bits=act_bits, dtype="float64",
        emb_spec=PlanSpec(d=2, rank=4, fmt=TTFormat.TTM),
        attn_spec=PlanSpec(d=2, rank=4), ffn_spec=PlanSpec(d=2, rank=4),
        head_spec=PlanSpec(d=2, rank=4),
    )
    model = TransformerModel(cfg, seed)
    data = gen_synthetic_dataset(seed=7, vocab_size=40, num_intents=3, num_slots=4,
                                 num_examples=120)
    return model, data


class TestTrainLoop:
    def test_zero_lr_leaves_params_and_loss_constant(self):
        model, data = tiny_model_and_data()
        data["train"].examples = data["train"].examples[:4]
        before = snapshot_params(model)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=4, seed=3)
        report = train_end_to_end(model, data["train"], None, cfg)
        after = snapshot_params(model)
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])
        losses = [e["train_loss"] for e in report["epochs"]]
        assert losses[0] == pytest.approx(losses[1], rel=1e-12)

    def test_a_batch_of_empty_utterances_evaluates_and_trains(self):
        """``read_corpus`` accepts an utterance with no token.  A batch of
        only such utterances is padded to one masked position, so it scores
        and takes a training step."""
        model, data = tiny_model_and_data(weight_bits=8, act_bits=8)
        empty = data["test"]
        empty.examples = [([], 0, []), ([], 2, [])]
        ids, mask, _, _ = next(empty.batches(2))
        assert ids.shape == (2, 1) and not mask.any()
        assert set(evaluate(model, empty)) == {"intent_accuracy", "slot_f1"}
        before = snapshot_params(model)
        report = train_end_to_end(model, empty, None, TrainConfig(epochs=1, batch_size=2))
        assert np.isfinite(report["epochs"][0]["train_loss"])
        assert any((before[k] != v).any() for k, v in snapshot_params(model).items())

    def test_seeded_runs_reproduce_loss_curve(self):
        def run():
            model, data = tiny_model_and_data(weight_bits=8, act_bits=8, seed=2)
            cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=16, seed=5)
            rep = train_end_to_end(model, data["train"], data["dev"], cfg)
            return [e["train_loss"] for e in rep["epochs"]], snapshot_params(model)

        (l1, p1), (l2, p2) = run(), run()
        assert l1 == l2
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_loss_decreases_on_learnable_data(self):
        model, data = tiny_model_and_data()
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, batch_size=16, seed=4)
        report = train_end_to_end(model, data["train"], None, cfg)
        losses = [e["train_loss"] for e in report["epochs"]]
        assert losses[-1] < losses[0]

    def test_nan_gradient_carries_last_good(self, monkeypatch):
        model, data = tiny_model_and_data()
        (_, first), (_, second) = model.params()[:2]
        before = snapshot_params(model)
        backward = ad.backward

        def poisoned(loss):
            grads = backward(loss)
            grads[id(second)] = np.full_like(grads[id(second)], np.nan)
            return grads

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(DivergenceError, match=f"{second.name!r}") as info:
            train_end_to_end(model, data["train"], None, TrainConfig(epochs=1, batch_size=16))
        np.testing.assert_array_equal(first.data, before[first.name])
        last_good = info.value.last_good
        assert set(last_good) == set(before)
        for name, value in before.items():
            np.testing.assert_array_equal(last_good[name], value)

    def test_loss_and_adam_called_once_per_batch(self, monkeypatch):
        model, data = tiny_model_and_data()
        calls = {"loss": 0, "adam": 0}
        loss_fn, adam_fn = train.intent_slot_loss, train.adam_step

        def counted_loss(*args):
            calls["loss"] += 1
            return loss_fn(*args)

        def counted_adam(*args):
            calls["adam"] += 1
            return adam_fn(*args)

        monkeypatch.setattr(train, "intent_slot_loss", counted_loss)
        monkeypatch.setattr(train, "adam_step", counted_adam)
        cfg = TrainConfig(epochs=2, batch_size=16)
        train_end_to_end(model, data["train"], data["dev"], cfg)
        steps = 2 * -(-len(data["train"]) // 16)
        assert calls == {"loss": steps, "adam": steps}

    def test_nonfinite_loss_names_epoch_and_keeps_params(self, monkeypatch):
        model, data = tiny_model_and_data()
        before = snapshot_params(model)
        loss_fn = train.intent_slot_loss
        monkeypatch.setattr(train, "intent_slot_loss",
                            lambda *args: ad.scale(loss_fn(*args), np.inf))
        with pytest.raises(DivergenceError, match="^training, epoch 0: non-finite loss") as info:
            train_end_to_end(model, data["train"], None, TrainConfig(epochs=1, batch_size=16))
        for name, p in model.params():
            np.testing.assert_array_equal(p.data, before[name])
            np.testing.assert_array_equal(info.value.last_good[name], before[name])

    def test_empty_dataset_rejected(self):
        model, data = tiny_model_and_data()
        empty = data["train"]
        empty.examples = []
        with pytest.raises(ValueError):
            train_end_to_end(model, empty, None, TrainConfig(epochs=1))

    def test_evaluate_reports_metrics(self):
        model, data = tiny_model_and_data()
        metrics = evaluate(model, data["dev"])
        assert 0.0 <= metrics["intent_accuracy"] <= 1.0
        assert 0.0 <= metrics["slot_f1"] <= 1.0


def reference_fake_quant(x, scale_t, bits):
    """The fake-quant node spelled with ``quantize`` and the elementwise STE
    references, as a check on the blocked kernel inside ``ad.fake_quant``."""
    x, scale_t = ad._as_tensor(x), ad._as_tensor(scale_t)
    if bits == q.FULL_PRECISION:
        return x
    s = float(scale_t.data)
    codes = q.quantize(x.data, s, bits)
    out = (s * codes).astype(x.data.dtype)

    def vjp(g):
        gx = g * ste_grad_input(x.data, s, bits).astype(g.dtype)
        gs = np.asarray((g * ste_grad_scale(x.data, s, bits)).sum(), dtype=scale_t.data.dtype)
        return gx, gs.reshape(scale_t.data.shape)

    reference_fake_quant.calls += 1
    return ad._make(out, (x, scale_t), vjp)


def toy_int8_qat_steps(monkeypatch, steps=2):
    """Loss, every gradient and every Adam-updated parameter of the first
    ``steps`` steps of ``train_end_to_end`` on the toy INT8 config."""
    cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json")
    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6, num_slots=8,
                                 num_examples=200)
    batch = cfg.train.batch_size
    data["train"].examples = data["train"].examples[:steps * batch]
    records = []
    loss_fn, adam = train.intent_slot_loss, train.adam_step

    def loss_hook(*args):
        loss = loss_fn(*args)
        records.append({"loss": [loss.data.copy()]})
        return loss

    def adam_hook(params, grads, *args, **kwargs):
        records[-1]["grads"] = [grads[id(p)].copy() for p in params if id(p) in grads]
        adam(params, grads, *args, **kwargs)
        records[-1]["params"] = [p.data.copy() for p in params]

    monkeypatch.setattr(train, "intent_slot_loss", loss_hook)
    monkeypatch.setattr(train, "adam_step", adam_hook)
    model = TransformerModel(cfg.model, cfg.seed)
    train_end_to_end(model, data["train"], None,
                     TrainConfig(epochs=1, batch_size=batch, seed=cfg.seed))
    assert len(records) == steps
    return records


def test_qat_steps_bit_identical_to_reference_fake_quant(monkeypatch):
    """The reference run builds every TT layer as the composition of
    ``reference_fake_quant`` nodes, a plain TT product and a bias add, and
    the embedding as ``reference_fake_quant`` nodes and a plain lookup, so it
    checks the fused TT and TTM nodes' quantizers together."""
    kernel = toy_int8_qat_steps(monkeypatch)
    reference_fake_quant.calls = 0
    monkeypatch.setattr(ad, "fake_quant", reference_fake_quant)
    monkeypatch.setattr(model_module, "tt_chain_apply", composed_tt_layer)
    monkeypatch.setattr(ad, "ttm_lookup", composed_ttm_lookup)
    reference = toy_int8_qat_steps(monkeypatch)
    # per step: the embedding's 2 cores, and the input and 4 cores of each
    # of the 12 encoder TT layers
    assert reference_fake_quant.calls == 2 * (2 + 12 * 5)
    for got, want in zip(kernel, reference):
        for key in ("loss", "grads", "params"):
            assert len(got[key]) == len(want[key])
            for a, b in zip(got[key], want[key]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), key


def test_toy_int8_graph_holds_only_what_the_backward_reads():
    """Bytes still held after a train-mode forward and its loss, the trace
    dropped, are the arrays the backward will read.  A graph that kept every
    operation's inputs alive held ~16.7 KB per real token here; the saved
    arrays alone come to ~10.4 KB."""
    cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json")
    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6, num_slots=8,
                                 num_examples=200)
    model = TransformerModel(cfg.model, cfg.seed)
    ids, mask, intents, slots = next(data["train"].batches(cfg.train.batch_size))
    with ad.no_grad():
        model.forward(ids, mask)  # sets the input scales
    tracemalloc.start()
    try:
        loss = intent_slot_loss(model.forward(ids, mask), intents, slots)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 12e3 * mask.sum()
    assert set(ad.backward(loss)) == {id(p) for _, p in model.params()}


def test_toy_int8_graph_keeps_no_float_copy_of_a_quantized_tt_input():
    """The TT layers' one autodiff node keeps its input's int8 codes, not the
    fake-quantized copy: the graph after a train-mode forward held ~10.35 KB
    per real token with that copy and ~8.33 KB without it, so the bound is
    the second figure plus 10%.  One step later the position table's Adam
    moments cover only the positions the batch reached."""
    cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json")
    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6, num_slots=8,
                                 num_examples=200)
    model = TransformerModel(cfg.model, cfg.seed)
    ids, mask, intents, slots = next(data["train"].batches(cfg.train.batch_size))
    with ad.no_grad():
        model.forward(ids, mask)  # sets the input scales
    tracemalloc.start()
    try:
        loss = intent_slot_loss(model.forward(ids, mask), intents, slots)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.1 * 8.33e3 * mask.sum()
    state = AdamState()
    train_step(model, state, TrainConfig(), loss)
    seq = ids.shape[1]
    assert mask[:, seq - 1].any() and seq < cfg.model.max_seq
    for moment in (state.m[id(model.pos_emb)], state.v[id(model.pos_emb)]):
        assert moment.shape == (seq, cfg.model.hidden)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the first no_grad forward with rows "
                                       "sets each TT layer's input scale, from the batch "
                                       "it reads")
def test_an_evaluate_before_training_leaves_the_trained_parameters():
    """A read-only ``evaluate`` before ``train_end_to_end`` should leave the
    trained model bit for bit as it is without it.  On the toy INT8 config
    it changes every parameter today: the evaluation batch, not the first
    training batch, sets the input scales.  Passes once forwards only read
    the quantizer state."""
    cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "toy_int8.json")
    data = gen_synthetic_dataset(seed=11, vocab_size=120, num_intents=6, num_slots=8,
                                 num_examples=200)
    trained = []
    for evaluate_first in (False, True):
        model = TransformerModel(cfg.model, cfg.seed)
        if evaluate_first:
            evaluate(model, data["dev"])
        train_end_to_end(model, data["train"], None,
                         TrainConfig(epochs=1, batch_size=cfg.train.batch_size, seed=cfg.seed))
        trained.append(snapshot_params(model))
    alone, after_eval = trained
    assert [k for k in alone if not np.array_equal(alone[k], after_eval[k])] == []


class TestLossFunction:
    def test_perfect_logits_give_small_loss(self):
        model, data = tiny_model_and_data()
        ids, mask, intents, slots = next(data["train"].batches(8))
        trace = model.forward(ids, mask)
        loss = intent_slot_loss(trace, intents, slots)
        assert loss.item() > 0

    @pytest.mark.parametrize("intent, slot", [(3, 0), (-1, 0), (0, 5), (0, 99), (0, -1)])
    def test_label_outside_the_heads_raises(self, intent, slot):
        # intent 3 of 3 once read example 1's class 0, and slot 99 was clipped to 4
        model, data = tiny_model_and_data()
        ids, mask, intents, slots = next(data["train"].batches(8))
        trace = model.forward(ids, mask)
        intents, slots = intents.copy(), slots.copy()
        intents[0], slots[0, 0] = intent, slot
        with pytest.raises(DataFormatError, match="labels outside"):
            intent_slot_loss(trace, intents, slots)

    def test_loss_gradients_flow_to_all_heads(self):
        model, data = tiny_model_and_data()
        ids, mask, intents, slots = next(data["train"].batches(8))
        trace = model.forward(ids, mask)
        loss = intent_slot_loss(trace, intents, slots)
        grads = ad.backward(loss)
        named = dict(model.params())
        assert id(named["intent_head.top.weight"]) in grads
        assert id(named["slot_head.top.weight"]) in grads
        assert any(id(p) in grads for n, p in named.items() if n.startswith("embedding"))
