"""TT/TTM representation tests against loop-based slice-product oracles."""

import math

import numpy as np
import pytest

from reference_tt import (
    measured_mults,
    tt_from_dense_exact,
    tt_to_dense,
    ttm_from_dense_exact,
    ttm_to_dense,
)

from ttq.tt import (
    PlanError,
    StructureError,
    TensorShapePlan,
    TTFormat,
    init_tt_cores,
    init_ttm_cores,
    plan_factorization,
    row_digits,
    tt_chain,
    tt_matvec_mult_count,
    ttm_lookup_vjp,
    uniform_ranks,
)


def slice_product_tt(cores, plan):
    """Independent oracle: evaluate every matrix entry by multiplying core
    slices index by index, never using tensordot reshapes."""
    d = plan.order
    out = np.zeros((plan.padded_rows, plan.padded_cols))
    for r in range(plan.padded_rows):
        ridx = row_digits(r, plan.row_factors)
        for c in range(plan.padded_cols):
            cidx = row_digits(c, plan.col_factors)
            acc = np.eye(1)
            for k in range(d):
                acc = acc @ cores[k][:, ridx[k], :]
            for k in range(d):
                acc = acc @ cores[d + k][:, cidx[k], :]
            out[r, c] = acc[0, 0]
    return out[: plan.rows, : plan.cols]


def slice_product_ttm(cores, plan):
    d = plan.order
    out = np.zeros((plan.padded_rows, plan.padded_cols))
    for r in range(plan.padded_rows):
        ridx = row_digits(r, plan.row_factors)
        for c in range(plan.padded_cols):
            cidx = row_digits(c, plan.col_factors)
            acc = np.eye(1)
            for k in range(d):
                acc = acc @ cores[k][:, ridx[k], cidx[k], :]
            out[r, c] = acc[0, 0]
    return out[: plan.rows, : plan.cols]


class TestPlanFactorization:
    def test_explicit_attention_shape(self):
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        assert plan.padded_rows == 768 and plan.padded_cols == 768
        assert plan.ranks == (1, 10, 10, 10, 1)

    def test_identity_case(self):
        plan = plan_factorization(1, 1, 1, 1)
        assert plan.row_factors == (1,) and plan.col_factors == (1,)
        assert (plan.padded_rows, plan.padded_cols) == (1, 1)

    def test_padded_vocab_plan(self):
        # joint shape (64, 80, 80, 60) split into row/col pairs covering (30522, 768)
        rf, cf = (16, 10, 20, 10), (4, 8, 4, 6)
        assert [a * b for a, b in zip(rf, cf)] == [64, 80, 80, 60]
        plan = plan_factorization(30522, 768, 4, 30, TTFormat.TTM, row_factors=rf, col_factors=cf)
        assert plan.padded_rows * plan.padded_cols == 24_576_000
        assert plan.padded_rows * plan.padded_cols >= 30522 * 768
        assert plan.padded_rows == 32000 and plan.padded_cols == 768

    def test_automatic_balanced_no_padding(self):
        plan = plan_factorization(768, 768, 2, 4)
        assert math.prod(plan.row_factors) == 768
        assert (plan.padded_rows, plan.padded_cols) == (768, 768)

    def test_automatic_padding_minimized(self):
        plan = plan_factorization(13, 13, 2, 2)
        # 14 = 2*7 within the balance window beats 16 = 4*4
        assert math.prod(plan.row_factors) >= 13
        assert math.prod(plan.row_factors) <= 16

    def test_too_deep_split_rejected(self):
        with pytest.raises(PlanError):
            plan_factorization(8, 8, 4, 2)

    def test_rank_boundary_enforced(self):
        with pytest.raises(PlanError):
            TensorShapePlan(4, 4, (2, 2), (2, 2), (2, 3, 3, 3, 2), TTFormat.TT)

    def test_roundtrip_dict(self):
        plan = plan_factorization(800, 768, 5, 30, TTFormat.TTM,
                                  row_factors=(5, 5, 4, 4, 2), col_factors=(3, 4, 4, 4, 4))
        assert TensorShapePlan.from_dict(plan.to_dict()) == plan


class TestTTDense:
    def test_rank_one_outer_product(self):
        plan = TensorShapePlan(2, 2, (2,), (2,), (1, 1, 1), TTFormat.TT)
        cores = [np.array([[[1.0], [2.0]]]).reshape(1, 2, 1),
                 np.array([[[3.0], [4.0]]]).reshape(1, 2, 1)]
        np.testing.assert_allclose(tt_to_dense(cores, plan), [[3.0, 4.0], [6.0, 8.0]])

    def test_all_ones_rank_one(self):
        plan = TensorShapePlan(6, 6, (2, 3), (3, 2), (1, 1, 1, 1, 1), TTFormat.TT)
        cores = [np.ones(s) for s in plan.core_shapes()]
        np.testing.assert_allclose(tt_to_dense(cores, plan), np.ones((6, 6)))

    def test_matches_slice_product_oracle(self):
        rng = np.random.default_rng(0)
        plan = plan_factorization(6, 6, 2, 2, row_factors=(2, 3), col_factors=(3, 2))
        cores = init_tt_cores(plan, rng)
        dense = tt_to_dense(cores, plan)
        oracle = slice_product_tt(cores, plan)
        np.testing.assert_allclose(dense, oracle, rtol=1e-12, atol=1e-14)

    def test_core_shape_mismatch_rejected(self):
        plan = plan_factorization(4, 4, 2, 2)
        shapes = plan.core_shapes()
        bad = [np.zeros(s) for s in shapes]
        bad[1] = np.zeros((3, 9, 9))
        with pytest.raises(StructureError):
            tt_to_dense(bad, plan)
        ttm_plan = plan_factorization(4, 4, 2, 2, fmt=TTFormat.TTM)
        with pytest.raises(StructureError, match="not TT format"):
            tt_to_dense([np.zeros(s) for s in ttm_plan.core_shapes()], ttm_plan)


class TestTTMDense:
    def test_single_core_is_reshape(self):
        plan = TensorShapePlan(3, 4, (3,), (4,), (1, 1), TTFormat.TTM)
        core = np.arange(12.0).reshape(1, 3, 4, 1)
        np.testing.assert_allclose(ttm_to_dense([core], plan), np.arange(12.0).reshape(3, 4))

    def test_rank_one_kronecker(self):
        plan = TensorShapePlan(4, 6, (2, 2), (2, 3), (1, 1, 1), TTFormat.TTM)
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1, 2, 2, 1))
        b = rng.normal(size=(1, 2, 3, 1))
        cores = [a, b]
        dense = ttm_to_dense(cores, plan)
        expected = np.kron(a[0, :, :, 0], b[0, :, :, 0])
        np.testing.assert_allclose(dense, expected, rtol=1e-12)
        np.testing.assert_allclose(dense, slice_product_ttm(cores, plan), rtol=1e-12)

    def test_zero_cores_zero_matrix(self):
        plan = plan_factorization(8, 6, 2, 2, TTFormat.TTM, row_factors=(2, 4), col_factors=(2, 3))
        cores = [np.zeros(s) for s in plan.core_shapes()]
        np.testing.assert_allclose(ttm_to_dense(cores, plan), np.zeros((8, 6)))

    def test_matches_slice_product_oracle(self):
        rng = np.random.default_rng(2)
        plan = plan_factorization(8, 6, 2, 2, TTFormat.TTM, row_factors=(2, 4), col_factors=(2, 3))
        cores = init_ttm_cores(plan, rng)
        np.testing.assert_allclose(ttm_to_dense(cores, plan), slice_product_ttm(cores, plan),
                                   rtol=1e-12, atol=1e-14)


class TestTTMatvec:
    def test_all_ones_sums_input(self):
        plan = TensorShapePlan(6, 6, (2, 3), (3, 2), (1, 1, 1, 1, 1), TTFormat.TT)
        cores = [np.ones(s) for s in plan.core_shapes()]
        x = np.arange(6.0)
        y = tt_chain(x[None], cores, plan)[0]
        np.testing.assert_allclose(y, np.full(6, x.sum()))

    def test_matches_dense_reconstruction(self):
        rng = np.random.default_rng(3)
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        cores = init_tt_cores(plan, rng)
        x = rng.normal(size=768)
        y = tt_chain(x[None], cores, plan)[0]
        ref = tt_to_dense(cores, plan) @ x
        np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)

    def test_zero_input(self):
        rng = np.random.default_rng(4)
        plan = plan_factorization(12, 12, 2, 3)
        cores = init_tt_cores(plan, rng)
        np.testing.assert_allclose(tt_chain(np.zeros((1, 12)), cores, plan), np.zeros((1, 12)))

    def test_padded_input_cropped_output(self):
        rng = np.random.default_rng(6)
        plan = plan_factorization(13, 11, 2, 3)
        assert plan.padded_rows > 13 and plan.padded_cols > 11
        cores = init_tt_cores(plan, rng)
        x = rng.normal(size=11)
        np.testing.assert_allclose(tt_chain(x[None], cores, plan)[0],
                                   tt_to_dense(cores, plan) @ x, rtol=1e-11, atol=1e-12)

    def test_float32_accumulation_within_relaxed_tolerance(self):
        rng = np.random.default_rng(20)
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        cores = init_tt_cores(plan, rng, dtype=np.float32)
        x = rng.normal(size=768).astype(np.float32)
        y = tt_chain(x[None], cores, plan)[0]
        ref = tt_to_dense(cores, plan) @ x.astype(np.float64)
        rel = np.linalg.norm(y - ref) / np.linalg.norm(ref)
        assert rel < 1e-6

    def test_instrumented_count_matches_analytic(self):
        rng = np.random.default_rng(7)
        plan = plan_factorization(768, 3072, 2, 10, row_factors=(32, 24), col_factors=(48, 64))
        cores = init_tt_cores(plan, rng)
        assert measured_mults(cores, plan) == tt_matvec_mult_count(plan)

    def test_fewer_multiplies_than_dense_for_published_shapes(self):
        shape_table = [
            (768, 768, (24, 32), (32, 24), 10),
            (768, 3072, (32, 24), (48, 64), 10),
            (3072, 768, (48, 64), (32, 24), 10),
        ]
        for rows, cols, rf, cf, rank in shape_table:
            plan = plan_factorization(rows, cols, 2, rank, row_factors=rf, col_factors=cf)
            assert tt_matvec_mult_count(plan) < rows * cols


class TestTTMRowLookup:
    def test_single_core_table(self):
        plan = TensorShapePlan(3, 4, (3,), (4,), (1, 1), TTFormat.TTM)
        core = np.arange(12.0).reshape(1, 3, 4, 1)
        rows, _ = ttm_lookup_vjp(np.array([1]), [core], plan)
        np.testing.assert_allclose(rows[0], [4.0, 5.0, 6.0, 7.0])

    def test_matches_dense_row(self):
        rng = np.random.default_rng(8)
        plan = plan_factorization(8, 6, 2, 2, TTFormat.TTM, row_factors=(2, 4), col_factors=(2, 3))
        cores = init_ttm_cores(plan, rng)
        dense = ttm_to_dense(cores, plan)
        for row in range(8):
            got = ttm_lookup_vjp(np.array([row]), cores, plan)[0][0]
            np.testing.assert_allclose(got, dense[row], rtol=1e-12, atol=1e-14)

    def test_zero_cores_row(self):
        plan = plan_factorization(8, 6, 2, 2, TTFormat.TTM, row_factors=(2, 4), col_factors=(2, 3))
        cores = [np.zeros(s) for s in plan.core_shapes()]
        rows, _ = ttm_lookup_vjp(np.array([0]), cores, plan)
        np.testing.assert_allclose(rows, np.zeros((1, 6)))


class TestOracleEquivalenceSweep:
    """Randomized equivalence over many seeds and small plans (FP64)."""

    def test_tt_matvec_and_ttm_lookup_over_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 9))
            rows = int(rng.integers(1, 65))
            cols = int(rng.integers(1, 65))
            d_eff = min(d, max(1, int(math.log2(max(rows, 2)))), max(1, int(math.log2(max(cols, 2)))))
            if rows == 1 or cols == 1:
                d_eff = 1
            plan = plan_factorization(rows, cols, d_eff, rank)
            cores = init_tt_cores(plan, rng)
            x = rng.normal(size=cols)
            np.testing.assert_allclose(tt_chain(x[None], cores, plan)[0],
                                       tt_to_dense(cores, plan) @ x, rtol=1e-12, atol=1e-10)
            mplan = plan_factorization(rows, cols, d_eff, rank, TTFormat.TTM)
            mcores = init_ttm_cores(mplan, rng)
            dense = ttm_to_dense(mcores, mplan)
            row = int(rng.integers(0, rows))
            got = ttm_lookup_vjp(np.array([row]), mcores, mplan)[0][0]
            np.testing.assert_allclose(got, dense[row], rtol=1e-12, atol=1e-12)


class TestPaddingInvariance:
    def test_cropped_reconstruction_matches_unpadded_plan(self):
        rng = np.random.default_rng(9)
        padded_plan = plan_factorization(6, 6, 2, 2, row_factors=(2, 4), col_factors=(4, 2))
        assert (padded_plan.padded_rows, padded_plan.padded_cols) == (8, 8)
        exact_plan = plan_factorization(6, 6, 2, 2, row_factors=(2, 3), col_factors=(3, 2))
        w = rng.normal(size=(6, 6))
        padded_cores, pplan = tt_from_dense_exact(w, (2, 4), (4, 2))
        exact_cores, eplan = tt_from_dense_exact(w, (2, 3), (3, 2))
        np.testing.assert_allclose(tt_to_dense(padded_cores, pplan),
                                   tt_to_dense(exact_cores, eplan), rtol=1e-14)


class TestExactDenseEmbedding:
    def test_tt_roundtrip_exact(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(12, 20))
        cores, plan = tt_from_dense_exact(w, (3, 4), (4, 5))
        np.testing.assert_allclose(tt_to_dense(cores, plan), w, rtol=0, atol=1e-15)
        x = rng.normal(size=20)
        np.testing.assert_allclose(tt_chain(x[None], cores, plan)[0], w @ x,
                                   rtol=1e-13, atol=1e-13)

    def test_tt_roundtrip_exact_with_padding(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(11, 18))
        cores, plan = tt_from_dense_exact(w, (3, 4), (4, 5))
        np.testing.assert_allclose(tt_to_dense(cores, plan), w, rtol=0, atol=1e-15)

    def test_ttm_roundtrip_exact(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(24, 12))
        cores, plan = ttm_from_dense_exact(w, (4, 6), (3, 4))
        np.testing.assert_allclose(ttm_to_dense(cores, plan), w, rtol=0, atol=1e-15)
        for row in (0, 5, 23):
            got = ttm_lookup_vjp(np.array([row]), cores, plan)[0][0]
            np.testing.assert_allclose(got, w[row], rtol=0, atol=1e-15)

    def test_ttm_roundtrip_three_cores(self):
        rng = np.random.default_rng(13)
        w = rng.normal(size=(30, 8))
        cores, plan = ttm_from_dense_exact(w, (2, 3, 5), (2, 2, 2))
        np.testing.assert_allclose(ttm_to_dense(cores, plan), w, rtol=0, atol=1e-15)


def test_uniform_ranks_boundaries():
    assert uniform_ranks(2, 7, TTFormat.TT) == (1, 7, 7, 7, 1)
    assert uniform_ranks(3, 5, TTFormat.TTM) == (1, 5, 5, 1)
    assert uniform_ranks(1, 9, TTFormat.TTM) == (1, 1)
