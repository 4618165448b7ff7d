"""Accounting checks, with counts hand-evaluated from the reduction formula."""

import numpy as np

from ttq.accounting import (
    CostReport,
    flops_estimate,
    multiply_weight,
    packed_code_bytes,
    param_count,
    plan_param_count,
)
from ttq.tt import TensorShapePlan, TTFormat, plan_factorization, uniform_ranks


def loop_tt_param_count(plan):
    """Oracle: sum core volumes one by one."""
    return sum(int(np.prod(s)) for s in plan.core_shapes())


class TestParamCount:
    def test_attention_shape_rank_10(self):
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        # 1*24*10 + 10*32*10 + 10*32*10 + 10*24*1
        report = param_count(plan)
        assert report.param_count_compressed == 240 + 3200 + 3200 + 240 == 6880
        assert report.param_count_dense == 589_824
        assert abs(report.compression_ratio - 589_824 / 6880) < 1e-12

    def test_ffn_shape_rank_10(self):
        plan = plan_factorization(768, 3072, 2, 10, row_factors=(32, 24), col_factors=(48, 64))
        report = param_count(plan)
        assert report.param_count_compressed == 320 + 2400 + 4800 + 640 == 8160
        assert report.param_count_dense == 2_359_296

    def test_matches_core_volume_oracle(self):
        for rows, cols, d, rank in [(64, 32, 2, 4), (128, 96, 3, 5), (30, 8, 1, 3)]:
            plan = plan_factorization(rows, cols, d, rank)
            assert plan_param_count(plan) == loop_tt_param_count(plan)
            mplan = plan_factorization(rows, cols, d, rank, TTFormat.TTM)
            assert plan_param_count(mplan) == loop_tt_param_count(mplan)

    def test_rank_one_tt_is_mode_sum(self):
        plan = plan_factorization(64, 64, 3, 1)
        assert plan_param_count(plan) == sum(plan.row_factors) + sum(plan.col_factors)

    def test_single_core_ttm_is_full_size(self):
        plan = plan_factorization(16, 8, 1, 5, TTFormat.TTM)
        assert plan_param_count(plan) == plan.padded_rows * plan.padded_cols


class TestFlopsEstimate:
    def test_dense_fp32_matvec(self):
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        report = flops_estimate(plan, 32, 32, seq_len=1)
        assert report.flops_dense == 2 * 768 * 768 == 1_179_648
        assert not report.fixed_point

    def test_int8_same_count_flagged_fixed_point(self):
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        fp = flops_estimate(plan, 32, 32)
        q = flops_estimate(plan, 8, 8)
        assert q.flops_dense == fp.flops_dense
        assert q.fixed_point and not fp.fixed_point

    def test_int4_weights_int8_acts_halve_cost(self):
        plan = plan_factorization(768, 768, 2, 10, row_factors=(24, 32), col_factors=(32, 24))
        full = flops_estimate(plan, 8, 8)
        half = flops_estimate(plan, 4, 8)
        assert half.flops == 0.5 * full.flops

    def test_seq_len_scales_linearly(self):
        plan = plan_factorization(64, 64, 2, 4)
        assert flops_estimate(plan, seq_len=7).flops == 7 * flops_estimate(plan, seq_len=1).flops

    def test_factorized_cheaper_than_dense(self):
        plan = plan_factorization(768, 3072, 2, 10, row_factors=(32, 24), col_factors=(48, 64))
        report = flops_estimate(plan)
        assert report.flops < report.flops_dense

    def test_multiply_weight_rule(self):
        assert multiply_weight(32, 32) == 1.0
        assert multiply_weight(8, 8) == 1.0
        assert multiply_weight(4, 8) == 0.5
        assert multiply_weight(2, 8) == 0.25


class TestPackedBytes:
    def test_eight_bit(self):
        assert packed_code_bytes(10, 8) == 10

    def test_four_bit_rounds_up(self):
        assert packed_code_bytes(9, 4) == 5
        assert packed_code_bytes(8160, 4) == 4080

    def test_two_bit(self):
        assert packed_code_bytes(9, 2) == 3

    def test_full_precision(self):
        assert packed_code_bytes(10, 32) == 40


def test_cost_report_roundtrips_to_dict():
    plan = plan_factorization(64, 64, 2, 4)
    report = param_count(plan)
    d = report.to_dict()
    assert d["param_count_compressed"] == report.param_count_compressed
    assert CostReport(**{k: v for k, v in d.items()}).compression_ratio == report.compression_ratio
