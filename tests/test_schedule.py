"""The TT contraction schedule: every walk of ``tt_stages`` matches the dense oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttq import autodiff as ad
from ttq.model import TTLinearLayer
from ttq.tt import (
    TensorShapePlan,
    tt_chain,
    tt_matvec,
    tt_matvec_mult_count,
    tt_stages,
    tt_to_dense,
)


@st.composite
def tt_plans(draw):
    d = draw(st.integers(1, 3))
    factors = st.lists(st.integers(1, 3), min_size=d, max_size=d)
    row_factors, col_factors = tuple(draw(factors)), tuple(draw(factors))
    inner = draw(st.lists(st.integers(1, 4), min_size=2 * d - 1, max_size=2 * d - 1))
    padded_rows, padded_cols = math.prod(row_factors), math.prod(col_factors)
    rows = padded_rows - draw(st.integers(0, padded_rows - 1))
    cols = padded_cols - draw(st.integers(0, padded_cols - 1))
    return TensorShapePlan(rows, cols, row_factors, col_factors, (1, *inner, 1))


@given(plan=tt_plans(), batch=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_walk_of_the_schedule_matches_dense(plan, batch, seed):
    rng = np.random.default_rng(seed)
    layer = TTLinearLayer(plan, 32, 32, rng, dtype=np.float64)
    cores = [c.data for c in layer.cores]
    x = rng.normal(size=(batch, plan.cols))
    ref = x @ tt_to_dense(cores, plan).T
    tol = dict(rtol=1e-10, atol=1e-12 * np.abs(ref).max())

    np.testing.assert_allclose(tt_chain(x, cores, plan), ref, **tol)
    np.testing.assert_allclose(np.stack([tt_matvec(cores, plan, row) for row in x]), ref, **tol)
    np.testing.assert_allclose(layer.forward(ad.Tensor(x), mode="infer_fp").data, ref, **tol)

    _, mults = tt_matvec(cores, plan, x[0], count_ops=True)
    assert mults == tt_matvec_mult_count(plan)

    quantized = TTLinearLayer(plan, 8, 8, rng, dtype=np.float64)
    quantized.calibrate_int(x)
    assert len(quantized.stage_scales) == len(tt_stages(plan))
