"""Quantizer unit suite: branch values, idempotence, range, packing-free math."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_quant import assert_scale_grad_within_dot_bound, ste_grad_input, ste_grad_scale

from ttq import autodiff as ad
from ttq.quant import (
    BLOCK,
    MIN_SCALE,
    QuantInputError,
    QuantParamError,
    code_bounds,
    dequantize,
    init_scale,
    quantize,
    quantize_blocks,
    ratio_thresholds,
    requantize,
    round_clipped,
    ste_backward,
)

finite_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(max_dims=2, max_side=16),
    elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False),
)


def fake_quant(x, scale: float, bits: int) -> np.ndarray:
    """The autodiff fake quantizer's forward values."""
    return ad.fake_quant(x, scale, bits).data


class TestQuantize:
    def test_round_to_nearest_zero(self):
        codes = quantize(np.array([0.4]), 1.0, 8)
        assert codes[0] == 0
        assert dequantize(codes, 1.0, np.float64)[0] == 0.0

    def test_saturation_at_upper_bound(self):
        codes = quantize(np.array([5.3]), 0.1, 4)
        assert codes[0] == 7
        np.testing.assert_allclose(dequantize(codes, 0.1, np.float64), [0.7])

    def test_exact_integer_multiple(self):
        codes = quantize(np.array([-1.27]), 0.01, 8)
        assert codes[0] == -127
        np.testing.assert_allclose(dequantize(codes, 0.01, np.float64), [-1.27])

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(QuantParamError):
            quantize(np.zeros(3), 0.0, 8)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(QuantInputError):
            quantize(np.array([np.inf]), 1.0, 8)

    def test_ties_round_away_from_zero(self):
        codes = quantize(np.array([0.5, -0.5, 1.5, -1.5]), 1.0, 8)
        np.testing.assert_array_equal(codes, [1, -1, 2, -2])

    @given(finite_arrays, st.sampled_from([2, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_codes_always_in_signed_range(self, x, bits):
        codes = quantize(x, 0.37, bits)
        lo, hi = code_bounds(bits)
        assert codes.min(initial=0) >= lo
        assert codes.max(initial=0) <= hi


def kernel_input(seed: int, shape: tuple, dtype, bits: int, scale: float) -> np.ndarray:
    """Random ratios with ties, signed zeros, small negatives (codes -0.0
    before the integer store), the clip bounds and saturation, times scale."""
    lo, hi = code_bounds(bits)
    rng = np.random.default_rng(seed)
    special = np.array([lo, hi, lo - 0.5, hi + 0.5, lo + 0.5, hi - 0.5, 0.5, -0.5, 1.5,
                        -1.5, 0.0, -0.0, -0.3, 0.3, -1e6, 1e6])
    ratios = np.array(rng.uniform(lo - 4, hi + 4, size=shape))
    flat = ratios.reshape(-1)
    pick = rng.random(flat.size) < 0.5
    flat[pick] = rng.choice(special, size=int(pick.sum()))
    ties = rng.random(flat.size) < 0.25
    flat[ties] = rng.integers(lo, hi, size=int(ties.sum())) + 0.5
    x = np.array(ratios * scale, dtype=dtype)
    x[x == 0] = np.copysign(0.0, rng.choice([-1.0, 1.0], size=int((x == 0).sum())))
    return x


def sign_floor_codes(x, scale: float, bits: int) -> np.ndarray:
    """The reference codes: the float64 ratio, clipped, rounded by
    sign(r) * floor(|r| + 0.5), stored as int32."""
    lo, hi = code_bounds(bits)
    r = np.clip(np.asarray(x, dtype=np.float64) / scale, lo, hi)
    return (np.sign(r) * np.floor(np.abs(r) + 0.5)).astype(np.int32)


def bits_of(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).view(f"u{np.asarray(a).itemsize}")


# sizes 0, 0-d, 1-D, one block, and several blocks with a remainder
KERNEL_SHAPES = [(0,), (), (1,), (37,), (3, 5), (BLOCK,), (2, BLOCK + 7), (3, 2, BLOCK // 3 + 11)]


class TestKernel:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNEL_SHAPES),
           st.sampled_from([np.float32, np.float64]), st.sampled_from([2, 4, 8]),
           st.floats(1e-3, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_codes_and_values_bit_identical_to_sign_floor_reference(self, seed, shape, dtype,
                                                                    bits, scale):
        x = kernel_input(seed, shape, dtype, bits, scale)
        ref = sign_floor_codes(x, scale, bits)
        for code_dtype in (np.int8, np.int32, np.float64):
            codes, values = quantize_blocks(x, scale, bits, code_dtype)
            assert values is None
            assert codes.dtype == code_dtype and codes.shape == x.shape
            # float64 codes are +0.0 where the integer round trip gives 0
            np.testing.assert_array_equal(bits_of(codes), bits_of(ref.astype(code_dtype)))
        for value_dtype in (dtype, np.float64):
            _, values = quantize_blocks(x, scale, bits, np.int8, value_dtype)
            expected = (scale * ref).astype(value_dtype)
            assert values.dtype == value_dtype and values.shape == x.shape
            np.testing.assert_array_equal(bits_of(values), bits_of(expected))
        got = fake_quant(x, scale, bits)
        assert got.dtype == dtype
        np.testing.assert_array_equal(bits_of(got), bits_of((scale * ref).astype(dtype)))
        codes = quantize(x, scale, bits)
        assert codes.dtype == np.int32
        np.testing.assert_array_equal(codes, ref)

    def test_float32_ratio_is_divided_in_float64(self):
        # float32 inputs near ties: dividing in float32 lands some ratios
        # exactly on k + 0.5, which then round away from the float64 code
        scale, bits = 0.0371, 8
        lo, hi = code_bounds(bits)
        x = ((np.arange(lo, hi) + 0.5) * scale).astype(np.float32)
        ref = sign_floor_codes(x, scale, bits)
        codes, _ = quantize_blocks(x, scale, bits, np.int32)
        np.testing.assert_array_equal(codes, ref)
        assert (np.sign(x / np.float32(scale)) * np.floor(np.abs(x / np.float32(scale)) + 0.5)
                != ref).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, BLOCK + 3])
    def test_nonfinite_raises_in_any_block(self, bad, where):
        x = np.zeros(2 * BLOCK, dtype=np.float32)
        x[where] = bad
        for call in (lambda: quantize_blocks(x, 0.1, 8, np.int8),
                     lambda: quantize(x, 0.1, 8),
                     lambda: fake_quant(x, 0.1, 8)):
            with pytest.raises(QuantInputError):
                call()

    @pytest.mark.parametrize("scale", [0.0, -0.5])
    def test_nonpositive_scale_raises(self, scale):
        x = np.ones(4, dtype=np.float32)
        for call in (lambda: quantize_blocks(x, scale, 8, np.int8),
                     lambda: quantize(x, scale, 8),
                     lambda: fake_quant(x, scale, 8)):
            with pytest.raises(QuantParamError):
                call()

    def test_code_dtype_too_narrow_rejected(self):
        with pytest.raises(QuantParamError):
            quantize_blocks(np.ones(3), 1.0, 32, np.int8)


# float32 values: with a float32 input these take the float32 path
float32_scales = st.floats(float(np.float32(1e-3)), 10.0, width=32)


def half_integer(q: np.ndarray) -> np.ndarray:
    return q - np.floor(q) == 0.5


class TestWrittenOverTheInput:
    """An ``alloc`` that hands back the input: codes or values written over
    it equal a fresh output bit for bit.  Every ratio here lies on a
    half-integer, where ``round_ratio``'s exact fallback reads the input's
    block again after rounding it, so codes rounded straight into the input
    would be wrong."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_equal_to_a_fresh_output(self, dtype, bits):
        lo, hi = code_bounds(bits)
        scale = 0.375  # a float32 value: the float32 path for a float32 input
        halves = (np.arange(lo - 2, hi + 2) + 0.5) * scale  # exact in both dtypes
        x = np.resize(halves, (2, BLOCK + 7)).astype(dtype)  # several blocks
        ratios = x.astype(np.float64) / scale
        assert half_integer(ratios[(lo <= ratios) & (ratios <= hi)]).all()
        for code_dtype, value_dtype in ((dtype, None), (None, dtype), (np.int8, dtype)):
            want = quantize_blocks(x, scale, bits, code_dtype, value_dtype)
            over = x.copy()
            got = quantize_blocks(over, scale, bits, code_dtype, value_dtype,
                                  lambda shape, d: over if d == over.dtype else np.empty(shape, d))
            assert any(g is not None and np.shares_memory(g, over) for g in got)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if g is not None:
                    np.testing.assert_array_equal(bits_of(g), bits_of(w))

    def test_any_other_overlap_raises(self):
        x = np.linspace(-3.0, 3.0, 40)
        for head, out in ((x, x[::-1]), (x[:20].reshape(4, 5), x.reshape(4, 10)[:, :5]),
                          (x, x.view(np.int64))):
            with pytest.raises(ValueError, match="overlap"):
                quantize_blocks(head, 0.1, 8, out.dtype, alloc=lambda shape, d: out)


class TestFloat32Path:
    """A float32 input with a float32 scale is divided, clipped and rounded
    in float32; its codes and values must still be those of the float64
    ratio."""

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(KERNEL_SHAPES),
           st.sampled_from([2, 4, 8]), float32_scales)
    @settings(max_examples=60, deadline=None)
    def test_codes_and_values_bit_identical_to_sign_floor_reference(self, seed, shape, bits,
                                                                    scale):
        x = kernel_input(seed, shape, np.float32, bits, scale)
        ref = sign_floor_codes(x, scale, bits)
        for code_dtype in (np.int8, np.float32, np.float64):
            codes, _ = quantize_blocks(x, scale, bits, code_dtype)
            np.testing.assert_array_equal(bits_of(codes), bits_of(ref.astype(code_dtype)))
        # float32 values are the float32 product; float64 ones the float64 product
        for value_dtype in (np.float32, np.float64):
            _, values = quantize_blocks(x, scale, bits, np.int8, value_dtype)
            expected = (scale * ref).astype(value_dtype)
            np.testing.assert_array_equal(bits_of(values), bits_of(expected))

    @given(float32_scales, st.sampled_from([2, 4, 8]))
    @settings(max_examples=100, deadline=None)
    def test_half_integer_quotients(self, scale, bits):
        lo, hi = code_bounds(bits)
        x = neighbours((np.arange(lo - 1, hi + 1) + 0.5) * scale, np.float32, steps=3)
        on32 = half_integer(x / np.float32(scale))
        on64 = half_integer(x.astype(np.float64) / scale)
        # a float64 quotient on a half-integer puts the float32 one there too
        assert not (on64 & ~on32).any()
        ref = sign_floor_codes(x, scale, bits)
        codes, values = quantize_blocks(x, scale, bits, np.float32, np.float32)
        np.testing.assert_array_equal(bits_of(codes), bits_of(ref.astype(np.float32)))
        np.testing.assert_array_equal(bits_of(values), bits_of((scale * ref).astype(np.float32)))

    def test_float32_quotients_on_a_half_that_the_float64_one_misses(self):
        scale, bits = float(np.float32(0.0371)), 8
        lo, hi = code_bounds(bits)
        x = neighbours((np.arange(lo, hi) + 0.5) * scale, np.float32, steps=2)
        on32 = half_integer(x / np.float32(scale))
        on64 = half_integer(x.astype(np.float64) / scale)
        assert (on32 & ~on64).any() and (on32 & on64).any()
        codes, _ = quantize_blocks(x, scale, bits, np.int32)
        np.testing.assert_array_equal(codes, sign_floor_codes(x, scale, bits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_codes_and_values_come_out_positive(self, dtype):
        scale = float(np.float32(0.37))
        x = np.array([-0.0, 0.0, -0.3 * scale, -0.49 * scale, -1e-30, 0.3 * scale], dtype=dtype)
        for code_dtype in (np.float32, np.float64):
            codes, values = quantize_blocks(x, scale, 8, code_dtype, dtype)
            assert not np.signbit(codes).any() and not np.signbit(values).any()
        out = np.array([-0.0, -1.0, -3.0, 2.0, 0.0], dtype=dtype)
        got = requantize(out, 0.1)
        assert got.tolist() == [0.0] * 5 and not np.signbit(got).any()


def requantize_reference(out: np.ndarray, m: float) -> np.ndarray:
    """The float64 requantize: the float64 product, clipped, rounded with
    ``round_clipped``."""
    r = np.clip(np.asarray(out, dtype=np.float64) * m, -128, 127)
    return round_clipped(r, np.empty_like(r))


def requantize_float32_reference(out: np.ndarray, m: float) -> np.ndarray:
    """The float32 requantize: the float32 product ``out * float32(m)``,
    clipped, then rounded exactly (in float64) with ``round_clipped``."""
    r = np.clip(np.asarray(out, dtype=np.float32) * np.float32(m), -128, 127).astype(np.float64)
    return round_clipped(r, np.empty_like(r)).astype(np.float32)


def near_half_stage_sums(seed, inv_m, reps):
    """Integers whose products with m = 1/inv_m fall within ~2.5/inv_m (at
    most 3.1e-4) of every half from -129.5 to 129.5, a spread of random
    ones up to 2**24, and small negatives that round to -0.0; and m."""
    rng = np.random.default_rng(seed)
    m = 1.0 / inv_m
    halves = np.arange(-130, 130) + 0.5
    near = np.rint(halves[:, None] * inv_m + np.arange(-2, 3)).ravel()
    spread = rng.integers(-2 ** 24 + 1, 2 ** 24, size=500)
    small = np.array([0.0, -0.0, -1.0, -2.0, 1.0])
    out64 = np.tile(np.concatenate([near, spread, small]), reps)
    r = out64 * m
    assert (np.abs(r - np.floor(r) - 0.5) < 2.0 ** -14).sum() > 100
    return out64, m


near_half_cases = given(st.integers(0, 2 ** 32 - 1), st.floats(2.0 ** 13, 2.0 ** 17),
                        st.sampled_from([1, 30]))


@near_half_cases
@settings(max_examples=60, deadline=None)
def test_requantize_near_halves_bit_identical_to_float64(seed, inv_m, reps):
    out64, m = near_half_stage_sums(seed, inv_m, reps)
    ref = requantize_reference(out64, m)
    out = out64.copy()
    got = requantize(out, m)
    assert got.dtype == np.float64 and got.shape == out64.shape
    np.testing.assert_array_equal(bits_of(got), bits_of(ref))
    np.testing.assert_array_equal(bits_of(out), bits_of(got))  # in place


@near_half_cases
@settings(max_examples=60, deadline=None)
def test_float32_requantize_near_halves_bit_identical_to_float32_reference(seed, inv_m, reps):
    out64, m = near_half_stage_sums(seed, inv_m, reps)
    out = out64.astype(np.float32)
    ref = requantize_float32_reference(out, m)
    got = requantize(out, m)
    assert got.dtype == np.float32 and got.shape == out64.shape
    np.testing.assert_array_equal(bits_of(got), bits_of(ref))
    np.testing.assert_array_equal(bits_of(out), bits_of(got))  # in place


@near_half_cases
@settings(max_examples=60, deadline=None)
def test_float32_requantize_moves_a_code_only_next_to_a_half(seed, inv_m, reps):
    # the float32 ratio is out * m within ~2**-23 * |out * m| <= 2**-16
    out64, m = near_half_stage_sums(seed, inv_m, reps)
    diff = requantize(out64.astype(np.float32), m) - requantize_reference(out64, m)
    assert np.abs(diff).max() <= 1
    r = out64 * m
    assert not diff[np.abs(r - np.floor(r) - 0.5) >= 2.0 ** -14].any()


@pytest.mark.parametrize("m, codes", [(1e39, [0.0, 127.0, -128.0, 127.0]),
                                      (1e-40, [0.0, 0.0, 0.0, 0.0])])
def test_float32_requantize_outside_float32_normals_follows_float64(m, codes):
    # float32(1e39) is inf, and inf * 0 would be nan; 1e-40 is subnormal
    out = np.array([0.0, 1.0, -1.0, 2.0 ** 24 - 1], dtype=np.float32)
    got = requantize(out, m)
    assert got.dtype == np.float32 and got.tolist() == codes
    assert not np.signbit(got[got == 0]).any()


class TestFakeQuant:
    def test_fixed_point_of_quantizer(self):
        x = 0.25 * np.arange(-4, 5, dtype=np.float64)
        np.testing.assert_array_equal(fake_quant(x, 0.25, 8), x)

    def test_full_precision_sentinel_is_identity(self):
        x = np.array([0.123456, -9.87])
        out = fake_quant(x, 1.0, 32)
        np.testing.assert_array_equal(out, x)

    def test_matches_quantize_example(self):
        np.testing.assert_array_equal(fake_quant(np.array([0.4]), 1.0, 8), [0.0])

    @given(finite_arrays, st.sampled_from([2, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x, bits):
        once = fake_quant(x, 0.51, bits)
        twice = fake_quant(once, 0.51, bits)
        np.testing.assert_array_equal(once, twice)


class TestSteGradInput:
    def test_in_range_passes_through(self):
        assert ste_grad_input(np.array([0.4]), 1.0, 8)[0] == 1.0

    def test_above_range_blocked(self):
        assert ste_grad_input(np.array([10.0]), 0.1, 4)[0] == 0.0

    def test_lower_boundary_inclusive(self):
        bits = 4
        lo, _ = code_bounds(bits)
        scale = 0.1
        assert ste_grad_input(np.array([lo * scale]), scale, bits)[0] == 1.0


class TestSteGradScale:
    def test_in_range_residual(self):
        np.testing.assert_allclose(ste_grad_scale(np.array([0.4]), 1.0, 8), [-0.4])

    def test_above_range_saturates_to_upper_code(self):
        np.testing.assert_allclose(ste_grad_scale(np.array([10.0]), 0.1, 4), [7.0])

    def test_below_range_saturates_to_lower_code(self):
        np.testing.assert_allclose(ste_grad_scale(np.array([-10.0]), 0.1, 4), [-8.0])

    def test_zero_at_exact_code_points(self):
        x = 0.25 * np.arange(-8, 8, dtype=np.float64)
        np.testing.assert_allclose(ste_grad_scale(x, 0.25, 4), np.zeros_like(x), atol=1e-12)

    def test_central_difference_sanity_of_input_surrogate(self):
        # Where the surrogate says 1 and we are away from rounding jumps, the
        # averaged finite-difference slope of the fake quantizer approaches 1.
        scale, bits = 0.1, 8
        xs = np.linspace(-1.0, 1.0, 4001)
        ratio = xs / scale
        near_jump = np.abs(ratio - np.floor(ratio) - 0.5) < 1e-3
        active = (ste_grad_input(xs, scale, bits) == 1.0) & ~near_jump
        h = scale / 4
        slopes = (fake_quant(xs + h, scale, bits) - fake_quant(xs - h, scale, bits)) / (2 * h)
        assert abs(slopes[active].mean() - 1.0) < 0.05


class TestInitScale:
    def test_formula(self):
        assert init_scale(np.array([0.5, -1.27]), 8) == pytest.approx(0.01)

    def test_zero_array_fallback(self):
        assert init_scale(np.zeros(5), 8) == 1.0

    def test_two_bit(self):
        assert init_scale(np.array([1.0, -0.2]), 2) == 1.0


class TestSharedScale:
    def test_concatenation_equals_per_chunk_quantization(self):
        rng = np.random.default_rng(0)
        chunks = [rng.normal(size=(3, 4)), rng.normal(size=7), rng.normal(size=(2, 2, 2))]
        flat = np.concatenate([c.ravel() for c in chunks])
        scale = init_scale(flat, 4)
        whole = quantize(flat, scale, 4)
        per_chunk = np.concatenate([quantize(c, scale, 4).ravel() for c in chunks])
        np.testing.assert_array_equal(whole, per_chunk)

    def test_split_scale_gradients_sum_to_shared_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        scale = 0.2
        full = ste_grad_scale(x, scale, 4).sum()
        parts = ste_grad_scale(x[:20], scale, 4).sum() + ste_grad_scale(x[20:], scale, 4).sum()
        np.testing.assert_allclose(full, parts, rtol=1e-12)


def neighbours(centres, dtype, steps: int = 4) -> np.ndarray:
    """Each centre and its ``steps`` nearest values of ``dtype`` either side."""
    out = []
    for c in np.asarray(centres, dtype=dtype):
        out.append(c)
        for toward in (np.inf, -np.inf):
            t = c
            for _ in range(steps):
                t = np.nextafter(t, dtype(toward))
                out.append(t)
    return np.array(out, dtype=dtype)


class TestSteBackward:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_thresholds_agree_with_ste_grad_input_next_to_every_edge(self, dtype, bits):
        lo, hi = code_bounds(bits)
        rng = np.random.default_rng(bits)
        scales = np.concatenate([[MIN_SCALE, 0.25, 0.37, 1.0],
                                 np.exp(rng.uniform(np.log(MIN_SCALE), np.log(10.0), size=300))])
        for scale in scales:
            scale = float(scale)
            t_lo, t_hi = ratio_thresholds(scale, bits, dtype)
            assert t_lo.dtype == dtype and t_hi.dtype == dtype
            x = neighbours([lo * scale, hi * scale, t_lo, t_hi], dtype)
            want = ste_grad_input(x, scale, bits) == 1.0
            np.testing.assert_array_equal((x >= t_lo) & (x <= t_hi), want)
            codes, _ = quantize_blocks(x, scale, bits, np.int8)
            g = np.ones_like(x)
            gx, _ = ste_backward(x, codes, scale, bits, g)
            np.testing.assert_array_equal(gx, want.astype(dtype))

    def test_thresholds_are_found_once_per_scale_width_and_dtype(self):
        """Every core of a layer shares one scale, so a backward asks for the
        same thresholds again; they are found once and then cached."""
        ratio_thresholds.cache_clear()
        x = np.linspace(-1, 1, 7, dtype=np.float32)
        codes, _ = quantize_blocks(x, 0.01, 8, np.int8)
        gx = [ste_backward(x, codes, 0.01, 8, np.ones_like(x))[0] for _ in range(3)]
        info = ratio_thresholds.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        assert all(g.tobytes() == gx[0].tobytes() for g in gx)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_scale_gradient_equals_reference_just_below_half(self, bits, sign):
        # the ratio is 0.49999999999999994: code 0, so the residual is -ratio
        scale = 0.25
        x = np.array([sign * (0.5 - 2.0 ** -54) * scale])
        g = np.array([1.0])
        codes, _ = quantize_blocks(x, scale, bits, np.int8)
        assert codes[0] == 0
        _, gs = ste_backward(x, codes, scale, bits, g)
        ref = (g * ste_grad_scale(x, scale, bits)).sum()
        assert gs.tobytes() == ref.tobytes()
        assert ref == -sign * (0.5 - 2.0 ** -54)

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 3, 786_432])
    def test_pairwise_leaf_sum_equals_numpy_sum(self, n):
        """The scale gradient, two float64 dot products over the whole flat
        arrays, against the elementwise reference sum within the
        dot-product bound, at sizes around the mask pass's blocks (the name
        is that of the pairwise leaf sum the dots were once split into)."""
        # mixed signs over 60 binades: the sum's bits depend on the adding order
        rng = np.random.default_rng(n)
        scale = 0.05
        x = (rng.normal(size=n) * 60 * scale).astype(np.float32)  # ~3% past the clip bounds
        g = (rng.normal(size=n) * np.exp2(rng.integers(-30, 30, size=n))).astype(np.float32)
        codes, _ = quantize_blocks(x, scale, 8, np.int8)
        gx, gs = ste_backward(x, codes, scale, 8, g)
        assert isinstance(gs, np.float64)
        np.testing.assert_array_equal(gx, g * ste_grad_input(x, scale, 8).astype(np.float32))
        assert_scale_grad_within_dot_bound(gs, x, g, scale, 8)

    def test_backward_allocates_its_output_and_block_scratch_only(self):
        # the old backward filled a float64 product shaped like x (6.3 MB here)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 3072)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        codes, _ = quantize_blocks(x, 0.05, 8, np.int8)
        tracemalloc.start()
        try:
            gx, _ = ste_backward(x, codes, 0.05, 8, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < gx.nbytes + 4 * 8 * BLOCK < x.size * 8


@given(st.lists(st.one_of(
    st.floats(min_value=-128.0, max_value=127.0),
    st.sampled_from([0.0, -0.0, -0.3, 0.5, -0.5, 1.5, -2.5, 126.5, -127.5,
                     0.49999999999999994, -0.49999999999999994]),
), min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_round_clipped_is_exact_half_away_rounding(values):
    # Against exact rational arithmetic, not the sign(x) * floor(|x| + 0.5)
    # form: its |x| + 0.5 rounds 0.49999999999999994 + 0.5 up to 1.0, so it
    # returns 1 there; round_clipped returns 0.
    def exact(v):
        n = math.floor(abs(Fraction(v)) + Fraction(1, 2))
        return float(n if v >= 0 else -n)  # an int 0 converts to +0.0

    r = np.array(values, dtype=np.float64)
    out = np.empty_like(r)
    assert round_clipped(r.copy(), out) is out
    np.testing.assert_array_equal(bits_of(out), bits_of(np.array([exact(v) for v in values])))


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int32])
def test_round_clipped_rejects_an_out_that_is_not_float64(dtype):
    """``2r`` is stored into ``out`` before truncation; a narrower ``out``
    rounds it.  At r = 1 - 2**-30 a float32 ``out`` holds 2.0, and the code
    would come out 2 instead of 1."""
    r = np.array([1.0 - 2.0 ** -30])
    with pytest.raises(TypeError, match="float64"):
        round_clipped(r.copy(), np.empty(1, dtype=dtype))
    assert round_clipped(r.copy(), np.empty(1)).tolist() == [1.0]
