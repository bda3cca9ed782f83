"""Uniform affine quantizer (Eq. 1-2), including property-based tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.quantizer import (
    QuantSpec,
    broadcast_channelwise,
    compute_affine_params,
    dequantize_affine,
    fake_quantize,
    per_channel_minmax,
    per_tensor_minmax,
    quantization_error,
    quantize_affine,
)


class TestQuantSpec:
    def test_unsigned_range(self):
        spec = QuantSpec(bits=4)
        assert spec.qmin == 0 and spec.qmax == 15 and spec.levels == 16

    def test_signed_range(self):
        spec = QuantSpec(bits=8, signed=True)
        assert spec.qmin == -128 and spec.qmax == 127

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=0)


class TestAffineParams:
    def test_scale_from_range(self):
        spec = QuantSpec(bits=8)
        scale, zp = compute_affine_params(0.0, 255.0, spec)
        assert np.isclose(scale, 1.0)
        assert zp == 0

    def test_negative_range_zero_point(self):
        spec = QuantSpec(bits=8)
        scale, zp = compute_affine_params(-1.0, 1.0, spec)
        # real 0 maps near the middle of the grid
        assert 126 <= zp <= 129

    def test_degenerate_range_still_represents_constant(self):
        spec = QuantSpec(bits=4)
        scale, zp = compute_affine_params(2.0, 2.0, spec)
        assert scale > 0
        q = quantize_affine(np.array([2.0]), scale, zp, spec)
        assert np.allclose(dequantize_affine(q, scale, zp), 2.0)

    def test_b_less_than_a_rejected(self):
        with pytest.raises(ValueError):
            compute_affine_params(1.0, 0.0, QuantSpec(bits=8))


class TestQuantizeDequantize:
    def test_roundtrip_error_bounded_by_half_scale(self, rng):
        spec = QuantSpec(bits=8)
        t = rng.uniform(-3, 5, size=1000)
        a, b = per_tensor_minmax(t)
        scale, zp = compute_affine_params(a, b, spec)
        q = quantize_affine(np.clip(t, a, b), scale, zp, spec)
        back = dequantize_affine(q, scale, zp)
        assert np.max(np.abs(back - t)) <= scale / 2 + 1e-9

    def test_floor_rounding_truncates(self):
        spec = QuantSpec(bits=8)
        t = np.array([0.99, 1.01])
        q = quantize_affine(t, 1.0, 0, spec, rounding="floor")
        assert list(q) == [0, 1]

    def test_invalid_rounding_mode(self):
        with pytest.raises(ValueError):
            quantize_affine(np.zeros(3), 1.0, 0, QuantSpec(bits=8), rounding="ceil")

    def test_codes_within_grid(self, rng):
        spec = QuantSpec(bits=2)
        t = rng.normal(size=100) * 10
        q = quantize_affine(t, 0.5, 1, spec)
        assert q.min() >= 0 and q.max() <= 3

    def test_fake_quantize_idempotent(self, rng):
        spec = QuantSpec(bits=4)
        t = rng.uniform(-2, 2, size=256)
        a, b = per_tensor_minmax(t)
        fq1 = fake_quantize(t, a, b, spec)
        fq2 = fake_quantize(fq1, a, b, spec)
        assert np.allclose(fq1, fq2)

    def test_quantization_error_decreases_with_bits(self, rng):
        t = rng.normal(size=2048)
        a, b = per_tensor_minmax(t)
        errors = [
            quantization_error(t, fake_quantize(t, a, b, QuantSpec(bits=q)))
            for q in (2, 4, 8)
        ]
        assert errors[0] > errors[1] > errors[2]


class TestRangeStatistics:
    def test_per_tensor_minmax(self):
        t = np.array([[1.0, -2.0], [3.0, 0.0]])
        assert per_tensor_minmax(t) == (-2.0, 3.0)

    def test_per_channel_minmax_shapes(self, rng):
        w = rng.normal(size=(8, 3, 3, 3))
        mins, maxs = per_channel_minmax(w, axis=0)
        assert mins.shape == (8,) and maxs.shape == (8,)
        assert np.all(maxs >= mins)

    def test_per_channel_tighter_than_per_layer(self, rng):
        """Per-channel ranges are never wider than the per-layer range."""
        w = rng.normal(size=(16, 4, 3, 3)) * rng.uniform(0.1, 3.0, size=(16, 1, 1, 1))
        a_pl, b_pl = per_tensor_minmax(w)
        a_pc, b_pc = per_channel_minmax(w, axis=0)
        assert np.all(a_pc >= a_pl) and np.all(b_pc <= b_pl)

    def test_broadcast_channelwise(self):
        v = np.arange(4)
        assert broadcast_channelwise(v, 4, 0).shape == (4, 1, 1, 1)
        assert broadcast_channelwise(v, 2, 1).shape == (1, 4)


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=64),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(t=finite_arrays, bits=st.sampled_from([2, 4, 8]))
def test_property_dequantized_values_near_range(t, bits):
    """Fake-quantized values lie within one quantization step of [a, b]
    (the zero-point rounding can push grid points slightly past the range
    boundaries, as in Jacob et al. [11])."""
    spec = QuantSpec(bits=bits)
    a, b = float(t.min()), float(t.max())
    scale, _ = compute_affine_params(a, b, spec)
    step = float(np.max(scale))
    fq = fake_quantize(t, a, b, spec)
    assert np.all(fq >= a - step - 1e-9) and np.all(fq <= b + step + 1e-9)


@settings(max_examples=60, deadline=None)
@given(t=finite_arrays, bits=st.sampled_from([2, 4, 8]))
def test_property_roundtrip_error_bounded(t, bits):
    """|t - fq(t)| <= scale for every element (floor or round)."""
    spec = QuantSpec(bits=bits)
    a, b = float(t.min()), float(t.max())
    scale, _ = compute_affine_params(a, b, spec)
    fq = fake_quantize(t, a, b, spec)
    assert np.all(np.abs(fq - np.clip(t, a, b)) <= np.asarray(scale) + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    t=finite_arrays,
    bits=st.sampled_from([2, 4, 8]),
    rounding=st.sampled_from(["round", "floor"]),
)
def test_property_codes_in_grid(t, bits, rounding):
    spec = QuantSpec(bits=bits)
    a, b = float(t.min()), float(t.max())
    scale, zp = compute_affine_params(a, b, spec)
    q = quantize_affine(np.clip(t, a, b), scale, zp, spec, rounding=rounding)
    assert q.min() >= spec.qmin and q.max() <= spec.qmax


@pytest.mark.parametrize(
    "a,b",
    [
        (0.0, 5e-324),      # positive subnormal span underflowing the divide
        (-5e-324, 0.0),
        (-1.7e308, 1.7e308),  # span overflowing to inf
    ],
)
def test_degenerate_float_ranges_stay_on_grid(a, b):
    """Regression (hypothesis-found): a positive-but-subnormal span used
    to underflow to scale == 0, whose zero-point divide produced
    NaN -> INT64_MIN codes; scale must stay strictly positive and every
    code must land inside the grid."""
    for bits in (2, 4, 8):
        spec = QuantSpec(bits=bits)
        scale, zp = compute_affine_params(a, b, spec)
        assert np.all(np.asarray(scale) > 0)
        assert np.all(np.isfinite(scale))
        for rounding in ("round", "floor"):
            q = quantize_affine(np.array([a, b]), scale, zp, spec, rounding=rounding)
            assert q.min() >= spec.qmin and q.max() <= spec.qmax
