"""Fused depthwise stencil kernel: bit-identity against the im2col int64
reference across bit widths, strides, paddings and channel counts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.inference.kernels import (
    blas_gemm_dtype,
    depthwise_stencil_accumulate,
    int_depthwise_conv2d,
    int_depthwise_conv2d_fused,
    shift_weights,
)
from repro.runtime import CompileOptions


@st.composite
def dw_cases(draw):
    """One random depthwise problem: geometry, bit widths, RNG seed."""
    x_bits = draw(st.sampled_from([2, 4, 8]))
    w_bits = draw(st.sampled_from([2, 4, 8]))
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 7))
    kernel = draw(st.sampled_from([1, 2, 3, 5]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    # Input must yield at least one output position.
    min_hw = max(kernel - 2 * padding, 1)
    h = draw(st.integers(min_hw, min_hw + 6))
    w = draw(st.integers(min_hw, min_hw + 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return x_bits, w_bits, n, c, kernel, stride, padding, h, w, seed


def _random_problem(case):
    x_bits, w_bits, n, c, kernel, stride, padding, h, w, seed = case
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2 ** x_bits, size=(n, c, h, w), dtype=np.int64)
    wq = rng.integers(0, 2 ** w_bits, size=(c, 1, kernel, kernel), dtype=np.int64)
    z_x = int(rng.integers(0, 2 ** x_bits))
    z_w = rng.integers(0, 2 ** w_bits, size=c, dtype=np.int64)
    kwargs = dict(stride=stride, padding=padding, x_bits=x_bits, w_bits=w_bits)
    return x, wq, z_x, z_w, kwargs


@given(case=dw_cases())
@settings(deadline=None)
def test_property_fused_matches_im2col_int64_reference(case):
    """Fused stencil == im2col int64 reference, bit for bit, both backends."""
    x, wq, z_x, z_w, kwargs = _random_problem(case)
    ref = int_depthwise_conv2d(x, wq, z_x, z_w, backend="int64", **kwargs)
    fused_int64 = int_depthwise_conv2d_fused(x, wq, z_x, z_w, backend="int64", **kwargs)
    fused_float = int_depthwise_conv2d_fused(x, wq, z_x, z_w, backend="blas", **kwargs)
    assert np.array_equal(ref, fused_int64)
    assert np.array_equal(ref, fused_float)
    assert fused_float.dtype == np.int64


@given(case=dw_cases())
@settings(deadline=None)
def test_property_stencil_out_tmp_buffers_reused(case):
    """Caller-provided out/tmp slab views produce the identical result
    (the contract the activation arena relies on)."""
    x, wq, z_x, z_w, kwargs = _random_problem(case)
    kernel = wq.shape[2]
    stride, padding = kwargs["stride"], kwargs["padding"]
    dtype = blas_gemm_dtype(kernel * kernel, kwargs["x_bits"], kwargs["w_bits"])
    w_cols = shift_weights(wq, z_w, wq.shape[0]).reshape(wq.shape[0], -1).astype(dtype)
    if padding:
        xs = np.zeros(
            (x.shape[0], x.shape[1], x.shape[2] + 2 * padding, x.shape[3] + 2 * padding),
            dtype=dtype,
        )
        np.subtract(x, z_x, out=xs[:, :, padding:-padding, padding:-padding])
    else:
        xs = np.subtract(x, z_x, dtype=dtype)
    fresh = depthwise_stencil_accumulate(xs, w_cols, kernel, kernel, stride)
    # Poisoned preallocated buffers must be fully overwritten.
    out = np.full_like(fresh, 123456)
    tmp = np.full_like(fresh, -777)
    reused = depthwise_stencil_accumulate(
        xs, w_cols, kernel, kernel, stride, out=out, tmp=tmp
    )
    assert reused is out
    assert np.array_equal(fresh, reused)


def test_fused_scalar_zero_point():
    """Per-layer (scalar) z_w takes the same path as the reference."""
    rng = np.random.default_rng(3)
    x = rng.integers(0, 256, size=(2, 4, 9, 9), dtype=np.int64)
    wq = rng.integers(0, 16, size=(4, 1, 3, 3), dtype=np.int64)
    ref = int_depthwise_conv2d(x, wq, 7, 5, padding=1, w_bits=4)
    fused = int_depthwise_conv2d_fused(x, wq, 7, 5, padding=1, w_bits=4)
    assert np.array_equal(ref, fused)


def test_fused_precomputed_w_shift():
    """A hoisted ``w_shift`` skips the per-call shift without changing codes."""
    rng = np.random.default_rng(4)
    x = rng.integers(0, 16, size=(1, 3, 6, 6), dtype=np.int64)
    wq = rng.integers(0, 16, size=(3, 1, 3, 3), dtype=np.int64)
    z_w = rng.integers(0, 16, size=3, dtype=np.int64)
    ws = shift_weights(wq, z_w, 3)
    a = int_depthwise_conv2d_fused(x, wq, 2, z_w, x_bits=4, w_bits=4)
    b = int_depthwise_conv2d_fused(x, wq, 2, z_w, x_bits=4, w_bits=4, w_shift=ws)
    assert np.array_equal(a, b)


def test_fused_validate_rejects_out_of_range_codes():
    x = np.full((1, 2, 4, 4), 300, dtype=np.int64)
    wq = np.zeros((2, 1, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="out of UINT8 range"):
        int_depthwise_conv2d_fused(x, wq, 0, 0)


def test_fused_rejects_bad_per_channel_z_w():
    x = np.zeros((1, 2, 4, 4), dtype=np.int64)
    wq = np.zeros((2, 1, 3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="one entry per channel"):
        int_depthwise_conv2d_fused(x, wq, 0, np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("bits,expected", [(2, np.float32), (8, np.float32)])
def test_fused_float_tier_dispatch(bits, expected):
    """3x3 depthwise reductions fit the float32 significand at any paper
    bit width (k=9, worst case 9*(2^8-1)^2 < 2^24)."""
    assert blas_gemm_dtype(9, bits, bits) == expected


class TestAutoDispatch:
    """The compiled plan's fused_depthwise="auto" rule and its parity."""

    def test_prefers_stencil_above_cache_threshold(self):
        from repro.inference.kernels import (
            DW_IM2COL_BYTES_THRESHOLD,
            DW_IM2COL_S2_BYTES_THRESHOLD,
            depthwise_prefers_stencil,
        )
        # 8 x 32ch x 3x3 x 112x112 float32 im2col is ~115 MB: stencil.
        assert depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4)
        # 1 x 8ch x 3x3 x 16x16 is ~74 kB: stays on the matmul path.
        assert not depthwise_prefers_stencil(1, 8, 3, 3, 16, 16, 4)
        # Stride 2 dispatches on its own (lower) threshold: a ~115 MB
        # unfold takes the stencil, a small one keeps the matmul path.
        assert depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4, stride=2)
        assert not depthwise_prefers_stencil(1, 8, 3, 3, 16, 16, 4, stride=2)
        # Strides beyond 2 always fall back to im2col.
        assert not depthwise_prefers_stencil(8, 32, 3, 3, 112, 112, 4, stride=3)
        assert 0 < DW_IM2COL_S2_BYTES_THRESHOLD < DW_IM2COL_BYTES_THRESHOLD

    @pytest.mark.parametrize("mode", [True, False, "auto"])
    def test_all_dispatch_modes_bit_identical(self, mode):
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
        ref = net.forward(x)
        assert np.array_equal(ref, net.compile(CompileOptions(fused_depthwise=mode)).run(x))

    def test_auto_engages_stencil_under_lowered_threshold(self, monkeypatch):
        """Force the auto rule to pick the stencil on a small net and
        confirm bit-identity (exercises the arena's stencil buffers)."""
        import repro.inference.kernels as k
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        x = np.random.default_rng(2).uniform(0, 1, size=(2, 3, 32, 32))
        ref = net.forward(x)
        monkeypatch.setattr(k, "DW_IM2COL_BYTES_THRESHOLD", 0)
        assert np.array_equal(ref, net.compile().run(x))

    def test_invalid_mode_rejected(self):
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        with pytest.raises(ValueError, match="fused_depthwise"):
            net.compile(CompileOptions(fused_depthwise="sometimes"))
