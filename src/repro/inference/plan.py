"""Compile-then-execute inference: the :class:`ExecutionPlan` subsystem.

``IntegerNetwork.compile()`` walks the deployment graph once and hoists
everything that does not depend on the input batch out of the
per-inference path:

* weight tensors are zero-point-shifted and reshaped to GEMM form once
  (the interpreted engine re-shifts and re-reshapes them on every call);
* each layer's GEMM backend is fixed up front using the *weight-data
  refined* accumulator bound ``max_o sum_k |W_ok - Z_w| * max|X - Z_x|``
  (:func:`repro.inference.kernels.refined_max_abs_accumulator`): float32
  BLAS when that bound fits the 24-bit significand (2x the throughput of
  float64 — most wide pointwise layers clear it even though the a-priori
  corner-case bound does not), float64 BLAS below ``2^53``, and the
  K-tiled int64 einsum as the unbounded reference fallback; forcing
  ``backend="int32"`` runs the narrow MCU-style integer path (int32
  accumulators) wherever the ``2^31`` bound allows;
* depthwise layers take a fused stencil path that never materialises the
  im2col column tensor (per-tap strided multiply-adds, same exactness
  dispatch, stride-1 and stride-2 — see
  :func:`repro.inference.kernels.depthwise_stencil_accumulate`);
* requantization constants (``m0``/``n0``/``bq``, threshold tables) are
  pre-reshaped for the flat ``(N, C, L)`` accumulator layout and the
  fixed-point shift is split into its divisor / left-shift parts;
* range validation runs once at the network boundary (``validate=True``
  by default there) instead of per layer inside the hot loop;
* activation codes live at their *container width* end to end: uint8
  slabs for every <=8-bit activation, requantized accumulators streamed
  through a small cache-blocked int64 scratch straight into the code
  slab — the arena's physical code bytes match the paper's Eq. 7
  accounting for 8-bit networks;
* activation and scratch buffers come from a static
  :class:`~repro.inference.arena.ActivationArena` sized at plan time, so
  steady-state inference performs no per-layer allocations and peak host
  activation memory equals the compile-time plan.

The plan executes bit-identically to ``IntegerNetwork.forward`` — the
tests assert equality against the int64 einsum reference — and
``run_batched`` streams large evaluation sweeps through the arena in
fixed-size tiles, writing into a preallocated result, so activation
memory stays bounded by one tile regardless of the sweep size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.icn import (
    M0_FRACTIONAL_BITS,
    FoldedBNParams,
    ICNParams,
    ThresholdParams,
)
from repro.inference.arena import (
    ActivationArena,
    LayerGeometry,
    plan_activations,
)
from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    INT32_EXACT_BITS,
    check_codes,
    depthwise_prefers_stencil,
    depthwise_stencil_accumulate,
    exact_gemm_dtype_for_bound,
    gemm_reduction_length,
    int_avg_pool_global,
    int_einsum_gemm,
    max_abs_accumulator,
    quantize_input_codes,
    refined_max_abs_accumulator,
    shift_weights,
)
from repro.inference.packing import container_dtype
from repro.nn.functional import conv_output_size, im2col

_INT64 = np.dtype(np.int64)

#: Most K-chunks a split-K sgemm layer may use.  Each chunk is one sgemm
#: call plus one accumulate pass; past a few chunks the float64 GEMM is
#: the better deal again.
_SPLIT_K_MAX_CHUNKS = 4


def _split_k_chunks(w_shift: np.ndarray, z_x: int, x_bits: int):
    """Greedy K-partition whose per-chunk refined bounds fit float32.

    A float64-tier GEMM whose refined bound only just exceeds ``2^24``
    can run as a few float32 GEMMs over reduction chunks: every partial
    sum inside one chunk is bounded by that chunk's refined bound (sound
    per output channel, any summation order), so each sgemm is exact,
    and the chunk results — exact integers — are summed exactly in
    float64.  Returns the chunk boundaries, or None when a single chunk
    suffices (plain sgemm) or more than ``_SPLIT_K_MAX_CHUNKS`` would be
    needed (float64 stays the better deal).
    """
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    contrib = np.abs(w_shift.reshape(w_shift.shape[0], -1)).astype(np.int64) * x_mag
    k = contrib.shape[1]
    limit = 1 << FLOAT32_EXACT_BITS
    chunks = []
    start = 0
    run = np.zeros(contrib.shape[0], dtype=np.int64)
    for j in range(k):
        run += contrib[:, j]
        if int(run.max()) >= limit and j > start:
            chunks.append((start, j))
            start = j
            run = contrib[:, j].copy()
        if len(chunks) >= _SPLIT_K_MAX_CHUNKS:
            return None
    chunks.append((start, k))
    if len(chunks) < 2:
        return None
    # Soundness guard (a single column can never exceed the limit for
    # the paper's bit widths, but refuse rather than split unsoundly).
    for k0, k1 in chunks:
        if int(contrib[:, k0:k1].sum(axis=1).max()) >= limit:
            return None
    return chunks


def _resolve_compiled_backend(backend: str, bound: int, k: int,
                              x_bits: int, w_bits: int) -> Tuple[str, np.dtype]:
    """Backend + accumulator dtype for one compiled layer.

    ``bound`` is the refined (weight-data) worst-case ``|Phi|``; it is
    never larger than the a-priori ``k * (2^Qx-1) * (2^Qw-1)`` corner
    case, so layers whose corner case overflows float32 often still get
    the exact sgemm tier here.
    """
    float_dtype = exact_gemm_dtype_for_bound(bound)
    if backend == "auto":
        if float_dtype is not None:
            return "blas", np.dtype(float_dtype)
        return "int64", _INT64
    if backend == "blas":
        if float_dtype is None:
            raise ValueError(
                f"float GEMM is not exact: refined worst-case |Phi| = {bound} "
                f">= 2^53 (k={k}, Qx={x_bits}, Qw={w_bits})"
            )
        return "blas", np.dtype(float_dtype)
    if backend == "int32":
        if bound >= (1 << INT32_EXACT_BITS):
            raise ValueError(
                f"int32 accumulation overflows: refined worst-case |Phi| = "
                f"{bound} >= 2^{INT32_EXACT_BITS} (k={k}, Qx={x_bits}, Qw={w_bits})"
            )
        return "int32", np.dtype(np.int32)
    if backend == "int64":
        return "int64", _INT64
    raise ValueError(
        f"unknown GEMM backend {backend!r}; expected one of "
        "('auto', 'blas', 'int32', 'int64')"
    )


# ----------------------------------------------------------------------
# Compiled requantization (bit-identical to repro.core.icn on (N, C, L))
# ----------------------------------------------------------------------
class _CompiledFixedPointRequant:
    """Eq. 5 with constants pre-broadcast for the (N, C, L) accumulator.

    Serves both ICN (per-channel ``bq``/``m0``/``n0``) and folded-BN
    (per-channel ``bq``, scalar multiplier) — they share the identical
    fixed-point hot loop.  The divide of ``icn._fixed_point_scale`` is a
    floor division by ``2^pos``, which over int64 equals an arithmetic
    right shift — several times faster than ``floor_divide``.

    ``store(phi, out, scratch)`` tiles the accumulator
    (float32/float64/int32/int64) through the small int64 ``scratch`` in
    cache-resident chunks — Eq. 5's Q31 multiply needs 64-bit
    intermediates — and stores each requantized chunk straight into the
    container-width ``out`` codes, so no full-size int64 copy of the
    layer output ever touches memory.
    """

    kind = "fixed"

    def __init__(self, bq: np.ndarray, m0, n0, z_y: int, out_bits: int):
        self.bq = bq
        self.m0 = m0
        shift = M0_FRACTIONAL_BITS - n0
        # Same guard as icn._fixed_point_scale: divisor shift clamped to
        # [0, 62], residual negative shift applied as a left shift.
        self.rshift = np.minimum(np.maximum(shift, 0), 62)
        self.lshift = np.maximum(-shift, 0)
        self.z_y = int(z_y)
        self.qmax = 2 ** out_bits - 1

    # hot
    def _steps(self, phi: np.ndarray) -> np.ndarray:
        phi += self.bq
        phi *= self.m0
        np.right_shift(phi, self.rshift, out=phi)
        np.left_shift(phi, self.lshift, out=phi)
        phi += self.z_y
        np.clip(phi, 0, self.qmax, out=phi)
        return phi

    # hot
    def store(self, phi: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        n, c, l = phi.shape
        lc = max(1, min(l, scratch.size // max(c, 1)))
        for b in range(n):
            for l0 in range(0, l, lc):
                l1 = min(l0 + lc, l)
                s = scratch[: c * (l1 - l0)].reshape(1, c, l1 - l0)
                np.copyto(s, phi[b:b + 1, :, l0:l1], casting="unsafe")
                self._steps(s)
                np.copyto(out[b:b + 1, :, l0:l1], s, casting="unsafe")
        return out


def _compile_icn_requant(params: ICNParams) -> _CompiledFixedPointRequant:
    c_o = params.out_channels
    return _CompiledFixedPointRequant(
        bq=params.bq.reshape(1, c_o, 1),
        m0=params.m0.reshape(1, c_o, 1),
        n0=params.n0.reshape(1, c_o, 1),
        z_y=params.z_y,
        out_bits=params.out_bits,
    )


def _compile_folded_requant(params: FoldedBNParams) -> _CompiledFixedPointRequant:
    return _CompiledFixedPointRequant(
        bq=params.bq.reshape(1, -1, 1),
        m0=np.int64(params.m0),
        n0=np.int64(params.n0),
        z_y=params.z_y,
        out_bits=params.out_bits,
    )


class _CompiledThresholdRequant:
    """Per-channel threshold tables pre-sliced/pre-reversed for searchsorted.

    ``store`` consumes the accumulator one image at a time through the
    int64 scratch — ``searchsorted`` compares in the integer domain — and
    writes the clipped levels into the container-width code slab.
    """

    kind = "thr"

    def __init__(self, params: ThresholdParams):
        self.levels = 2 ** params.out_bits
        self.tables: List[tuple] = []
        for c in range(params.thresholds.shape[0]):
            th = params.thresholds[c, 1:]
            if params.direction[c] > 0:
                self.tables.append((np.ascontiguousarray(th), 1))
            else:
                self.tables.append((np.ascontiguousarray(th[::-1]), -1))

    def _levels_for(self, vals: np.ndarray, table: np.ndarray, direction: int) -> np.ndarray:
        if direction > 0:
            y = np.searchsorted(table, vals, side="right")
        else:
            y = self.levels - 1 - np.searchsorted(table, vals, side="left")
        return y

    # hot
    def store(self, phi: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        n, c, l = phi.shape
        for b in range(n):
            s = scratch[: c * l].reshape(c, l)
            np.copyto(s, phi[b], casting="unsafe")
            for ch, (table, direction) in enumerate(self.tables):
                y = self._levels_for(s[ch], table, direction)
                np.clip(y, 0, self.levels - 1, out=y)
                np.copyto(out[b, ch], y, casting="unsafe")
        return out


def _compile_requant(params):
    if isinstance(params, ICNParams):
        return _compile_icn_requant(params)
    if isinstance(params, FoldedBNParams):
        return _compile_folded_requant(params)
    if isinstance(params, ThresholdParams):
        return _CompiledThresholdRequant(params)
    raise TypeError(f"unsupported requantization parameters {type(params)!r}")


# ----------------------------------------------------------------------
# Compiled layers
# ----------------------------------------------------------------------
class CompiledConvLayer:
    """One conv/depthwise layer with all static state precomputed.

    ``validate`` range-checks the weight codes once at compile time —
    the same guard the interpreted engine applies on every forward, at
    zero per-inference cost (and required for the float exactness bound,
    which assumes codes within [0, 2^Q - 1]).

    ``fused_depthwise`` (depthwise only) selects the im2col-free stencil
    path: ``True`` forces it, ``False`` forces the unfold+matmul path,
    and ``"auto"`` (default) picks per call — stencil exactly when the
    batch's im2col column tensor would blow the cache threshold and turn
    the layer memory-bound (:func:`~repro.inference.kernels.depthwise_prefers_stencil`).

    The output codes are stored at container width (uint8 for <=8-bit
    activations), requantized through the arena's chunked scratch.  The
    layer computes entirely inside the
    :class:`~repro.inference.arena.ActivationArena`'s preallocated slab
    views and returns a view into its code slot ``slot``.
    """

    def __init__(self, layer, backend: str = "auto", validate: bool = True,
                 fused_depthwise="auto"):
        p = layer.params
        self.name = layer.name
        self.kind = layer.kind
        self.stride = int(layer.stride)
        self.padding = int(layer.padding)
        self.in_bits = int(layer.in_bits)
        self.out_bits = int(layer.out_bits)
        self.w_bits = int(p.w_bits)
        w = p.weights_q
        if validate:
            check_codes(f"{self.name} weight", w, self.w_bits)
        self.kh, self.kw = int(w.shape[2]), int(w.shape[3])
        self.out_channels = int(w.shape[0])
        self.in_channels = self.out_channels if self.kind == "dw" else int(w.shape[1])
        self.k_reduction = gemm_reduction_length(self.kind, w.shape)
        self.z_x = int(p.z_x)
        w_shift = shift_weights(w, p.z_w, self.out_channels)
        # Refined accumulator bound: the actual shifted weights are in
        # hand, so dispatch on max_o sum_k |W'| * max|X - Zx| instead of
        # the a-priori corner case (exact for codes within range, which
        # compile()/boundary validation guarantees).  Disabling validation
        # voids the range guarantee the refinement relies on and restores
        # the a-priori corner-case tiering.
        self.acc_bound = max_abs_accumulator(self.k_reduction, self.in_bits, self.w_bits)
        if validate:
            self.acc_bound = min(
                self.acc_bound,
                refined_max_abs_accumulator(w_shift, self.z_x, self.in_bits),
            )
        self.backend, gemm_dtype = _resolve_compiled_backend(
            backend, self.acc_bound, self.k_reduction, self.in_bits, self.w_bits
        )
        self.gemm_dtype = gemm_dtype
        self.acc_dtype = gemm_dtype
        # Split-K sgemm: a float64-tier pointwise layer whose reduction
        # can be partitioned into a few chunks each individually under
        # the float32 bound runs as chunked sgemms (2x dgemm throughput)
        # summed exactly in float64.
        self.split_k = None
        if (
            self.backend == "blas" and gemm_dtype == np.float64
            and validate
            and self.kind == "pw" and self.kh == 1 and self.kw == 1
            and self.stride == 1 and self.padding == 0
        ):
            self.split_k = _split_k_chunks(w_shift, self.z_x, self.in_bits)
            if self.split_k is not None:
                self.gemm_dtype = np.dtype(np.float32)
                self.acc_dtype = np.dtype(np.float64)
        self.out_dtype = container_dtype(self.out_bits)
        if fused_depthwise is True:
            mode = "always"
        elif fused_depthwise is False:
            mode = "never"
        elif fused_depthwise == "auto":
            mode = "auto"
        else:
            raise ValueError(
                f"fused_depthwise must be True, False or 'auto', got {fused_depthwise!r}"
            )
        self.dw_mode = mode if self.kind == "dw" else ""
        # "Always" is what the arena planner treats as fused (it shrinks
        # the cols slab to the tap temporary); "auto" keeps the
        # conservative im2col-sized plan since either path may run.
        self.fused = self.dw_mode == "always"
        w2 = np.ascontiguousarray(
            w_shift.reshape(self.out_channels, -1).astype(self.gemm_dtype)
        )
        self.w2 = w2
        self.w2_chunks = (
            None if self.split_k is None
            else [np.ascontiguousarray(w2[:, k0:k1]) for k0, k1 in self.split_k]
        )
        self.gemm_itemsize = self.gemm_dtype.itemsize
        if self.kind == "dw":
            self.w_cols = self.w2  # (C, kh*kw) stencil form
            if self.backend == "blas" and self.dw_mode != "always":
                # (C, 1, kh*kw) batched-matmul form for the im2col path
                # (the integer einsum contraction keeps the flat form).
                self.w2 = np.ascontiguousarray(self.w2[:, None, :])
        self.requant = _compile_requant(p)
        self.requant_kind = self.requant.kind

    def _accumulate_int(self, cols: np.ndarray, out=None) -> np.ndarray:
        """Integer einsum contraction (int64 reference / forced int32)."""
        if self.kind == "dw":
            return np.einsum("ck,nckl->ncl", self.w2, cols, optimize=True, out=out)
        return int_einsum_gemm(self.w2, cols, out=out)

    # hot
    def _shift_pad(self, x_codes: np.ndarray, dtype, arena: ActivationArena) -> np.ndarray:
        """Zero-point shift and zero-pad into the arena's pad slab.

        Writing ``x - Z_x`` straight into the interior of the padded
        buffer fuses what the interpreted path does in two full-tensor
        passes (``subtract`` then ``np.pad``).  The subtraction loop is
        pinned to the GEMM dtype so narrow (uint8) input containers are
        widened on the fly, never wrapped.
        """
        p = self.padding
        n, c, h, w = x_codes.shape
        if p == 0:
            out = arena.pad(dtype, (n, c, h, w))
            return np.subtract(x_codes, self.z_x, out=out, dtype=dtype)
        out = arena.pad(dtype, (n, c, h + 2 * p, w + 2 * p))
        out.fill(0)
        np.subtract(x_codes, self.z_x, out=out[:, :, p:-p, p:-p], dtype=dtype)
        return out

    # hot
    def _unfold(self, x_shift: np.ndarray, arena: ActivationArena, n: int,
                l_out: int) -> np.ndarray:
        """im2col columns — a pure view for 1x1/s1, an arena slab otherwise."""
        if self.kh == 1 and self.kw == 1 and self.stride == 1:
            return x_shift.reshape(n, self.in_channels, l_out)
        shape = (n, self.in_channels * self.kh * self.kw, l_out)
        return im2col(x_shift, self.kh, self.kw, self.stride, 0,
                      out=arena.cols(x_shift.dtype, shape))

    # hot
    def __call__(self, x_codes: np.ndarray, arena: ActivationArena,
                 slot: int = 0) -> np.ndarray:
        n, c, h, w = x_codes.shape
        oh = conv_output_size(h, self.kh, self.stride, self.padding)
        ow = conv_output_size(w, self.kw, self.stride, self.padding)
        l_out = oh * ow
        out_shape = (n, self.out_channels, l_out)
        fused = self.kind == "dw" and (
            self.dw_mode == "always"
            or (self.dw_mode == "auto" and depthwise_prefers_stencil(
                n, c, self.kh, self.kw, oh, ow, self.gemm_itemsize,
                stride=self.stride))
        )
        x_shift = self._shift_pad(x_codes, self.gemm_dtype, arena)
        if fused:
            # Per-tap strided stencil; the cols slab serves as the tap
            # temporary (it is never used for columns on this path).
            acc = arena.acc(self.gemm_dtype, (n, c, oh, ow))
            tmp = (arena.cols(self.gemm_dtype, (n, c, oh, ow))
                   if self.k_reduction > 1 else None)
            phi = depthwise_stencil_accumulate(
                x_shift, self.w_cols, self.kh, self.kw, self.stride, out=acc, tmp=tmp
            ).reshape(n, c, l_out)
        elif self.backend == "blas":
            cols = self._unfold(x_shift, arena, n, l_out)
            if self.split_k is not None:
                # Chunked sgemm over the K-partition, each chunk exact in
                # float32, summed exactly in the float64 accumulator.
                acc = arena.acc(np.float64, out_shape)
                tmp = arena.cols(self.gemm_dtype, out_shape)
                (k0, k1), *rest = self.split_k
                np.matmul(self.w2_chunks[0], cols[:, k0:k1, :], out=tmp)
                np.copyto(acc, tmp)
                for (k0, k1), w2c in zip(rest, self.w2_chunks[1:]):
                    np.matmul(w2c, cols[:, k0:k1, :], out=tmp)
                    acc += tmp
                phi = acc
            elif self.kind == "dw":
                cols = cols.reshape(n, c, self.k_reduction, l_out)
                acc = arena.acc(self.gemm_dtype, (n, c, 1, l_out))
                phi = np.matmul(self.w2, cols, out=acc).reshape(n, c, l_out)
            else:
                phi = np.matmul(self.w2, cols, out=arena.acc(self.gemm_dtype, out_shape))
        else:
            cols = self._unfold(x_shift, arena, n, l_out)
            if self.kind == "dw":
                cols = cols.reshape(n, c, self.k_reduction, l_out)
            phi = self._accumulate_int(cols, out=arena.acc(self.gemm_dtype, out_shape))
        # Chunked requantization: accumulator -> int64 scratch tiles ->
        # container-width codes.  Exact: every accumulator value is an
        # integer below the layer's accumulator bound by construction.
        out = arena.codes(slot, out_shape, self.out_dtype)
        self.requant.store(phi.reshape(out_shape), out, arena.requant_scratch())
        return out.reshape(n, self.out_channels, oh, ow)


class CompiledLinear:
    """Compiled integer classifier: shifted/transposed weights and the
    dequantization scale (``s_in * s_w``) are materialised once.  The
    accumulator dtype uses the same refined weight-data bound as the
    conv layers (sgemm on most classifier widths)."""

    def __init__(self, layer, backend: str = "auto", validate: bool = True):
        self.name = layer.name
        self.kind = "fc"
        self.in_bits = int(layer.in_bits)
        self.w_bits = int(layer.w_bits)
        if validate:
            check_codes(f"{self.name} weight", layer.weights_q, self.w_bits)
        self.k_reduction = gemm_reduction_length("fc", layer.weights_q.shape)
        self.out_channels = int(layer.weights_q.shape[0])
        self.z_x = int(layer.z_x)
        w_shift = shift_weights(layer.weights_q, layer.z_w, self.out_channels)
        self.acc_bound = max_abs_accumulator(self.k_reduction, self.in_bits, self.w_bits)
        if validate:
            self.acc_bound = min(
                self.acc_bound,
                refined_max_abs_accumulator(w_shift, self.z_x, self.in_bits),
            )
        self.backend, self.gemm_dtype = _resolve_compiled_backend(
            backend, self.acc_bound, self.k_reduction, self.in_bits, self.w_bits
        )
        self.w_t = np.ascontiguousarray(w_shift.T.astype(self.gemm_dtype))
        s_w = np.asarray(layer.s_w, dtype=np.float64).reshape(-1)
        # Match IntegerLinearLayer.forward exactly: s_in * s_w is evaluated
        # first there too (left-to-right), so hoisting it preserves ulps.
        if s_w.size == 1:
            self.scale = layer.s_in * float(s_w[0])
        else:
            self.scale = layer.s_in * s_w.reshape(1, -1)
        self.bias = None if layer.bias is None else np.asarray(layer.bias, dtype=np.float64)

    def __call__(self, x_codes: np.ndarray) -> np.ndarray:
        phi = np.subtract(x_codes, self.z_x, dtype=self.gemm_dtype) @ self.w_t
        phi = phi.astype(np.float64)
        logits = self.scale * phi
        if self.bias is not None:
            logits = logits + self.bias
        return logits


# ----------------------------------------------------------------------
# Execution plan
# ----------------------------------------------------------------------
@dataclass
class LayerPlanInfo:
    """Static description of one compiled layer (for reports/export)."""

    name: str
    kind: str
    backend: str
    gemm_dtype: str
    k_reduction: int
    out_channels: int
    in_bits: int
    w_bits: int
    #: Depthwise dispatch mode ("always"/"never"/"auto"); "" for non-dw.
    dw_mode: str = ""
    #: Container dtype the output codes are stored at ("-" for fc logits).
    container: str = "-"
    #: Refined worst-case |Phi| the accumulator dtype was picked for.
    acc_bound: int = 0


class ExecutionPlan:
    """Compiled form of an :class:`~repro.inference.engine.IntegerNetwork`.

    Construction is driven by a single
    :class:`~repro.runtime.options.CompileOptions` value.

    ``options.validate`` controls the boundary range check on incoming
    codes and a one-time weight-code check at compile time (and with it
    the refined-bound dispatch); the per-call per-layer scans of the
    interpreted engine never run inside the plan.  All activation and
    scratch traffic goes through a static
    :class:`~repro.inference.arena.ActivationArena` holding codes at
    container width (planned lazily per input geometry, or eagerly when
    ``options.input_hw`` is given).  ``options.fused_depthwise`` selects
    the stencil depthwise kernel: ``"auto"`` (default) per-call by the
    cache-threshold rule, ``True`` always, ``False`` never.
    """

    def __init__(self, network, options=None):
        from repro.runtime.options import CompileOptions

        if options is None:
            options = CompileOptions()
        elif not isinstance(options, CompileOptions):
            raise TypeError(
                f"options must be a repro.runtime.CompileOptions, got "
                f"{type(options).__name__!r}"
            )
        self.options = options
        self.validate = bool(options.validate)
        self.layers: List[CompiledConvLayer] = [
            CompiledConvLayer(l, backend=options.backend, validate=self.validate,
                              fused_depthwise=options.fused_depthwise)
            for l in network.conv_layers
        ]
        self.input_scale = float(network.input_scale)
        self.input_zero_point = int(network.input_zero_point)
        self.input_bits = int(network.input_bits)
        self.has_pool = network.pool is not None
        self.classifier: Optional[CompiledLinear] = (
            None if network.classifier is None
            else CompiledLinear(network.classifier, backend=options.backend,
                                validate=self.validate)
        )
        self._arenas: Dict[Tuple[int, int], ActivationArena] = {}
        # Shape-polymorphic plans size one arena for the declared max
        # geometry; every smaller geometry adopts its slabs (arena_for).
        self._max_arena: Optional[ActivationArena] = None
        if options.max_input_hw is not None:
            self._max_arena = self.arena_for(options.max_input_hw)
        if options.input_hw is not None:
            self.arena_for(options.input_hw)

    # -- input boundary ------------------------------------------------
    def quantize_input(self, x_real: np.ndarray) -> np.ndarray:
        """Quantize a real NCHW image batch into input codes (same
        boundary quantizer as the interpreted engine, stored at the
        input's container width)."""
        return quantize_input_codes(
            x_real, self.input_scale, self.input_zero_point, self.input_bits,
            dtype=container_dtype(self.input_bits),
        )

    # -- activation memory planning ------------------------------------
    def _geometries(self) -> List[LayerGeometry]:
        geoms = [LayerGeometry.from_compiled(l) for l in self.layers]
        if self.classifier is not None:
            c = self.classifier
            geoms.append(LayerGeometry(
                name=c.name, kind="fc",
                in_channels=c.k_reduction, out_channels=c.out_channels,
                kh=1, kw=1, stride=1, padding=0,
                in_bits=c.in_bits,
                # Logits leave the integer domain; for the Eq. 7 model the
                # classifier output is accounted at the activation width.
                out_bits=c.in_bits,
                gemm_itemsize=np.dtype(c.gemm_dtype).itemsize,
                fused=False,
                out_itemsize=container_dtype(c.in_bits).itemsize,
                requant_kind="",
            ))
        return geoms

    def arena_for(self, input_hw: Tuple[int, int]) -> ActivationArena:
        """The static activation arena planned for one input geometry.

        Planned once per ``(H, W)`` and cached; its slabs grow to the
        largest batch seen (``planned_bytes(batch)`` is exact for any
        batch).  This is also the introspection entry point: the arena
        carries the per-layer :class:`LayerActivationPlan` list, the
        Eq. 7 ``logical_rw_peak_bytes`` the deploy path checks against a
        device's RW budget, and the container-width
        ``physical_code_bytes`` that must equal it for 8-bit networks.

        Under ``options.max_input_hw`` the plan is *shape-polymorphic*:
        the max-geometry arena owns the slabs, any smaller ``(H, W)``
        gets a per-geometry plan that adopts them (exact Eq. 7
        accounting, zero extra slab bytes), and a geometry exceeding the
        declared max in either dimension raises ``ValueError``.
        """
        key = (int(input_hw[0]), int(input_hw[1]))
        if key in self._arenas:
            return self._arenas[key]
        donor = None
        max_hw = self.options.max_input_hw
        if self._max_arena is not None and key != max_hw:
            if key[0] > max_hw[0] or key[1] > max_hw[1]:
                raise ValueError(
                    f"input geometry {key[0]}x{key[1]} exceeds the "
                    f"plan's declared max geometry "
                    f"{max_hw[0]}x{max_hw[1]}"
                )
            donor = self._max_arena
        arena = ActivationArena(
            plan_activations(self._geometries(), key), slabs_from=donor
        )
        self._arenas[key] = arena
        return arena

    # -- execution -----------------------------------------------------
    def _trunk(self, x_codes: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Run the conv trunk; returns (codes, codes_are_an_arena_view)."""
        if not self.layers:
            return x_codes, False
        n, c, h, w = x_codes.shape
        if n == 0:
            shape = self._trunk_shape(c, h, w)
            return np.empty((0,) + shape, dtype=self.layers[-1].out_dtype), False
        arena = self.arena_for((h, w))
        arena.ensure(n)
        for i, layer in enumerate(self.layers):
            x_codes = layer(x_codes, arena, i % 2)
        return x_codes, True

    def run_codes(self, x_codes: np.ndarray, validate: Optional[bool] = None) -> np.ndarray:
        """Run the convolutional trunk on integer codes; returns codes
        the caller owns (never a live view into the arena)."""
        if self.validate if validate is None else validate:
            check_codes("input activation", x_codes, self.input_bits)
        codes, is_view = self._trunk(x_codes)
        return codes.copy() if is_view else codes

    def run(self, x_real: np.ndarray) -> np.ndarray:
        """End-to-end inference from a real image batch to real logits."""
        codes = self.quantize_input(x_real)
        # quantize_input clips into range, so the boundary check is moot
        # here; pool/classifier consume the trunk's arena view before any
        # subsequent call reuses the slabs, so no defensive copy either.
        codes, _ = self._trunk(codes)
        if self.has_pool:
            codes = int_avg_pool_global(codes)
        if self.classifier is not None:
            return self.classifier(codes)
        return codes.astype(np.float64)

    def output_spec(self, input_shape: Sequence[int]) -> Tuple[Tuple[int, ...], np.dtype]:
        """Per-image output shape and dtype of :meth:`run` — without running.

        ``input_shape`` is the per-image ``(C, H, W)``.  Logits (and the
        pool-less code passthrough) are always float64; the shape cascade
        is the same geometry walk the arena planner performs.
        """
        dtype = np.dtype(np.float64)
        if self.classifier is not None:
            return (self.classifier.out_channels,), dtype
        c, h, w = self._trunk_shape(*input_shape)
        if self.has_pool:
            return (c,), dtype
        return (c, h, w), dtype

    def _trunk_shape(self, c: int, h: int, w: int) -> Tuple[int, int, int]:
        """Per-image ``(C, H, W)`` of the trunk's output codes."""
        c, h, w = int(c), int(h), int(w)
        for layer in self.layers:
            h = conv_output_size(h, layer.kh, layer.stride, layer.padding)
            w = conv_output_size(w, layer.kw, layer.stride, layer.padding)
            c = layer.out_channels
        return c, h, w

    def run_batched(self, x_real: np.ndarray, batch_size: int = 32) -> np.ndarray:
        """Stream a large sweep through the plan in fixed-size tiles.

        Every tile reuses the same activation arena, and results are
        written into one preallocated output, so peak activation memory
        is the compile-time ``arena_for(hw).planned_bytes(batch_size)``
        regardless of the sweep size — sweeps far larger than RAM would
        allow for whole-sweep activations stream through unchanged.

        Degenerate sweeps take the cheap path: an empty batch returns an
        empty, correctly-shaped result without touching the kernels, and
        a sweep no larger than one tile (including batch-of-1) runs
        single-shot with no intermediate result copy.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        x_real = np.asarray(x_real)
        n = x_real.shape[0]
        if n == 0:
            shape, dtype = self.output_spec(x_real.shape[1:])
            return np.empty((0,) + shape, dtype=dtype)
        if n <= batch_size:
            return self.run(x_real)
        shape, dtype = self.output_spec(x_real.shape[1:])
        out = np.empty((n,) + shape, dtype=dtype)
        for i in range(0, n, batch_size):
            out[i:i + batch_size] = self.run(x_real[i:i + batch_size])
        return out

    def predict(self, x_real: np.ndarray, batch_size: Optional[int] = None) -> np.ndarray:
        """Class predictions for a real image batch (optionally tiled)."""
        if batch_size is None:
            return np.argmax(self.run(x_real), axis=1)
        return np.argmax(self.run_batched(x_real, batch_size=batch_size), axis=1)

    # -- introspection -------------------------------------------------
    def layer_info(self) -> Sequence[LayerPlanInfo]:
        infos = [
            LayerPlanInfo(l.name, l.kind, l.backend, np.dtype(l.gemm_dtype).name,
                          l.k_reduction, l.out_channels, l.in_bits, l.w_bits,
                          l.dw_mode, np.dtype(l.out_dtype).name, l.acc_bound)
            for l in self.layers
        ]
        if self.classifier is not None:
            c = self.classifier
            infos.append(
                LayerPlanInfo(c.name, c.kind, c.backend, np.dtype(c.gemm_dtype).name,
                              c.k_reduction, c.out_channels, c.in_bits, c.w_bits,
                              acc_bound=c.acc_bound)
            )
        return infos

    def describe(self, input_hw: Optional[Tuple[int, int]] = None,
                 batch_size: int = 1) -> str:
        """Human-readable per-layer dispatch summary.

        With ``input_hw`` (or after the plan has already executed on some
        geometry) the summary ends with the activation-arena plan: the
        host slab bytes for ``batch_size`` images, the physical
        (container-width) bytes of the ping-pong code pair, and the
        paper-model (Eq. 7) logical RW peak for packed codes — physical
        and logical agree exactly for pure 8-bit networks.
        """
        lines = [f"{'layer':<16} {'kind':<5} {'backend':<7} {'acc':<8} "
                 f"{'codes':<6} {'k':>6} {'c_out':>6}  {'path'}"]
        paths = {"always": "fused-stencil", "never": "im2col", "auto": "auto-stencil"}
        for info in self.layer_info():
            path = paths.get(info.dw_mode, "im2col")
            lines.append(
                f"{info.name:<16} {info.kind:<5} {info.backend:<7} {info.gemm_dtype:<8} "
                f"{info.container:<6} {info.k_reduction:>6} {info.out_channels:>6}  {path}"
            )
        arena: Optional[ActivationArena] = None
        if input_hw is not None:
            arena = self.arena_for(input_hw)
        elif self._arenas:
            (input_hw, arena), = list(self._arenas.items())[:1]
        if arena is not None:
            h, w = input_hw
            lines += [
                "",
                f"activation arena (input {h}x{w}):",
                f"  planned host peak  : {arena.planned_bytes(batch_size)} bytes"
                f" (batch {batch_size}, {arena.bytes_per_image()} per image"
                f" + {arena.fixed_bytes} requant scratch)",
                f"  physical code pair : {arena.physical_code_bytes(1)} bytes"
                f" (container-width ping-pong, batch 1)",
                f"  logical RW peak    : {arena.logical_rw_peak_bytes} bytes"
                f" (paper Eq. 7, packed codes)",
            ]
        return "\n".join(lines)
