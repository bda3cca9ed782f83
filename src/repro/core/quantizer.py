"""Uniform affine quantization primitives (paper Eq. 1–2).

A real tensor ``t`` is mapped onto integers ``T`` in ``[0, 2^Q - 1]``
(UINT-Q) or ``[-2^(Q-1), 2^(Q-1)-1]`` (INT-Q) through

    t = S * (T - Z)            (Eq. 2)
    T = clamp(round(t / S) + Z, qmin, qmax)

with the scale ``S = (b - a) / (2^Q - 1)`` derived from the quantization
range ``[a, b]`` (Eq. 1).  Activations use ``floor`` instead of ``round``
(paper §3) because truncation is a plain shift on the target MCU.

Ranges can be computed per-tensor ("per-layer", PL) or along the outer
(output-channel) dimension ("per-channel", PC, §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

VALID_BITS = (2, 4, 8)


@dataclass(frozen=True)
class QuantSpec:
    """Static description of a quantized tensor format.

    Attributes
    ----------
    bits:
        Bit width Q; the paper admits Q in {2, 4, 8}.
    signed:
        ``False`` for UINT-Q ([0, 2^Q-1]) and ``True`` for INT-Q.
    per_channel:
        Whether scale/zero-point are vectors along the outer dimension.
    symmetric:
        Whether the zero-point is constrained to map real 0 exactly onto
        an integer with ``a = -b`` (weights only).
    """

    bits: int
    signed: bool = False
    per_channel: bool = False
    symmetric: bool = False

    def __post_init__(self):
        if self.bits < 1 or self.bits > 32:
            raise ValueError(f"unsupported bit width {self.bits}")

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1)) if self.signed else 0

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1 if self.signed else 2 ** self.bits - 1

    @property
    def levels(self) -> int:
        return 2 ** self.bits

    @property
    def container_dtype(self) -> np.dtype:
        """Narrowest numpy dtype that stores this format's codes (the
        physical width quantized tensors occupy on the host — uint8 for
        every unsigned width the paper deploys)."""
        from repro.inference.packing import container_dtype

        return container_dtype(self.bits, signed=self.signed)


def compute_affine_params(
    a: np.ndarray | float,
    b: np.ndarray | float,
    spec: QuantSpec,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scale and zero-point for the range [a, b] under ``spec`` (Eq. 1–2).

    Returns ``(scale, zero_point)`` as float64 / int64 arrays broadcastable
    against the tensor.  Degenerate ranges (``a == b``) get scale 1 so that
    quantization is well defined (the tensor is constant).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(b < a):
        raise ValueError("quantization range must have b >= a")
    steps = spec.levels - 1
    # A range wider than float64 can hold overflows ``b - a`` to inf; its
    # scale comes from the halves ``b/(L-1) - a/(L-1)``, which stay
    # finite.  Every other range keeps the exact ``(b - a)/(L-1)``.
    with np.errstate(over="ignore"):
        span = b - a
    span_scale = np.where(np.isfinite(span), span / steps, b / steps - a / steps)
    # Degenerate (constant) ranges get a scale that still represents the
    # constant value exactly on the grid.
    fallback = np.maximum(np.abs(a), 1.0) / steps
    scale = np.where(span > 0, span_scale, fallback)
    # A positive but subnormal span can still underflow to scale == 0 in
    # the division above; such a range is indistinguishable from constant
    # at float64 resolution, so it takes the constant-range fallback too
    # (otherwise the zero-point divide produces NaN -> INT64_MIN codes).
    scale = np.where(scale > 0, scale, fallback)
    # Zero-point such that real value `a` maps to qmin exactly.  It is not
    # clamped to the code range: ranges that exclude zero (legal for
    # weights in principle) keep an out-of-range offset rather than a
    # silently wrong mapping.  The ranges produced in this flow (PACT
    # activations with a = 0, min/max weight ranges straddling zero) always
    # yield zero-points inside the UINT-Q / INT16 storage types of §4.1.
    zero_point = np.round(spec.qmin - a / scale).astype(np.int64)
    return scale, zero_point


def quantize_affine(
    t: np.ndarray,
    scale: np.ndarray | float,
    zero_point: np.ndarray | int,
    spec: QuantSpec,
    rounding: str = "round",
) -> np.ndarray:
    """Map a real tensor onto its integer representation.

    ``rounding`` is ``"round"`` for weights and ``"floor"`` for activations
    (paper §3).  Codes come back in the spec's narrow
    :attr:`~QuantSpec.container_dtype` (uint8 for UINT-Q, Q <= 8), not
    int64 — the container width is what deployment blobs and the
    activation arena account for.
    """
    if rounding not in ("round", "floor"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    q = np.asarray(t, dtype=np.float64) / scale
    q = np.floor(q) if rounding == "floor" else np.round(q)
    q = q + zero_point
    return np.clip(q, spec.qmin, spec.qmax).astype(spec.container_dtype)


def dequantize_affine(
    q: np.ndarray,
    scale: np.ndarray | float,
    zero_point: np.ndarray | int,
) -> np.ndarray:
    """Inverse map of :func:`quantize_affine` (Eq. 2)."""
    return (np.asarray(q, dtype=np.float64) - zero_point) * scale


def fake_quantize(
    t: np.ndarray,
    a: np.ndarray | float,
    b: np.ndarray | float,
    spec: QuantSpec,
    rounding: str = "round",
) -> np.ndarray:
    """Quantize-then-dequantize: the forward emulation used during QAT.

    Values are first clamped to [a, b] (Eq. 1's ``clamp``) so that the
    quantized integer never saturates outside the representable grid.
    """
    a_arr = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    t_clamped = np.clip(t, a_arr, b_arr)
    scale, zp = compute_affine_params(a_arr, b_arr, spec)
    q = quantize_affine(t_clamped, scale, zp, spec, rounding=rounding)
    return dequantize_affine(q, scale, zp)


# ----------------------------------------------------------------------
# Range statistics
# ----------------------------------------------------------------------
def per_tensor_minmax(t: np.ndarray) -> Tuple[float, float]:
    """Per-layer (PL) min/max range of a tensor (paper §3, following [11])."""
    return float(np.min(t)), float(np.max(t))


def per_channel_minmax(t: np.ndarray, axis: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel (PC) min/max along the outer (output-channel) dimension.

    Returns arrays of shape ``(t.shape[axis],)``.
    """
    moved = np.moveaxis(t, axis, 0).reshape(t.shape[axis], -1)
    return moved.min(axis=1), moved.max(axis=1)


def broadcast_channelwise(vec: np.ndarray, ndim: int, axis: int = 0) -> np.ndarray:
    """Reshape a per-channel vector so it broadcasts along ``axis`` of an
    ``ndim``-dimensional tensor."""
    shape = [1] * ndim
    shape[axis] = -1
    return np.asarray(vec).reshape(shape)


def quantization_error(t: np.ndarray, t_fq: np.ndarray) -> float:
    """Mean-squared quantization error (used by tests and diagnostics)."""
    return float(np.mean((np.asarray(t) - np.asarray(t_fq)) ** 2))
