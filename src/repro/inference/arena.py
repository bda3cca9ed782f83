"""Static activation memory arena for the compiled :class:`ExecutionPlan`.

The paper's RW-memory model (Table 1, Eq. 7) assumes an output-stationary
dataflow: while one layer executes, exactly one input/output activation
pair is alive, and the binding RAM term is the *maximum over layers* of
that pair's packed size.  The seed engine (and the PR-1 compiled plan)
instead allocated fresh activation and scratch buffers on every layer of
every call, so host peak memory tracked allocator behaviour rather than
the model — and held every code in int64, 8x the container width the
model accounts for.

This module plans that behaviour statically, at compile time:

* :func:`plan_activations` cascades the input geometry through the layer
  stack once and records, per layer, the activation shapes plus every
  scratch buffer the compiled kernels need (padded/shifted input, im2col
  columns or fused-stencil tap temporary, GEMM accumulator, requantization
  scratch);
* :class:`ActivationArena` turns that plan into preallocated slabs: a
  ping-pong pair of *container-width* code slabs (uint8 for every <=8-bit
  activation — the Eq. 7 input/output pair at its true physical width,
  sized per slot), pad/cols/acc scratch sized to the worst layer, and a
  small fixed requantization scratch; every slab is reused by every
  subsequent call;
* :func:`logical_rw_peak_bytes` evaluates the *paper's* Eq. 7 over the
  same per-layer plan, using the identical packed-tensor formula as
  :mod:`repro.core.memory_model` (imported, not reimplemented), so the
  arena and the analytical model cannot drift — the tests assert the two
  agree layer for layer on every model-zoo spec, and that for a pure
  8-bit network the ping-pong pair's *physical* bytes equal the Eq. 7
  peak exactly (:meth:`ActivationArena.physical_code_bytes`).

Buffers are raw ``uint8`` slabs viewed at the per-layer dtype, so a
float32-tier depthwise layer and a float64 pointwise layer share the same
storage.  ``ensure(batch)`` grows the slabs monotonically; the planned
peak for a given tile size is exact and is what ``run_batched`` is
bounded by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.memory_model import activation_rw_bytes
from repro.inference.kernels import (
    blas_gemm_dtype,
    blas_gemm_is_exact,
    gemm_reduction_length,
)
from repro.inference.packing import container_dtype
from repro.nn.functional import conv_output_size

_INT64_BYTES = np.dtype(np.int64).itemsize

#: Target size of one requantization tile.  The compiled plan
#: requantizes the accumulator in cache-blocked chunks through a small
#: int64 scratch (Eq. 5 needs 64-bit intermediates for the Q31 multiply)
#: and stores straight into the container-width code slab — instead of
#: round-tripping the whole layer through an out-sized int64 buffer.
REQUANT_SCRATCH_BYTES = 512 << 10


@dataclass(frozen=True)
class LayerGeometry:
    """Static geometry of one layer, as needed for activation planning.

    Decoupled from the compiled layer objects so the deployment export
    can plan activations for a serialised network without compiling it.
    ``gemm_itemsize`` is the byte width of the layer's GEMM operands and
    accumulator (float32/float64/int32/int64 depending on dispatch);
    ``out_itemsize`` the container width its output codes are stored at
    (1 for every <=8-bit activation); ``requant_kind`` selects the requantization
    scratch requirement (``"fixed"`` fixed-point Eq. 5, ``"thr"``
    thresholds, ``""`` for fc).
    """

    name: str
    kind: str  # "conv" | "pw" | "dw" | "fc"
    in_channels: int
    out_channels: int
    kh: int
    kw: int
    stride: int
    padding: int
    in_bits: int
    out_bits: int
    gemm_itemsize: int  # bytes per scratch element (float32/float64/int32/int64)
    fused: bool  # depthwise stencil path (no im2col columns)
    out_itemsize: int = 1  # container bytes per output code
    requant_kind: str = "fixed"
    #: Split-K sgemm layer: needs an output-sized float32 chunk buffer in
    #: the cols slab (its 1x1 unfold is otherwise a pure view).
    split_k: bool = False

    @classmethod
    def from_compiled(cls, layer) -> "LayerGeometry":
        """Geometry of a compiled conv/dw/pw layer (plan.CompiledConvLayer)."""
        return cls(
            name=layer.name,
            kind=layer.kind,
            in_channels=layer.in_channels,
            out_channels=layer.out_channels,
            kh=layer.kh,
            kw=layer.kw,
            stride=layer.stride,
            padding=layer.padding,
            in_bits=layer.in_bits,
            out_bits=layer.out_bits,
            # Slabs are sized at the wider of the operand and accumulator
            # dtypes (they differ only for split-K sgemm layers).
            gemm_itemsize=max(
                np.dtype(layer.gemm_dtype).itemsize,
                np.dtype(getattr(layer, "acc_dtype", layer.gemm_dtype)).itemsize,
            ),
            fused=getattr(layer, "fused", False),
            out_itemsize=np.dtype(layer.out_dtype).itemsize,
            requant_kind=getattr(layer, "requant_kind", "fixed"),
            split_k=getattr(layer, "split_k", None) is not None,
        )

    @classmethod
    def from_weights(
        cls,
        name: str,
        kind: str,
        weight_shape: Sequence[int],
        stride: int,
        padding: int,
        in_bits: int,
        w_bits: int,
        out_bits: int,
        fused_depthwise: bool = True,
        requant_kind: str = "fixed",
    ) -> "LayerGeometry":
        """Geometry from a raw weight shape, using the a-priori GEMM
        dispatch (what a fresh ``compile()`` of the network would pick
        before the weight-data bound refinement, which needs the codes)."""
        if kind == "fc":
            c_in, c_out = int(weight_shape[1]), int(weight_shape[0])
            kh = kw = 1
        elif kind == "dw":
            c_in = c_out = int(weight_shape[0])
            kh, kw = int(weight_shape[2]), int(weight_shape[3])
        else:
            c_out, c_in = int(weight_shape[0]), int(weight_shape[1])
            kh, kw = int(weight_shape[2]), int(weight_shape[3])
        k = gemm_reduction_length(kind, weight_shape)
        if blas_gemm_is_exact(k, in_bits, w_bits):
            itemsize = np.dtype(blas_gemm_dtype(k, in_bits, w_bits)).itemsize
        else:
            itemsize = _INT64_BYTES
        return cls(
            name=name,
            kind=kind,
            in_channels=c_in,
            out_channels=c_out,
            kh=kh,
            kw=kw,
            stride=int(stride),
            padding=int(padding),
            in_bits=int(in_bits),
            out_bits=int(out_bits),
            gemm_itemsize=itemsize,
            fused=fused_depthwise and kind == "dw",
            out_itemsize=container_dtype(int(out_bits)).itemsize,
            requant_kind=requant_kind,
        )


@dataclass(frozen=True)
class LayerActivationPlan:
    """Resolved per-layer activation/scratch footprint (per batch element).

    ``pad_elems``/``cols_elems``/``acc_elems`` are the host scratch
    buffers of the compiled kernels; ``in_shape``/``out_shape`` are the
    logical activation tensors of the paper's Eq. 7.  ``out_itemsize``
    is the container width of the layer's output codes (what the
    ping-pong slab physically stores), ``requant_bytes`` the fixed
    (batch-independent) int64 requantization scratch this layer needs.
    """

    name: str
    kind: str
    in_shape: Tuple[int, int, int]  # (C, H, W)
    out_shape: Tuple[int, int, int]
    in_bits: int
    out_bits: int
    pad_elems: int
    cols_elems: int
    acc_elems: int
    gemm_itemsize: int
    out_itemsize: int = 1
    requant_bytes: int = 0

    @property
    def in_elems(self) -> int:
        c, h, w = self.in_shape
        return c * h * w

    @property
    def out_elems(self) -> int:
        c, h, w = self.out_shape
        return c * h * w

    @property
    def rw_bytes(self) -> int:
        """Eq. 7 RW term of this layer: packed input + output activations."""
        return activation_rw_bytes(
            self.in_elems, self.in_bits, self.out_elems, self.out_bits
        )

    @property
    def physical_out_bytes(self) -> int:
        """Host bytes of the output codes at their container width."""
        return self.out_elems * self.out_itemsize


def requant_scratch_bytes(kind: str, requant_kind: str, c_out: int,
                           out_elems: int) -> int:
    """Fixed int64 scratch one layer's chunked requantization needs.

    Fixed-point layers tile the accumulator into ~``REQUANT_SCRATCH_BYTES``
    chunks (never smaller than one (C, 1) column so the per-channel
    constants broadcast); threshold layers consume one whole image at a
    time (per-channel ``searchsorted`` wants contiguous rows).  The fc
    layer emits float logits and needs none.
    """
    if kind == "fc":
        return 0
    if requant_kind == "thr":
        return out_elems * _INT64_BYTES
    return max(c_out * _INT64_BYTES,
               min(out_elems * _INT64_BYTES, REQUANT_SCRATCH_BYTES))


def plan_activations(
    geometries: Sequence[LayerGeometry], input_hw: Tuple[int, int]
) -> List[LayerActivationPlan]:
    """Cascade ``input_hw`` through the layer stack and size every buffer.

    The trailing ``"fc"`` geometry (if any) is planned after an implicit
    global average pool, i.e. at spatial size 1x1 — matching both the
    deployment graph and the model-zoo :class:`LayerSpec` convention.
    """
    h, w = int(input_hw[0]), int(input_hw[1])
    plans: List[LayerActivationPlan] = []
    for g in geometries:
        if g.kind == "fc":
            plans.append(
                LayerActivationPlan(
                    name=g.name,
                    kind="fc",
                    in_shape=(g.in_channels, 1, 1),
                    out_shape=(g.out_channels, 1, 1),
                    in_bits=g.in_bits,
                    out_bits=g.out_bits,
                    pad_elems=0,
                    cols_elems=0,
                    acc_elems=0,
                    gemm_itemsize=g.gemm_itemsize,
                    out_itemsize=g.out_itemsize,
                    requant_bytes=0,
                )
            )
            continue
        oh = conv_output_size(h, g.kh, g.stride, g.padding)
        ow = conv_output_size(w, g.kw, g.stride, g.padding)
        if oh < 1 or ow < 1:
            raise ValueError(
                f"layer {g.name!r}: input {h}x{w} collapses to {oh}x{ow}"
            )
        hp, wp = h + 2 * g.padding, w + 2 * g.padding
        out_elems = g.out_channels * oh * ow
        if g.fused:
            # The stencil needs one output-sized tap temporary; it shares
            # the cols slab, which the fused path never uses for columns.
            cols_elems = out_elems
        elif g.kh == 1 and g.kw == 1 and g.stride == 1:
            # im2col of a 1x1/s1 kernel is a pure view; split-K layers
            # repurpose the cols slab as their sgemm chunk buffer.
            cols_elems = out_elems if g.split_k else 0
        else:
            cols_elems = g.in_channels * g.kh * g.kw * oh * ow
        plans.append(
            LayerActivationPlan(
                name=g.name,
                kind=g.kind,
                in_shape=(g.in_channels, h, w),
                out_shape=(g.out_channels, oh, ow),
                in_bits=g.in_bits,
                out_bits=g.out_bits,
                pad_elems=g.in_channels * hp * wp,
                cols_elems=cols_elems,
                acc_elems=out_elems,
                gemm_itemsize=g.gemm_itemsize,
                out_itemsize=g.out_itemsize,
                requant_bytes=requant_scratch_bytes(
                    g.kind, g.requant_kind, g.out_channels, out_elems
                ),
            )
        )
        h, w = oh, ow
    return plans


def logical_rw_peak_bytes(plans: Sequence[LayerActivationPlan]) -> int:
    """Binding term of the paper's Eq. 7 over a planned layer stack.

    Max over layers of the packed input+output activation pair — the
    quantity the MCU deploy path checks against the device RW budget, and
    the quantity the tests cross-check against
    :func:`repro.core.memory_model.network_rw_peak_bytes`.
    """
    if not plans:
        return 0
    return max(p.rw_bytes for p in plans)


class ActivationArena:
    """Preallocated ping-pong + scratch slabs for one input geometry.

    Raw ``uint8`` slabs, sized per batch element at plan time:

    ``codes`` (x2)
        The ping-pong activation-code pair at *container width*: slot
        ``s`` is sized to the largest output (uint8 codes for <=8-bit
        activations) among the layers that write it (layer ``i`` reads
        its input codes from slot ``(i-1) % 2`` and writes its
        requantized output into slot ``i % 2``) — the host mirror of the
        paper's output-stationary input/output activation pair.  For a
        pure 8-bit chain the pair's physical bytes equal the Eq. 7 peak
        exactly (no int64 inflation); sub-byte activations keep the
        one-byte container, so physical >= logical there.
    ``pad``
        Zero-point-shifted (and zero-padded) input in the layer's GEMM
        dtype.
    ``cols``
        im2col columns — or, for the fused depthwise path, the
        output-sized tap temporary.
    ``acc``
        The GEMM accumulator (float tier, int32, or int64 depending on
        the layer's dispatch).
    ``requant scratch``
        A small *fixed-size* int64 buffer the chunked requantization
        tiles the accumulator through (batch-independent).

    ``ensure`` grows capacity monotonically; views are handed out per
    call, sliced to the live batch, so a smaller batch reuses the same
    storage.

    **Shape polymorphism** (``slabs_from``): an arena may *adopt* the
    slabs of a donor arena planned for a larger (max) geometry instead
    of allocating its own.  Every per-image slab requirement is monotone
    non-decreasing in the input ``(H, W)`` (``conv_output_size`` is
    monotone, and every pad/cols/acc/requant formula scales with the
    layer element counts), so an arena planned for any geometry at or
    below the donor's fits inside the donor's slabs; the per-call views
    slice only the prefix they need.  The child keeps its *own* per-layer
    plan list — so Eq. 7 accounting, ``describe`` and the physical-bytes
    checks stay exact for its geometry — while ``ensure`` delegates all
    storage to the donor.  This is what lets one
    :class:`~repro.inference.plan.ExecutionPlan` serve every input
    geometry up to a declared maximum without per-resolution slab
    explosion.
    """

    def __init__(self, plans: Sequence[LayerActivationPlan],
                 slabs_from: Optional["ActivationArena"] = None):
        self.plans: List[LayerActivationPlan] = list(plans)
        conv = [p for p in self.plans if p.kind != "fc"]
        self.code_slot_bytes_per_image = [
            max((p.physical_out_bytes for p in conv[s::2]), default=0)
            for s in (0, 1)
        ]
        self.pad_bytes_per_image = max(
            (p.pad_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.cols_bytes_per_image = max(
            (p.cols_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.acc_bytes_per_image = max(
            (p.acc_elems * p.gemm_itemsize for p in conv), default=0
        )
        self.requant_scratch_bytes = max(
            (p.requant_bytes for p in conv), default=0
        )
        self.capacity = 0
        self._codes: List[Optional[np.ndarray]] = [None, None]
        self._pad: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._acc: Optional[np.ndarray] = None
        self._requant: Optional[np.ndarray] = None
        self._donor = slabs_from
        if slabs_from is not None:
            self._check_fits_donor(slabs_from)

    def _check_fits_donor(self, donor: "ActivationArena") -> None:
        """Every per-image byte need must fit the donor's slab sizing —
        guaranteed by monotonicity when the donor was planned for a
        geometry at least as large, asserted here so a violation fails
        loudly at plan time rather than corrupting a slab at run time."""
        pairs = [
            ("code slot 0", self.code_slot_bytes_per_image[0],
             donor.code_slot_bytes_per_image[0]),
            ("code slot 1", self.code_slot_bytes_per_image[1],
             donor.code_slot_bytes_per_image[1]),
            ("pad", self.pad_bytes_per_image, donor.pad_bytes_per_image),
            ("cols", self.cols_bytes_per_image, donor.cols_bytes_per_image),
            ("acc", self.acc_bytes_per_image, donor.acc_bytes_per_image),
            ("requant", self.requant_scratch_bytes,
             donor.requant_scratch_bytes),
        ]
        for label, need, have in pairs:
            if need > have:
                raise ValueError(
                    f"arena cannot share slabs: {label} needs {need} B/image "
                    f"but the donor arena only provisions {have} B/image"
                )

    # -- sizing --------------------------------------------------------
    def bytes_per_image(self) -> int:
        """Planned host bytes per batch element, all growing slabs."""
        return (
            sum(self.code_slot_bytes_per_image)
            + self.pad_bytes_per_image
            + self.cols_bytes_per_image
            + self.acc_bytes_per_image
        )

    @property
    def fixed_bytes(self) -> int:
        """Batch-independent slab bytes (the requantization scratch)."""
        return self.requant_scratch_bytes

    def planned_bytes(self, batch_size: int) -> int:
        """Compile-time peak host activation bytes for a given tile size."""
        return self.bytes_per_image() * int(batch_size) + self.fixed_bytes

    def physical_code_bytes(self, batch_size: int = 1) -> int:
        """Physical bytes of the ping-pong code pair at container width.

        The runtime counterpart of Eq. 7's input/output activation pair:
        for a pure 8-bit network this equals
        :attr:`logical_rw_peak_bytes` exactly (asserted by the tests and
        by :func:`repro.mcu.deploy.assert_arena_fits`).
        """
        return sum(self.code_slot_bytes_per_image) * int(batch_size)

    @property
    def shares_slabs(self) -> bool:
        """Whether this arena executes inside a donor arena's slabs."""
        return self._donor is not None

    @property
    def donor(self) -> Optional["ActivationArena"]:
        """The max-geometry arena whose slabs this one adopts (or None)."""
        return self._donor

    @property
    def allocated_bytes(self) -> int:
        """Bytes actually held right now (== planned at current capacity).

        A slab-sharing arena owns nothing — its storage is accounted to
        the donor, so summing ``allocated_bytes`` over a plan's arenas
        never double-counts."""
        if self._donor is not None:
            return 0
        return self.planned_bytes(self.capacity) if self.capacity else 0

    @property
    def logical_rw_peak_bytes(self) -> int:
        """Paper Eq. 7 peak for this geometry (batch-1, packed codes)."""
        return logical_rw_peak_bytes(self.plans)

    # -- allocation ----------------------------------------------------
    def ensure(self, batch_size: int) -> None:
        """Grow the slabs to hold ``batch_size`` images (never shrinks).

        A slab-sharing arena grows the *donor* instead (at the donor's
        larger per-image sizes) and adopts its slabs — the donor's
        capacity for ``n`` images is sufficient for any smaller geometry
        by the monotonicity argument checked at construction."""
        n = int(batch_size)
        if self._donor is not None:
            self._donor.ensure(n)
            self._codes = list(self._donor._codes)
            self._pad = self._donor._pad
            self._cols = self._donor._cols
            self._acc = self._donor._acc
            self._requant = self._donor._requant
            self.capacity = self._donor.capacity
            return
        if n <= self.capacity:
            return
        self._codes = [
            np.empty(n * self.code_slot_bytes_per_image[0], dtype=np.uint8),
            np.empty(n * self.code_slot_bytes_per_image[1], dtype=np.uint8),
        ]
        self._pad = np.empty(n * self.pad_bytes_per_image, dtype=np.uint8)
        self._cols = np.empty(n * self.cols_bytes_per_image, dtype=np.uint8)
        self._acc = np.empty(n * self.acc_bytes_per_image, dtype=np.uint8)
        if self._requant is None and self.requant_scratch_bytes:
            self._requant = np.empty(
                self.requant_scratch_bytes // _INT64_BYTES, dtype=np.int64
            )
        self.capacity = n

    @staticmethod
    def _view(slab: np.ndarray, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        count = int(np.prod(shape))
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes > slab.nbytes:
            raise ValueError(
                f"arena slab overflow: need {nbytes} bytes, slab holds {slab.nbytes}"
            )
        return slab[:nbytes].view(dtype).reshape(shape)

    # -- per-call views ------------------------------------------------
    def codes(self, slot: int, shape: Tuple[int, ...], dtype=np.uint8) -> np.ndarray:
        return self._view(self._codes[slot % 2], dtype, shape)

    def pad(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._pad, dtype, shape)

    def cols(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._cols, dtype, shape)

    def acc(self, dtype, shape: Tuple[int, ...]) -> np.ndarray:
        return self._view(self._acc, dtype, shape)

    def requant_scratch(self) -> np.ndarray:
        """The flat int64 requantization scratch (fixed size per arena)."""
        if self._requant is None:
            raise ValueError("arena was planned without requantization scratch")
        return self._requant
