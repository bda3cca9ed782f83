"""The :class:`Session` front door: quantize → compile → serve in one object.

``Session`` owns a compiled :class:`~repro.inference.plan.ExecutionPlan`
plus the options it was built with, and adds the serving conveniences
the bare plan does not have: default batch tiling, a per-layer
:meth:`profile`, and — the round-trip capability — :meth:`save` /
:meth:`load` to/from the on-disk artifact format of
:mod:`repro.runtime.artifact`.  :func:`pipeline` is the one-call
replacement for the hand-wired spec → policy → convert → compile chains.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.inference.plan import ExecutionPlan
from repro.runtime.artifact import load_artifact, save_artifact
from repro.runtime.errors import InvalidInputError
from repro.runtime.options import CompileOptions, SessionOptions


@dataclass
class LayerTiming:
    """Best-of-N wall time of one compiled layer inside the arena."""

    name: str
    kind: str
    dispatch: str
    seconds: float


@dataclass
class SessionProfile:
    """Per-layer latency breakdown returned by :meth:`Session.profile`."""

    batch_size: int
    input_hw: Tuple[int, int]
    layers: List[LayerTiming] = field(default_factory=list)
    total_seconds: float = 0.0

    def table(self) -> str:
        from repro.evaluation.tables import render_table

        rows = [
            [t.name, t.kind, t.dispatch, round(t.seconds * 1e3, 3),
             round(100.0 * t.seconds / self.total_seconds, 1)
             if self.total_seconds else 0.0]
            for t in self.layers
        ]
        layer_sum = sum(t.seconds for t in self.layers)
        rows.append(["TOTAL (end to end)", "", "", round(self.total_seconds * 1e3, 3),
                     round(100.0 * layer_sum / self.total_seconds, 1)
                     if self.total_seconds else 0.0])
        h, w = self.input_hw
        return render_table(
            ["Layer", "Kind", "Dispatch", "ms", "% of e2e"], rows,
            title=f"session profile — batch {self.batch_size} @ {h}x{w}",
        )


def _best_of(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class Session:
    """A compiled, servable integer network.

    ``Session(network)`` compiles with the production defaults;
    ``Session(network, CompileOptions(...), SessionOptions(...))``
    customises compilation and serving.  The session eagerly plans (and
    on ``options.input_hw`` geometry, allocates lazily like the plan)
    the activation arena, so steady-state serving performs no per-layer
    allocations.

    The session is also the unit of deployment: :meth:`save` writes a
    self-contained artifact (JSON manifest + CRC-checked binary blobs)
    and :meth:`load` rehydrates it into a bit-identical running session
    with no reference to the originating network object.
    """

    def __init__(
        self,
        network,
        compile_options: Optional[CompileOptions] = None,
        options: Optional[SessionOptions] = None,
    ):
        self.network = network
        self.compile_options = compile_options or CompileOptions()
        self.options = options or SessionOptions()
        # Artifact directory this session is known to round-trip with
        # (set by load/save) — lets WorkerPool.from_session reuse it
        # instead of staging a temporary copy.
        self.source_artifact: Optional[Path] = None
        # mmap-loaded networks carry their MappedBlobs handle so
        # Session.close() can release the mapping (registry eviction).
        self.mapped_blobs = getattr(network, "mapped_blobs", None)
        self._closed = False
        self._plan = ExecutionPlan(network, self.compile_options)
        if self.options.input_hw is not None:
            self._plan.arena_for(self.options.input_hw)

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session's resources: drop the compiled plan and
        network (freeing arena slabs and, for mmap-loaded artifacts,
        every weight view), then close the underlying
        :class:`~repro.runtime.artifact.MappedBlobs` mapping so the
        page-cache pin is released immediately instead of at GC time.
        Idempotent; the registry calls this on LRU eviction.  A closed
        session raises ``RuntimeError`` from every inference entry point.
        """
        if self._closed:
            return
        self._closed = True
        # Order matters: every mmap-backed array (network weights,
        # compiled requant-parameter views) must be unreachable before
        # the mapping can release its exported buffers.
        self._plan = None
        self.network = None
        blobs, self.mapped_blobs = self.mapped_blobs, None
        if blobs is not None:
            blobs.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- introspection -------------------------------------------------
    @property
    def plan(self) -> ExecutionPlan:
        """The compiled :class:`ExecutionPlan` backing this session."""
        self._require_open()
        return self._plan

    def layer_info(self):
        return self._plan.layer_info()

    def describe(self, input_hw: Optional[Tuple[int, int]] = None,
                 batch_size: Optional[int] = None) -> str:
        """Per-layer dispatch summary plus the arena plan (see
        :meth:`ExecutionPlan.describe`); defaults come from the session
        options."""
        return self._plan.describe(
            input_hw=input_hw or self.options.input_hw,
            batch_size=batch_size or self.options.batch_size,
        )

    def verify(self, input_hw: Optional[Tuple[int, int]] = None,
               raise_on_violation: bool = True):
        """Statically verify the compiled plan without executing it.

        Runs :func:`repro.analysis.verify_plan` over the session's plan:
        accumulator bounds vs. the dispatched backends, container-dtype
        soundness, requantization shift ranges, and arena slab
        lifetime/aliasing safety over the ping-pong schedule.  Returns
        the :class:`~repro.analysis.VerificationReport`; raises
        :class:`~repro.analysis.PlanVerificationError` (listing every
        violation with its layer) unless ``raise_on_violation=False``.
        """
        from repro.analysis import verify_plan

        self._require_open()
        return verify_plan(
            self._plan, input_hw or self.options.input_hw,
            raise_on_violation=raise_on_violation,
        )

    # -- input boundary ------------------------------------------------
    def validate_input(self, x_real) -> np.ndarray:
        """Check a batch at the serving boundary; returns it as an array.

        Rejections raise :class:`~repro.runtime.errors.InvalidInputError`
        (a client-side error by contract — the serving tier maps it to a
        400) instead of letting numpy internals leak out of a kernel:
        non-array payloads, non-real dtypes, wrong rank, wrong channel
        count, NaN/Inf values, and geometries the layer cascade shrinks
        below one pixel.  ``SessionOptions(validate=False)`` skips the
        scan for trusted in-process callers.
        """
        self._require_open()
        try:
            arr = np.asarray(x_real)
        except Exception as exc:
            raise InvalidInputError(f"input is not array-like: {exc}") from exc
        if arr.dtype == object or not (
            np.issubdtype(arr.dtype, np.floating)
            or np.issubdtype(arr.dtype, np.integer)
            or np.issubdtype(arr.dtype, np.bool_)
        ):
            raise InvalidInputError(
                f"input dtype {arr.dtype} is not a real numeric type"
            )
        if arr.ndim != 4:
            raise InvalidInputError(
                f"input must be an NCHW batch (4 dims), got shape {arr.shape}"
            )
        plan = self._plan
        if plan.layers:
            expected = plan.layers[0].in_channels
            if arr.shape[1] != expected:
                raise InvalidInputError(
                    f"input has {arr.shape[1]} channel(s), the compiled "
                    f"network expects {expected}"
                )
            h, w = int(arr.shape[2]), int(arr.shape[3])
            max_hw = self.compile_options.max_input_hw
            if max_hw is not None and (h > max_hw[0] or w > max_hw[1]):
                raise InvalidInputError(
                    f"input geometry {h}x{w} exceeds the session's declared "
                    f"max geometry {max_hw[0]}x{max_hw[1]}"
                )
            from repro.nn.functional import conv_output_size

            for layer in plan.layers:
                h = conv_output_size(h, layer.kh, layer.stride, layer.padding)
                w = conv_output_size(w, layer.kw, layer.stride, layer.padding)
                if h < 1 or w < 1:
                    raise InvalidInputError(
                        f"input geometry {arr.shape[2]}x{arr.shape[3]} "
                        f"collapses below 1x1 at layer {layer.name!r}"
                    )
        if arr.size and np.issubdtype(arr.dtype, np.floating) \
                and not np.isfinite(arr).all():
            raise InvalidInputError("input contains non-finite values (NaN/Inf)")
        return arr

    def _checked(self, x_real) -> np.ndarray:
        if self.options.validate is False:
            return np.asarray(x_real)
        return self.validate_input(x_real)

    # -- serving -------------------------------------------------------
    def run(self, x_real: np.ndarray) -> np.ndarray:
        """Single-shot inference: real NCHW batch -> real logits."""
        self._require_open()
        return self._plan.run(self._checked(x_real))

    def run_codes(self, x_codes: np.ndarray) -> np.ndarray:
        """Run the conv trunk on integer codes (boundary validation per
        ``options.validate``; ``None`` keeps the compiled default)."""
        self._require_open()
        return self._plan.run_codes(x_codes, validate=self.options.validate)

    def run_batched(self, x_real: np.ndarray,
                    batch_size: Optional[int] = None) -> np.ndarray:
        """Stream a sweep through the arena in ``batch_size`` tiles
        (default ``options.batch_size``)."""
        self._require_open()
        return self._plan.run_batched(
            self._checked(x_real), batch_size=batch_size or self.options.batch_size
        )

    def predict(self, x_real: np.ndarray,
                batch_size: Optional[int] = None) -> np.ndarray:
        """Class predictions, tiled through the arena by default."""
        return np.argmax(self.run_batched(x_real, batch_size=batch_size), axis=1)

    def synthetic_batch(self, batch_size: int = 1, rng_seed: int = 0,
                        input_hw: Optional[Tuple[int, int]] = None) -> np.ndarray:
        """A random real-valued NCHW batch matching the session's input
        geometry: channel count from the first compiled layer, ``(H, W)``
        from ``input_hw`` falling back to the session's then the
        compile-time arena geometry.  The single source of the
        synthetic-input rule shared by :meth:`profile` and the
        ``repro-mcu run`` CLI."""
        hw = input_hw or self.options.input_hw or self.compile_options.input_hw
        if hw is None:
            raise ValueError(
                "no input geometry known: pass input_hw or set "
                "SessionOptions(input_hw=...)"
            )
        plan = self._plan
        channels = plan.layers[0].in_channels if plan.layers else 1
        return np.random.default_rng(rng_seed).uniform(
            0.0, 1.0, size=(int(batch_size), channels, hw[0], hw[1])
        )

    def healthcheck(self, input_hw: Optional[Tuple[int, int]] = None) -> dict:
        """End-to-end self-test: one synthetic image through the full
        pipeline, logits checked for shape and finiteness.

        Returns ``{"ok": bool, "latency_ms": float, "output_shape": ...,
        "error": str|None}`` and never raises — the serving tier calls
        this at startup (warming the arena in the same pass) and from
        its health endpoint, where an exception would be a liveness bug.
        """
        t0 = time.perf_counter()
        try:
            x = self.synthetic_batch(1, input_hw=input_hw)
            out = self.run(x)
            shape, _ = self._plan.output_spec(x.shape[1:])
            ok = out.shape == (1,) + shape and bool(np.isfinite(out).all())
            error = None if ok else f"bad output: shape {out.shape}, finite=False"
        except Exception as exc:  # liveness probe: report, never raise
            return {
                "ok": False,
                "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
                "output_shape": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
        return {
            "ok": ok,
            "latency_ms": round((time.perf_counter() - t0) * 1e3, 3),
            "output_shape": list(out.shape),
            "error": error,
        }

    def profile(self, x_real: Optional[np.ndarray] = None,
                batch_size: Optional[int] = None, repeats: int = 3,
                rng_seed: int = 0) -> SessionProfile:
        """Best-of-``repeats`` per-layer latency breakdown.

        With no input, a synthetic batch is drawn at the session's arena
        geometry (``options.input_hw`` falling back to the compile-time
        geometry); layer timings run inside the arena on propagated
        intermediate codes, exactly like steady-state serving.  Each
        layer's input is an owned copy of its predecessor's output view,
        so re-running a layer never reads a slab it is writing.
        """
        plan = self._plan
        if x_real is None:
            x_real = self.synthetic_batch(
                batch_size or self.options.batch_size, rng_seed=rng_seed
            )
        x_real = np.asarray(x_real)
        n, _, h, w = x_real.shape
        prof = SessionProfile(batch_size=n, input_hw=(h, w))
        prof.total_seconds = _best_of(lambda: plan.run(x_real), repeats)
        codes = plan.quantize_input(x_real)
        arena = plan.arena_for((h, w))
        arena.ensure(n)
        infos = {i.name: i for i in plan.layer_info()}
        for i, layer in enumerate(plan.layers):
            info = infos[layer.name]
            dispatch = f"{info.backend}/{info.gemm_dtype}->{info.container}"
            if info.dw_mode:
                dispatch += f" dw:{info.dw_mode}"
            t = _best_of(lambda: layer(codes, arena, i % 2), repeats)
            prof.layers.append(LayerTiming(layer.name, layer.kind, dispatch, t))
            codes = layer(codes, arena, i % 2).copy()
        if plan.has_pool:
            from repro.inference.kernels import int_avg_pool_global

            t = _best_of(lambda: int_avg_pool_global(codes), repeats)
            prof.layers.append(LayerTiming("global_avg_pool", "pool", "-", t))
            codes = int_avg_pool_global(codes)
        if plan.classifier is not None:
            c = plan.classifier
            t = _best_of(lambda: c(codes), repeats)
            dispatch = f"{c.backend}/{np.dtype(c.gemm_dtype).name}->logits"
            prof.layers.append(LayerTiming(c.name, "fc", dispatch, t))
        return prof

    # -- persistence ---------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write the session as a loadable artifact directory
        (manifest.json + CRC-checked blobs.bin); returns the path."""
        out = save_artifact(
            path,
            self.network,
            compile_options=self.compile_options,
            session_options=self.options,
        )
        self.source_artifact = out
        return out

    @classmethod
    def load(cls, path: Union[str, Path], *, mmap: bool = False,
             max_input_hw: Optional[Tuple[int, int]] = None) -> "Session":
        """Rehydrate a saved artifact into a running session.

        Blob CRCs and packed-weight budgets are verified before
        compilation; the resulting plan is bit-identical to the one the
        artifact was saved from.  ``mmap=True`` keeps the weight blobs
        as read-only views of the memory-mapped ``blobs.bin`` (pages
        shared across every process loading the same artifact) instead
        of private heap copies — the :class:`repro.runtime.pool`
        workers load this way (``close()`` releases the mapping).

        ``max_input_hw`` overrides the artifact's compile options with a
        shape-polymorphic max geometry — the registry's load path, which
        sizes one arena per model at the artifact's native resolution
        and routes every smaller request shape into it.
        """
        network, compile_options, session_options, _ = load_artifact(
            path, mmap=mmap
        )
        if max_input_hw is not None:
            compile_options = compile_options.replace(
                max_input_hw=max_input_hw
            )
        session = cls(network, compile_options=compile_options,
                      options=session_options)
        session.source_artifact = Path(path)
        return session


def pipeline(
    spec,
    *,
    policy=None,
    device=None,
    method=None,
    network=None,
    seed: int = 0,
    compile_options: Optional[CompileOptions] = None,
    options: Optional[SessionOptions] = None,
    strict: bool = False,
) -> Session:
    """One front door for quantize → compile → serve.

    From a :class:`~repro.models.model_zoo.NetworkSpec` this runs the
    memory-driven mixed-precision search (when ``policy`` is not given
    and a ``device`` provides the budgets), materialises an integer
    deployment of the spec honouring the policy's per-layer bit
    assignment, compiles it into a session, and — when ``device`` is
    given and the policy is feasible — asserts the activation arena fits
    the device's RW budget.  Every keyword has a production default:

    ``pipeline(spec, device=STM32H7)`` is the whole paper flow.

    ``network`` short-circuits the synthetic materialisation with a
    prebuilt :class:`~repro.inference.engine.IntegerNetwork` (e.g. from
    :func:`~repro.core.graph_convert.convert_to_integer_network` after
    QAT), in which case ``policy`` is only used for reporting/fit checks.
    """
    from repro.core.mixed_precision import search_mixed_precision
    from repro.core.policy import QuantMethod, QuantPolicy

    if method is None:
        method = policy.method if policy is not None else QuantMethod.PC_ICN
    if policy is None:
        if device is not None:
            policy = search_mixed_precision(
                spec, device.flash_bytes, device.ram_bytes,
                method=method, strict=strict,
            )
        else:
            policy = QuantPolicy.uniform(spec, method=method)
    if network is None:
        from repro.inference.testing import integer_network_from_spec

        strategy = (
            "thr" if method is QuantMethod.PC_THRESHOLDS
            else "folded" if method.folds_batchnorm
            else "icn"
        )
        network = integer_network_from_spec(
            spec, np.random.default_rng(seed),
            per_channel=method.per_channel, strategy=strategy, policy=policy,
        )
    if options is None:
        options = SessionOptions(input_hw=(spec.resolution, spec.resolution))
    session = Session(network, compile_options=compile_options, options=options)
    if (
        device is not None
        and policy.feasible
        and options.input_hw is not None
    ):
        from repro.mcu.deploy import assert_arena_fits

        assert_arena_fits(session.plan, device, options.input_hw)
    return session
