"""Options dataclasses for the :mod:`repro.runtime` front door.

:class:`CompileOptions` is the single argument of
``IntegerNetwork.compile()``: one frozen, validated, hashable value
object (the ONNX-Runtime ``SessionOptions`` shape) holding the five
settable compile values — ``backend``, ``validate``,
``fused_depthwise``, ``input_hw`` and ``max_input_hw``.
:class:`SessionOptions` carries the serving-side knobs (batch tiling, boundary-validation
override, arena geometry) consumed by :class:`repro.runtime.Session`.

Both classes are plain data: constructing them performs no work beyond
validation, and the same instance can configure any number of networks.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

#: GEMM backends understood by the compiled plan (see
#: :func:`repro.inference.plan._resolve_compiled_backend`).
VALID_BACKENDS = ("auto", "blas", "int32", "int64")

#: Compile options of the retired wide / arena-less / a-priori pipelines
#: that saved manifests may still carry (always at ``True``).
RETIRED_COMPILE_KEYS = ("narrow", "use_arena", "refined_bound")


def _normalize_hw(value: Any) -> Optional[Tuple[int, int]]:
    if value is None:
        return None
    try:
        h, w = value
    except (TypeError, ValueError):
        raise ValueError(f"input_hw must be a (height, width) pair, got {value!r}")
    h, w = int(h), int(w)
    if h < 1 or w < 1:
        raise ValueError(f"input_hw must be positive, got {(h, w)}")
    return (h, w)


def _reject_unknown(cls: Any, d: Dict[str, Any], what: str) -> None:
    """``TypeError`` listing the valid names when ``d`` has an unknown one."""
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = set(d) - valid
    if unknown:
        raise TypeError(
            f"unknown {what} option(s) {sorted(unknown)}; "
            f"valid options are {sorted(valid)}"
        )


@dataclass(frozen=True)
class CompileOptions:
    """How an :class:`~repro.inference.engine.IntegerNetwork` is compiled
    into an :class:`~repro.inference.plan.ExecutionPlan`.

    Fields (all keyword-friendly, all with the production defaults):

    ``backend``
        GEMM dispatch: ``"auto"`` picks the narrowest exact accumulator
        per layer under the refined bound; ``"blas"`` forces the float
        tiers (error if inexact); ``"int32"`` forces the MCU-style int32
        accumulator under the ``2^31`` bound; ``"int64"`` forces the
        exact einsum reference.
    ``validate``
        Range-check weight codes at compile time and activation codes at
        the network boundary.  Dispatch uses the weight-data refined
        accumulator bound only under this guarantee; disabling it falls
        back to the a-priori corner case.
    ``fused_depthwise``
        Depthwise kernel dispatch: ``"auto"`` (cache-threshold rule),
        ``True`` (always the im2col-free stencil), ``False`` (never).
    ``input_hw``
        Optional ``(H, W)`` to plan the activation arena eagerly at
        compile time instead of lazily on first run.
    ``max_input_hw``
        Declared maximum input geometry for a *shape-polymorphic* plan:
        the activation arena is sized once for this ``(H, W)`` and every
        smaller geometry executes inside the same slabs (per-geometry
        plans adopt the max arena's storage instead of allocating their
        own).  Inputs exceeding either dimension are rejected.  ``None``
        (the default) keeps the historical per-geometry arenas.
    """

    backend: str = "auto"
    validate: bool = True
    fused_depthwise: Union[bool, str] = "auto"
    input_hw: Optional[Tuple[int, int]] = None
    max_input_hw: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        if self.backend not in VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {VALID_BACKENDS}, got {self.backend!r}"
            )
        if self.fused_depthwise not in (True, False, "auto"):
            raise ValueError(
                f"fused_depthwise must be True, False or 'auto', "
                f"got {self.fused_depthwise!r}"
            )
        object.__setattr__(self, "input_hw", _normalize_hw(self.input_hw))
        object.__setattr__(self, "max_input_hw", _normalize_hw(self.max_input_hw))
        if (
            self.input_hw is not None
            and self.max_input_hw is not None
            and (self.input_hw[0] > self.max_input_hw[0]
                 or self.input_hw[1] > self.max_input_hw[1])
        ):
            raise ValueError(
                f"input_hw {self.input_hw} exceeds max_input_hw "
                f"{self.max_input_hw}"
            )

    def replace(self, **changes: Any) -> "CompileOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by the session artifact)."""
        d = dataclasses.asdict(self)
        for key in ("input_hw", "max_input_hw"):
            if d[key] is not None:
                d[key] = list(d[key])
        # Artifacts written before shape-polymorphic plans existed have
        # no max_input_hw key; omit the default so those artifacts and
        # new-default ones serialise identically.
        if d["max_input_hw"] is None:
            del d["max_input_hw"]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CompileOptions":
        """Inverse of :meth:`to_dict`.

        Manifests written before the legacy pipelines were retired carry
        ``narrow``, ``use_arena`` and ``refined_bound``; each is accepted
        only at the value every such manifest holds (``True``) and
        dropped.  Any other value names a pipeline that no longer exists
        and raises ``ValueError``; an unknown name raises ``TypeError``.
        """
        d = dict(d)
        for key in RETIRED_COMPILE_KEYS:
            if key in d and d.pop(key) is not True:
                raise ValueError(
                    f"compile option {key!r} was retired; only its shipped "
                    f"value true is accepted"
                )
        _reject_unknown(cls, d, "compile")
        return cls(**d)


@dataclass(frozen=True)
class SessionOptions:
    """Serving-side configuration of a :class:`repro.runtime.Session`.

    ``batch_size``
        Default tile size for ``Session.run_batched`` / ``predict`` —
        large sweeps stream through the activation arena in tiles of
        this many images.
    ``validate``
        Boundary-validation override for ``run_codes``: ``None`` keeps
        the compiled plan's setting, ``True``/``False`` force it per
        session.
    ``input_hw``
        Arena geometry: when given, the session plans (and allocates on
        first use) the activation arena for this ``(H, W)`` at
        construction, so the first request pays no planning latency.
    ``workers``
        Default process-pool width for scale-out serving: ``1`` keeps
        everything in-process (the degenerate case), ``N > 1`` lets the
        serving tier stand up a :class:`repro.runtime.pool.WorkerPool`
        of N artifact-backed workers sharing one mmap'd copy of the
        weights.  Stored in the artifact like every other session
        option, and overridable per serve (CLI ``--workers``).
    """

    batch_size: int = 32
    validate: Optional[bool] = None
    input_hw: Optional[Tuple[int, int]] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        object.__setattr__(self, "batch_size", int(self.batch_size))
        object.__setattr__(self, "input_hw", _normalize_hw(self.input_hw))
        if int(self.workers) < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "workers", int(self.workers))

    def replace(self, **changes: Any) -> "SessionOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        if d["input_hw"] is not None:
            d["input_hw"] = list(d["input_hw"])
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SessionOptions":
        _reject_unknown(cls, d, "session")
        return cls(**d)
