"""Span tracing around the public entry points of ``repro``'s modules.

:func:`install` replaces each traced name where its caller looks it up
(a class attribute, or a module global that the caller reads at call
time) with a wrapper that appends one span to an in-memory list.  A span
is a tuple::

    (name, t0, t1, depth, n, tile, extra)

``t0``/``t1`` are ``time.monotonic()`` stamps (CLOCK_MONOTONIC on Linux,
so stamps from the benchmark and from the server process compare
directly).  ``depth`` counts enclosing spans of the same family on the
same thread, so nested calls (``FleetBatcher.add`` -> ``MicroBatcher.add``,
``verify_artifact`` -> ``verify_plan``) are aggregated outermost-only.
``n`` is the batch dimension of the call's array argument (1 when there
is none), ``tile`` the index of the ``BatchEngine.run_batch`` call the
span ran under, and ``extra`` carries request ids or registry deltas.

Spans of one server-side request share the batcher's ``req_id``: the
``add``/``take`` spans carry it, each ``run_batch`` span carries the ids
of its tile, and every span that ran under that tile carries the tile
index.  :func:`layer_metrics` turns a span list into the per-layer
metrics of the traced run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import statistics
import threading
import time
import types

clock = time.monotonic


class Tracer:
    """Holds the spans of one process in memory until it exits."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._tile = -1
        self._tiles = 0
        self._taken = collections.deque()

    # -- wrappers ------------------------------------------------------
    def wrap(self, name, fn, *, family=None, n_arg=None, after=None):
        """Synchronous wrapper.  ``n_arg`` is the positional index of the
        array whose first dimension is the batch; ``after(args, result,
        before)`` returns the span's ``extra`` (``before`` is what
        ``after(args, None, None)`` returned ahead of the call)."""
        family = family or name
        local, spans = self._local, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = getattr(local, family, 0)
            setattr(local, family, depth + 1)
            before = after(args, None, None) if after else None
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                setattr(local, family, depth)
                n = 1
                if n_arg is not None and len(args) > n_arg:
                    n = int(getattr(args[n_arg], "shape", (1,))[0])
                extra = after(args, result, before) if after else None
                spans.append((name, t0, t1, depth, n, self._tile, extra))

        return traced

    def wrap_run_batch(self, fn):
        """``BatchEngine.run_batch`` is a coroutine; the engine runs one
        tile at a time, so tiles are numbered in ``take`` order and the
        executor-thread spans read the current tile index."""
        spans, taken = self.spans, self._taken

        @functools.wraps(fn)
        async def traced(engine, xs, *args, **kwargs):
            tile = self._tiles
            self._tiles += 1
            ids = taken.popleft() if taken else []
            self._tile = tile
            t0 = clock()
            try:
                return await fn(engine, xs, *args, **kwargs)
            finally:
                spans.append(("serving.run_batch", t0, clock(), 0,
                              int(len(xs)), tile, ids))

        return traced

    def note_take(self, args, result, before):
        if result is None:
            return None
        ids = [r.req_id for r in result[0]]
        if ids and getattr(self._local, "take", 1) == 0:
            self._taken.append(ids)
        return ids


def _proxy_module(module, **overrides):
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(
        {k: v for k, v in vars(module).items() if not k.startswith("__")}
    )
    proxy.__dict__.update(overrides)
    return proxy


def _patch_attr(tracer, owner, attr, name, **kw):
    setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of ``repro`` (idempotence is not
    needed: each process installs once, before any work)."""
    # Submodules by import path: a package may re-export a function
    # under its submodule's name (``repro.mcu.deploy`` is one).
    session_mod, artifact_mod, search_mod, server_mod, deploy_mod, verify_mod, \
        analysis = map(importlib.import_module, (
            "repro.runtime.session", "repro.runtime.artifact",
            "repro.core.mixed_precision", "repro.serving.server",
            "repro.mcu.deploy", "repro.analysis.verify", "repro.analysis"))
    from repro.inference.plan import CompiledConvLayer, CompiledLinear, ExecutionPlan
    from repro.runtime.session import Session
    from repro.serving.batcher import FleetBatcher, MicroBatcher
    from repro.serving.engine import BatchEngine
    from repro.serving.registry import ModelRegistry

    # serving.server: json.loads as the server module looks it up.
    server_json = server_mod.json
    server_mod.json = _proxy_module(
        server_json, loads=tracer.wrap("serving.decode", server_json.loads))

    _patch_attr(tracer, Session, "validate_input", "runtime.validate",
                family="validate", n_arg=1)
    _patch_attr(tracer, ModelRegistry, "validate_input", "runtime.validate",
                family="validate", n_arg=2)
    for cls in (MicroBatcher, FleetBatcher):
        _patch_attr(tracer, cls, "add", "serving.add", family="add",
                    after=lambda a, r, b: a[1].req_id)
        _patch_attr(tracer, cls, "take", "serving.take", family="take",
                    after=tracer.note_take)
    BatchEngine.run_batch = tracer.wrap_run_batch(BatchEngine.run_batch)

    _patch_attr(tracer, Session, "run", "runtime.run", n_arg=1)
    _patch_attr(tracer, ModelRegistry, "run", "registry.run", n_arg=2)

    def checkout_delta(args, result, before):
        registry = args[0]
        now = (registry.loads, registry.evictions)
        if before is None:
            return now
        return [now[0] - before[0], now[1] - before[1]]

    _patch_attr(tracer, ModelRegistry, "checkout", "registry.checkout",
                after=checkout_delta)

    _patch_attr(tracer, ExecutionPlan, "run", "inference.run", n_arg=1)
    _patch_attr(tracer, ExecutionPlan, "quantize_input", "inference.quantize",
                n_arg=1)
    _patch_attr(tracer, ExecutionPlan, "__init__", "inference.compile")
    for cls in (CompiledConvLayer, CompiledLinear):
        _patch_attr(tracer, cls, "__call__", "inference.layer", n_arg=1,
                    after=lambda a, r, b: a[0].kind)

    for module in (session_mod, artifact_mod):
        _patch_attr(tracer, module, "load_artifact", "runtime.load")
    _patch_attr(tracer, session_mod, "save_artifact", "runtime.save")
    _patch_attr(tracer, search_mod, "search_mixed_precision", "core.search")
    for module in (analysis, verify_mod):
        for attr in ("verify_plan", "verify_artifact"):
            _patch_attr(tracer, module, attr, "analysis.verify",
                        family="verify")
    _patch_attr(tracer, deploy_mod, "assert_arena_fits", "mcu.fit_check")


# ----------------------------------------------------------------------
# Aggregation: spans -> per-layer metrics of the traced run
# ----------------------------------------------------------------------
LAYER_KINDS = ("conv", "dw", "pw", "fc")
#: Setup-path entry points, reported as the mean time per call over the
#: whole run (set-ups and, for the fleet, loads on the request path).
PER_CALL = {
    "runtime.load_ms": "runtime.load",
    "runtime.save_ms": "runtime.save",
    "inference.compile_ms": "inference.compile",
    "core.search_ms": "core.search",
    "analysis.verify_ms": "analysis.verify",
    "mcu.fit_check_ms": "mcu.fit_check",
}


def _ms(span) -> float:
    return (span[2] - span[1]) * 1e3


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, window, e2e_ms: float):
    """Per-layer metrics of one traced window, plus its reconciliation.

    ``window`` is ``(t0, t1)`` on the span clock; only outermost spans
    that lie inside it count, except the :data:`PER_CALL` set-up metrics.
    ``e2e_ms`` is the mean end-to-end time of one request,
    client-measured from send to last byte.

    Times are means per request.  A tile-level span (``run_batch``,
    ``Session.run``, the layers) is charged to each request of its tile,
    because each of them waited for all of it.

    Returns ``(metrics, rows, ok)``: ``rows`` is a partition of
    ``e2e_ms`` into ``(name, ms, is_glue)`` rows, where the glue rows are
    remainders (parent span minus the child spans it contains), and
    ``ok`` says the rows add up to ``e2e_ms`` and no glue row is negative.
    """
    lo, hi = window
    outer = [s for s in spans if s[3] == 0]
    by = collections.defaultdict(list)
    for s in outer:
        if lo <= s[1] and s[2] <= hi:
            by[s[0]].append(s)
    units = sum(s[4] for s in by["serving.run_batch"])
    if units == 0:
        raise RuntimeError("the traced window recorded no executed work")

    def total(name, kind=None) -> float:
        return sum(s[4] * _ms(s) for s in by[name]
                   if kind is None or s[6] == kind) / units

    m = {}
    added = {s[6]: s[1] for s in outer if s[0] == "serving.add"}
    takes = [s for s in by["serving.take"] if s[6]]
    m["serving.decode_ms"] = total("serving.decode")
    m["serving.queue_wait_ms"] = _mean([
        (s[2] - added[rid]) * 1e3 for s in takes for rid in s[6] if rid in added
    ])
    m["serving.batch_size"] = _mean([len(s[6]) for s in takes])
    run_batch = total("serving.run_batch")
    m["runtime.validate_ms"] = total("runtime.validate")
    m["runtime.validate_calls"] = len(by["runtime.validate"]) / units
    m["runtime.run_ms"] = total("runtime.run")
    fleet = bool(by["registry.run"])
    inner = total("registry.run") if fleet else m["runtime.run_ms"]
    m["serving.exec_hop_ms"] = run_batch - inner
    m["registry.overhead_ms"] = inner - m["runtime.run_ms"] if fleet else 0.0
    plan_run = total("inference.run")
    m["inference.quantize_ms"] = total("inference.quantize")
    for kind in LAYER_KINDS:
        m[f"inference.{kind}_ms"] = total("inference.layer", kind)
    m["inference.glue_ms"] = (plan_run - m["inference.quantize_ms"]
                              - sum(m[f"inference.{k}_ms"] for k in LAYER_KINDS))
    layers = by["inference.layer"]
    m["inference.layer_floor_us"] = (
        statistics.median(_ms(s) for s in layers) * 1e3 if layers else 0.0)
    m["inference.layer_calls"] = len(layers) / max(1, len(by["inference.run"]))
    m["serving.front_ms"] = e2e_ms - m["serving.queue_wait_ms"] - run_batch
    m["runtime.session_self_ms"] = m["runtime.run_ms"] - plan_run

    checkouts = by["registry.checkout"]
    misses = [s for s in checkouts if s[6][0] > 0]
    m["registry.hit_ratio"] = (
        1.0 - len(misses) / len(checkouts) if checkouts else 0.0)
    m["registry.loads"] = float(sum(s[6][0] for s in checkouts))
    m["registry.evictions"] = float(sum(s[6][1] for s in checkouts))
    m["registry.miss_ms"] = _mean([_ms(s) for s in misses])
    for metric, name in PER_CALL.items():
        m[metric] = _mean([_ms(s) for s in outer if s[0] == name])

    rows = [
        ("serving.front_ms", m["serving.front_ms"], True),
        ("serving.queue_wait_ms", m["serving.queue_wait_ms"], False),
        ("serving.exec_hop_ms", m["serving.exec_hop_ms"], True),
        ("registry.overhead_ms", m["registry.overhead_ms"], True),
        ("runtime.session_self_ms", m["runtime.session_self_ms"], True),
        ("inference.quantize_ms", m["inference.quantize_ms"], False),
        *((f"inference.{k}_ms", m[f"inference.{k}_ms"], False) for k in LAYER_KINDS),
        ("inference.glue_ms", m["inference.glue_ms"], True),
    ]
    summed = sum(value for _, value, _ in rows)
    ok = (abs(summed - e2e_ms) <= 1e-6 * max(1.0, e2e_ms)
          and all(value >= 0.0 for _, value, glue in rows if glue))
    return m, rows, ok
