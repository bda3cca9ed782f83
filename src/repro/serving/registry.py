"""Multi-model fleet registry: many artifacts, one memory budget.

One server process hosting a fleet of artifacts cannot keep them all
resident — the point of the paper's memory accounting is that models
are sized against a *device budget*, and the registry applies the same
discipline to the serving host: every resident model is charged its
read-only weight bytes (the ``blobs.bin`` it maps) plus its Eq. 7
activation-arena peak, and the sum must stay inside
``memory_budget_bytes``.  Admission of a newly-loaded model is the
deployment gate itself — :func:`repro.mcu.deploy.assert_arena_fits`
against a synthetic :class:`~repro.mcu.device.MCUDevice` whose RAM is
whatever the budget has left — so serving-side residency and MCU-side
deployability are one check, not two parallel accountings.

Residency is managed lazily with LRU eviction:

* a request for a cold model loads it on first use (``mmap=True`` so
  weight pages are file-backed and shareable, ``max_input_hw`` set to
  the artifact's native geometry so one shape-polymorphic arena serves
  every smaller request shape);
* when the budget cannot admit the newcomer, least-recently-used idle
  models are evicted — ``Session.close()`` drops the plan and unmaps
  the blobs *now*, not at GC time — until it fits;
* a model that cannot fit even with every idle model evicted is a
  :class:`~repro.serving.errors.OverBudgetError` (HTTP 413);
* models with requests in flight are never evicted.

All public methods are thread-safe; ``run`` is called from the batch
engine's executor threads.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.errors import InvalidInputError
from repro.serving.errors import ModelNotFoundError, OverBudgetError


class FleetEntry:
    """One artifact known to the registry (resident or cold)."""

    def __init__(self, name: str, path: Path, manifest: dict):
        self.name = name
        self.path = Path(path)
        self.max_hw = _native_hw(manifest)
        #: Read-only cost: the byte length of blobs.bin (what the mmap
        #: pins), from the manifest blob table.
        self.ro_bytes = sum(
            int(meta.get("nbytes", 0))
            for meta in manifest.get("blobs", {}).values()
        )
        #: Eq. 7 RW peak as recorded at export time (None for artifacts
        #: saved without a geometry; measured at first load instead).
        arena = manifest.get("network", {}).get("arena") or {}
        self.rw_bytes: Optional[int] = (
            int(arena["rw_peak_bytes"]) if "rw_peak_bytes" in arena else None
        )
        self.session = None
        self.pool = None
        self.inflight = 0
        self.last_used = 0
        self.loads = 0
        self.evictions = 0
        self.requests = 0

    @property
    def resident(self) -> bool:
        return self.session is not None

    def cost_bytes(self) -> int:
        return self.ro_bytes + int(self.rw_bytes or 0)

    def to_dict(self) -> dict:
        return {
            "resident": self.resident,
            "inflight": self.inflight,
            "loads": self.loads,
            "evictions": self.evictions,
            "requests": self.requests,
            "ro_bytes": self.ro_bytes,
            "rw_peak_bytes": self.rw_bytes,
            "cost_bytes": self.cost_bytes(),
            "max_input_hw": list(self.max_hw) if self.max_hw else None,
            "workers": self.pool.options.workers if self.pool else 1,
        }


def _native_hw(manifest: dict) -> Optional[Tuple[int, int]]:
    """The artifact's native (maximum) geometry, from the manifest.

    Preference order: the embedded arena plan (authoritative — it is
    what the export sized), then session options, then compile options.
    """
    arena = manifest.get("network", {}).get("arena") or {}
    for hw in (arena.get("input_hw"),
               manifest.get("session_options", {}).get("input_hw"),
               manifest.get("compile_options", {}).get("input_hw")):
        if hw is not None:
            return (int(hw[0]), int(hw[1]))
    return None


class ModelRegistry:
    """Artifact registry with LRU residency under a memory budget.

    ``memory_budget_bytes=None`` disables eviction entirely (every
    model loads and stays resident — the unconstrained dev default).
    ``workers > 1`` gives each *resident* model its own
    :class:`repro.runtime.pool.WorkerPool` of artifact-backed worker
    processes; the pool is stood up at load and torn down at eviction.
    """

    def __init__(self, *, memory_budget_bytes: Optional[int] = None,
                 workers: int = 1, worker_retries: int = 1):
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError(
                f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
            )
        self.memory_budget_bytes = memory_budget_bytes
        self.workers = max(1, int(workers))
        self.worker_retries = int(worker_retries)
        self._entries: Dict[str, FleetEntry] = {}
        self._lock = threading.RLock()
        self._tick = 0
        self.loads = 0
        self.evictions = 0
        self._closed = False

    # -- construction --------------------------------------------------
    @classmethod
    def from_directory(cls, root, **kwargs) -> "ModelRegistry":
        """Scan ``root`` for artifact subdirectories (anything holding a
        ``manifest.json``) and register each under its directory name.
        The directory itself may also be a single artifact."""
        from repro.runtime.artifact import read_manifest

        root = Path(root)
        registry = cls(**kwargs)
        candidates: List[Path] = []
        if (root / "manifest.json").is_file():
            candidates.append(root)
        else:
            candidates.extend(sorted(
                p for p in root.iterdir()
                if p.is_dir() and (p / "manifest.json").is_file()
            ))
        if not candidates:
            raise ModelNotFoundError(f"no artifacts found under {root}")
        for path in candidates:
            registry.add(path.name, path, manifest=read_manifest(path))
        return registry

    def add(self, name: str, path, manifest: Optional[dict] = None) -> FleetEntry:
        from repro.runtime.artifact import read_manifest

        if manifest is None:
            manifest = read_manifest(path)
        entry = FleetEntry(name, Path(path), manifest)
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} already registered")
            self._entries[name] = entry
        return entry

    # -- lookup --------------------------------------------------------
    @property
    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def entry(self, name: str) -> FleetEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"unknown model {name!r}; fleet has {self.models}"
            )
        return entry

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(e.cost_bytes() for e in self._entries.values()
                       if e.resident)

    # -- residency -----------------------------------------------------
    def checkout(self, name: str) -> FleetEntry:
        """Pin ``name`` resident and mark a request in flight.  Loads
        (and evicts) as needed; every checkout must be paired with
        :meth:`release`."""
        with self._lock:
            if self._closed:
                raise ModelNotFoundError("registry is closed")
            entry = self._entries.get(name)
            if entry is None:
                raise ModelNotFoundError(
                    f"unknown model {name!r}; fleet has {sorted(self._entries)}"
                )
            if not entry.resident:
                self._load_locked(entry)
            entry.inflight += 1
            entry.requests += 1
            self._tick += 1
            entry.last_used = self._tick
            return entry

    def release(self, entry: FleetEntry) -> None:
        with self._lock:
            entry.inflight = max(0, entry.inflight - 1)

    def run(self, name: str, xs: np.ndarray) -> np.ndarray:
        """Execute one tile on ``name``'s session (or worker pool) —
        the batch engine's executor-thread body for fleet dispatch."""
        entry = self.checkout(name)
        try:
            if entry.pool is not None:
                return entry.pool.run(xs)
            return entry.session.run(xs)
        finally:
            self.release(entry)

    def warm(self, names) -> None:
        """Eagerly load ``names`` (in order, subject to the budget —
        later names may evict earlier ones, exactly as live traffic
        would)."""
        for name in names:
            self.release(self.checkout(name))

    def validate_input(self, name: str, x_real) -> None:
        """Boundary validation without forcing a load.

        Resident models delegate to the session's full check; cold
        models get the checks the manifest can answer — geometry
        against the declared max and finiteness — so a bad request is a
        400 at admission rather than a load plus a batch failure.
        """
        entry = self.entry(name)
        with self._lock:
            session = entry.session
        if session is not None:
            try:
                session.validate_input(x_real)
                return
            except RuntimeError:
                pass  # evicted between the snapshot and the check
        x = np.asarray(x_real)
        if x.ndim != 4:
            raise InvalidInputError(
                f"input must be NCHW (4 dims), got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise InvalidInputError("input contains non-finite values")
        if entry.max_hw is not None:
            h, w = int(x.shape[2]), int(x.shape[3])
            if h > entry.max_hw[0] or w > entry.max_hw[1]:
                raise InvalidInputError(
                    f"input geometry {h}x{w} exceeds model {name!r}'s "
                    f"declared max geometry {entry.max_hw[0]}x{entry.max_hw[1]}"
                )

    def _load_locked(self, entry: FleetEntry) -> None:
        """Load ``entry`` under the lock, evicting LRU idle models until
        the budget admits it; raises OverBudgetError when it never can."""
        from repro.runtime.session import Session

        # Pre-evict on manifest metadata so the transient (loaded but
        # not yet admitted) state overshoots the budget as little as
        # possible.  The authoritative check still runs on the compiled
        # plan below.
        if self.memory_budget_bytes is not None and entry.rw_bytes is not None:
            while (self.resident_bytes() + entry.cost_bytes()
                   > self.memory_budget_bytes):
                if not self._evict_lru_locked():
                    break
        session = Session.load(entry.path, mmap=True,
                               max_input_hw=entry.max_hw)
        rejection = None
        try:
            self._admit_locked(entry, session)
        except OverBudgetError as exc:
            # Keep only the message: the live exception's traceback (and
            # chained assert_arena_fits frames) pins the plan — and with
            # it the mmap views — which would make session.close() fail
            # with BufferError.
            rejection = str(exc)
        if rejection is not None:
            session.close()
            raise OverBudgetError(rejection)
        entry.session = session
        entry.loads += 1
        self.loads += 1
        rw = self.rw_from_plan(entry)
        if rw is not None:
            entry.rw_bytes = rw
        if self.workers > 1:
            entry.pool = self._start_pool(entry)

    @staticmethod
    def rw_from_plan(entry: FleetEntry) -> Optional[int]:
        session = entry.session
        if session is None or entry.max_hw is None:
            return entry.rw_bytes
        if not session.plan.layers:
            return entry.rw_bytes
        return session.plan.arena_for(entry.max_hw).logical_rw_peak_bytes

    def _admit_locked(self, entry: FleetEntry, session) -> None:
        """The budget gate: the newcomer's arena must fit the RAM the
        budget has left after its weights and everyone resident — the
        same :func:`assert_arena_fits` check an MCU deployment runs."""
        if self.memory_budget_bytes is None:
            return
        if entry.max_hw is None or not session.plan.layers:
            # No arena to size: charge weights only.
            while (self.resident_bytes() + entry.ro_bytes
                   > self.memory_budget_bytes):
                if not self._evict_lru_locked():
                    raise OverBudgetError(self._over_budget_msg(entry))
            return
        from repro.mcu.deploy import assert_arena_fits
        from repro.mcu.device import MCUDevice

        while True:
            free = self.memory_budget_bytes - self.resident_bytes()
            device = MCUDevice(
                name="fleet-budget",
                flash_bytes=max(1, free),
                ram_bytes=max(1, free - entry.ro_bytes),
                clock_hz=1,
            )
            try:
                if entry.ro_bytes > free:
                    raise ValueError(
                        f"weights {entry.ro_bytes} B exceed the free "
                        f"budget {free} B"
                    )
                assert_arena_fits(session.plan, device, entry.max_hw)
                return
            except ValueError:
                if not self._evict_lru_locked():
                    raise OverBudgetError(
                        self._over_budget_msg(entry)
                    ) from None

    def _over_budget_msg(self, entry: FleetEntry) -> str:
        return (
            f"model {entry.name!r} needs {entry.cost_bytes()} B "
            f"(weights {entry.ro_bytes} B + arena {entry.rw_bytes or '?'} B) "
            f"but the fleet budget is {self.memory_budget_bytes} B with "
            f"{self.resident_bytes()} B resident and nothing evictable"
        )

    def _evict_lru_locked(self) -> bool:
        """Evict the least-recently-used idle resident model; False when
        nothing is evictable (all cold or all in flight)."""
        victims = [e for e in self._entries.values()
                   if e.resident and e.inflight == 0]
        if not victims:
            return False
        victim = min(victims, key=lambda e: e.last_used)
        self._close_entry(victim)
        victim.evictions += 1
        self.evictions += 1
        return True

    @staticmethod
    def _close_entry(entry: FleetEntry) -> None:
        pool, entry.pool = entry.pool, None
        session, entry.session = entry.session, None
        if pool is not None:
            pool.close()
        if session is not None:
            session.close()

    def _start_pool(self, entry: FleetEntry):
        from repro.runtime.pool import PoolOptions, WorkerPool

        pool = WorkerPool(entry.path, PoolOptions(
            workers=self.workers, retries=self.worker_retries,
        ))
        pool.start()
        return pool

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "budget_bytes": self.memory_budget_bytes,
                "resident_bytes": self.resident_bytes(),
                "models_known": len(self._entries),
                "models_resident": sum(
                    1 for e in self._entries.values() if e.resident
                ),
                "loads": self.loads,
                "evictions": self.evictions,
                "models": {
                    name: e.to_dict()
                    for name, e in sorted(self._entries.items())
                },
            }

    def close(self) -> None:
        with self._lock:
            self._closed = True
            for entry in self._entries.values():
                self._close_entry(entry)

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def materialize_fleet(root, configs, *, num_classes: int = 5,
                      seed: int = 0) -> List[Path]:
    """Build a fleet directory of zoo artifacts: one
    ``{resolution}x{width}`` subdirectory per ``(resolution, width)``
    config, each a loadable session artifact saved at its native
    geometry (so the manifest carries the Eq. 7 arena plan the registry
    budgets with).  Returns the artifact paths."""
    from repro.models.model_zoo import mobilenet_v1_spec
    from repro.runtime.session import pipeline

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (resolution, width) in enumerate(configs):
        spec = mobilenet_v1_spec(int(resolution), float(width),
                                 num_classes=num_classes)
        session = pipeline(spec, seed=seed + i)
        label = f"{int(resolution)}x{width:g}"
        paths.append(session.save(root / label))
    return paths
