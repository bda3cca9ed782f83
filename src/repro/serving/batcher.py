"""Micro-batching core: accumulate single requests into engine-shaped tiles.

The server's batch loop is *work-conserving*: it calls ``take()`` only
when an engine slot is free, and ``take()`` hands over whatever is
pending — up to ``max_batch`` requests, the remainder *carried over* to
seed the next tile.  A lone request at light load therefore goes
straight to the engine, while under load requests collect behind the
busy slots and still form full tiles.  There is no batching window to
wait out.

Deadlines are enforced *here*, before batching: an expired request is
dropped from the pending queue and never reaches the engine — inference
capacity is never spent on an answer nobody is waiting for.

The batcher is deliberately synchronous and clock-injected (pass
``clock=`` a fake for tests); the asyncio server drives it from its
batch loop and owns all waiting/waking.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, List, Optional, Tuple

_request_ids = itertools.count(1)


@dataclass
class Request:
    """One admitted inference request waiting for a batch slot.

    ``deadline`` is absolute on the batcher's clock (``None`` = no
    deadline).  ``future`` is whatever completion handle the caller
    wants resolved (the asyncio server stores an ``asyncio.Future``);
    the batcher never touches it.
    """

    x: Any  # per-image CHW array (already validated at admission)
    enqueued_at: float
    deadline: Optional[float] = None
    future: Any = None
    #: Tagged by the fault injector: this request deterministically
    #: crashes any batch containing it (data-dependent kernel fault).
    poisoned: bool = False
    #: Fleet routing key (``None`` on a single-model server).
    model: Optional[str] = None
    req_id: int = field(default_factory=lambda: next(_request_ids))

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


class MicroBatcher:
    """Gather requests into tiles of at most ``max_batch``.

    ``take()`` returns ``(batch, expired)`` — expired requests are
    surfaced so the caller can answer them (504), and are guaranteed
    never to appear in a batch.
    """

    def __init__(self, max_batch: int,
                 clock: Callable[[], float] = time.monotonic):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = int(max_batch)
        self.clock = clock
        self._pending: Deque[Request] = deque()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def oldest(self) -> Optional[float]:
        """Enqueue time of the head request (``None`` when empty)."""
        return self._pending[0].enqueued_at if self._pending else None

    def add(self, request: Request) -> None:
        self._pending.append(request)

    def expire(self, now: Optional[float] = None) -> List[Request]:
        """Drop and return every pending request whose deadline passed."""
        now = self.clock() if now is None else now
        expired = [r for r in self._pending if r.expired(now)]
        if expired:
            self._pending = deque(
                r for r in self._pending if not r.expired(now)
            )
        return expired

    def next_deadline_in(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the earliest pending deadline passes (0 when one
        already has, ``None`` when no pending request has a deadline).
        The server wakes this late at the latest to answer it 504."""
        deadlines = [r.deadline for r in self._pending if r.deadline is not None]
        if not deadlines:
            return None
        now = self.clock() if now is None else now
        return max(0.0, min(deadlines) - now)

    def take(self, now: Optional[float] = None
             ) -> Tuple[List[Request], List[Request]]:
        """Form the next tile: ``(batch, expired)``.

        Expired requests are removed first and can never be batched.
        The tile is everything pending, capped at ``max_batch``; the
        remainder stays queued, in order, for the next call.
        """
        expired = self.expire(now)
        count = min(len(self._pending), self.max_batch)
        batch = [self._pending.popleft() for _ in range(count)]
        return batch, expired

    def drain(self) -> List[Request]:
        """Remove and return everything pending (shutdown path)."""
        pending = list(self._pending)
        self._pending.clear()
        return pending


class FleetBatcher:
    """Per-``(model, input shape)`` micro-batching: the server's batcher.

    A tile must be homogeneous — one model, one geometry — because the
    engine stacks it into a single array and runs it through one
    session.  Each distinct ``(request.model, request.x.shape)`` pair
    therefore gets its own :class:`MicroBatcher` lane (``model`` is
    ``None`` on a single-model server, so its lanes split by shape
    alone); lanes are created on first use and dropped when empty, so a
    fleet of mostly-idle models costs nothing.  The interface mirrors
    ``MicroBatcher``.
    """

    def __init__(self, max_batch: int,
                 clock: Callable[[], float] = time.monotonic):
        self.max_batch = int(max_batch)
        self.clock = clock
        self._lanes: "dict[tuple, MicroBatcher]" = {}

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def lanes(self) -> int:
        return len(self._lanes)

    def _key(self, request: Request) -> tuple:
        shape = tuple(getattr(request.x, "shape", ()))
        return (request.model, shape)

    def add(self, request: Request) -> None:
        key = self._key(request)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = MicroBatcher(self.max_batch,
                                                   clock=self.clock)
        lane.add(request)

    def expire(self, now: Optional[float] = None) -> List[Request]:
        """Expire every lane; lanes left empty are dropped."""
        now = self.clock() if now is None else now
        expired: List[Request] = []
        for key in list(self._lanes):
            lane = self._lanes[key]
            expired.extend(lane.expire(now))
            if not len(lane):
                del self._lanes[key]
        return expired

    def next_deadline_in(self, now: Optional[float] = None) -> Optional[float]:
        now = self.clock() if now is None else now
        delays = [d for d in (lane.next_deadline_in(now)
                              for lane in self._lanes.values())
                  if d is not None]
        return min(delays) if delays else None

    def take(self, now: Optional[float] = None
             ) -> Tuple[List[Request], List[Request]]:
        """The next tile across all lanes: ``(batch, expired)``.

        Every lane is expired first.  The tile then comes from the lane
        whose head request is oldest, so a lane that always holds more
        than ``max_batch`` requests cannot starve the lanes behind it.
        """
        now = self.clock() if now is None else now
        expired = self.expire(now)
        if not self._lanes:
            return [], expired
        key = min(self._lanes, key=lambda k: self._lanes[k].oldest)
        lane = self._lanes[key]
        batch, _ = lane.take(now)
        if not len(lane):
            del self._lanes[key]
        return batch, expired

    def drain(self) -> List[Request]:
        pending: List[Request] = []
        for lane in self._lanes.values():
            pending.extend(lane.drain())
        self._lanes.clear()
        return pending
