"""Micro-batcher core: take-what-is-pending tiles, remainder carry-over,
the pre-batching deadline guarantee, and fair lane choice in the fleet
batcher."""

import pytest

from repro.serving.batcher import FleetBatcher, MicroBatcher, Request


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make(batcher, clock, n, deadline_in=None):
    reqs = []
    for _ in range(n):
        deadline = None if deadline_in is None else clock() + deadline_in
        r = Request(x=len(reqs), enqueued_at=clock(), deadline=deadline)
        batcher.add(r)
        reqs.append(r)
    return reqs


@pytest.fixture
def clock():
    return FakeClock()


class TestFlushOnFull:
    def test_full_tile_emits_exactly_max_batch(self, clock):
        b = MicroBatcher(max_batch=4, clock=clock)
        reqs = make(b, clock, 4)
        batch, expired = b.take()
        assert batch == reqs and expired == [] and len(b) == 0

    def test_remainder_carries_over(self, clock):
        b = MicroBatcher(max_batch=4, clock=clock)
        reqs = make(b, clock, 7)
        batch, _ = b.take()
        assert batch == reqs[:4]
        # The 3 leftovers stay pending, FIFO order preserved, and seed
        # the next tile once more requests arrive.
        assert len(b) == 3
        late = make(b, clock, 1)
        batch2, _ = b.take()
        assert batch2 == reqs[4:] + late and len(b) == 0

    def test_take_returns_every_pending_request_up_to_max_batch(self, clock):
        b = MicroBatcher(max_batch=4, clock=clock)
        assert b.take() == ([], [])
        reqs = make(b, clock, 3)
        batch, _ = b.take()
        assert batch == reqs and len(b) == 0


class TestDeadlines:
    def test_expired_requests_never_reach_a_batch(self, clock):
        b = MicroBatcher(max_batch=2, clock=clock)
        doomed = make(b, clock, 1, deadline_in=0.1)
        clock.advance(0.2)
        alive = make(b, clock, 2)  # fills a tile
        batch, expired = b.take()
        assert expired == doomed
        assert batch == alive
        assert all(r not in batch for r in doomed)

    def test_expiry_is_checked_before_tile_formation(self, clock):
        # 4 requests with deadlines + enough fresh ones for a full tile:
        # the expired ones are dropped first, the tile forms from the rest.
        b = MicroBatcher(max_batch=4, clock=clock)
        doomed = make(b, clock, 4, deadline_in=0.1)
        clock.advance(1.0)
        fresh = make(b, clock, 4)
        batch, expired = b.take()
        assert expired == doomed and batch == fresh

    def test_expire_alone_leaves_live_requests(self, clock):
        b = MicroBatcher(max_batch=8, clock=clock)
        doomed = make(b, clock, 1, deadline_in=0.1)
        live = make(b, clock, 1, deadline_in=5.0)
        clock.advance(0.2)
        assert b.expire() == doomed
        assert len(b) == 1
        batch, _ = b.take()
        assert batch == live

    def test_no_deadline_never_expires(self, clock):
        b = MicroBatcher(max_batch=8, clock=clock)
        make(b, clock, 1)
        clock.advance(1e6)
        assert b.expire() == []
        assert b.next_deadline_in() is None
        batch, _ = b.take()
        assert len(batch) == 1

    def test_next_deadline_in_is_the_earliest_deadline(self, clock):
        b = MicroBatcher(max_batch=8, clock=clock)
        assert b.next_deadline_in() is None
        make(b, clock, 1, deadline_in=0.5)
        make(b, clock, 1)  # no deadline: ignored
        make(b, clock, 1, deadline_in=0.25)
        assert b.next_deadline_in() == pytest.approx(0.25)
        clock.advance(0.3)
        assert b.next_deadline_in() == 0.0


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)

    def test_drain_empties_everything(self, clock):
        b = MicroBatcher(max_batch=4, clock=clock)
        reqs = make(b, clock, 3)
        assert b.drain() == reqs and len(b) == 0


class TestFleetLanes:
    @staticmethod
    def add(b, clock, model, n, deadline_in=None):
        reqs = []
        for _ in range(n):
            deadline = None if deadline_in is None else clock() + deadline_in
            r = Request(x=0, enqueued_at=clock(), deadline=deadline,
                        model=model)
            b.add(r)
            reqs.append(r)
            clock.advance(0.01)
        return reqs

    def test_oldest_head_lane_goes_first(self, clock):
        # Lane "a" is created first and never drains (it always holds
        # more than max_batch), so insertion-order polling would pick it
        # on every call; oldest-head order serves "b" once its head is
        # the oldest pending request.
        b = FleetBatcher(max_batch=2, clock=clock)
        self.add(b, clock, "a", 3)
        lone = self.add(b, clock, "b", 1)
        served = []
        for _ in range(3):
            batch, _ = b.take()
            served.append(batch)
            self.add(b, clock, "a", 2)
        assert [tile[0].model for tile in served] == ["a", "a", "b"]
        assert served[2] == lone and b.lanes == 1

    def test_expiry_and_deadlines_span_every_lane(self, clock):
        b = FleetBatcher(max_batch=4, clock=clock)
        doomed = self.add(b, clock, "a", 1, deadline_in=0.1)
        live = self.add(b, clock, "b", 1, deadline_in=1.0)
        assert b.next_deadline_in() == pytest.approx(0.08)
        clock.advance(0.2)
        batch, expired = b.take()
        assert expired == doomed and batch == live
        assert b.lanes == 0 and b.next_deadline_in() is None
