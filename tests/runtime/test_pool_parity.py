"""Cross-worker bit-exactness: the process pool must be indistinguishable
from a single-thread Session — same logits, bit for bit, no matter how
tiles land on workers.

The argument the suite enforces: every kernel in the stack is exact
(integer GEMMs under proven accumulator bounds), so per-image results
cannot depend on batch tiling; a pool that mmaps the same artifact into
every worker and splits sweeps across them must therefore reproduce
``Session.run_batched`` exactly.  Any mismatch — one ULP, one image —
is a real bug (shared-state corruption, transport truncation, tile
reassembly out of order), which is why the assertions are
``array_equal``, never ``allclose``.
"""

import threading

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime import (
    PoolClosedError,
    PoolOptions,
    Session,
    SessionOptions,
    WorkerCrashedError,
    WorkerPool,
    WorkerTaskError,
)

# A sampled slice of the 16-config zoo: the extremes plus two interior
# points.  Structure (depth/width) comes from the spec; inputs run at
# 32x32 so each config costs milliseconds, exactly like the artifact
# round-trip sweep.
_ZOO = all_mobilenet_configs(num_classes=5)
_ZOO_SLICE = [_ZOO[0], _ZOO[5], _ZOO[10], _ZOO[15]]
_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)


def _session_for(spec, seed):
    net = integer_network_from_spec(spec, np.random.default_rng(seed))
    return Session(net, options=SessionOptions(input_hw=(32, 32), batch_size=4))


@pytest.fixture(scope="module")
def small_setup(tmp_path_factory):
    """One tiny session + its artifact + a running 2-worker pool,
    shared by every test that doesn't need its own pool."""
    session = _session_for(_SMALL, seed=11)
    path = tmp_path_factory.mktemp("pool") / "small.artifact"
    session.save(path)
    pool = WorkerPool(path, PoolOptions(workers=2, max_tile=4)).start()
    yield session, pool
    pool.close()


@pytest.mark.parametrize("spec", _ZOO_SLICE, ids=lambda s: s.label)
def test_pool_is_bit_identical_across_zoo_slice(spec, tmp_path):
    """Acceptance: pool output == single-thread Session.run_batched on
    every tested zoo config, including an uneven final tile."""
    seed = spec.resolution + int(spec.width_multiplier * 100)
    session = _session_for(spec, seed)
    path = session.save(tmp_path / "zoo.artifact")
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(7, 3, 32, 32))
    with WorkerPool(path, PoolOptions(workers=2, max_tile=3)) as pool:
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert np.array_equal(session.run(x[:2]), pool.run(x[:2]))


@pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 9])
def test_ragged_run_batched_edges(small_setup, n):
    """Sweep sizes around the tile boundary (tile=4): one image, one
    tile exactly, tile+1, a ragged tail — every split must reassemble
    in order and bit-exactly."""
    session, pool = small_setup
    x = np.random.default_rng(n).uniform(0, 1, size=(n, 3, 32, 32))
    assert np.array_equal(session.run_batched(x), pool.run_batched(x))
    # Explicit batch_size overrides, including degenerate tile=1.
    assert np.array_equal(
        session.run_batched(x, batch_size=1), pool.run_batched(x, batch_size=1)
    )


def test_empty_sweep_preserves_output_shape(small_setup):
    session, pool = small_setup
    empty = np.empty((0, 3, 32, 32))
    ref = session.run_batched(empty)
    got = pool.run_batched(empty)
    assert got.shape == ref.shape
    assert np.array_equal(ref, got)


def test_predict_parity(small_setup):
    session, pool = small_setup
    x = np.random.default_rng(21).uniform(0, 1, size=(6, 3, 32, 32))
    assert np.array_equal(session.predict(x), pool.predict(x))


def test_concurrent_mixed_shape_submission(small_setup):
    """Many client threads hammer the pool at once with different batch
    sizes and geometries; every caller must get exactly what a private
    single-thread session would have produced.  This is the test that
    catches slab reuse races and response misrouting."""
    session, pool = small_setup
    cases = []
    for i, (n, hw) in enumerate(
        [(1, 32), (5, 32), (2, 40), (8, 32), (3, 40), (4, 32), (7, 40), (6, 32)]
    ):
        x = np.random.default_rng(100 + i).uniform(0, 1, size=(n, 3, hw, hw))
        cases.append((x, session.run_batched(x)))

    failures = []

    def client(idx, x, expected):
        try:
            for _ in range(3):  # re-submit: interleave with other clients
                got = pool.run_batched(x)
                if not np.array_equal(expected, got):
                    failures.append((idx, "mismatch"))
        except Exception as exc:  # pragma: no cover - failure path
            failures.append((idx, repr(exc)))

    threads = [
        threading.Thread(target=client, args=(i, x, ref))
        for i, (x, ref) in enumerate(cases)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not failures, failures
    assert pool.stats()["served"] >= len(cases)


def test_worker_task_error_is_typed_and_nonfatal(small_setup):
    """A bad input fails inside the worker with the remote exception's
    identity preserved — and the worker survives to serve the next task
    (task failures are not worker failures: no respawn)."""
    session, pool = small_setup
    restarts_before = pool.restarts
    with pytest.raises(WorkerTaskError) as err:
        pool.run(np.full((1, 3, 32, 32), np.nan))
    assert err.value.etype == "InvalidInputError"
    assert pool.restarts == restarts_before
    x = np.random.default_rng(5).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), pool.run(x))


def test_from_session_stages_and_cleans_up(tmp_path):
    """A pool over an unsaved in-memory session stages its own artifact
    and removes it on close."""
    session = _session_for(_SMALL, seed=31)
    assert session.source_artifact is None
    pool = WorkerPool.from_session(session, PoolOptions(workers=1))
    staged = pool.artifact_path
    with pool:
        x = np.random.default_rng(6).uniform(0, 1, size=(3, 3, 32, 32))
        assert np.array_equal(session.run_batched(x), pool.run_batched(x))
        assert staged.is_dir()
    assert not staged.exists()


class _KillFirstTask:
    """Fault hook (the pool's duck type): ``worker-kill`` on the first
    dispatched task only."""

    fired = False

    def fire(self, kind):
        if kind != "worker-kill" or self.fired:
            return None
        self.fired = True
        return kind


def test_injected_kill_fails_the_task_even_when_the_reply_wins(tmp_path):
    """Busy Python threads let the worker answer before the dispatcher
    thread gets the GIL back to send SIGKILL; that reply must not hide
    the crash and leave a dead slot behind."""
    session = _session_for(_SMALL, seed=51)
    path = session.save(tmp_path / "k.artifact")
    x = np.random.default_rng(7).uniform(0, 1, size=(1, 3, 32, 32))
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    spinners = [threading.Thread(target=spin, daemon=True) for _ in range(3)]
    with WorkerPool(path, PoolOptions(workers=1, retries=0),
                    faults=_KillFirstTask()) as pool:
        for t in spinners:
            t.start()
        try:
            with pytest.raises(WorkerCrashedError, match="killed mid-task"):
                pool.run(x)
        finally:
            stop.set()
            for t in spinners:
                t.join(timeout=5.0)
        assert not any(t.is_alive() for t in spinners)
        assert (pool.kills, pool.restarts, pool.alive_workers()) == (1, 1, 1)
        assert np.array_equal(pool.run(x), session.run(x))


def test_closed_pool_rejects_new_work(tmp_path):
    session = _session_for(_SMALL, seed=41)
    path = session.save(tmp_path / "c.artifact")
    pool = WorkerPool(path, PoolOptions(workers=1)).start()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(PoolClosedError):
        pool.submit(np.zeros((1, 3, 32, 32)))


def test_work_stealing_spreads_a_burst(small_setup):
    """A burst of tiles submitted at once ends up executed by both
    workers (the stealing path, not just round-robin luck)."""
    session, pool = small_setup
    x = np.random.default_rng(51).uniform(0, 1, size=(2, 3, 32, 32))
    futures = [pool.submit(x) for _ in range(12)]
    for f in futures:
        assert np.array_equal(session.run(x), f.result(timeout=120))
    per_worker = pool.stats()["per_worker"]
    assert all(w["served"] > 0 for w in per_worker)
