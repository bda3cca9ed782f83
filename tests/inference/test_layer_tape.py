"""Pre-bound layer tape: every compiled layer runs a step bound once per
``(arena slabs, input shape, slot)``.

The contract under test: bound steps stay bit-exact against the
interpreted int64 reference (``IntegerNetwork.forward``) across every
event that replaces the slabs they view — batch growth, and a
shape-polymorphic donor growing under another geometry — on every GEMM
backend and depthwise dispatch, split-K and threshold requant included;
and a warm run rebuilds no arena view at all.
"""

import numpy as np
import pytest

from repro.core.icn import ICNParams, icn_requantize
from repro.inference.arena import ActivationArena
from repro.inference.plan import _compile_requant
from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import CompileOptions

SPEC = mobilenet_v1_spec(32, 0.25, num_classes=5)


def _net(spec=SPEC, seed=3, **kwargs):
    return integer_network_from_spec(spec, np.random.default_rng(seed), **kwargs)


def _images(n, hw=(32, 32), seed=4):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, 3) + hw)


def _assert_batches_exact(net, plan, batches, hw=(32, 32)):
    for i, n in enumerate(batches):
        x = _images(n, hw, seed=i)
        assert np.array_equal(plan.run(x), net.forward(x)), (n, hw)


class TestInvalidation:
    def test_batch_growth_rebinds_every_step(self):
        net = _net()
        plan = net.compile()
        _assert_batches_exact(net, plan, [1])
        arena = plan.arena_for((32, 32))
        bound_at_one = dict(arena.steps)
        assert len(bound_at_one) == len(plan.layers)
        _assert_batches_exact(net, plan, [8])
        # Growth replaced the slabs: the batch-1 steps are gone.
        assert not set(bound_at_one) & set(arena.steps)
        _assert_batches_exact(net, plan, [1, 8, 1, 3])
        assert all(arena.steps[k] is not v for k, v in bound_at_one.items())

    def test_polymorphic_geometries_alternate_while_the_donor_grows(self):
        net = _net()
        plan = net.compile(CompileOptions(max_input_hw=(32, 32)))
        small = plan.arena_for((24, 24))
        assert small.shares_slabs
        _assert_batches_exact(net, plan, [1], hw=(24, 24))
        _assert_batches_exact(net, plan, [1], hw=(32, 32))
        stale = dict(small.steps)
        # The donor grows under the max geometry while the 24x24 arena
        # holds steps bound to the old slabs.
        _assert_batches_exact(net, plan, [6], hw=(32, 32))
        _assert_batches_exact(net, plan, [1], hw=(24, 24))
        assert all(small.steps[k] is not v for k, v in stale.items())
        # ... and grows again through the smaller geometry.
        _assert_batches_exact(net, plan, [9], hw=(24, 24))
        _assert_batches_exact(net, plan, [2], hw=(32, 32))
        _assert_batches_exact(net, plan, [2, 9, 1], hw=(24, 24))

    @pytest.mark.parametrize("backend", ["auto", "int32", "int64"])
    @pytest.mark.parametrize("fused", [True, False])
    def test_every_backend_and_depthwise_path(self, backend, fused):
        net = _net(act_bits=4, w_bits=4)
        plan = net.compile(CompileOptions(backend=backend, fused_depthwise=fused))
        _assert_batches_exact(net, plan, [1, 3, 1, 5])

    def test_split_k_layer(self):
        net = _net(mobilenet_v1_spec(32, 1.0, num_classes=5), seed=0)
        plan = net.compile()
        assert any(layer.split_k is not None for layer in plan.layers)
        _assert_batches_exact(net, plan, [1, 2, 1])

    def test_threshold_requant_layer(self):
        net = _net(strategy="thr", act_bits=4)
        plan = net.compile()
        assert {layer.requant_kind for layer in plan.layers} == {"thr"}
        _assert_batches_exact(net, plan, [1, 4, 1])


class TestWarmRun:
    def test_warm_run_rebuilds_no_views(self, monkeypatch):
        net = _net()
        plan = net.compile()
        x = _images(2)
        expected = plan.run(x)
        calls = []
        view = ActivationArena._view

        def counting_view(slab, dtype, shape):
            calls.append(shape)
            return view(slab, dtype, shape)

        monkeypatch.setattr(ActivationArena, "_view", staticmethod(counting_view))
        assert np.array_equal(plan.run(x), expected)
        assert calls == []
        # A new batch size binds afresh (the counter does see views).
        plan.run(_images(1))
        assert calls


class TestFixedPointRequant:
    @pytest.mark.parametrize("scratch_elems", [4, 48, 4096])
    def test_bound_requant_matches_eq5(self, scratch_elems):
        """The bound 6-ufunc requant equals ``icn_requantize`` on every
        chunking (L-split, one image, several images per chunk), with
        right-, zero- and left-shift channels."""
        rng = np.random.default_rng(0)
        n, c, l = 3, 4, 10
        params = ICNParams(
            weights_q=np.zeros((c, 1, 1, 1), dtype=np.int64), z_w=np.zeros(c),
            z_x=0, z_y=37,
            bq=rng.integers(-500, 500, size=c),
            m0=rng.integers(1 << 29, 1 << 31, size=c),
            n0=np.array([-3, 0, 31, 33]),
            out_bits=8, w_bits=8, per_channel=True,
        )
        requant = _compile_requant(params)
        assert np.any(requant.lshift)
        phi = rng.integers(-(1 << 12), 1 << 12, size=(n, c, l))
        acc = phi.astype(np.float32)
        out = np.full((n, c, l), 255, dtype=np.uint8)
        requant.bind(acc, out, np.empty(scratch_elems, dtype=np.int64))()
        assert np.array_equal(out, icn_requantize(phi, params))
