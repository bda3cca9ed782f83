"""Activation-arena safety: arena vs. no-arena bit-identity on random
networks, planned-peak bounds on measured allocations, and the Eq. 7
cross-check against the analytical memory model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.arena import (
    ActivationArena,
    LayerGeometry,
    logical_rw_peak_bytes,
    plan_activations,
)
from repro.inference.testing import integer_network_from_spec, random_network
from repro.mcu.deploy import assert_arena_fits
from repro.mcu.device import MCUDevice
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import CompileOptions


@given(seed=st.integers(0, 2 ** 16), bits=st.sampled_from([2, 4, 8]))
@settings(deadline=None)
def test_property_arena_matches_no_arena(seed, bits):
    """Random topologies + mixed requant strategies: the arena/fused plan
    and the interpreted (allocate-per-call) reference produce identical
    codes and logits."""
    net = random_network(
        np.random.default_rng(seed), resolution=11, act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(3, 3, 11, 11))
    codes = net.quantize_input(x)
    with_arena = net.compile()
    assert np.array_equal(with_arena.run_codes(codes), net.forward_codes(codes))
    assert np.array_equal(with_arena.run(x), net.forward(x))


@given(seed=st.integers(0, 2 ** 16))
@settings(deadline=None)
def test_property_repeated_runs_reuse_slabs_bit_exactly(seed):
    """Slab reuse must not leak state between calls: alternating inputs
    through one plan matches fresh interpreted evaluations of each."""
    net = random_network(np.random.default_rng(seed), resolution=9)
    plan = net.compile()
    rng = np.random.default_rng(seed + 1)
    xa = rng.uniform(0, 1, size=(2, 3, 9, 9))
    xb = rng.uniform(0, 1, size=(4, 3, 9, 9))
    for x in (xa, xb, xa, xb):
        assert np.array_equal(plan.run(x), net.forward(x))


def test_run_codes_returns_owned_copy():
    """run_codes output must survive (and not corrupt) later plan calls."""
    net = random_network(np.random.default_rng(5), resolution=10)
    plan = net.compile()
    codes = net.quantize_input(np.random.default_rng(6).uniform(0, 1, (2, 3, 10, 10)))
    first = plan.run_codes(codes)
    snapshot = first.copy()
    plan.run_codes(net.quantize_input(
        np.random.default_rng(7).uniform(0, 1, (2, 3, 10, 10))
    ))
    assert np.array_equal(first, snapshot)
    first.fill(255)  # caller-side mutation must not poison the arena
    assert np.array_equal(plan.run_codes(codes), snapshot)


@pytest.mark.parametrize("res,width", [(32, 0.25), (64, 0.5)])
def test_logical_rw_peak_matches_memory_model(res, width):
    """The arena's Eq. 7 peak equals core.memory_model.rw_peak_bytes for
    the same spec under the matching uniform policy — the runtime and the
    paper's analytical model agree layer for layer."""
    spec = mobilenet_v1_spec(res, width, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile(CompileOptions(input_hw=(res, res)))
    arena = plan.arena_for((res, res))
    policy = QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8)
    model = MemoryModel(spec)
    assert arena.logical_rw_peak_bytes == model.rw_peak_bytes(policy)
    per_layer = model.rw_bytes_per_layer(policy)
    assert [p.rw_bytes for p in arena.plans] == per_layer


def test_measured_peak_allocation_within_planned_arena():
    """With the arena warm, a full trunk pass must not allocate more new
    memory than the compile-time planned arena size (tracemalloc peak)."""
    spec = mobilenet_v1_spec(64, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile(CompileOptions(input_hw=(64, 64)))
    codes = plan.quantize_input(
        np.random.default_rng(1).uniform(0, 1, size=(4, 3, 64, 64))
    )
    plan.run_codes(codes)  # warm: slabs allocated, einsum paths cached
    planned = plan.arena_for((64, 64)).planned_bytes(4)
    tracemalloc.start()
    plan.run_codes(codes)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= planned, f"measured peak {peak} B > planned arena {planned} B"


def test_arena_grows_monotonically_and_planned_bytes_exact():
    net = random_network(np.random.default_rng(8), resolution=12)
    plan = net.compile()
    x_small = np.random.default_rng(9).uniform(0, 1, (2, 3, 12, 12))
    x_large = np.random.default_rng(10).uniform(0, 1, (6, 3, 12, 12))
    plan.run(x_small)
    arena = plan.arena_for((12, 12))
    assert arena.capacity == 2
    assert arena.allocated_bytes == arena.planned_bytes(2)
    plan.run(x_large)
    assert arena.capacity == 6
    plan.run(x_small)  # shrink-free reuse
    assert arena.capacity == 6
    # Growing slabs scale linearly with the batch on top of the fixed
    # (batch-independent) requantization scratch.
    fixed = arena.fixed_bytes
    assert arena.planned_bytes(6) - fixed == 3 * (arena.planned_bytes(2) - fixed)


def test_arena_slab_overflow_rejected():
    net = random_network(np.random.default_rng(11), resolution=10)
    plan = net.compile()
    plan.run(np.random.default_rng(12).uniform(0, 1, (1, 3, 10, 10)))
    arena = plan.arena_for((10, 10))
    with pytest.raises(ValueError, match="arena slab overflow"):
        arena.codes(0, (10 ** 6,))


def test_plan_activations_rejects_collapsing_geometry():
    geom = LayerGeometry(
        name="conv", kind="conv", in_channels=3, out_channels=4,
        kh=7, kw=7, stride=1, padding=0, in_bits=8, out_bits=8,
        gemm_itemsize=4, fused=False,
    )
    with pytest.raises(ValueError, match="collapses"):
        plan_activations([geom], (4, 4))


def test_empty_plan_list():
    assert logical_rw_peak_bytes([]) == 0
    arena = ActivationArena([])
    assert arena.bytes_per_image() == 0
    arena.ensure(4)
    assert arena.allocated_bytes == 0


def test_assert_arena_fits_against_device_budget():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    big = MCUDevice(name="big", flash_bytes=2 * 1024 ** 2,
                    ram_bytes=512 * 1024, clock_hz=400_000_000)
    tiny = MCUDevice(name="tiny", flash_bytes=2 * 1024 ** 2,
                     ram_bytes=1024, clock_hz=80_000_000)
    peak = assert_arena_fits(plan, big, (32, 32))
    assert 0 < peak <= big.ram_bytes
    with pytest.raises(ValueError, match="exceeds tiny RW budget"):
        assert_arena_fits(plan, tiny, (32, 32))


def test_describe_reports_arena_peak_and_fused_dispatch():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile(CompileOptions(input_hw=(32, 32)))
    text = plan.describe(batch_size=8)
    arena = plan.arena_for((32, 32))
    assert f"{arena.planned_bytes(8)} bytes" in text
    assert f"{arena.logical_rw_peak_bytes} bytes" in text
    assert "auto-stencil" in text  # default dw dispatch is the auto rule
    forced = net.compile(CompileOptions(fused_depthwise=True, input_hw=(32, 32))).describe()
    assert "fused-stencil" in forced
    # Without a planned geometry the summary simply omits the arena block.
    assert "activation arena" not in net.compile().describe()
