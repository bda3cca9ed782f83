"""Compiled ExecutionPlan: bit-exactness against the interpreted engine,
boundary validation semantics, and the tiled batched runner."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy import QuantMethod
from repro.core.graph_convert import convert_to_integer_network
from repro.evaluation.experiments import evaluate_integer_network
from repro.inference.plan import ExecutionPlan
from repro.inference.testing import integer_network_from_spec
from repro.runtime import CompileOptions
from repro.models.model_zoo import mobilenet_v1_spec


@pytest.fixture(scope="module")
def integer_net(qat_pc_icn_model):
    return convert_to_integer_network(
        qat_pc_icn_model, method=QuantMethod.PC_ICN, input_scale=1.0 / 255.0
    )


class TestPlanBitExactness:
    def test_qat_network_logits_identical(self, integer_net, small_dataset):
        x = small_dataset.x_test[:8]
        ref = integer_net.forward(x)
        plan = integer_net.compile()
        assert np.array_equal(ref, plan.run(x))

    def test_qat_4bit_network_logits_identical(self, qat_pc_icn_4bit_model, small_dataset):
        net = convert_to_integer_network(qat_pc_icn_4bit_model, method=QuantMethod.PC_ICN)
        x = small_dataset.x_test[:8]
        assert np.array_equal(net.forward(x), net.compile().run(x))

    def test_trunk_codes_identical(self, integer_net, small_dataset):
        codes = integer_net.quantize_input(small_dataset.x_test[:4])
        ref = integer_net.forward_codes(codes)
        plan = integer_net.compile()
        assert np.array_equal(ref, plan.run_codes(codes))

    @pytest.mark.parametrize("strategy", ["icn", "folded", "thr"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_synthetic_networks_identical(self, strategy, bits, rng):
        """All three requantization strategies, all bit widths."""
        spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
        net = integer_network_from_spec(
            spec, np.random.default_rng(7), act_bits=bits, w_bits=bits,
            strategy=strategy, per_channel=(strategy != "folded"),
        )
        x = rng.uniform(0, 1, size=(3, 3, 32, 32))
        assert np.array_equal(net.forward(x), net.compile().run(x))

    def test_predictions_identical(self, integer_net, small_dataset):
        x = small_dataset.x_test[:8]
        plan = integer_net.compile()
        assert np.array_equal(integer_net.predict(x), plan.predict(x))

    def test_forced_int64_plan_matches_blas_plan(self, integer_net, small_dataset):
        x = small_dataset.x_test[:4]
        blas = integer_net.compile(CompileOptions(backend="blas"))
        ref = integer_net.compile(CompileOptions(backend="int64"))
        assert np.array_equal(blas.run(x), ref.run(x))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), bits=st.sampled_from([2, 4, 8]))
def test_property_plan_matches_interpreter(seed, bits):
    """Random networks + random inputs: compiled == interpreted, bit for bit."""
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(
        spec, np.random.default_rng(seed), act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), net.compile().run(x))


class TestPlanStructure:
    def test_all_uint8_layers_use_blas(self, integer_net):
        plan = integer_net.compile()
        assert all(info.backend == "blas" for info in plan.layer_info())

    def test_forced_int64_backend(self, integer_net):
        plan = integer_net.compile(CompileOptions(backend="int64"))
        assert all(info.backend == "int64" for info in plan.layer_info())

    def test_depthwise_uses_float32_tier(self, integer_net):
        plan = integer_net.compile()
        dw = [i for i in plan.layer_info() if i.kind == "dw"]
        assert dw and all(i.gemm_dtype == "float32" for i in dw)

    def test_describe_lists_every_layer(self, integer_net):
        plan = integer_net.compile()
        text = plan.describe()
        for layer in integer_net.conv_layers:
            assert layer.name in text

    def test_weights_are_pre_shifted_gemm_form(self, integer_net):
        plan = integer_net.compile()
        layer = plan.layers[0]
        p = integer_net.conv_layers[0].params
        assert layer.w2.shape[0] == p.weights_q.shape[0]
        assert layer.w2.flags["C_CONTIGUOUS"]


class TestBoundaryValidation:
    def test_out_of_range_codes_rejected_at_boundary(self, integer_net):
        plan = integer_net.compile()
        bad = np.full((1, 3, 16, 16), 300, dtype=np.int64)
        with pytest.raises(ValueError, match="out of UINT8 range"):
            plan.run_codes(bad)

    def test_validation_can_be_disabled(self, integer_net, small_dataset):
        plan = integer_net.compile(CompileOptions(validate=False))
        codes = integer_net.quantize_input(small_dataset.x_test[:2])
        assert plan.run_codes(codes).shape[0] == 2

    def test_per_call_override(self, integer_net):
        plan = integer_net.compile(CompileOptions(validate=False))
        bad = np.full((1, 3, 16, 16), 300, dtype=np.int64)
        with pytest.raises(ValueError):
            plan.run_codes(bad, validate=True)

    def test_out_of_range_weights_rejected_at_compile_time(self, integer_net):
        """The plan enforces the interpreted engine's weight guard once,
        at compile time, instead of on every forward.  An 8-bit uint8
        container cannot even represent an out-of-range code, so the
        poisoned tensor is widened to int64 first (a corrupted legacy
        deployment)."""
        import copy

        broken = copy.deepcopy(integer_net)
        params = broken.conv_layers[0].params
        params.weights_q = params.weights_q.astype(np.int64)
        params.weights_q[0, 0, 0, 0] = 700
        with pytest.raises(ValueError, match="weight codes out of UINT8 range"):
            broken.compile()
        assert broken.compile(CompileOptions(validate=False)) is not None


class TestRunBatched:
    def test_matches_single_shot(self, integer_net, small_dataset):
        x = small_dataset.x_test[:10]
        plan = integer_net.compile()
        assert np.array_equal(plan.run(x), plan.run_batched(x, batch_size=3))

    def test_single_tile_short_circuit(self, integer_net, small_dataset):
        x = small_dataset.x_test[:4]
        plan = integer_net.compile()
        assert np.array_equal(plan.run(x), plan.run_batched(x, batch_size=16))

    def test_rejects_nonpositive_batch(self, integer_net, small_dataset):
        plan = integer_net.compile()
        with pytest.raises(ValueError, match="batch_size"):
            plan.run_batched(small_dataset.x_test[:4], batch_size=0)

    def test_predict_batched(self, integer_net, small_dataset):
        x = small_dataset.x_test[:10]
        plan = integer_net.compile()
        assert np.array_equal(plan.predict(x), plan.predict(x, batch_size=4))


class TestEvaluateIntegerNetwork:
    def test_compiled_and_interpreted_agree(self, integer_net, small_dataset):
        x = small_dataset.x_test[:12]
        y = small_dataset.y_test[:12]
        fast = evaluate_integer_network(integer_net, x, labels=y, batch_size=5)
        slow = evaluate_integer_network(integer_net, x, labels=y, batch_size=5, compiled=False)
        assert np.array_equal(fast["predictions"], slow["predictions"])
        assert fast["top1"] == slow["top1"]
        assert fast["num_images"] == 12

    def test_empty_sweep(self, integer_net):
        empty = np.zeros((0, 3, 16, 16))
        for compiled in (True, False):
            r = evaluate_integer_network(integer_net, empty, compiled=compiled)
            assert r["predictions"].shape == (0,)
            assert r["num_images"] == 0


def test_plan_constructor_direct(integer_net, small_dataset):
    """ExecutionPlan can also be built without the compile() sugar."""
    plan = ExecutionPlan(integer_net, CompileOptions(backend="auto", validate=True))
    x = small_dataset.x_test[:2]
    assert np.array_equal(plan.run(x), integer_net.forward(x))


def test_plan_constructor_rejects_non_options(integer_net):
    """Only a CompileOptions configures a plan: neither a dict nor the
    retired loose forms of compile() are accepted."""
    with pytest.raises(TypeError, match="CompileOptions"):
        ExecutionPlan(integer_net, {"backend": "auto"})
    with pytest.raises(TypeError, match="CompileOptions"):
        integer_net.compile("int64")
    with pytest.raises(TypeError):
        integer_net.compile(backend="int64")
