"""Session front door: serving delegation, profiling, and pipeline()."""

import numpy as np
import pytest

import repro
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.testing import integer_network_from_spec
from repro.mcu.deploy import assert_arena_fits
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import CompileOptions, Session, SessionOptions, pipeline

SPEC = mobilenet_v1_spec(32, 0.25, num_classes=5)


@pytest.fixture(scope="module")
def net():
    return integer_network_from_spec(SPEC, np.random.default_rng(3))


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(4).uniform(0, 1, size=(5, 3, 32, 32))


class TestSession:
    def test_run_matches_plan_and_reference(self, net, x):
        session = Session(net)
        assert np.array_equal(session.run(x), net.forward(x))

    def test_run_batched_uses_session_tile_size(self, net, x):
        session = Session(net, options=SessionOptions(batch_size=2))
        assert np.array_equal(session.run_batched(x), session.run(x))
        assert np.array_equal(session.predict(x), net.predict(x))

    def test_compile_options_flow_through(self, net, x):
        session = Session(net, CompileOptions(backend="int64"))
        assert all(i.backend == "int64" for i in session.layer_info())
        assert np.array_equal(session.run(x), net.forward(x))

    def test_input_hw_plans_arena_eagerly(self, net):
        session = Session(net, options=SessionOptions(input_hw=(32, 32)))
        assert (32, 32) in session.plan._arenas
        assert "activation arena" in session.describe()

    def test_run_codes_validate_override(self, net):
        bad = np.full((1, 3, 8, 8), 300, dtype=np.int64)  # out of 8-bit range
        strict = Session(net, options=SessionOptions(validate=True))
        with pytest.raises(ValueError):
            strict.run_codes(bad)
        lax = Session(net, options=SessionOptions(validate=False))
        lax.run_codes(bad)  # no boundary scan, garbage in garbage out

    def test_profile_covers_every_layer(self, net, x):
        session = Session(net)
        prof = session.profile(x[:2], repeats=1)
        names = [t.name for t in prof.layers]
        assert names[-1] == "classifier" and "global_avg_pool" in names
        assert len(names) == len(net.conv_layers) + 2
        assert prof.total_seconds > 0
        assert "session profile" in prof.table()

    def test_profile_synthetic_batch_needs_geometry(self, net):
        with pytest.raises(ValueError, match="input_hw"):
            Session(net).profile()
        prof = Session(net, options=SessionOptions(input_hw=(32, 32),
                                                   batch_size=2)).profile(repeats=1)
        assert prof.batch_size == 2 and prof.input_hw == (32, 32)

    def test_session_accepted_by_assert_arena_fits(self, net):
        session = Session(net, options=SessionOptions(input_hw=(32, 32)))
        peak = assert_arena_fits(session, repro.STM32H7, (32, 32))
        assert peak == session.plan.arena_for((32, 32)).logical_rw_peak_bytes


class TestPipeline:
    def test_device_search_is_wired_in(self):
        session = pipeline(SPEC, device=repro.STM32H7, seed=1)
        assert np.array_equal(
            session.run(np.zeros((1, 3, 32, 32))),
            session.network.forward(np.zeros((1, 3, 32, 32))),
        )
        # arena planned at the spec resolution by default
        assert (32, 32) in session.plan._arenas

    def test_policy_bits_are_materialised(self):
        policy = QuantPolicy.uniform(SPEC, method=QuantMethod.PC_ICN, bits=4)
        policy.layers[0].q_in = 8  # network input is fixed at 8 bit
        session = pipeline(SPEC, policy=policy, seed=2)
        assert all(l.params.w_bits == 4 for l in session.network.conv_layers)
        assert all(l.out_bits == 4 for l in session.network.conv_layers[:-1])

    @pytest.mark.parametrize("method,strategy", [
        (QuantMethod.PL_FB, "FoldedBNParams"),
        (QuantMethod.PC_THRESHOLDS, "ThresholdParams"),
        (QuantMethod.PC_ICN, "ICNParams"),
    ])
    def test_method_selects_requant_strategy(self, method, strategy):
        session = pipeline(SPEC, method=method, seed=5)
        assert all(
            type(l.params).__name__ == strategy
            for l in session.network.conv_layers
        )

    def test_prebuilt_network_short_circuits(self, net, x):
        session = pipeline(SPEC, network=net)
        assert session.network is net
        assert np.array_equal(session.run(x), net.forward(x))

    def test_policy_length_mismatch_is_an_error(self):
        other = mobilenet_v1_spec(32, 0.5, num_classes=5)
        policy = QuantPolicy.uniform(other, method=QuantMethod.PC_ICN)
        del policy.layers[-1]
        with pytest.raises(ValueError, match="layers"):
            integer_network_from_spec(SPEC, policy=policy)
