"""Session artifact round trip: bit-exact rehydration across the whole
model zoo and every bit-width mix, plus integrity rejection of corrupted
artifacts."""

import json

import numpy as np
import pytest

from repro.analysis import verify_artifact
from repro.inference.export import export_network, import_network
from repro.inference.testing import integer_network_from_spec, random_network
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime import ArtifactError, CompileOptions, Session, SessionOptions
from repro.runtime.artifact import BLOBS_NAME, MANIFEST_NAME, load_artifact

_CONFIGS = all_mobilenet_configs(num_classes=5)
_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)


def _roundtrip(tmp_path, session):
    return Session.load(session.save(tmp_path / "artifact"))


@pytest.mark.parametrize("spec", _CONFIGS, ids=lambda s: s.label)
def test_zoo_config_artifact_round_trip_is_bit_exact(spec, tmp_path):
    """Acceptance sweep: Session.load(save(...)) serves bit-identically
    to the in-memory compiled plan on every model-zoo configuration,
    with no reference to the originating IntegerNetwork."""
    seed = spec.resolution * 100 + int(spec.width_multiplier * 100)
    net = integer_network_from_spec(spec, np.random.default_rng(seed))
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    assert restored.network is not net
    assert all(
        a.params.weights_q is not b.params.weights_q
        for a, b in zip(restored.network.conv_layers, net.conv_layers)
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), restored.run(x))
    assert np.array_equal(net.compile().run(x), restored.run(x))


@pytest.mark.parametrize("act_bits", [2, 4, 8])
@pytest.mark.parametrize("w_bits", [2, 4, 8])
def test_bit_width_mix_round_trip(act_bits, w_bits, tmp_path):
    net = integer_network_from_spec(
        _SMALL, np.random.default_rng(act_bits * 10 + w_bits),
        act_bits=act_bits, w_bits=w_bits,
    )
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    x = np.random.default_rng(0).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), restored.run(x))


@pytest.mark.parametrize("idx,strategy", list(enumerate(["icn", "folded", "thr", "mixed"])))
def test_every_requant_strategy_round_trips(idx, strategy, tmp_path):
    """Random topologies exercising every requantization strategy (and
    per-layer mixes of all three) rehydrate bit-identically."""
    rng = np.random.default_rng(1000 + idx)  # fixed seed: reproducible topology
    net = random_network(rng, resolution=10, max_layers=3, strategy=strategy)
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    x = np.random.default_rng(1).uniform(0, 1, size=(3, 3, 10, 10))
    assert np.array_equal(session.run(x), restored.run(x))


def test_options_survive_the_round_trip(tmp_path):
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    session = Session(
        net,
        CompileOptions(backend="int64", fused_depthwise=False),
        SessionOptions(batch_size=3, validate=False, input_hw=(32, 32)),
    )
    restored = _roundtrip(tmp_path, session)
    assert restored.compile_options == session.compile_options
    assert restored.options == session.options
    assert all(i.backend == "int64" for i in restored.layer_info())


def _with_compile_options(path, **keys):
    """Rewrite a saved manifest's compile_options in place."""
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["compile_options"].update(keys)
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))
    return path


_RETIRED = ("narrow", "use_arena", "refined_bound")


def test_manifest_with_retired_keys_loads(tmp_path):
    """Manifests written before the legacy pipelines were retired carry
    narrow/use_arena/refined_bound at true; they load, run bit-identically
    to the interpreted oracle and pass the static verifier."""
    net = integer_network_from_spec(_SMALL, np.random.default_rng(6))
    saved = Session(net, options=SessionOptions(input_hw=(32, 32))).save(
        tmp_path / "artifact"
    )
    _with_compile_options(saved, **{key: True for key in _RETIRED})
    restored = Session.load(saved)
    assert restored.compile_options == CompileOptions()
    x = np.random.default_rng(7).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), restored.run(x))
    assert verify_artifact(saved).ok


@pytest.mark.parametrize("key", _RETIRED)
def test_retired_key_at_false_is_rejected(key, tmp_path):
    net = integer_network_from_spec(_SMALL, np.random.default_rng(6))
    saved = _with_compile_options(
        Session(net).save(tmp_path / "artifact"), **{key: False}
    )
    with pytest.raises(ArtifactError, match=key):
        Session.load(saved)


def test_export_import_round_trip_in_memory():
    """The dict-level inverse pair underneath the artifact."""
    net = integer_network_from_spec(_SMALL, np.random.default_rng(2))
    back = import_network(export_network(net))
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), back.forward(x))


def test_manifest_carries_arena_plan(tmp_path):
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    session = Session(net, options=SessionOptions(input_hw=(32, 32)))
    path = session.save(tmp_path / "artifact")
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    arena = manifest["network"]["arena"]
    assert arena["input_hw"] == [32, 32]
    assert arena["rw_peak_bytes"] == \
        session.plan.arena_for((32, 32)).logical_rw_peak_bytes


class TestCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        net = integer_network_from_spec(_SMALL, np.random.default_rng(5))
        return Session(net).save(tmp_path / "artifact")

    def test_corrupted_blob_rejected_by_crc(self, saved):
        blob_path = saved / BLOBS_NAME
        raw = bytearray(blob_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one byte mid-stream
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC32"):
            Session.load(saved)

    def test_truncated_blob_file_rejected(self, saved):
        blob_path = saved / BLOBS_NAME
        blob_path.write_bytes(blob_path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated|CRC32"):
            Session.load(saved)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Session.load(tmp_path / "nothing-here")

    def test_wrong_format_marker_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["format"] = "somebody-elses-format"
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            Session.load(saved)

    def test_newer_version_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            Session.load(saved)

    def test_load_artifact_returns_manifest(self, saved):
        network, copts, sopts, manifest = load_artifact(saved)
        assert manifest["format"] == "repro/session-artifact"
        assert network.conv_layers and copts == CompileOptions()
