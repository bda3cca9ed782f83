"""CompileOptions / SessionOptions: validation, normalisation, round trip."""

import dataclasses

import pytest

from repro.runtime import CompileOptions, SessionOptions


class TestCompileOptions:
    def test_defaults_are_the_production_pipeline(self):
        o = CompileOptions()
        assert o.backend == "auto" and o.validate
        assert o.fused_depthwise == "auto"
        assert o.input_hw is None and o.max_input_hw is None
        assert [f.name for f in dataclasses.fields(o)] == [
            "backend", "validate", "fused_depthwise", "input_hw", "max_input_hw"
        ]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CompileOptions().backend = "blas"

    def test_hashable_and_equal_by_value(self):
        assert CompileOptions(validate=False) == CompileOptions(validate=False)
        assert len({CompileOptions(), CompileOptions()}) == 1

    def test_input_hw_normalised_to_int_tuple(self):
        o = CompileOptions(input_hw=[64.0, 32])
        assert o.input_hw == (64, 32)
        assert all(isinstance(d, int) for d in o.input_hw)

    @pytest.mark.parametrize("bad", [{"backend": "sgemm"},
                                     {"fused_depthwise": "maybe"},
                                     {"input_hw": (0, 4)},
                                     {"input_hw": 32}])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            CompileOptions(**bad)

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="valid options"):
            CompileOptions.from_dict({"backnd": "auto"})

    def test_replace(self):
        o = CompileOptions().replace(backend="int64")
        assert o.backend == "int64" and o.validate

    def test_dict_round_trip(self):
        o = CompileOptions(backend="int32", validate=False, input_hw=(8, 8))
        assert CompileOptions.from_dict(o.to_dict()) == o


class TestSessionOptions:
    def test_defaults(self):
        o = SessionOptions()
        assert o.batch_size == 32 and o.validate is None and o.input_hw is None

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionOptions(batch_size=0)

    def test_dict_round_trip(self):
        o = SessionOptions(batch_size=4, validate=False, input_hw=(16, 16))
        assert SessionOptions.from_dict(o.to_dict()) == o

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="valid options"):
            SessionOptions.from_dict({"batchsize": 2})
