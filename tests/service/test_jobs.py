"""Request identity: params, cache keys, request documents."""

import pytest

from repro.harness.cache import point_key
from repro.harness.sweep import task_schema_version
from repro.service.jobs import SERVICE_TASK, FactorRequest


class TestParams:
    def test_optional_fields_omitted_when_unset(self):
        params = FactorRequest(impl="conflux", n=64, p=4, seed=3).params()
        assert params == {"impl": "conflux", "n": 64, "p": 4, "seed": 3}

    def test_optional_fields_present_when_set(self):
        params = FactorRequest(
            impl="caqr25d", n=64, p=8, seed=0, v=4, machine="summit"
        ).params()
        assert params["v"] == 4
        assert params["machine"] == "summit"
        assert "nb" not in params


class TestCacheKeyReuse:
    def test_key_is_the_measured_sweep_point_key(self):
        # The content-addressed serving cache and the sweep cache are
        # the same store: a request's key IS the key of the identical
        # 'measured' sweep point.
        request = FactorRequest(impl="conflux", n=64, p=4, seed=0)
        expected = point_key(
            SERVICE_TASK,
            {"impl": "conflux", "n": 64, "p": 4, "seed": 0},
            task_schema_version(SERVICE_TASK),
        )
        assert request.cache_key() == expected

    def test_key_varies_with_seed(self):
        a = FactorRequest(n=64, seed=0).cache_key()
        b = FactorRequest(n=64, seed=1).cache_key()
        assert a != b


class TestFromDict:
    def test_round_trip(self):
        doc = {"impl": "conflux", "n": 48, "p": 4, "seed": 2, "v": 4}
        request = FactorRequest.from_dict(doc)
        assert request.n == 48 and request.v == 4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            FactorRequest.from_dict({"n": 48, "blocksize": 4})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FactorRequest.from_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 32.7}, "n"),      # was served as n = 32
            ({"n": True}, "n"),      # was served as n = 1
            ({"n": "32"}, "n"),
            ({"n": None}, "n"),      # null only where it is the default
            ({"seed": 1.0}, "seed"),
            ({"impl": 7}, "impl"),
            ({"machine": ["summit"]}, "machine"),
            ({"deadline_s": "1"}, "deadline_s"),
            ({"deadline_s": True}, "deadline_s"),
        ],
    )
    def test_value_of_the_wrong_type_names_its_field(self, doc, field):
        with pytest.raises(ValueError, match=f"request field '{field}'"):
            FactorRequest.from_dict(doc)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_deadline_rejected(self, text):
        import json

        doc = json.loads('{"n": 32, "deadline_s": %s}' % text)
        with pytest.raises(ValueError, match="deadline_s must be finite"):
            FactorRequest.from_dict(doc)

    def test_null_is_the_default_of_an_optional_field(self):
        doc = {"n": 48, "v": None, "nb": None, "machine": None,
               "deadline_s": None}
        assert FactorRequest.from_dict(doc) == FactorRequest(n=48)
        # an integer deadline is a real number too
        assert FactorRequest.from_dict({"deadline_s": 2}).deadline_s == 2
