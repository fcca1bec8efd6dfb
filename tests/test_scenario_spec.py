"""Tests for the declarative ScenarioSpec: JSON round-trip and identity.

Worker functions live at module level because the spawn start method
pickles them by reference (the hash-stability test re-derives a spec's
content hash inside a spawned process).
"""

import dataclasses
import json

import pytest

from repro.adversary.placement import (
    BernoulliPlacement,
    CombinedPlacement,
    LatticePlacement,
    RandomPlacement,
    StripePlacement,
)
from repro.errors import ConfigurationError
from repro.network.grid import GridSpec
from repro.runner.parallel import point_key, point_seed, sweep
from repro.scenario import ScenarioSpec, preset, preset_names
from repro.scenario.spec import decode_placement, encode_placement


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        grid=GridSpec(width=30, height=30, r=2, torus=True),
        t=2,
        mf=3,
        placement=StripePlacement(y0=8, t=2),
        protocol="b",
        m=4,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def content_hash_in_child(spec: ScenarioSpec) -> str:
    """Spawn-worker body: recompute the hash in a fresh interpreter."""
    return spec.content_hash()


class TestPlacementSerialization:
    @pytest.mark.parametrize(
        "placement",
        [
            StripePlacement(y0=8, t=2),
            StripePlacement(y0=3, t=1, victims_above=False),
            LatticePlacement(x0=4, y0=5, cluster=2),
            BernoulliPlacement(p=0.25, seed=7),
            RandomPlacement(t=2, count=12, seed=3),
            CombinedPlacement(
                parts=(
                    StripePlacement(y0=8, t=2),
                    StripePlacement(y0=16, t=2, victims_above=False),
                )
            ),
        ],
    )
    def test_round_trip(self, placement):
        encoded = encode_placement(placement)
        assert json.loads(json.dumps(encoded)) == encoded  # JSON-pure
        assert decode_placement(encoded) == placement

    def test_unknown_kind_lists_registered_names(self):
        with pytest.raises(ConfigurationError, match="stripe"):
            decode_placement({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="no field"):
            decode_placement({"kind": "stripe", "y0": 1, "t": 1, "zz": 2})


class TestJsonRoundTrip:
    def test_default_spec(self):
        spec = _spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec

    def test_every_field_survives(self):
        spec = _spec(
            protocol="reactive",
            behavior="coded",
            m=None,
            mmax=10**6,
            source=(1, 2),
            vtrue=1,
            seed=17,
            protected=(3, 1, 2),
            max_rounds=99,
            batch_per_slot=4,
            validate_local_bound=False,
            protocol_params={"quiet_limit": 5},
            behavior_params={"p_forge": 0.5, "attack_nacks": False},
        )
        payload = json.loads(spec.to_json())
        again = ScenarioSpec.from_dict(payload)
        assert again == spec
        # Exact inverse: dict form is identical too.
        assert again.to_dict() == spec.to_dict()

    def test_combined_placement_spec(self):
        spec = _spec(
            placement=CombinedPlacement(
                parts=(
                    StripePlacement(y0=8, t=2),
                    StripePlacement(y0=18, t=2, victims_above=False),
                )
            )
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_key_rejected(self):
        payload = _spec().to_dict()
        payload["budget"] = 3
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            ScenarioSpec.from_dict(payload)

    def test_misspelled_behavior_key_rejected_with_suggestion(self):
        # Regression: a typo'd key in a hand-written scenario file must
        # fail loudly, list the expected fields, and suggest the fix —
        # never silently fall back to the default behavior.
        payload = _spec().to_dict()
        del payload["behavior"]
        payload["behaviour"] = "lie"
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(payload)
        message = str(excinfo.value)
        assert "'behaviour'" in message
        assert "did you mean 'behavior'?" in message
        assert "expected keys" in message and "placement" in message

    def test_invalid_numeric_fields_rejected_at_construction(self):
        # Validation tightening: a spec is either runnable or loudly
        # invalid the moment it exists (the fuzz sampler's contract).
        grid = GridSpec(width=30, height=30, r=2, torus=True)
        placement = StripePlacement(y0=8, t=2)
        with pytest.raises(ConfigurationError):  # t >= r(2r+1)
            ScenarioSpec(grid=grid, t=10, mf=1, placement=placement)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(grid=grid, t=2, mf=-1, placement=placement)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(grid=grid, t=2, mf=1, placement=placement, max_rounds=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                grid=grid, t=2, mf=1, placement=placement, batch_per_slot=0
            )
        with pytest.raises(ConfigurationError):
            ScenarioSpec(grid=grid, t=2, mf=1, placement=placement, m=-2)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(grid=grid, t=2, mf=1, placement=placement, mmax=0)

    def test_missing_required_key_rejected(self):
        payload = _spec().to_dict()
        del payload["placement"]
        with pytest.raises(ConfigurationError, match="placement"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize(
        "corruption",
        [
            {"grid": 5},
            {"source": 5},
            {"source": [1, 2, 3]},
            {"protected": 7},
            {"protocol_params": "fast"},
            {"grid": {"width": 30}},
            # Count fields take integers only: a bool runs like 1 but
            # hashes differently, a float fails only mid-run.
            {"mf": 2.5},
            {"t": True},
            {"batch_per_slot": True},
            {"seed": 1.0},
            {"m": "4"},
            {"mmax": 2.0},
            {"max_rounds": True},
            {"source": [0, True]},
            {"grid": {"width": 30.0, "height": 30, "r": 2, "torus": True}},
            {"grid": {"width": 30, "height": 30, "r": True, "torus": True}},
        ],
    )
    def test_malformed_values_fail_with_configuration_error(self, corruption):
        payload = _spec().to_dict()
        payload.update(corruption)
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(payload)

    def test_json_lists_normalize_to_tuples(self):
        payload = _spec(protected=(1, 2, 3)).to_dict()
        assert payload["protected"] == [1, 2, 3]
        again = ScenarioSpec.from_dict(payload)
        assert again.protected == (1, 2, 3)
        assert again.source == (0, 0)

    def test_presets_all_round_trip(self):
        for name in preset_names():
            spec = preset(name)
            again = ScenarioSpec.from_json(spec.to_json())
            assert again == spec, name
            assert again.content_hash() == spec.content_hash(), name


class TestContentHash:
    def test_equal_specs_equal_hashes(self):
        assert _spec().content_hash() == _spec().content_hash()

    def test_any_field_change_changes_hash(self):
        base = _spec().content_hash()
        assert _spec(m=5).content_hash() != base
        assert _spec(seed=1).content_hash() != base
        assert _spec(placement=StripePlacement(y0=9, t=2)).content_hash() != base
        assert (
            _spec(behavior_params={"x": 1}).content_hash() != base
        )

    def test_round_trip_preserves_hash(self):
        spec = _spec(protocol_params={"relay_override": 3})
        assert ScenarioSpec.from_json(spec.to_json()).content_hash() == (
            spec.content_hash()
        )

    def test_param_dict_insertion_order_is_irrelevant(self):
        a = _spec(behavior_params={"x": 1, "y": 2})
        b = _spec(behavior_params={"y": 2, "x": 1})
        assert a.content_hash() == b.content_hash()

    def test_plugs_into_point_key_and_point_seed(self):
        spec = _spec()
        assert point_key(spec) == spec.content_hash()
        assert point_seed(7, spec) == point_seed(7, _spec())
        assert point_seed(7, spec) != point_seed(8, spec)

    def test_hash_stable_across_spawned_processes(self):
        specs = [_spec(), _spec(m=5), preset("reactive")]
        result = sweep(specs, content_hash_in_child, workers=2)
        assert list(result.results) == [s.content_hash() for s in specs]

    def test_specs_are_hashable_values(self):
        # The auto-generated dataclass hash would raise on the dict-valued
        # param fields; hashing must work (content-hash based) so specs
        # can be deduped in sets or used as dict keys.
        a = _spec(behavior_params={"x": 1})
        b = _spec(behavior_params={"x": 1})
        c = _spec(behavior_params={"x": 2})
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_spec_is_picklable_value(self):
        import pickle

        spec = _spec(protocol_params={"relay_override": 2})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()


class TestReplace:
    def test_replace_returns_modified_copy(self):
        spec = _spec()
        other = spec.replace(m=9, seed=4)
        assert other.m == 9 and other.seed == 4
        assert spec.m == 4  # original untouched
        assert dataclasses.is_dataclass(other)
