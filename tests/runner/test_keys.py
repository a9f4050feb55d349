"""Tests for the cache key scheme (canonical config serialization)."""

import collections
import copy
import dataclasses
import enum
import hashlib
import json
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.params import PAPER_COSTS, PAPER_PLATFORM, PlatformConfig, ProtocolCosts
from repro.core.policies import make_locking_policy
from repro.runner.keys import (
    UncacheableConfig,
    canonicalize,
    code_version,
    config_key,
    config_keys,
)
from repro.workloads.arrivals import (
    BatchPoissonSpec,
    DeterministicSpec,
    OnOffSpec,
    PoissonSpec,
)
from repro.workloads.sessions import SessionChurnSpec
from repro.workloads.traffic import FixedSize, TrafficSpec

from ..conftest import fast_config


class TestCanonicalize:
    def test_primitives_pass_through(self):
        for v in (None, True, 3, 2.5, "x"):
            assert canonicalize(v) == v

    def test_sequences_become_lists(self):
        assert canonicalize((1, 2, (3,))) == [1, 2, [3]]

    def test_dataclass_tagged_with_type(self):
        out = canonicalize(FixedSize(64))
        assert out["__type__"].endswith("FixedSize")
        assert out["size_bytes"] == 64

    def test_distinct_types_with_same_fields_do_not_collide(self):
        from repro.workloads.arrivals import DeterministicSpec, PoissonSpec
        a = canonicalize(PoissonSpec(100.0))
        b = canonicalize(DeterministicSpec(100.0))
        assert a != b

    def test_unserializable_rejected(self):
        with pytest.raises(UncacheableConfig):
            canonicalize(object())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(UncacheableConfig):
            canonicalize({1: "x"})


class TestConfigKey:
    def test_stable_for_equal_configs(self):
        assert config_key(fast_config()) == config_key(fast_config())

    def test_every_knob_changes_the_key(self):
        base = fast_config()
        variants = [
            base.with_(seed=99),
            base.with_(policy="fcfs"),
            base.with_(paradigm="ips", policy="ips-wired"),
            base.with_(duration_us=130_000.0),
            base.with_(nonprotocol_intensity=0.5),
            base.with_(traffic=TrafficSpec.homogeneous_poisson(4, 9_000.0)),
            base.with_(platform=PlatformConfig(n_processors=4)),
            base.with_(costs=ProtocolCosts(t_warm_us=151.0)),
            base.with_(lock_granularity=2),
            base.with_(churn=SessionChurnSpec(1.0, 1e5, 100.0)),
        ]
        keys = {config_key(v) for v in variants}
        assert config_key(base) not in keys
        assert len(keys) == len(variants)

    def test_policy_instances_are_uncacheable(self):
        cfg = fast_config(policy=make_locking_policy("mru"))
        with pytest.raises(UncacheableConfig):
            config_key(cfg)

    def test_key_embeds_code_version(self):
        # The key is a hex digest and changes with the code digest input.
        key = config_key(fast_config())
        assert len(key) == 64
        int(key, 16)  # hex
        assert len(code_version()) == 16


# ----------------------------------------------------------------------
# The one-pass encoder against the definition of the key
# ----------------------------------------------------------------------
def definition_key(config):
    """The content key by its definition: sorted compact JSON of the code
    version and the canonical structure, hashed once."""
    payload = {"code": code_version(), "config": canonicalize(config)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def outcome(key_fn, config):
    try:
        return key_fn(config)
    except UncacheableConfig:
        return UncacheableConfig


class _Level(enum.IntEnum):
    LOW = 1


_Pair = collections.namedtuple("_Pair", "a b")


@dataclasses.dataclass(frozen=True)
class _Box:
    """A dataclass holding any value, to reach the encoder's value paths."""

    value: object
    Upper: object = None  # sorts before the "__type__" tag


def _raw(cls, **fields):
    """An instance of the dataclass ``cls`` holding ``fields`` as given,
    without its validation (keys read values; they never validate them)."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


_SPECIAL = [0.0, -0.0, 1, 1.0, True, False, math.nan, -math.nan, math.inf,
            -math.inf, 5e-324, 1e16, 2 ** 64]
_NUMBERS = st.one_of(st.floats(), st.integers(), st.sampled_from(_SPECIAL))
#: Text with the characters JSON escapes, and some it spells as \uXXXX.
_TEXT = st.text(alphabet='aZ_ \"\\\n\x00\x7f\xe9\u2603\U0001f600', max_size=6)
#: Leaves the encoder sends to the two-step definition, and leaves it
#: cannot key at all.
_ODD = st.sampled_from([np.float64(2.5), np.float64(-0.0), _Level.LOW,
                        _Pair(1, 2.0), object(), fast_config, b"x"])
_LEAVES = st.one_of(st.none(), _NUMBERS, _TEXT, _ODD)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.just(1)), inner,
                        max_size=3),
        st.builds(_Box, inner, inner),
    ),
    max_leaves=12,
)
_ARRIVALS = st.one_of(
    st.builds(lambda r: _raw(PoissonSpec, rate_pps=r), _NUMBERS),
    st.builds(lambda r, p: _raw(DeterministicSpec, rate_pps=r, phase_us=p),
              _NUMBERS, _NUMBERS),
    st.builds(lambda r, b: _raw(BatchPoissonSpec, rate_pps=r, mean_batch=b),
              _NUMBERS, _NUMBERS),
    st.builds(lambda r, on, off: _raw(OnOffSpec, peak_rate_pps=r,
                                      mean_on_us=on, mean_off_us=off),
              _NUMBERS, _NUMBERS, _NUMBERS),
)
_SIZES = st.builds(lambda n: _raw(FixedSize, size_bytes=n), _NUMBERS)
_TRAFFIC = st.builds(
    lambda specs, size: _raw(TrafficSpec, stream_specs=specs, size_model=size),
    st.one_of(st.lists(_ARRIVALS, max_size=4).map(tuple),
              st.lists(_ARRIVALS, max_size=2)),
    _SIZES)
_CHURN = st.one_of(st.none(), st.builds(
    lambda a, b, c: _raw(SessionChurnSpec, sessions_per_second=a,
                         mean_lifetime_us=b, per_stream_rate_pps=c),
    _NUMBERS, _NUMBERS, _NUMBERS))
_POLICIES = st.one_of(
    st.sampled_from(["mru", "fcfs", "wired-streams", "ips-wired"]),
    st.builds(make_locking_policy, st.sampled_from(["mru", "fcfs"])),
)


@st.composite
def _configs(draw):
    """SystemConfigs over every field the key reads, with any number,
    nested sequences, policy instances and free-form ``policy_kwargs``."""
    config = copy.copy(fast_config())
    overrides = {
        "traffic": _TRAFFIC,
        "policy": _POLICIES,
        "churn": _CHURN,
        "costs": st.builds(lambda w, c: ProtocolCosts(t_warm_us=w, t_cold_us=c),
                           st.floats(100.0, 200.0), st.floats(250.0, 300.0)),
        "nonprotocol_intensity": _NUMBERS,
        "fixed_overhead_us": _NUMBERS,
        "n_stacks": st.one_of(st.none(), _NUMBERS),
        "lock_granularity": _NUMBERS,
        "duration_us": _NUMBERS,
        "seed": _NUMBERS,
        "trace": st.booleans(),
        "check_invariants": st.booleans(),
        "policy_kwargs": st.dictionaries(
            st.one_of(_TEXT, st.just(0)), _VALUES, max_size=3),
    }
    for name, strategy in overrides.items():
        if draw(st.booleans()):
            object.__setattr__(config, name, draw(strategy))
    return config


class TestOnePassEncoder:
    @settings(max_examples=300)
    @given(_configs())
    def test_config_key_is_the_definition(self, config):
        assert outcome(config_key, config) == outcome(definition_key, config)

    @settings(max_examples=300)
    @given(_VALUES)
    def test_any_value_keys_like_the_definition(self, value):
        box = _Box(value, value)
        assert outcome(config_key, box) == outcome(definition_key, box)

    def test_signed_zeros_keep_their_own_keys_in_either_order(self):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            a = config_key(_Box(first))
            b = config_key(_Box(second))
            assert a != b
            assert (a, b) == (definition_key(_Box(first)),
                              definition_key(_Box(second)))

    def test_int_float_and_bool_of_equal_value_differ(self):
        keys = {config_key(_Box(v)) for v in (1, 1.0, True)}
        assert len(keys) == 3

    def test_observability_fields_do_not_enter_the_key(self):
        base = fast_config()
        assert config_key(base.with_(trace=True, check_invariants=True)) \
            == config_key(base) == definition_key(base)

    def test_canonical_structure_keeps_declaration_order(self):
        names = [f.name for f in dataclasses.fields(fast_config())
                 if f.name not in ("trace", "check_invariants")]
        assert list(canonicalize(fast_config())) == ["__type__", *names]


# ----------------------------------------------------------------------
# Batch keys: one identity memo per call, against the definition
# ----------------------------------------------------------------------
def definition_keys(configs):
    """What ``config_keys`` must return: the definition's key of each
    config, None where the definition cannot key it."""
    out = [outcome(definition_key, config) for config in configs]
    return [None if key is UncacheableConfig else key for key in out]


def _with(obj, **fields):
    """A copy of ``obj`` (a distinct object) with ``fields`` set as given."""
    obj = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _one_stream(rate):
    return _raw(TrafficSpec, stream_specs=(_raw(PoissonSpec, rate_pps=rate),),
                size_model=FixedSize())


class TestBatchKeys:
    def test_batch_with_shared_sub_objects(self):
        traffic = TrafficSpec.homogeneous_poisson(8, 9_000.0)
        assert traffic.stream_specs[0] is traffic.stream_specs[7]
        configs = [fast_config(traffic=traffic, seed=s) for s in range(3)]
        configs += [c.with_(policy="fcfs") for c in configs]
        configs.append(fast_config(platform=PlatformConfig(n_processors=4)))
        assert configs[0].platform is configs[1].platform is PAPER_PLATFORM
        assert configs[0].platform.hierarchy is \
            PlatformConfig(n_processors=4).hierarchy
        keys = config_keys(configs)
        assert keys == definition_keys(configs)
        assert len(set(keys)) == len(configs)

    @pytest.mark.parametrize("a,b", [(1000, 1000.0), (-0.0, 0.0),
                                     (0.0, -0.0)])
    def test_equal_values_in_distinct_objects_key_apart(self, a, b):
        # Each pair compares equal (and hashes equal where hashable), so
        # a memo keyed by equality would hand the second the first's text.
        base = fast_config()
        pairs = [
            (base.with_(fixed_overhead_us=a), base.with_(fixed_overhead_us=b)),
            (base.with_(costs=_with(PAPER_COSTS, t_cold_us=a)),
             base.with_(costs=_with(PAPER_COSTS, t_cold_us=b))),
            (base.with_(traffic=_one_stream(a)),
             base.with_(traffic=_one_stream(b))),
            (base.with_(policy_kwargs={"spill": a}),
             base.with_(policy_kwargs={"spill": b})),
        ]
        if a:  # a horizon must be positive
            pairs.append((base.with_(duration_us=a, warmup_us=0.0),
                          base.with_(duration_us=b, warmup_us=0.0)))
        for first, second in pairs:
            assert first == second
            keys = config_keys([first, second])
            assert keys == definition_keys([first, second])
            assert keys[0] != keys[1]

    def test_nan(self):
        base = fast_config()
        spec = _raw(PoissonSpec, rate_pps=math.nan)
        shared = _raw(TrafficSpec, stream_specs=(spec, spec),
                      size_model=FixedSize())
        configs = [base.with_(traffic=shared),
                   base.with_(traffic=_one_stream(math.nan)),
                   base.with_(traffic=shared, seed=2),
                   base.with_(fixed_overhead_us=math.nan),
                   base.with_(policy_kwargs={"x": [math.nan, -math.nan]})]
        assert config_keys(configs) == definition_keys(configs)

    def test_same_config_object_twice(self):
        a, b = fast_config(), fast_config(seed=8)
        keys = config_keys([a, b, a, a])
        assert keys == definition_keys([a, b, a, a])
        assert keys[0] == keys[2] == keys[3] != keys[1]

    def test_policy_instance_mid_batch(self):
        traffic = TrafficSpec.homogeneous_poisson(4, 8_000.0)
        configs = [fast_config(traffic=traffic),
                   fast_config(traffic=traffic,
                               policy=make_locking_policy("mru")),
                   fast_config(traffic=traffic, seed=9)]
        keys = config_keys(configs)
        assert keys[1] is None
        assert keys == definition_keys(configs)

    def test_non_str_policy_kwargs_key(self):
        configs = [fast_config(policy_kwargs={"a": 1}),
                   fast_config(policy_kwargs={1: "a"}),
                   fast_config(policy_kwargs={"a": 1, "b": {"c": 2.5}})]
        keys = config_keys(configs)
        assert keys[1] is None
        assert keys == definition_keys(configs)

    def test_key_follows_a_mutation_between_calls(self):
        # The memo lives for one call: the same object, changed, keys anew.
        config = fast_config()
        first = config_keys([config])
        config.policy_kwargs["spill"] = 2
        second = config_keys([config])
        assert first != second
        assert second == [definition_key(config)]
        config.policy_kwargs.clear()
        assert config_keys([config]) == first

    @settings(max_examples=100)
    @given(st.lists(_configs(), min_size=1, max_size=4), st.data())
    def test_batch_keys_are_the_definition(self, configs, data):
        # Copies that share sub-objects with other configs of the batch,
        # then the whole batch again, reversed: the same objects twice.
        batch = list(configs)
        for config in configs:
            donor = data.draw(st.sampled_from(configs))
            names = data.draw(st.sets(st.sampled_from(
                ["traffic", "costs", "policy", "policy_kwargs", "churn"])))
            batch.append(_with(config, **{n: getattr(donor, n) for n in names}))
        batch += batch[::-1]
        assert config_keys(batch) == definition_keys(batch)
