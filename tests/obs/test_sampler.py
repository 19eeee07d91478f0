"""Trace sampling: determinism, edge ratios, tenant overrides, and the
ObsConfig section's plan-cache invariance."""

import threading

import pytest

from repro.api.config import ObsConfig, PashConfig
from repro.jit.cache import config_digest
from repro.obs.sampler import TraceSampler


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        first = TraceSampler(ratio=0.5, seed=1234)
        second = TraceSampler(ratio=0.5, seed=1234)
        decisions = [first.should_sample() for _ in range(200)]
        assert decisions == [second.should_sample() for _ in range(200)]
        assert True in decisions and False in decisions

    def test_different_seed_different_sequence(self):
        first = [TraceSampler(0.5, seed=1).should_sample() for _ in range(0)]
        a = TraceSampler(0.5, seed=1)
        b = TraceSampler(0.5, seed=2)
        assert [a.should_sample() for _ in range(100)] != [
            b.should_sample() for _ in range(100)
        ]

    def test_ratio_roughly_respected(self):
        sampler = TraceSampler(ratio=0.25, seed=99)
        sampled = sum(sampler.should_sample() for _ in range(4000))
        assert 800 <= sampled <= 1200  # ~1000 expected


class TestEdges:
    def test_ratio_one_always_samples(self):
        sampler = TraceSampler(ratio=1.0)
        assert all(sampler.should_sample() for _ in range(50))
        assert sampler.sampled == 50 and sampler.skipped == 0

    def test_ratio_zero_never_samples(self):
        sampler = TraceSampler(ratio=0.0)
        assert not any(sampler.should_sample() for _ in range(50))
        assert sampler.skipped == 50

    def test_invalid_ratio_raises(self):
        with pytest.raises(ValueError):
            TraceSampler(ratio=1.5)
        with pytest.raises(ValueError):
            TraceSampler(ratio=-0.1)

    def test_tenant_override_beats_zero_ratio(self):
        sampler = TraceSampler(ratio=0.0, sample_tenants=("vip",))
        assert sampler.should_sample("vip") is True
        assert sampler.should_sample("other") is False

    def test_counters_exact_under_contention(self):
        sampler = TraceSampler(ratio=0.5, seed=3)
        threads_n, per_thread = 8, 500

        def hammer():
            for _ in range(per_thread):
                sampler.should_sample()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sampler.sampled + sampler.skipped == threads_n * per_thread


class TestObsConfig:
    def test_from_config(self):
        obs = ObsConfig(trace_sample_ratio=0.5, sample_tenants=("a",))
        sampler = TraceSampler.from_config(obs)
        assert sampler.ratio == 0.5
        assert sampler.seed == 0  # the sequence is fixed, not configured
        assert sampler.should_sample("a") is True

    def test_validation(self):
        with pytest.raises(ValueError):
            ObsConfig(trace_sample_ratio=2.0)
        with pytest.raises(ValueError):
            ObsConfig(span_retention=-1)

    def test_round_trip(self):
        config = PashConfig(
            width=4, obs=ObsConfig(trace_sample_ratio=0.25, span_retention=64)
        )
        restored = PashConfig.from_dict(config.to_dict())
        assert restored == config
        assert restored.obs.sample_tenants == ()

    def test_coerce_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ObsConfig"):
            ObsConfig.coerce({"nope": 1})

    def test_obs_never_fragments_the_plan_cache(self):
        """The section is runtime-only: any obs knob leaves the digest (and
        therefore every disk plan-cache key) untouched."""
        base = PashConfig(width=4)
        sampled = PashConfig(
            width=4,
            obs=ObsConfig(
                trace_sample_ratio=0.1,
                sample_tenants=("t",),
                span_retention=10,
            ),
        )
        assert config_digest(base) == config_digest(sampled)
