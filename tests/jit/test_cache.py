"""Unit tests for the plan cache, region fingerprints, and cache keys."""

import pytest

from repro.api import PashConfig
from repro.api.config import StreamingConfig
from repro.dfg.regions import (
    iter_region_words,
    referenced_parameters,
    region_fingerprint,
)
from repro.jit.cache import CompiledPlan, FailedPlan, PlanCache, config_digest
from repro.shell.parser import parse


def region(text):
    """Parse a one-statement script and return its region node."""
    return parse(text)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable_for_identical_text():
    assert region_fingerprint(region("grep x f | sort")) == region_fingerprint(
        region("grep x f | sort")
    )


def test_fingerprint_distinguishes_different_regions():
    assert region_fingerprint(region("grep x f")) != region_fingerprint(
        region("grep y f")
    )


def test_fingerprint_ignores_insignificant_whitespace():
    # The fingerprint hashes the unparsed AST, not the raw source.
    assert region_fingerprint(region("grep  x   f")) == region_fingerprint(
        region("grep x f")
    )


# ---------------------------------------------------------------------------
# Referenced parameters
# ---------------------------------------------------------------------------


def test_referenced_parameters_collects_variables():
    names, has_substitution = referenced_parameters(region('grep "$pat" $f | head -n $N'))
    assert names == frozenset({"pat", "f", "N"})
    assert not has_substitution


def test_referenced_parameters_sees_redirection_targets():
    names, _ = referenced_parameters(region("sort in.txt > $out"))
    assert "out" in names


def test_referenced_parameters_sees_default_forms():
    names, _ = referenced_parameters(region("head -n ${N:-$M} f"))
    assert names == frozenset({"N", "M"})


def test_referenced_parameters_flags_substitution():
    _, has_substitution = referenced_parameters(region("grep $(cat pat.txt) f"))
    assert has_substitution


def test_iter_region_words_covers_all_word_positions():
    node = region("X=$v grep $p < $i > $o")
    texts = [str(word) for word in iter_region_words(node)]
    assert "${v}" in texts and "${p}" in texts and "${i}" in texts and "${o}" in texts


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------


def key(fingerprint="fp", bindings=(), digest="cfg"):
    return (fingerprint, tuple(bindings), digest)


def test_cache_miss_then_hit():
    cache = PlanCache()
    assert cache.get(key()) is None
    cache.put(key(), CompiledPlan(graph=object(), report=None, fingerprint="fp"))
    entry = cache.get(key())
    assert isinstance(entry, CompiledPlan)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1


def test_cache_distinguishes_binding_values():
    cache = PlanCache()
    cache.put(
        key(bindings=(("f", "a.txt"),)),
        CompiledPlan(graph="A", report=None, fingerprint="fp"),
    )
    assert cache.get(key(bindings=(("f", "b.txt"),))) is None
    assert cache.get(key(bindings=(("f", "a.txt"),))).graph == "A"


def test_cache_negative_entries_count_separately():
    cache = PlanCache()
    cache.put(key(), FailedPlan(reason="nope", fingerprint="fp"))
    entry = cache.get(key())
    assert isinstance(entry, FailedPlan)
    assert entry.reason == "nope"
    assert cache.stats.negative_hits == 1
    assert cache.stats.hits == 0


def test_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    for name in ("a", "b", "c"):
        cache.put(key(fingerprint=name), CompiledPlan(graph=name, report=None, fingerprint=name))
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get(key(fingerprint="a")) is None  # oldest evicted
    assert cache.get(key(fingerprint="c")).graph == "c"


def test_cache_get_refreshes_lru_order():
    cache = PlanCache(capacity=2)
    cache.put(key(fingerprint="a"), CompiledPlan(graph="a", report=None, fingerprint="a"))
    cache.put(key(fingerprint="b"), CompiledPlan(graph="b", report=None, fingerprint="b"))
    cache.get(key(fingerprint="a"))  # refresh a; b becomes the LRU entry
    cache.put(key(fingerprint="c"), CompiledPlan(graph="c", report=None, fingerprint="c"))
    assert cache.get(key(fingerprint="a")) is not None
    assert cache.get(key(fingerprint="b")) is None


def test_cache_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# ---------------------------------------------------------------------------
# Config digest
# ---------------------------------------------------------------------------


def test_config_digest_stable_and_sensitive():
    assert config_digest(PashConfig(width=4)) == config_digest(PashConfig(width=4))
    assert config_digest(PashConfig(width=4)) != config_digest(PashConfig(width=8))
    assert config_digest(PashConfig()) != config_digest(
        PashConfig(disabled_passes=("eager-relays",))
    )


def test_configs_differing_only_in_spill_directory_share_one_digest(tmp_path):
    base = PashConfig(width=4)
    spilled = base.replace(streaming=StreamingConfig(spill_directory=str(tmp_path)))
    assert spilled != base
    assert config_digest(spilled) == config_digest(base)
    assert config_digest(
        base.replace(streaming=StreamingConfig(spill_directory=str(tmp_path), spill_threshold=8))
    ) != config_digest(base)
