"""Metrics serialization: the stable to_dict/from_dict JSON schema."""

import dataclasses
import json

import pytest

from repro.engine.metrics import EngineMetrics, NodeMetrics


def node(**overrides):
    values = dict(
        node_id=3, label="grep foo", kind="command", pid=1234,
        wall_seconds=0.25, compute_seconds=0.1, reused_worker=True,
        bytes_in=100, bytes_out=40, lines_in=10, lines_out=4,
        host_command=False, peak_buffered_bytes=64, spilled_bytes=0,
        spill_events=0,
    )
    values.update(overrides)
    return NodeMetrics(**values)


def test_node_metrics_round_trips_through_json():
    original = node()
    payload = json.loads(json.dumps(original.to_dict()))
    assert NodeMetrics.from_dict(payload) == original


def test_node_metrics_schema_is_exactly_the_fields():
    expected = {field.name for field in dataclasses.fields(NodeMetrics)}
    assert set(node().to_dict()) == expected


def test_node_metrics_rejects_unknown_keys():
    payload = node().to_dict()
    payload["surprise"] = 1
    with pytest.raises(ValueError, match="unknown NodeMetrics fields: surprise"):
        NodeMetrics.from_dict(payload)


def engine_metrics():
    return EngineMetrics(
        backend="parallel",
        elapsed_seconds=0.5,
        nodes=[node(), node(node_id=4, pid=1235, reused_worker=False)],
        processes_spawned=1,
        processes_reused=1,
        spawn_seconds=0.01,
        stages_fused=1,
        commands_fused=2,
        relays_elided=1,
        splits_ranged=1,
        cats_gathered=1,
        edges_direct=2,
        edges_buffered=1,
    )


def test_engine_metrics_round_trips_through_json():
    original = engine_metrics()
    payload = json.loads(json.dumps(original.to_dict()))
    restored = EngineMetrics.from_dict(payload)
    assert restored == original
    # A second trip is byte-stable (the schema is deterministic).
    assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
        original.to_dict(), sort_keys=True
    )


def test_engine_metrics_derived_block_matches_properties():
    metrics = engine_metrics()
    derived = metrics.to_dict()["derived"]
    assert derived["worker_count"] == metrics.worker_count == 2
    assert derived["total_bytes_moved"] == metrics.total_bytes_moved == 200
    assert derived["total_node_seconds"] == pytest.approx(0.5)
    assert derived["worker_utilization"] == pytest.approx(metrics.worker_utilization)


def test_engine_metrics_from_dict_ignores_derived_and_rejects_unknown():
    payload = engine_metrics().to_dict()
    assert EngineMetrics.from_dict(payload) == engine_metrics()
    payload["bogus"] = True
    with pytest.raises(ValueError, match="unknown EngineMetrics fields: bogus"):
        EngineMetrics.from_dict(payload)


def test_shape_counters_merge_like_their_neighbours_and_show_in_the_summary():
    total = engine_metrics()
    total.merge(engine_metrics())
    assert (total.relays_elided, total.splits_ranged, total.cats_gathered) == (2, 2, 2)
    assert "2 splits as file ranges, 2 cats gathered" in total.summary()
    assert "file ranges" not in EngineMetrics().summary()
