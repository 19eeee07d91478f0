"""PashConfig: the one run-path config object, round-trippable."""

import dataclasses
import json

import pytest

from repro.api import ClusterOptions, EagerMode, Pash, PashConfig, SplitMode, StreamingConfig
from repro.cli import build_parser
from repro.engine.channels import DEFAULT_CHUNK_SIZE, DEFAULT_SPILL_THRESHOLD


def test_defaults():
    config = PashConfig()
    assert config.width == 2
    assert config.eager is EagerMode.EAGER
    assert config.split is SplitMode.GENERAL
    assert config.aggregation_fan_in == 2
    assert config.fuse_stages is True
    assert config.backend == "interpreter"


def test_is_frozen_and_hashable():
    config = PashConfig.paper_default(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.width = 8
    assert hash(config) == hash(PashConfig.paper_default(4))


def test_named_constructors_mirror_the_fig7_configurations():
    assert PashConfig.paper_default(8).split is SplitMode.GENERAL
    assert PashConfig.no_eager(8).eager is EagerMode.NONE
    assert PashConfig.no_eager(8).split is SplitMode.NONE
    assert PashConfig.blocking_eager(8).eager is EagerMode.BLOCKING
    assert PashConfig.parallel_only(8).split is SplitMode.NONE
    assert PashConfig.blocking_split(8).split is SplitMode.INPUT_AWARE
    named = PashConfig.named_configurations(8)
    assert set(named) == {
        "Par + Split",
        "Par + B. Split",
        "Parallel",
        "Blocking Eager",
        "No Eager",
    }
    assert all(config.width == 8 for config in named.values())


@pytest.mark.parametrize(
    "config",
    [
        PashConfig(),
        PashConfig.paper_default(16),
        PashConfig.no_eager(4, aggregation_fan_in=4),
        PashConfig(
            width=7,
            eager=EagerMode.BLOCKING,
            split=SplitMode.INPUT_AWARE,
            disabled_passes=("eager-relays",),
            backend="parallel",
            use_host_commands=True,
            streaming=StreamingConfig(chunk_size=4096),
            fifo_directory="/dev/shm",
            fifo_prefix="edge",
            cluster=ClusterOptions(workers=4, heartbeat_timeout=2.0),
        ),
    ],
)
def test_to_dict_from_dict_round_trips(config):
    payload = config.to_dict()
    json.dumps(payload)  # must be plain JSON-able data (the future cache key)
    assert PashConfig.from_dict(payload) == config


def test_streaming_defaults_are_the_engine_defaults_and_round_trip():
    # The config package may not import the engine, so the section spells the
    # engine's defaults out; this pins the two declarations together.
    streaming = StreamingConfig()
    assert streaming.chunk_size == DEFAULT_CHUNK_SIZE == 64 * 1024
    assert streaming.spill_threshold == DEFAULT_SPILL_THRESHOLD == 8 * 1024 * 1024
    assert streaming.spill_directory is None
    payload = PashConfig().to_dict()
    assert payload["streaming"] == {
        "chunk_size": 65536,
        "spill_threshold": 8388608,
        "spill_directory": None,
    }
    assert "chunk_size" not in payload  # the deprecated top-level alias is gone
    assert PashConfig.from_dict(json.loads(json.dumps(payload))) == PashConfig()


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown PashConfig fields"):
        PashConfig.from_dict({"widht": 4})


def test_from_dict_accepts_enum_strings():
    config = PashConfig.from_dict({"width": 3, "eager": "blocking", "split": "none"})
    assert config.eager is EagerMode.BLOCKING
    assert config.split is SplitMode.NONE


def test_coerce_accepts_none_or_a_config_and_rejects_junk():
    assert PashConfig.coerce(None) == PashConfig()
    config = PashConfig.paper_default(2)
    assert PashConfig.coerce(config) is config
    with pytest.raises(TypeError):
        PashConfig.coerce(42)


@pytest.mark.parametrize(
    "payload",
    [
        {"adaptive_width": True},
        {"minimum_copies": 3},
        {"emit_header": True},
        {"cluster": {"streaming": {"chunk_size": 4096}}},
        {"cluster": {"fault_plan": None}},
        {"cluster": {"report_timeout_seconds": 5.0}},
        {"resilience": {"retry_max_seconds": 1.0}},
        {"obs": {"trace_sample_seed": 7}},
    ],
)
def test_from_dict_rejects_the_removed_fields(payload):
    with pytest.raises(ValueError, match="unknown .* fields"):
        PashConfig.from_dict(payload)


def test_the_cluster_section_is_the_coordinators_options_and_null_means_default():
    assert PashConfig().to_dict()["cluster"] == {
        "workers": 2,
        "connect": None,
        "heartbeat_interval": 0.5,
        "heartbeat_timeout": 10.0,
        "register_timeout_seconds": 30.0,
    }
    # A dict written by the previous surface carried ``None`` heartbeats.
    config = PashConfig.from_dict(
        {"cluster": {"workers": 3, "heartbeat_interval": None, "heartbeat_timeout": None}}
    )
    assert config.cluster == ClusterOptions(workers=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.cluster.workers = 4


def test_width_is_never_silently_clamped_to_the_cores():
    compiled = Pash(PashConfig(width=64)).compile("cat a.txt | grep x")
    labels = [node.label() for node in compiled.optimized_graphs[0].nodes.values()]
    assert sum(label.startswith("grep") for label in labels) == 64


def test_from_cli_args_subsumes_the_flag_surface():
    arguments = build_parser().parse_args(
        [
            "x.sh",
            "--width",
            "9",
            "--blocking-eager",
            "--split",
            "input-aware",
            "--fan-in",
            "4",
            "--disable-pass",
            "eager-relays",
            "--execute",
            "parallel",
        ]
    )
    config = PashConfig.from_cli_args(arguments)
    assert config.width == 9
    assert config.eager is EagerMode.BLOCKING
    assert config.split is SplitMode.INPUT_AWARE
    assert config.aggregation_fan_in == 4
    assert config.disabled_passes == ("eager-relays",)
    assert config.backend == "parallel"


def test_replace_returns_modified_copy():
    base = PashConfig.paper_default(4)
    wider = base.replace(width=16)
    assert wider.width == 16 and base.width == 4
    assert wider.split is base.split
