"""ResilienceConfig: defaults, round trips, CLI engagement, plan threading."""

import argparse

import pytest

from repro.api import PashConfig, ResilienceConfig
from repro.jit.cache import config_digest
from repro.resilience.fault import SPILL_WRITE, FaultSpec


def test_defaults_are_inactive():
    section = ResilienceConfig()
    assert not section.active
    assert section.fault_plan() is None
    assert PashConfig().resilience == section


def test_either_knob_activates():
    assert ResilienceConfig(max_retries=1).active
    assert ResilienceConfig(degrade=True).active
    assert not ResilienceConfig(max_retries=0, degrade=False).active


def test_validation():
    with pytest.raises(ValueError):
        ResilienceConfig(max_retries=-1)
    with pytest.raises(ValueError):
        ResilienceConfig(deadline_seconds=-0.5)


def test_dict_round_trip_with_faults():
    section = ResilienceConfig(
        max_retries=3,
        degrade=True,
        fault_seed=9,
        faults=(FaultSpec(point=SPILL_WRITE),),
    )
    clone = ResilienceConfig.coerce(section.to_dict())
    assert clone == section
    with pytest.raises(ValueError, match="unknown ResilienceConfig fields"):
        ResilienceConfig.coerce({"max_retries": 1, "bogus": True})


def test_pash_config_round_trip_and_hashability():
    config = PashConfig(
        resilience=ResilienceConfig(
            max_retries=2, degrade=True, faults=(FaultSpec(point=SPILL_WRITE),)
        )
    )
    hash(config)  # frozen specs keep the whole config hashable
    clone = PashConfig.from_dict(config.to_dict())
    assert clone.resilience == config.resilience


def test_retry_policy_reflects_the_section():
    policy = ResilienceConfig(
        max_retries=4, retry_base_seconds=0.2, deadline_seconds=7.0
    ).retry_policy()
    assert policy.max_retries == 4
    assert policy.base_seconds == 0.2
    assert policy.deadline_seconds == 7.0


def test_fault_plans_are_fresh_per_call():
    section = ResilienceConfig(faults=(FaultSpec(point=SPILL_WRITE),), fault_seed=2)
    first, second = section.fault_plan(), section.fault_plan()
    assert first is not second
    with pytest.raises(OSError):
        first.fire(SPILL_WRITE)
    with pytest.raises(OSError):  # pristine counters: the second plan re-arms
        second.fire(SPILL_WRITE)


def test_scheduler_and_cluster_coordinator_carry_the_plan():
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.engine.scheduler import ParallelScheduler

    config = PashConfig(
        resilience=ResilienceConfig(faults=(FaultSpec(point=SPILL_WRITE),))
    )
    assert ParallelScheduler(config=config)._faults is not None
    assert ClusterCoordinator(config=config)._faults is not None
    bare = PashConfig()
    assert ParallelScheduler(config=bare)._faults is None
    assert ClusterCoordinator(config=bare)._faults is None


def test_resilience_does_not_fragment_the_plan_cache():
    base = PashConfig()
    armed = PashConfig(resilience=ResilienceConfig(max_retries=3, degrade=True))
    assert config_digest(base) == config_digest(armed)


# ---------------------------------------------------------------------------
# CLI engagement (--max-retries / --no-degrade / --fault-plan)
# ---------------------------------------------------------------------------


def _args(**values):
    flags = {"max_retries": None, "no_degrade": False, "fault_plan": None}
    return argparse.Namespace(**{**flags, **values})


def test_cli_unengaged_by_default():
    section = ResilienceConfig.from_cli_args(_args())
    assert section == ResilienceConfig()


def test_cli_max_retries_engages_and_defaults_degrade_on():
    section = ResilienceConfig.from_cli_args(_args(max_retries=3))
    assert section.max_retries == 3
    assert section.degrade is True


def test_cli_no_degrade_opts_out():
    section = ResilienceConfig.from_cli_args(_args(max_retries=1, no_degrade=True))
    assert section.max_retries == 1
    assert section.degrade is False


def test_cli_fault_plan_engages_and_loads(tmp_path):
    import json

    path = tmp_path / "plan.json"
    path.write_text(
        json.dumps({"seed": 42, "faults": [{"point": SPILL_WRITE, "mode": "error"}]})
    )
    section = ResilienceConfig.from_cli_args(_args(fault_plan=str(path)))
    assert section.fault_seed == 42
    assert section.faults == (FaultSpec(point=SPILL_WRITE),)
    assert section.degrade is True
