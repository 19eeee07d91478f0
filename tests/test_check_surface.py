"""tools/check_surface.py: the size/surface numbers and their growth gate."""

import ast
import copy
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import check_surface  # noqa: E402


def test_tree_is_within_the_committed_baseline():
    baseline = json.loads(check_surface.BASELINE.read_text())
    current = check_surface.measure()
    assert check_surface.growth(current, baseline) == []
    # The run path has exactly one config type; the cluster tier's options
    # are a section of it, not a second copy of its fields.
    assert current["option_fields"]["PashConfig"] <= 19
    assert current["option_fields"]["StreamingConfig"] == 3
    assert current["option_fields"]["ClusterOptions"] == 5
    assert "ClusterConfig" not in current["option_fields"]
    assert sum(current["option_fields"].values()) <= 49
    assert sorted(current["cli_flags"]) == [
        "repro.cli",
        "repro.cluster.worker",
        "repro.runtime.cli",
        "repro.service.client",
        "repro.service.daemon",
        "repro.service.top",
    ]
    assert sum(current["cli_flags"].values()) <= 65


def test_growth_names_every_number_past_its_baseline():
    baseline = check_surface.measure()
    grown = copy.deepcopy(baseline)
    grown["src_lines"] += 1
    grown["public_names"]["repro.engine"] += 1
    grown["option_fields"]["PashConfig"] += 1
    grown["option_fields"]["BrandNewOptions"] = 2
    grown["cli_flags"]["repro.cli"] += 1
    grown["cli_flags"]["repro.brand_new_cli"] = 1
    problems = check_surface.growth(grown, baseline)
    assert len(problems) == 6
    shrunk = copy.deepcopy(baseline)
    shrunk["src_lines"] -= 100
    assert check_surface.growth(shrunk, baseline) == []


def test_update_lowers_src_lines_and_refuses_to_raise_it(tmp_path, monkeypatch, capsys):
    current = check_surface.measure()
    baseline = tmp_path / "surface.json"
    monkeypatch.setattr(check_surface, "BASELINE", baseline)

    baseline.write_text(json.dumps({**current, "src_lines": current["src_lines"] + 10}))
    assert check_surface.main(["check_surface.py", "--update"]) == 0
    assert json.loads(baseline.read_text())["src_lines"] == current["src_lines"]

    smaller = json.dumps({**current, "src_lines": current["src_lines"] - 1})
    baseline.write_text(smaller)
    assert check_surface.main(["check_surface.py", "--update"]) == 1
    assert baseline.read_text() == smaller  # untouched: raising it is a hand edit
    assert "only lowers src_lines" in capsys.readouterr().err


def test_only_obs_and_service_import_the_metrics_registry():
    """One count per event: nothing below the daemon knows a registry exists."""
    assert check_surface.registry_importers() == []
    for spelling in (
        "import repro.obs.metrics",
        "from repro.obs.metrics import MetricsRegistry",
        "def f():\n    from repro.obs import metrics as m",
    ):
        assert check_surface.imports_registry(ast.parse(spelling)), spelling
    for spelling in ("from repro.obs.tracer import Tracer", "from repro.engine import metrics"):
        assert not check_surface.imports_registry(ast.parse(spelling)), spelling
