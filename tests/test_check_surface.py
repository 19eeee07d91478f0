"""tools/check_surface.py: the size/surface numbers and their growth gate."""

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
    # The run path has exactly one config type plus its streaming section.
    assert current["option_fields"]["PashConfig"] <= 23
    assert current["option_fields"]["StreamingConfig"] == 3


def test_growth_names_every_number_past_its_baseline():
    baseline = check_surface.measure()
    grown = copy.deepcopy(baseline)
    grown["src_lines"] += 1
    grown["public_names"]["repro.engine"] += 1
    grown["option_fields"]["PashConfig"] += 1
    grown["option_fields"]["BrandNewOptions"] = 2
    problems = check_surface.growth(grown, baseline)
    assert len(problems) == 4
    shrunk = copy.deepcopy(baseline)
    shrunk["src_lines"] -= 100
    assert check_surface.growth(shrunk, baseline) == []
