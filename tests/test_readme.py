"""The README's scenario example must stay a scenario the parser accepts."""

import re
from pathlib import Path

from crossings.scenario import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def test_scenario_example_parses():
    readme = README.read_text()
    example = re.search(r"## Scenario files.*?```\n(.*?)```", readme, re.S).group(1)
    scenario = parse_scenario(example, name="readme")
    keys = set(re.findall(r"^(\w+) =", example, re.M))
    assert {"d_c", "b_max", "h_f", "patience"} <= keys
    assert scenario.params.d_c == 60 and scenario.patience == 20
    assert scenario.equipped["E"] == ("road", "crossing", "helper")
    # the named cells c0-c3 reach each other: one intersection, named cr
    [cr] = scenario.topo.intersections
    assert cr.id == "cr" and sorted(map(str, cr.segments)) == ["c0", "c1", "c2", "c3"]
