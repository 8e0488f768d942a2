"""The README's scenario example must stay a scenario the parser accepts."""

import re
from importlib import resources
from pathlib import Path

from crossings.scenario import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text, name):
    """The lines of one ``[name]`` section, up to the next section."""
    match = re.search(rf"^\[{name}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert match, f"no [{name}] section"
    return match.group(1)


def test_scenario_example_parses():
    readme = README.read_text()
    example = re.search(r"## Scenario files.*?```\n(.*?)```", readme, re.S).group(1)
    params = _section(example, "params")
    keys = {line.split("=")[0].strip() for line in params.splitlines()
            if "=" in line}
    assert {"d_c", "b_max", "h_f", "patience"} <= keys
    # the example's network is a fragment; run its cars and every documented
    # parameter on the full crossing of a bundled scenario
    bundled = resources.files("crossings").joinpath(
        "scenarios", "lone-left-turn.scn").read_text()
    text = ("[network]\n" + _section(bundled, "network")
            + "[cars]\n" + _section(example, "cars")
            + "[params]\n" + params)
    scenario = parse_scenario(text, name="readme")
    assert scenario.params.d_c == 60 and scenario.patience == 20
    assert scenario.equipped["E"] == ("road", "crossing", "helper")
