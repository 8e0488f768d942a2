"""The README's examples must stay a scenario the parser accepts and
commands that run as documented."""

import re
import shlex
from pathlib import Path

from crossings.cli import main
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


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    section = re.search(r"## Command line\n(.*?)\n## ", README.read_text(), re.S).group(1)
    examples = re.findall(r"```sh\n(.*?)```", section, re.S)[-1].splitlines()
    monkeypatch.chdir(tmp_path)  # the run example writes its trace here
    first_lines = []
    for line in examples:
        program, *argv = shlex.split(line)
        assert program == "crossings"
        assert main(argv) == 0, line
        first_lines.append(capsys.readouterr().out.splitlines()[0])
    assert first_lines == ["true", "safe"]
    assert (tmp_path / "lone.trace").stat().st_size > 0
