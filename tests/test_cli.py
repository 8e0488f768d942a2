import re
from importlib import resources

import pytest

from crossings.cli import main
from crossings.randomgen import sweep_scenario_text

EACH_COMMAND = pytest.mark.parametrize(
    "command", [["validate"], ["run"], ["check", "--formula", "true", "--car", "E"]],
    ids=["validate", "run", "check"])


def edited_copy(tmp_path, bundled, old, new):
    """A copy of a bundled scenario with the first ``old`` replaced by ``new``."""
    text = resources.files("crossings").joinpath("scenarios", bundled + ".scn").read_text()
    assert old in text
    path = tmp_path / "edited.scn"
    path.write_text(text.replace(old, new, 1))
    return path


class TestCheck:
    def test_formula_true_exits_zero(self, capsys):
        code = main([
            "check", "left-turn",
            "--formula", "<re(ego) ; free ; cs>",
            "--car", "E", "--mode", "exists",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_formula_false_exits_one(self, capsys):
        code = main([
            "check", "left-turn",
            "--formula", "<re(ego) & cs>",
            "--car", "E", "--mode", "exists",
        ])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_builtin_formula(self):
        assert main(["check", "left-turn", "--formula", "@ca",
                     "--car", "E", "--mode", "exists"]) == 0

    def test_potential_helper(self, capsys):
        # D approaches the crossing from the opposite side in E's first view
        # only, so @ph(D) holds in some view of E but not in all of them
        assert main(["check", "left-turn", "--formula", "@ph(D)", "--car", "E",
                     "--mode", "exists"]) == 0
        assert main(["check", "left-turn", "--formula", "@ph(D)", "--car", "E"]) == 1
        assert capsys.readouterr().out.split() == ["true", "false"]

    def test_disjoint_of_car_ids_is_an_error(self, capsys):
        # car ids are not sets of cells; their letters must not decide
        for text, var in (("@disjoint(ego, B)", "'ego'"), ("@disjoint(D, D)", "'D'")):
            assert main(["check", "left-turn", "--formula", text, "--car", "E"]) == 2
            assert var in capsys.readouterr().err

    def test_unknown_car(self, capsys):
        code = main(["check", "left-turn", "--formula", "true", "--car", "Z"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_formula(self, capsys):
        code = main(["check", "left-turn", "--formula", "re(", "--car", "E"])
        assert code == 2

    @pytest.mark.parametrize("formula", ["(" * 200 + "true" + ")" * 200,
                                         "!" * 5000 + "true"],
                             ids=["200-parentheses", "5000-negations"])
    def test_deeply_nested_formula_exits_2(self, capsys, formula):
        code = main(["check", "left-turn", "--formula", formula, "--car", "E"])
        assert code == 2
        assert "nested deeper than" in capsys.readouterr().err

    @pytest.mark.parametrize("formula, message", [
        ("$", "unexpected character '$' (at position 0)"),
        ("true)", "unexpected trailing input ')' (at position 4)"),
        ("l < 1.2.3", "bad number '1.2.3' (at position 4)"),
        ("foo", "bare identifier 'foo' is not a formula (at position 0)"),
        ("@nope", "unknown builtin @nope (at position 1)"),
        ("@pc", "@pc: takes 1 to 2 arguments, got 0 (at position 1)"),
        # the tokenizer reads no '-': length bounds are never negative
        ("l < -1", "unexpected character '-' (at position 4)"),
    ])
    def test_malformed_formula_exits_2(self, capsys, formula, message):
        assert main(["check", "left-turn", "--formula", formula, "--car", "E"]) == 2
        assert message in capsys.readouterr().err

    def test_fifty_deep_formula_evaluates(self, capsys):
        formula = "(" * 26 + "!" * 24 + "true" + ")" * 26  # 50 levels around true
        assert main(["check", "left-turn", "--formula", formula, "--car", "E"]) == 0
        assert capsys.readouterr().out == "true\n"


class TestValidate:
    def test_bundled_scenarios_validate(self):
        for name in ("left-turn", "lone-left-turn", "helper-yes",
                     "helper-no", "helper-timeout", "four-right-turns"):
            assert main(["validate", name]) == 0

    def test_broken_file(self, tmp_path, capsys):
        path = tmp_path / "broken.scn"
        path.write_text("[network]\nlane 0 -5\n[cars]\n")
        assert main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self):
        assert main(["validate", "/nowhere/else.scn"]) == 2

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_bytes(b"\xff\xfe")
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            assert f"{path}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, line, message", [
        ("[params]\n", "[params]\nh_b = 0\n", 38, "h_b must be positive, got '0'"),
        ("[params]\n", "[params]\nb_max = 0\n", 38, "b_max must be positive"),
        ("size=4", "size=0", 36, "size must be positive, got '0'"),
        ("size=4", "size=-4", 36, "size must be positive, got '-4'"),
        ("speed=10", "speed=-5", 36, "speed must be non-negative, got '-5'"),
        ("size=4", "size=4 braking=-30", 36, "braking must be non-negative"),
        ("max_time = 12", "max_time = -1", 39, "max_time must be positive"),
        ("[params]\n", "[params]\npatience = -1\n", 38, "patience must be positive"),
        *(("[params]\n", f"[params]\n{key} = 0\n", 38, f"{key} must be positive, got '0'")
          for key in ("d_c", "max_se", "t_o", "t_w", "t", "t_cr")),
        ("[params]\n", "[params]\nmax_se = -5\n", 38, "max_se must be positive, got '-5'"),
        ("dt = 0.05", "dt = 0", 38, "dt must be positive"),
        ("[params]\n", "[params]\nh_f = 10\n", 38, "h_f must cover d_c + max_se"),
        ("[params]\n", "[params]\nt = 0.5\n", 38,
         "helper reply bound t must be smaller than t_w"),
        ("[params]\n", "[params]\nt_w = 0.2\n", 38,
         "helper reply bound t must be smaller than t_w"),
        ("dt = 0.05", "dt = 1e-5", 38, "dt = 1e-05 is too small for max_time = 12.0"),
        # scenario rules; those checked on the whole snapshot name no line
        ("[params]\n", "[parms]\n", 37, "unknown section [parms]"),
        ("car E path", "cat E path", 36, "bad car line 'cat E path=7,c0,c1,c2,4 "),
        ("max_time = 12", "max_time 12", 39, "bad parameter line 'max_time 12'"),
        ("[network]\n", "stray\n[network]\n", 3, "content before any section: 'stray'"),
        ("max_time = 12", "max_time = soon", 39, "bad value for max_time: 'soon'"),
        ("lane 0 150", "lane 0 far", 4, "bad weight 'far'"),
        ("size=4", "size=4\ncar E path=7 pos=10", 37, "duplicate car E"),
        ("size=4", "size=4 fast", 36, "bad car field 'fast'"),
        ("path=7,c0,c1,c2,4", "path=7,c0,c1,c2,9", 36, "car E: path node 9 not in network"),
        ("path=7,c0,c1,c2,4", "path=7,c0,c2,4", 36,
         "car E: path adjacency c0 -> c2 is not a directed edge"),
        ("size=4", "size=4 node=0", 36, "car E: node 0 not on its path"),
        ("size=4", "size=4 controllers=road,pilot", 36, "unknown controller kind 'pilot'"),
        # a car may claim only the lane paired with its own, and not while it
        # holds crossing cells; E's rear is on lane 7, paired with 6
        *(("size=4", f"size=4 {fields}", 36,
           "car E: clm must be the lane paired with 7, and the car must hold no cres")
          for fields in ("clm=5", "clm=0", "clm=7", "clm=6 cres=c0,c1,c2")),
        # crossing bookings only as a controller makes them: a claim is the
        # crossing run next ahead, a reservation the whole run the car is on
        # or the next one ahead (c3 is not on E's path)
        *(("size=4", f"size=4 cres={cells}", 36,
           "car E: cres must be the whole crossing run the car is on or the next one "
           "ahead, c0,c1,c2")
          for cells in ("c3", "c1", "c0,c1", "c2")),
        *(("size=4", f"size=4 cclm={cells}", 36,
           "car E: cclm must be the next crossing run on its path, c0,c1,c2")
          for cells in ("c3", "c1")),
        ("path=7,c0,c1,c2,4 pos=100", "path=4 pos=148", None,
         "E: initial envelope runs past its path"),
        # network rules
        ("pair 6 7 r0", "pair 6 9 r0", None, "undirected edge (6,9) references unknown node"),
        ("edge 7 c0", "edge 7 c9", None, "directed edge (7,c9) references unknown node"),
        ("edge c0 c1", "edge c0 c0", None, "directed self-edge on c0"),
        ("pair 6 7 r0", "pair 7 7 r0", None, "undirected self-edge on 7"),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, old, new, line, message):
        path = edited_copy(tmp_path, "lone-left-turn", old, new)
        for command in ("validate", "run"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert (f"line {line}: {message}" if line else message) in err, err

    def test_standing_car_is_valid(self, tmp_path):
        assert main(["validate", str(edited_copy(tmp_path, "lone-left-turn",
                                                 "speed=10", "speed=0"))]) == 0


class TestMalformedScenario:
    """Bad input ends in exit code 2 with a message naming the line."""

    def run_edited(self, tmp_path, capsys, old, new):
        code = main(["run", str(edited_copy(tmp_path, "lone-left-turn", old, new))])
        return code, capsys.readouterr().err

    def test_bad_node_in_path(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "path=7,c0,c1,c2,4", "path=0,zz")
        assert code == 2
        assert "bad node id 'zz'" in err and "line 36" in err

    def test_bad_lane_id(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "lane 0 150", "lane x 100")
        assert code == 2
        assert "bad node id 'x'" in err and "line 4" in err

    def test_crossing_id_on_a_lane_line(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "cs c3 5", "lane c3 5")
        assert code == 2
        assert "c3 is not a lane id" in err and "line 15" in err

    def test_lane_id_on_a_cs_line(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "cs c3 5", "cs 3 5")
        assert code == 2
        assert "3 is not a crossing segment id" in err and "line 15" in err

    def test_unnamed_intersection(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "intersection cr =", "intersection =")
        assert code == 2
        assert "bad network line" in err and "line 32" in err

    def test_name_fitting_no_intersection(self, tmp_path, capsys):
        # c0 c1 c2 is part of the one intersection, not all of it
        code, err = self.run_edited(tmp_path, capsys, "cr = c0 c1 c2 c3", "cr = c0 c1 c2")
        assert code == 2
        assert "name 'cr' is given to c0 c1 c2, which is not one intersection" in err
        assert "line 32" in err

    def test_name_over_cells_that_do_not_reach_each_other(self, tmp_path, capsys):
        # without c3 -> c0 the ring is a chain: four one-cell intersections
        code, err = self.run_edited(tmp_path, capsys, "edge c3 c0", "edge c3 6")
        assert code == 2
        assert "c0 c1 c2 c3, which is not one intersection" in err and "line 32" in err

    def test_repeated_name(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "pair 0 1 r1", "pair 0 1 r0")
        assert code == 2
        assert "repeated name 'r0' (first on line 16)" in err and "line 17" in err

    def test_intersection_named_like_a_segment(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "intersection cr =", "intersection r2 =")
        assert code == 2
        assert "repeated name 'r2' (first on line 18)" in err and "line 32" in err

    def test_name_that_is_another_components_default_id(self, tmp_path, capsys):
        # unnamed, lanes 6 7 get the default id r3, which line 19 gives 4 5
        code, err = self.run_edited(tmp_path, capsys, "pair 6 7 r0", "pair 6 7")
        assert code == 2
        assert "name 'r3' is also another component's id" in err and "line 19" in err

    def test_second_name_for_one_intersection(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "c2 c3\n\n",
                                    "c2 c3\nintersection x = c3 c2 c1 c0\n")
        assert code == 2
        assert "name 'x' names the intersection 'cr' again" in err and "line 33" in err

    def test_infinite_max_time(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "max_time = 12", "max_time = inf")
        assert code == 2
        assert "max_time must be finite" in err

    def test_tiny_dt(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "dt = 0.05", "dt = 1e-300")
        assert code == 2
        assert "dt = 1e-300 is too small" in err

    def test_unknown_parameter(self, tmp_path, capsys):
        # budget and fuel are fixed by the engine, not set by scenarios
        for key in ("d_C = 30", "monitor = all", "budget = 1", "fuel = 64"):
            code, err = self.run_edited(tmp_path, capsys, "max_time = 12",
                                        f"max_time = 12\n{key}")
            assert code == 2
            assert f"unknown parameter {key.split()[0]!r}" in err and "line 40" in err

    def test_repeated_parameter(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "max_time = 12",
                                    "max_time = 12\nmax_time = 3")
        assert code == 2
        assert "repeated parameter 'max_time'" in err and "line 40" in err

    def test_unknown_car_field(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "speed=10", "sped=10")
        assert code == 2
        assert "unknown car field 'sped'" in err and "line 36" in err

    def test_bad_monitor_value(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "size=4", "size=4 monitor=nope")
        assert code == 2
        assert "monitor must be true or false" in err and "line 36" in err

    def test_bad_heading_value(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "size=4", "size=4 heading=nope")
        assert code == 2
        assert "heading must be true or false, got 'nope'" in err and "line 36" in err

    @pytest.mark.parametrize("cid", ["ego", "true", "free", "cs", "re", "cl", "dir", "l",
                                     "1A", "path=7,c0,c1,c2,4"])
    def test_car_id_formulas_cannot_name(self, tmp_path, capsys, cid):
        # "car path=7,..." once read as a car without a path
        code, err = self.run_edited(tmp_path, capsys, "car E ", f"car {cid} ")
        assert code == 2
        assert f"line 36: car id {cid!r} is not a name formulas can use" in err, err

    def test_repeated_car_field(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "speed=10", "speed=10 speed=3")
        assert code == 2
        assert "repeated car field 'speed'" in err and "line 36" in err

    def test_nan_speed(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "speed=10", "speed=nan")
        assert code == 2
        assert "speed must be finite" in err

    def test_repeated_node(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "lane 7 150", "lane 7 150\nlane 7 90")
        assert code == 2
        assert "repeated node 7 (first on line 11)" in err and "line 12" in err

    @EACH_COMMAND
    def test_rear_on_a_crossing_with_no_lane_before_it(self, tmp_path, capsys, command):
        path = edited_copy(tmp_path, "left-turn", "car A path=5,c3,6", "car A path=c3,6")
        code = main([command[0], str(path), *command[1:]])
        assert code == 2
        err = capsys.readouterr().err
        assert "car A: rear on crossing segment c3 with no lane before it" in err
        assert "line 37" in err

    @EACH_COMMAND
    def test_envelope_wider_than_max_se(self, tmp_path, capsys, command):
        # sweep seed 87 at 2.5 times its speeds: car A's envelope is 78.4 m,
        # and without this rule the run is unsafe
        path = tmp_path / "fast.scn"
        path.write_text(re.sub(r"speed=([0-9.]+)",
                               lambda m: f"speed={float(m.group(1)) * 2.5:g}",
                               sweep_scenario_text(87)))
        assert main([command[0], str(path), *command[1:]]) == 2
        assert ("line 33: car A: safety envelope size + braking = 78.3525 m "
                "exceeds max_se = 40") in capsys.readouterr().err


class TestRun:
    def test_safe_run_exits_zero(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        code = main(["run", "lone-left-turn", "--trace", str(trace)])
        assert code == 0
        assert capsys.readouterr().out.startswith("safe")
        assert trace.exists() and trace.stat().st_size > 0

    def test_zero_ticks_leaves_only_the_initial_snapshot(self, tmp_path):
        trace = tmp_path / "t0.trace"
        assert main(["run", "lone-left-turn", "--ticks", "0",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all(line.split()[1] == "Snapshot" for line in lines)
        assert all(line.startswith("0.000 ") for line in lines)

    @pytest.mark.parametrize("ticks", ["-5", "1000001"])
    def test_ticks_out_of_range_is_a_usage_error(self, capsys, ticks):
        assert main(["run", "lone-left-turn", "--ticks", ticks]) == 2
        assert "--ticks" in capsys.readouterr().err

    def test_generated_sweep_scenario_is_reachable(self):
        assert main(["run", "sweep", "--seed", "3", "--ticks", "40"]) == 0

    def test_seed_for_a_scenario_file_is_a_usage_error(self, capsys):
        assert main(["run", "lone-left-turn", "--seed", "5"]) == 2
        assert ("--seed applies only to the generated 'sweep' scenario"
                in capsys.readouterr().err)

    def test_unsafe_run_exits_one(self, tmp_path, capsys):
        # two driverless cars forced onto the same crossing cell
        path = tmp_path / "collision-course.scn"
        path.write_text("""
[network]
lane 1 150
lane 0 150
lane 2 150
lane 3 150
lane 6 150
lane 7 150
cs c0 5
cs c1 5
pair 6 7 r0
pair 0 1 r1
pair 2 3 r2
edge 7 c0
edge 1 c1
edge c0 c1
edge c1 c0
edge c0 0
edge c1 2
[cars]
car A path=7,c0,c1,2 pos=130 speed=10 size=4 cres=c0,c1 controllers=none
car B path=1,c1,c0,0 pos=130 speed=10 size=4 cres=c1,c0 controllers=none
[params]
dt = 0.1
max_time = 6
""")
        code = main(["run", str(path)])
        assert code == 1
        assert capsys.readouterr().out == "unsafe: A and B overlap on c0 at t=1.500\n"

    def test_usage_error(self):
        assert main(["run"]) == 2
        assert main(["frobnicate", "x"]) == 2
