from crossings.cli import main


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

    def test_unknown_car(self, capsys):
        code = main(["check", "left-turn", "--formula", "true", "--car", "Z"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_formula(self, capsys):
        code = main(["check", "left-turn", "--formula", "re(", "--car", "E"])
        assert code == 2


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


class TestMalformedScenario:
    """Bad input ends in exit code 2 with a message naming the line."""

    def run_edited(self, tmp_path, capsys, old, new):
        from importlib import resources

        text = resources.files("crossings").joinpath(
            "scenarios", "lone-left-turn.scn").read_text()
        assert old in text
        path = tmp_path / "edited.scn"
        path.write_text(text.replace(old, new, 1))
        code = main(["run", str(path)])
        return code, capsys.readouterr().err

    def test_bad_node_in_path(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "path=7,c0,c1,c2,4", "path=0,zz")
        assert code == 2
        assert "bad node id 'zz'" in err and "line 36" in err

    def test_bad_lane_id(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "lane 0 150", "lane x 100")
        assert code == 2
        assert "bad node id 'x'" in err and "line 4" in err

    def test_unnamed_intersection(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "intersection cr =", "intersection =")
        assert code == 2
        assert "bad network line" in err and "line 32" in err

    def test_infinite_max_time(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "max_time = 12", "max_time = inf")
        assert code == 2
        assert "max_time must be finite" in err

    def test_tiny_dt(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "dt = 0.05", "dt = 1e-300")
        assert code == 2
        assert "dt = 1e-300 is too small" in err

    def test_unknown_parameter(self, tmp_path, capsys):
        for key in ("d_C = 30", "monitor = all"):
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

    def test_nan_speed(self, tmp_path, capsys):
        code, err = self.run_edited(tmp_path, capsys, "speed=10", "speed=nan")
        assert code == 2
        assert "speed must be finite" in err


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

    def test_generated_sweep_scenario_is_reachable(self):
        assert main(["run", "sweep", "--seed", "3", "--ticks", "40"]) == 0

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
        assert capsys.readouterr().out.startswith("unsafe")

    def test_usage_error(self):
        assert main(["run"]) == 2
        assert main(["frobnicate", "x"]) == 2
