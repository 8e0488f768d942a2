"""Scenario files: network, initial car states and protocol parameters.

Line-oriented sectioned text, diff-friendly:

    [network]
    lane 7 150            # lane <index> <length-m>
    cs c0 5               # crossing segment <id> <length-m>
    pair 6 7 r0           # undirected lane pair, optional segment name
    edge 7 c0             # directed edge
    intersection cr = c0 c1 c2 c3   # optional intersection name
    [cars]
    car E path=7,c0,c1,c2,4 pos=100 speed=8 size=4 controllers=road,crossing,helper
    [params]
    d_c = 60

Car fields: path (required), pos, speed, size, braking (defaults to
speed^2 / (2 b_max)), node (path element the rear is on), heading, res, clm,
cres, cclm, controllers (road,crossing,helper or none), monitor (true or
false, default true: whether the safety monitor judges the car).  Unknown
or repeated parameters and unknown car fields are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .formulas import col_witness
from .network import NodeId, Topology, UrbanRoadNetwork, check_path
from .params import ProtocolParams
from .snapshot import (
    CarState,
    PathExhausted,
    TrafficSnapshot,
    braking_distance,
    safety_envelope,
    sanity_check,
)
from .views import build_multiview

CONTROLLER_KINDS = ("road", "crossing", "helper")
CAR_FIELDS = ("path", "pos", "speed", "size", "braking", "node", "heading",
              "res", "clm", "cres", "cclm", "controllers", "monitor")
MAX_TICKS = 1_000_000  # the bundled scenarios need at most 2,400


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    topo: Topology
    cars: dict            # car id -> CarState
    equipped: dict        # car id -> tuple of controller kinds
    monitored: list
    params: ProtocolParams = ProtocolParams()
    h_b: float = 50.0
    h_f: float = 150.0
    dt: float = 0.05
    max_time: float = 60.0
    b_max: float = 8.0
    patience: float = 20.0
    budget: int = 1
    fuel: int = 64

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(dict(self.cars), self.topo.net)

    @property
    def ticks(self) -> int:
        return int(round(self.max_time / self.dt))


def _err(line_no: int, message: str):
    raise ScenarioError(f"line {line_no}: {message}")


def _finite(line_no, value, text, what):
    if not math.isfinite(value):
        _err(line_no, f"{what} must be finite, got {text!r}")
    return value


def _parse_float(line_no, text, what):
    try:
        value = float(text)
    except ValueError:
        _err(line_no, f"bad {what} {text!r}")
    return _finite(line_no, value, text, what)


def _node(line_no, text):
    try:
        return NodeId.parse(text)
    except ValueError:
        _err(line_no, f"bad node id {text!r}")


def _parse_nodes(line_no, text):
    if text in ("", "-"):
        return frozenset()
    return frozenset(_node(line_no, p) for p in text.split(",") if p)


def parse_scenario(text: str, name: str = "<string>") -> Scenario:
    weights = {}
    directed = []
    undirected = []
    segment_names = {}
    intersection_names = {}
    car_lines = []
    raw_params = {}
    section = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[network]", "[cars]", "[params]"):
                _err(line_no, f"unknown section {line}")
            section = line[1:-1]
            continue
        if section == "network":
            parts = line.split()
            if parts[0] == "lane" and len(parts) == 3:
                weights[_node(line_no, parts[1])] = _parse_float(line_no, parts[2], "weight")
            elif parts[0] == "cs" and len(parts) == 3:
                node = _node(line_no, parts[1])
                if not node.is_crossing:
                    _err(line_no, f"{parts[1]} is not a crossing segment id")
                weights[node] = _parse_float(line_no, parts[2], "weight")
            elif parts[0] == "edge" and len(parts) == 3:
                directed.append((_node(line_no, parts[1]), _node(line_no, parts[2])))
            elif parts[0] == "pair" and len(parts) in (3, 4):
                a, b = _node(line_no, parts[1]), _node(line_no, parts[2])
                undirected.append((a, b))
                if len(parts) == 4:
                    segment_names[parts[3]] = frozenset((a, b))
            elif parts[0] == "intersection" and len(line.split("=")[0].split()) == 2:
                head, _, tail = line.partition("=")
                cname = head.split()[1]
                intersection_names[cname] = frozenset(
                    _node(line_no, p) for p in tail.split()
                )
            else:
                _err(line_no, f"bad network line {line!r}")
        elif section == "cars":
            if not line.startswith("car "):
                _err(line_no, f"bad car line {line!r}")
            car_lines.append((line_no, line))
        elif section == "params":
            if "=" not in line:
                _err(line_no, f"bad parameter line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in raw_params:
                _err(line_no, f"repeated parameter {key!r} "
                              f"(first on line {raw_params[key][0]})")
            raw_params[key] = (line_no, value.strip())
        else:
            _err(line_no, f"content before any section: {line!r}")

    net = UrbanRoadNetwork(weights, directed, undirected)
    try:
        topo = Topology(net, segment_names or None, intersection_names or None)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    def param(key, default, cast=float):
        if key not in raw_params:
            return default
        line_no, value = raw_params.pop(key)
        try:
            out = cast(value)
        except ValueError:
            _err(line_no, f"bad value for {key}: {value!r}")
        return _finite(line_no, out, value, key) if cast is float else out

    params = ProtocolParams(
        d_c=param("d_c", 60.0),
        max_se=param("max_se", 40.0),
        t_o=param("t_o", 5.0),
        t_w=param("t_w", 0.5),
        t=param("t", 0.3),
        t_cr=param("t_cr", 10.0),
    )
    b_max = param("b_max", 8.0)
    scenario = Scenario(
        name=name,
        topo=topo,
        cars={},
        equipped={},
        monitored=[],
        params=params,
        h_b=param("h_b", 50.0),
        h_f=param("h_f", params.d_c + params.max_se + 50.0),
        dt=param("dt", 0.05),
        max_time=param("max_time", 60.0),
        b_max=b_max,
        patience=param("patience", 20.0),
        budget=param("budget", 1, int),
        fuel=param("fuel", 64, int),
    )
    for key, (line_no, _) in raw_params.items():  # read by no param() above
        _err(line_no, f"unknown parameter {key!r}")

    for line_no, line in car_lines:
        tokens = line.split()
        cid = tokens[1]
        if cid in scenario.cars:
            _err(line_no, f"duplicate car {cid}")
        fields = {}
        for token in tokens[2:]:
            if "=" not in token:
                _err(line_no, f"bad car field {token!r}")
            key, _, value = token.partition("=")
            if key not in CAR_FIELDS:
                _err(line_no, f"unknown car field {key!r}")
            fields[key] = value
        if "path" not in fields:
            _err(line_no, f"car {cid} needs a path")
        path = tuple(_node(line_no, p) for p in fields["path"].split(","))
        try:
            check_path(net, path)
        except ValueError as exc:
            _err(line_no, f"car {cid}: {exc}")
        curr = 0
        if "node" in fields:
            node = _node(line_no, fields["node"])
            if node not in path:
                _err(line_no, f"car {cid}: node {node} not on its path")
            curr = path.index(node)
        speed = _parse_float(line_no, fields.get("speed", "0"), "speed")
        braking = (
            _parse_float(line_no, fields["braking"], "braking")
            if "braking" in fields
            else braking_distance(speed, b_max)
        )
        res = _parse_nodes(line_no, fields.get("res", ""))
        cres = _parse_nodes(line_no, fields.get("cres", ""))
        if not res and path[curr].is_lane:
            res = frozenset({path[curr]})
        state = CarState(
            path=path,
            curr=curr,
            pos=_parse_float(line_no, fields.get("pos", "0"), "pos"),
            speed=speed,
            size=_parse_float(line_no, fields.get("size", "4"), "size"),
            braking=braking,
            heading_with_lane=fields.get("heading", "true").lower() != "false",
            clm=_parse_nodes(line_no, fields.get("clm", "")),
            res=res,
            cclm=_parse_nodes(line_no, fields.get("cclm", "")),
            cres=cres,
        )
        scenario.cars[cid] = state
        raw = fields.get("controllers", "road,crossing,helper")
        kinds = () if raw == "none" else tuple(raw.split(","))
        for kind in kinds:
            if kind not in CONTROLLER_KINDS:
                _err(line_no, f"unknown controller kind {kind!r}")
        scenario.equipped[cid] = kinds
        monitor = fields.get("monitor", "true")
        if monitor not in ("true", "false"):
            _err(line_no, f"car {cid}: monitor must be true or false, got {monitor!r}")
        if monitor == "true":
            scenario.monitored.append(cid)

    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(f"{name}: " + "; ".join(problems))
    return scenario


def validate_scenario(scenario: Scenario) -> list[str]:
    problems = list(scenario.params.validate())
    if scenario.dt <= 0:
        problems.append("dt must be positive")
    elif scenario.max_time / scenario.dt > MAX_TICKS:
        problems.append(f"dt = {scenario.dt!r} is too small: max_time / dt "
                        f"exceeds {MAX_TICKS:,} ticks")
    if scenario.h_f < scenario.params.d_c_prime:
        problems.append("h_f must cover d_c + max_se")
    ts = scenario.snapshot()
    problems.extend(sanity_check(ts))
    for cid in ts.car_ids():
        try:
            safety_envelope(ts, cid)
        except PathExhausted:
            problems.append(f"{cid}: initial envelope runs past its path")
    if not problems:
        for cid in scenario.monitored:
            mv = build_multiview(scenario.topo, ts, cid, scenario.h_b, scenario.h_f)
            hit = col_witness(ts, mv, cid, ground_truth=True)
            if hit is not None:
                problems.append(
                    f"initial snapshot violates Safe({cid}): overlap with {hit[0]}"
                )
                break
    return problems


def bundled_scenarios() -> list[str]:
    root = resources.files("crossings").joinpath("scenarios")
    return sorted(p.name[: -len(".scn")] for p in root.iterdir() if p.name.endswith(".scn"))


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a file path or by bundled name."""
    path = Path(spec)
    if path.exists():
        return parse_scenario(path.read_text(), name=path.stem)
    bundle = resources.files("crossings").joinpath("scenarios", spec + ".scn")
    if bundle.is_file():
        return parse_scenario(bundle.read_text(), name=spec)
    raise ScenarioError(f"no such scenario file or bundled name: {spec!r}")
