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
speed^2 / (2 b_max)), node (path element the rear is on), heading (true or
false, default true), res, clm, cres, cclm, controllers (road,crossing,helper
or none), monitor (true or false, default true: whether the safety monitor
judges the car).  Unknown or repeated parameters and car fields are errors,
and so are a ``lane`` or ``cs`` line that declares a node again, a ``pair``
or ``intersection`` name that repeats, that does not fit exactly one
component, or that another component has as its id, a car id that formulas
cannot name (not one identifier, ``ego`` or a word of their syntax), a car
whose rear is on a crossing segment with no lane before it on its path, a
car whose safety envelope (size + braking) is wider than ``max_se``, the
widest envelope the protocol's distance bounds allow for a hidden car, and a
car with a lane claim ``clm`` that is not exactly the lane paired with the
lane its rear is on, or that holds a ``cres`` too: a car may claim only the
lane beside its own.  A car whose controllers include ``crossing`` holds
no ``cres`` and no ``cclm``: that controller starts in q0, which holds no
crossing booking, and releases one only from its on-crossing states.  A
car without a crossing controller is a scripted obstacle that never
reserves, so its bookings are scenery, bound only by the sanity conditions.
Every parameter must be positive, ``t`` below ``t_w``, ``h_f`` at least
``d_c + max_se`` and ``max_time / dt`` at most ``MAX_TICKS``; a parameter
that breaks one of these is reported on its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from importlib import resources
from pathlib import Path

from .logic import names_a_car
from .network import ComponentNameError, NodeId, Topology, UrbanRoadNetwork, check_path
from .params import ProtocolParams
from .snapshot import (
    B_MAX,
    CarState,
    PathExhausted,
    TrafficSnapshot,
    braking_distance,
    safety_envelope,
    sanity_check,
)
from .views import build_multiview, collisions

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
    patience: float = 20.0

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(dict(self.cars), self.topo.net)

    @property
    def ticks(self) -> int:
        return int(round(self.max_time / self.dt))


def _err(line_no: int, message: str):
    raise ScenarioError(f"line {line_no}: {message}")


def _checked(line_no, value, text, what, sign=None):
    """The value, unless it is not finite or ``sign`` ("positive" or
    "non-negative") rules it out."""
    if not math.isfinite(value):
        _err(line_no, f"{what} must be finite, got {text!r}")
    if sign == "positive" and value <= 0 or sign == "non-negative" and value < 0:
        _err(line_no, f"{what} must be {sign}, got {text!r}")
    return value


def _parse_float(line_no, text, what, sign=None):
    try:
        value = float(text)
    except ValueError:
        _err(line_no, f"bad {what} {text!r}")
    return _checked(line_no, value, text, what, sign)


def _node(line_no, text):
    try:
        return NodeId.parse(text)
    except ValueError:
        _err(line_no, f"bad node id {text!r}")


def _parse_nodes(line_no, text):
    if text in ("", "-"):
        return frozenset()
    return frozenset(_node(line_no, p) for p in text.split(",") if p)


def _parse_bool(line_no, cid, fields, key):
    value = fields.get(key, "true")
    if value not in ("true", "false"):
        _err(line_no, f"car {cid}: {key} must be true or false, got {value!r}")
    return value == "true"


def parse_scenario(text: str, name: str = "<string>") -> Scenario:
    weights = {}
    directed = []
    undirected = []
    segment_names = {}
    intersection_names = {}
    name_lines = {}  # component name -> the line that gives it
    node_lines = {}  # node -> the line that declares it
    car_lines = []
    raw_params = {}
    section = None

    def give_name(line_no, name, names, nodes):
        if name in name_lines:
            _err(line_no, f"repeated name {name!r} (first on line {name_lines[name]})")
        name_lines[name] = line_no
        names[name] = nodes

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
            if parts[0] in ("lane", "cs") and len(parts) == 3:
                node = _node(line_no, parts[1])
                if node.is_crossing != (parts[0] == "cs"):
                    kind = "crossing segment" if parts[0] == "cs" else "lane"
                    _err(line_no, f"{parts[1]} is not a {kind} id")
                if node in node_lines:
                    _err(line_no, f"repeated node {node} (first on line {node_lines[node]})")
                node_lines[node] = line_no
                weights[node] = _parse_float(line_no, parts[2], "weight")
            elif parts[0] == "edge" and len(parts) == 3:
                directed.append((_node(line_no, parts[1]), _node(line_no, parts[2])))
            elif parts[0] == "pair" and len(parts) in (3, 4):
                a, b = _node(line_no, parts[1]), _node(line_no, parts[2])
                undirected.append((a, b))
                if len(parts) == 4:
                    give_name(line_no, parts[3], segment_names, frozenset((a, b)))
            elif parts[0] == "intersection" and len(line.split("=")[0].split()) == 2:
                head, _, tail = line.partition("=")
                give_name(line_no, head.split()[1], intersection_names,
                          frozenset(_node(line_no, p) for p in tail.split()))
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
        topo = Topology(net, segment_names, intersection_names)
    except ComponentNameError as exc:
        _err(name_lines[exc.name], str(exc))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    given = {}  # parameter -> the line that gives it

    def param(key, default):
        if key not in raw_params:
            return default
        line_no, value = raw_params.pop(key)
        given[key] = line_no
        try:
            out = float(value)
        except ValueError:
            _err(line_no, f"bad value for {key}: {value!r}")
        return _checked(line_no, out, value, key, "positive")

    def relate(holds, keys, message):
        # the defaults satisfy every relation, so a broken one names a
        # parameter the file gives; blame the first of ``keys`` it gives
        if not holds:
            _err(next(given[k] for k in keys if k in given), message)

    params = ProtocolParams(**{f.name: param(f.name, f.default)
                               for f in dataclass_fields(ProtocolParams)})
    b_max = param("b_max", B_MAX)
    default = {f.name: f.default for f in dataclass_fields(Scenario)}
    default["h_f"] = params.d_c + params.max_se + 50.0
    scenario = Scenario(
        name=name,
        topo=topo,
        cars={},
        equipped={},
        monitored=[],
        params=params,
        **{key: param(key, default[key])
           for key in ("h_b", "h_f", "dt", "max_time", "patience")},
    )
    for key, (line_no, _) in raw_params.items():  # read by no param() above
        _err(line_no, f"unknown parameter {key!r}")
    relate(params.t < params.t_w, ("t", "t_w"),
           "helper reply bound t must be smaller than t_w")
    relate(scenario.h_f >= params.d_c_prime, ("h_f",),
           "h_f must cover d_c + max_se")
    relate(scenario.max_time / scenario.dt <= MAX_TICKS, ("dt", "max_time"),
           f"dt = {scenario.dt!r} is too small for max_time = {scenario.max_time!r}: "
           f"max_time / dt exceeds {MAX_TICKS:,} ticks")

    for line_no, line in car_lines:
        tokens = line.split()
        cid = tokens[1]
        if not names_a_car(cid):
            _err(line_no, f"car id {cid!r} is not a name formulas can use")
        if cid in scenario.cars:
            _err(line_no, f"duplicate car {cid}")
        fields = {}
        for token in tokens[2:]:
            if "=" not in token:
                _err(line_no, f"bad car field {token!r}")
            key, _, value = token.partition("=")
            if key not in CAR_FIELDS:
                _err(line_no, f"unknown car field {key!r}")
            if key in fields:
                _err(line_no, f"car {cid}: repeated car field {key!r}")
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
        if path[curr].is_crossing and not any(n.is_lane for n in path[:curr]):
            _err(line_no, f"car {cid}: rear on crossing segment {path[curr]} "
                          f"with no lane before it on its path")
        speed = _parse_float(line_no, fields.get("speed", "0"), "speed", "non-negative")
        braking = (
            _parse_float(line_no, fields["braking"], "braking", "non-negative")
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
            size=_parse_float(line_no, fields.get("size", "4"), "size", "positive"),
            braking=braking,
            heading_with_lane=_parse_bool(line_no, cid, fields, "heading"),
            clm=_parse_nodes(line_no, fields.get("clm", "")),
            res=res,
            cclm=_parse_nodes(line_no, fields.get("cclm", "")),
            cres=cres,
        )
        if state.clm and (state.clm != {net.lane_partner(path[curr])} or cres):
            _err(line_no, f"car {cid}: clm must be the lane paired with {path[curr]}, "
                          f"and the car must hold no cres")
        raw = fields.get("controllers", "road,crossing,helper")
        kinds = () if raw == "none" else tuple(raw.split(","))
        for kind in kinds:
            if kind not in CONTROLLER_KINDS:
                _err(line_no, f"unknown controller kind {kind!r}")
        if "crossing" in kinds and (cres or state.cclm):
            _err(line_no, f"car {cid}: {'cres' if cres else 'cclm'} must be empty: its "
                          f"crossing controller starts in q0, which holds no crossing booking")
        envelope = state.size + state.braking
        if envelope > params.max_se:
            _err(line_no, f"car {cid}: safety envelope size + braking = {envelope:g} m "
                          f"exceeds max_se = {params.max_se:g}")
        scenario.cars[cid] = state
        scenario.equipped[cid] = kinds
        if _parse_bool(line_no, cid, fields, "monitor"):
            scenario.monitored.append(cid)

    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(f"{name}: " + "; ".join(problems))
    # lay out each car's initial views at load, where the check path reads them
    ts = scenario.snapshot()
    for cid in ts.cars:
        build_multiview(scenario.topo, ts, cid, scenario.h_b, scenario.h_f)
    return scenario


def validate_scenario(scenario: Scenario) -> list[str]:
    ts = scenario.snapshot()
    problems = sanity_check(ts)
    for cid in ts.car_ids():
        try:
            safety_envelope(ts, cid)
        except PathExhausted:
            problems.append(f"{cid}: initial envelope runs past its path")
    if not problems:
        hits = collisions(ts)
        cid = next((c for c in scenario.monitored if c in hits), None)
        if cid is not None:
            problems.append(f"initial snapshot violates Safe({cid}): "
                            f"overlap with {hits[cid][0]}")
    return problems


def bundled_scenarios() -> list[str]:
    root = resources.files("crossings").joinpath("scenarios")
    return sorted(p.name[: -len(".scn")] for p in root.iterdir() if p.name.endswith(".scn"))


def load_scenario(spec: str) -> Scenario:
    """Load a scenario from a file path or by bundled name."""
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{spec}: not UTF-8 text (byte {exc.start})") from None
        return parse_scenario(text, name=path.stem)
    bundle = resources.files("crossings").joinpath("scenarios", spec + ".scn")
    if bundle.is_file():
        return parse_scenario(bundle.read_text(encoding="utf-8"), name=spec)
    raise ScenarioError(f"no such scenario file or bundled name: {spec!r}")
