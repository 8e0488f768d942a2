"""Tour of the road network model and the straightened views.

Builds the bundled four-approach intersection, walks its component
structure and coarse graph, then places a car before the crossing and
shows what its multi-view windows contain: each car's merged runs per
lane and kind.
"""

from crossings import build_multiview
from crossings.network import NodeId
from crossings.scenario import load_scenario
from crossings.views import car_fragment

scenario = load_scenario("left-turn")
topo = scenario.topo

print("== components ==")
for seg in topo.segments:
    print(f"  road segment {seg.id}: lanes {sorted(str(n) for n in seg.lanes)}")
for inter in topo.intersections:
    print(f"  intersection {inter.id}: cells {sorted(str(n) for n in inter.segments)}")

print("\n== coarse graph ==")
for edge in sorted(topo.coarse.edges):
    print(f"  {edge[0]} -> {edge[1]}")

path = tuple(NodeId.parse(p) for p in ("7", "c0", "c1", "c2", "4"))
print(f"\nleft-turn path {'->'.join(str(n) for n in path)} coarsens to",
      topo.coarsen_path(path))
print("approach roads of cr:", sorted(topo.pre_segments("cr")))

ts = scenario.snapshot()
mv = build_multiview(topo, ts, "E", scenario.h_b, scenario.h_f)
print(f"\n== multi-view of E ({len(mv.views)} windows, extent {mv.views[0].extent}) ==")
for i, view in enumerate(mv.views):
    fwd, bwd = view.lanes
    print(f"view {i} -> {view.target}")
    print("   along:", " ".join(str(n) for n in fwd.nodes))
    print("  facing:", " ".join(str(n) for n in bwd.nodes))
    for cid in ts.car_ids():
        for (lane_idx, kind), runs in sorted(car_fragment(ts, cid, view).items()):
            side = "along " if lane_idx == 0 else "facing"
            for lo, hi in runs:
                print(f"    {side} [{lo:7.2f}, {hi:7.2f}] {kind.name.lower():8} {cid}")
