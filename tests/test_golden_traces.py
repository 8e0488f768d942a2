"""Byte-identical traces for the bundled scenarios and sweep seeds 0-99.

Each scenario is run to completion, its trace written with ``write_trace``
and the file's sha256 compared with the hash recorded in
``golden_traces.json``.  A refactor that keeps behaviour keeps every hash.
Regenerate the file only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden_traces.py

which prints each label whose hash changed.  The same runs also pin transition coverage: every controller edge fires in
at least one of them, except the known blind spots listed below.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from crossings.controllers import (
    crossing_controller,
    helper_controller,
    road_controller_stub,
)
from crossings.harness import run, write_trace
from crossings.params import ProtocolParams
from crossings.randomgen import sweep_scenario
from crossings.scenario import bundled_scenarios, load_scenario

GOLDEN_FILE = Path(__file__).with_name("golden_traces.json")
SWEEP_SEEDS = range(100)

# edges, as (controller, from, to, label), that no golden run fires: the
# helper's third-party branch and the road controller's lane-claim
# withdrawal (ROADMAP item 4); remove an entry once a run covers it
BLIND_SPOTS = {
    ("helper", "q2", "q3", "conflicting third request"),
    ("helper", "q3", "q2", "decline"),
    ("road", "hold", "hold", "withdraw lane claim"),
}

FIRED: dict = {}  # scenario label -> edges its run fired


def trace_sha256(scenario, path) -> str:
    _verdict, events = run(scenario)
    FIRED[scenario.name] = {
        (d["inst"].split("/")[1], d["from"], d["to"], d["label"])
        for d in (dict(ev.payload) for ev in events
                  if ev.kind == "ControllerTransition")
    }
    write_trace(events, path)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


LABELS = bundled_scenarios() + [f"sweep-{seed}" for seed in SWEEP_SEEDS]


def make_scenario(label):
    if label.startswith("sweep-"):
        return sweep_scenario(int(label[len("sweep-"):]))
    return load_scenario(label)


GOLDEN = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


@pytest.mark.parametrize("label", LABELS)
def test_trace_matches_golden_hash(label, tmp_path):
    assert trace_sha256(make_scenario(label), tmp_path / "run.trace") == GOLDEN[label]


def test_golden_file_covers_every_scenario():
    assert sorted(GOLDEN) == sorted(LABELS)


def test_every_edge_fires_outside_the_blind_spots(tmp_path):
    for label in LABELS:  # runs only what the hash tests above did not
        if label not in FIRED:
            trace_sha256(make_scenario(label), tmp_path / "run.trace")
    fired = set().union(*(FIRED[label] for label in LABELS))
    edges = {
        (defn.name, t.source, t.target, t.label)
        for defn in (crossing_controller(ProtocolParams()),
                     helper_controller(ProtocolParams()),
                     road_controller_stub())
        for t in defn.transitions
    }
    assert fired <= edges
    assert edges - fired == BLIND_SPOTS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {label: trace_sha256(make_scenario(label), Path(tmp) / "run.trace")
                  for label in LABELS}
    for label in sorted(set(hashes) | set(GOLDEN)):
        if hashes.get(label) != GOLDEN.get(label):
            print("changed" if label in hashes and label in GOLDEN
                  else "new" if label in hashes else "dropped", label)
    GOLDEN_FILE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
