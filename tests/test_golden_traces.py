"""Byte-identical traces for the bundled scenarios and sweep seeds 0-99.

Each scenario is run to completion, its trace written with ``write_trace``
and the file's sha256 compared with the hash recorded in
``golden_traces.json``.  A refactor that keeps behaviour keeps every hash.
Regenerate the file only for an intended behaviour change:

    PYTHONPATH=src python tests/test_golden_traces.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from crossings.harness import run, write_trace
from crossings.randomgen import sweep_scenario
from crossings.scenario import bundled_scenarios, load_scenario

GOLDEN_FILE = Path(__file__).with_name("golden_traces.json")
SWEEP_SEEDS = range(100)


def trace_sha256(scenario, path) -> str:
    _verdict, events = run(scenario)
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = {label: trace_sha256(make_scenario(label), Path(tmp) / "run.trace")
                  for label in LABELS}
    GOLDEN_FILE.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
