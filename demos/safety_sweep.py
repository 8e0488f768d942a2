"""A miniature randomized safety sweep with summary statistics.

Generates seeded random scenarios on the demo intersection (2 to 8 cars,
random speeds and turn intents, everyone equipped with the controllers),
runs each with the monitor on, and tallies what the protocol did.  The
companion negative control disables the controllers and forces overlapping
crossing reservations, which the monitor must flag every time.
"""

from statistics import fmean

from crossings.harness import run
from crossings.randomgen import negative_scenario, sweep_scenario

RUNS = 40

safe = 0
reserve_counts = []
retry_counts = []
deadlocked = 0
for seed in range(RUNS):
    verdict, events = run(sweep_scenario(seed))
    safe += verdict.safe
    actions = [dict(e.payload)["kind"] for e in events if e.kind == "Action"]
    reserve_counts.append(actions.count("rc"))
    retry_counts.append(actions.count("wd cc"))
    deadlocked += bool(verdict.deadlocked_cars)

print(f"sweep: {RUNS} runs, {safe} safe ({100 * safe / RUNS:.0f}%)")
print(f"  crossing reservations per run: mean {fmean(reserve_counts):.1f}, "
      f"max {max(reserve_counts)}")
print(f"  claim withdrawals (retries):   mean {fmean(retry_counts):.1f}, "
      f"max {max(retry_counts)}")
print(f"  runs with stalled cars reported: {deadlocked}")

flagged = sum(not run(negative_scenario(seed))[0].safe for seed in range(RUNS))
print(f"negative control: {flagged}/{RUNS} forced conflicts flagged unsafe")
