"""Run front tracking on a merge-and-cancellation scenario and export the
event log plus profile snapshots as CSV."""

import os

import numpy as np

from vanvisc import init_front_tracking, preset_model, run_until, sample_profile
from vanvisc.front_tracking import write_run_log
from vanvisc.harness import scenario_data

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

model = preset_model("burgers")
data = scenario_data(model, "merge_cancellation")
cfg = init_front_tracking(model, data, epsilon_prime=1e-9, rarefaction_cap=0.05)
run = run_until(model, cfg, 1.0)

print(f"{len(run.events)} interactions on [0, 1]")
print(f"{'t':>8} {'x':>8} {'solver':>10} {'dV':>10} {'dQ':>10}")
# the Glimm history holds (t, V, Q, Upsilon) before the first event and after each
hist = run.glimm_history
for ev, (_, V0, Q0, _), (_, V1, Q1, _) in zip(run.events, hist, hist[1:]):
    print(f"{ev.time:8.4f} {ev.x:8.4f} {ev.solver:>10} {V1 - V0:10.3e} {Q1 - Q0:10.3e}")

print("\nGlimm history (t, V, Q, Upsilon):")
for row in hist:
    print("  " + "  ".join(f"{v:.6f}" for v in row))

for t in (0.0, 0.5, 1.0):
    path = os.path.join(OUT, f"profile_t{t:.1f}.csv")
    sample_profile(run, t).to_csv(path)
    print("wrote", path)
write_run_log(run, os.path.join(OUT, "events.jsonl"))
print("wrote", os.path.join(OUT, "events.jsonl"))
