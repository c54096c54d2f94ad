"""Interaction audit of the composite functional on a merging scenario.

Prints the per-event deltas of V, Q, the weighted potentials and the
composite functional, plus the exact inter-event decay rates, and writes the
audit report to demos/out/functionals_audit.json and the per-interval rate
rows to demos/out/functionals_rates.csv.
"""

import os

from vanvisc import (audit_events, init_front_tracking, interaction_decay_rates,
                     preset_model, run_until, select_big_shocks)
from vanvisc.piecewise import PiecewiseConstant

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

model = preset_model("burgers")
eps = 1e-3
rho = 0.8

data = PiecewiseConstant([-0.6, -0.2, 0.2], [[2.0], [1.0], [1.2], [0.2]])
cfg = init_front_tracking(model, data, 1e-9, 0.05)
run = run_until(model, cfg, 2.0)
tracks = select_big_shocks(run, rho)
print(f"{len(run.events)} events, {len(tracks)} big-shock tracks (rho={rho})")

rep = audit_events(run, tracks, eps, rho=rho)
path = os.path.join(OUT, "functionals_audit.json")
with open(path, "w") as fh:
    fh.write(rep.to_json() + "\n")
print("wrote", path)
print(f"\n{'t':>8} {'case':>12} {'dUpsilon':>11} {'dq_flat':>10} {'dq_nat':>10} "
      f"{'dq_sharp':>10} {'dq_hat':>12}")
for ev in rep.events:
    print(f"{ev['t']:8.4f} {ev['case']:>12} {ev['dUpsilon']:11.3e} "
          f"{ev['dq_flat']:10.2e} {ev['dq_natural']:10.2e} {ev['dq_sharp']:10.2e} "
          f"{ev['dq_hat']:12.4e}")
print("\nviolations:", len(rep.violations))
for rec in rep.merge_records:
    print(f"merge at t={rec['t']:.4f}: dq_hat={rec['dq_hat']:.4e}, "
          f"loss bound {rec['loss_bound']:.4e}, ratio {rec['loss_ratio']:.1f}")

rows = interaction_decay_rates(run, tracks, eps)
print("\nbetween events, exact right derivatives at the interval midpoint "
      "(first 5 intervals):")
for row in rows[:5]:
    print(f"  [{row['t0']:.3f}, {row['t1']:.3f}): dq_flat/dt = {row['rate_flat']:.4e}, "
          f"dq_nat/dt = {row['rate_natural']:.4e}, dq_sharp/dt = {row['rate_sharp']:.4e}")
path = os.path.join(OUT, "functionals_rates.csv")
with open(path, "w") as fh:
    fh.write(",".join(rows[0]) + "\n")
    for row in rows:
        fh.write(",".join("%.17g" % v for v in row.values()) + "\n")
print("wrote", path)
