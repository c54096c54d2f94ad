"""Viscous shock profiles and the hybrid approximation around a big shock.

Shoots the Burgers and p-system travelling waves, checks the Burgers one
against its closed form, verifies the tail envelopes, then builds the
mollified-plus-profile approximation for a standing shock and prints its
residual against the viscous equation.
"""

import dataclasses
import os

import numpy as np

from vanvisc import (build_hybrid, init_front_tracking, preset_model, residual,
                     run_until, select_big_shocks, shock_profile, tail_bound_check)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

b = preset_model("burgers")
p = preset_model("p_system")

# the preset's profile is the closed-form tanh; its hook-less twin shoots
pr = shock_profile(dataclasses.replace(b, viscous_fn=None, profile_fn=None), [1.0], [0.0])
s = np.linspace(-30, 30, 601)
err = np.max(np.abs(pr.value(s)[:, 0] - (0.5 - 0.5 * np.tanh(s / 4))))
print(f"Burgers profile vs closed form: max error {err:.2e}")
print(f"centering residual: {pr.centering_residual():.2e}")
print("tail envelope fit:", tail_bound_check(pr))

u0 = np.array([1.0, 0.0])
pr1 = shock_profile(p, u0, lax_curve(p, 1, u0, -0.3))
print(f"\np-system 1-shock profile: family {pr1.family}, speed {pr1.speed:.4f}")
print("tail envelope fit:", tail_bound_check(pr1))

with open(os.path.join(OUT, "profile_burgers.csv"), "w") as fh:
    fh.write("s,u\n")
    for si, ui in zip(s, pr.value(s)[:, 0]):
        fh.write(f"{si:.6f},{ui:.10f}\n")

eps = 1e-3
cfg = init_front_tracking(b, PiecewiseConstant([0.0], [[0.5], [-0.5]]), 1e-9, 0.25)
run = run_until(b, cfg, 0.2)
tracks = select_big_shocks(run, rho=0.5)
hyb = build_hybrid(run, tracks, eps)
res = residual(hyb)
sigma = 1.0
print(f"\nhybrid for a standing unit shock at eps={eps}:")
print(f"  residual total {res['total']:.3e}")
print(f"  per-track E_alpha {res['per_track']}")
print(f"  E_alpha / (eps (1+|ln eps|) |sigma| tau) = "
      f"{res['per_track'][0] / (eps * (1 + abs(np.log(eps))) * sigma * 0.2):.3f}")

xs = np.linspace(-0.12, 0.12, 9)
v = hyb.value(0.1, xs)
print("  v(0.1, x) on +-0.12:", np.round(v[:, 0], 5))
