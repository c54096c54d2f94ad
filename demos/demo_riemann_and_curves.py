"""Walk through the wave-curve machinery on the two shipped systems.

Solves a handful of Riemann problems, checks the strength convention and
the admissibility inequalities, and shows that composing the wave curves
reproduces the right state.  solve_riemann returns the per-family strengths;
the fronts that front tracking builds from one jump carry each wave's kind
and speed.
"""

import numpy as np

from vanvisc import (eigen_frame, init_front_tracking, lax_curve, preset_model, shock_speed,
                     solve_riemann)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import wave_speeds

b = preset_model("burgers")
p = preset_model("p_system", gamma=2, k=1)


def fronts(model, um, up):
    """The fronts of one jump, each rarefaction in one step."""
    data = PiecewiseConstant([0.0], [np.asarray(um, dtype=float), np.asarray(up, dtype=float)])
    return init_front_tracking(model, data, 1e-9, 10.0).fronts


print("== Burgers ==")
for um, up in (([1.0], [0.0]), ([0.0], [1.0]), ([0.5], [-0.25])):
    print(f"  {um} -> {up}: sigma={solve_riemann(b, np.array(um), np.array(up))}")
    for f in fronts(b, um, up):
        print(f"    {f.kind:16s} sigma={f.strength:+.3f} speed={f.speed}")

print("\n== p-system, gamma=2, k=1 ==")
u0 = np.array([1.0, 0.0])
lam0 = wave_speeds(p, u0)
print("  eigenvalues at (1,0):", lam0)
print("  normalized right eigenvectors:\n", eigen_frame(p, u0))

u1 = lax_curve(p, 2, u0, 0.15)
print("  2-rarefaction curve from (1,0) at s=0.15 ->", u1)
print("  lambda_2 increment:", wave_speeds(p, u1)[1] - lam0[1])

up = np.array([1.08, 0.04])
s = solve_riemann(p, u0, up)
print(f"  Riemann (1,0) -> (1.08, 0.04): sigma={s}")
u = u0
for i in (1, 2):
    u = lax_curve(p, i, u, s[i - 1])
print("  recomposition error:", np.linalg.norm(u - up))
for f in fronts(p, u0, up):
    print(f"    family {f.family} {f.kind:16s} sigma={f.strength:+.4f} speed={f.speed:+.4f}")

um2 = lax_curve(p, 1, u0, -0.25)
print("  1-shock speed for sigma=-0.25:", shock_speed(p, u0, um2))
