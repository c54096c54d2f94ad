"""Walk through the wave-curve machinery on the two shipped systems.

Solves a handful of Riemann problems, checks the strength convention and
the admissibility inequalities, and shows that composing the wave curves
reproduces the right state.
"""

import numpy as np

from vanvisc import eigen_frame, lax_curve, preset_model, shock_speed, solve_riemann
from vanvisc.system import wave_speeds

b = preset_model("burgers")
p = preset_model("p_system", gamma=2, k=1)

print("== Burgers ==")
for um, up in (([1.0], [0.0]), ([0.0], [1.0]), ([0.5], [-0.25])):
    fan = solve_riemann(b, np.array(um), np.array(up))
    for w in fan.waves:
        print(f"  {um} -> {up}: {w.kind} sigma={w.strength:+.3f} speed={w.speed}")

print("\n== p-system, gamma=2, k=1 ==")
u0 = np.array([1.0, 0.0])
lam0 = wave_speeds(p, u0)
print("  eigenvalues at (1,0):", lam0)
print("  normalized right eigenvectors:\n", eigen_frame(p, u0))

u1 = lax_curve(p, 2, u0, 0.15)
print("  2-rarefaction curve from (1,0) at s=0.15 ->", u1)
print("  lambda_2 increment:", wave_speeds(p, u1)[1] - lam0[1])

up = np.array([1.08, 0.04])
fan = solve_riemann(p, u0, up)
print(f"  Riemann (1,0) -> (1.08, 0.04):")
u = u0
for w in fan.waves:
    u = lax_curve(p, w.family, u, w.strength)
    print(f"    family {w.family} {w.kind:12s} sigma={w.strength:+.4f}")
print("  recomposition error:", np.linalg.norm(u - up))

um2 = lax_curve(p, 1, u0, -0.25)
print("  1-shock speed for sigma=-0.25:", shock_speed(p, u0, um2))
