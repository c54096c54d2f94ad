"""Small vanishing-viscosity convergence study (a faster variant of the
acceptance sweep; writes table.csv and fit.json under demos/out).

The full five-epsilon sweep is what `vanvisc converge` runs; this demo uses
three epsilon values.  The Burgers rows read the closed forms (Cole-Hopf for
u_eps, Hopf-Lax for the exact u), so it takes a few seconds.
"""

import os

from vanvisc.harness import ExperimentConfig, converge_cmd

OUT = os.path.join(os.path.dirname(__file__), "out", "converge")

cfg = ExperimentConfig(
    scenario="merge_cancellation",
    tau=1.0,
    epsilon_list=(4e-3, 1e-3, 2.5e-4),
    rho_rule="sqrt_eps*abs_ln_eps",
    dx_rule="eps/4",
)
table = converge_cmd(cfg, OUT)
print(f"{'eps':>10} {'L1 error':>12} {'residual':>12} {'jump sum':>12} "
      f"{'err/(sqrt(eps)|ln eps|)':>24} {'|u_eps - u|':>12} {'|u_FT - u|':>12}")
for r in table.rows:
    print(f"{r['epsilon']:10.1e} {r['l1_error']:12.4e} {r['residual']:12.4e} "
          f"{r['jump_sum']:12.4e} {r['l1_error'] / r['rate_var']:24.4f} "
          f"{r['l1_exact']:12.4e} {r['ft_error']:12.4e}")
print(f"\nfitted exponent p = {table.fit_p:.3f} against sqrt(eps)|ln eps| "
      f"(theory: 1), constant {table.fit_c:.3f}")
print("wrote", os.path.join(OUT, "table.csv"))
