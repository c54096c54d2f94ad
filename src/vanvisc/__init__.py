"""vanvisc: a numerical laboratory for 1-D genuinely nonlinear conservation
laws, their vanishing-viscosity approximations, and the interaction
functionals that control the convergence rate."""

from .system import SystemModel, preset_model, eigen_frame, check_genuine_nonlinearity
from .riemann import lax_curve, solve_riemann, shock_speed
from .piecewise import PiecewiseConstant
from .front_tracking import (Front, FrontConfiguration, FTRun, init_front_tracking,
                             next_interaction, resolve_interaction, run_until,
                             sample_profile, glimm_functionals)
from .measures import (WaveMeasure, MonotoneProfile, ComparisonSolution, wave_measure,
                       pos_neg_parts, odd_rearrangement, order_leq, burgers_comparison,
                       single_rarefaction_reference, pair_interaction_integral)
from .viscous import GridSolution, ShockProfile, solve_viscous, shock_profile, tail_bound_check
from .hybrid import (Mollifier, BigShockTrack, HybridApprox, select_big_shocks, build_hybrid,
                     residual, jump_sum)
from .functionals import (FunctionalConstants, weighted_potentials, q_hat, audit_events,
                          interaction_decay_rates)
from .harness import (ExperimentConfig, ConvergenceTable, converge_cmd,
                      functional_report_cmd, decay_report_cmd, scenario_data, main)

__version__ = "0.1.0"
