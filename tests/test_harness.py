import filecmp
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vanvisc
from vanvisc.front_tracking import sample_profile
from vanvisc.harness import (ExperimentConfig, _row_distances, _track, converge_cmd, converge_row,
                             decay_report_cmd, eval_rule, functional_report_cmd, main,
                             parse_config_file, scenario_data)
from vanvisc.piecewise import gauss_l1, gauss_points
from vanvisc.system import SystemModel, preset_model
from vanvisc.viscous import solve_viscous

from test_burgers import cole_hopf_unwindowed, hopf_lax_unwindowed

B = preset_model("burgers")
P = preset_model("p_system")


def test_eval_rule():
    assert eval_rule("sqrt_eps", 1e-4) == pytest.approx(0.01)
    assert eval_rule("4*sqrt_eps*abs_ln_eps", 1e-4) == pytest.approx(4 * 0.01 * np.log(1e4))
    assert eval_rule("eps/8", 8e-3) == pytest.approx(1e-3)
    assert eval_rule(0.25, 1e-3) == 0.25
    assert eval_rule(-1e-300, 1e-3) == -1e-300 and eval_rule(3, 1e-3) == 3.0
    assert eval_rule("min(1e-2, eps)", 1e-3) == pytest.approx(1e-3)
    eps = 3e-3
    assert eval_rule("4*sqrt_eps*abs_ln_eps", eps) == 4 * math.sqrt(eps) * abs(math.log(eps))
    assert eval_rule("-eps + 2**3 - max(sqrt(4), log(1)) / 2", eps) == -eps + 8 - 1.0
    for bad in ("(1).__class__", "__import__('os')", "eps.real", "abs(eps)", "x",
                "[eps][0]", "eps if eps else 1", "True", "+eps", "min(eps, key=eps)",
                "4*", "9**9**9", "inf", math.inf, math.nan):
        with pytest.raises((ValueError, ArithmeticError)):
            eval_rule(bad, eps)


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "system = p_system\n"
        "gamma = 2.0\n"
        "k = 1.0\n"
        "scenario = random_bv\n"
        "seed = 3\n"
        "n_jumps = 6\n"
        "tv = 0.2\n"
        "tau = 0.5\n"
        "epsilon_list = 1e-2, 1e-3\n"
        "rho_rule = sqrt_eps*abs_ln_eps\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.system == "p_system"
    assert cfg.seed == 3
    assert cfg.epsilon_list == (1e-2, 1e-3)
    assert cfg.rho_rule == "sqrt_eps*abs_ln_eps"
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon_list=(1e-3, 1e-2))
    with pytest.raises(ValueError):
        ExperimentConfig(tau=-1.0)


def test_config_values_follow_field_types(tmp_path):
    # only epsilon_list and delta_list are comma lists, so a rule may hold
    # min(a, b); integer keys also accept integral floats
    path = tmp_path / "exp.cfg"
    path.write_text("rho_rule = min(1e-2, eps)\nepsilon_list = 2e-2, 4e-3\n"
                    "delta_list = 0.1\nmax_events = 1e5\nseed = 12\ncap_rule = 0.1\n")
    cfg = parse_config_file(str(path))
    assert cfg.rho_rule == "min(1e-2, eps)" and cfg.cap_rule == "0.1"
    assert [eval_rule(cfg.rho_rule, e) for e in cfg.epsilon_list] == [1e-2, 4e-3]
    assert cfg.delta_list == (0.1,)
    assert cfg.max_events == 100000 and cfg.seed == 12
    assert type(cfg.max_events) is int and type(cfg.seed) is int


def test_scenarios_valid():
    for name in ("lone_shock", "lone_rarefaction", "merge", "cancellation",
                 "merge_cancellation", "random_bv"):
        data = scenario_data(B, name, seed=1)
        assert data.total_variation() > 0
    for name in ("lone_shock", "lone_rarefaction", "random_bv"):
        data = scenario_data(P, name, seed=1, tv=0.2)
        for u in data.values:
            assert P.in_domain(u)
    rnd = scenario_data(B, "random_bv", seed=2, n_jumps=7, tv=0.4)
    assert rnd.total_variation() == pytest.approx(0.4)
    with pytest.raises(ValueError):
        scenario_data(B, "nope")


def test_scenario_data_refuses_a_model_that_is_not_a_preset():
    # a custom scalar law is neither preset: every scenario names the model,
    # instead of running it through the p-system's wave curves
    cubic = SystemModel(n=1, flux=lambda u: u ** 3 / 3.0,
                        jacobian=lambda u: (np.asarray(u, dtype=float) ** 2)[..., None],
                        domain_box=((-2.0, 2.0),))
    for name in ("lone_shock", "merge", "random_bv"):
        with pytest.raises(ValueError, match="model 'custom'"):
            scenario_data(cubic, name)


FAST = dict(scenario="lone_shock", tau=0.25, epsilon_list=(2e-2,),
            rho_rule="0.5", dx_rule="eps/4", cap_rule="0.1")


def test_converge_cmd_outputs(tmp_path):
    cfg = ExperimentConfig(**FAST)
    table = converge_cmd(cfg, str(tmp_path))
    assert (tmp_path / "table.csv").exists()
    assert (tmp_path / "fit.json").exists()
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row["l1_error"] > 0 and row["n_tracks"] == 1
    text = (tmp_path / "table.csv").read_text().splitlines()
    assert text[0].startswith("epsilon,")
    assert len(text) == 2
    # a line through one point is not a fit: a one-row sweep writes null
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["fit_p"] is None and fit["fit_c"] is None
    assert table.fit_p is None and table.fit_c is None


def test_functional_report_cmd(tmp_path):
    cfg = ExperimentConfig(scenario="merge", tau=1.0, epsilon_list=(1e-3,),
                           rho_rule="0.8", cap_rule="0.25")
    reports, violated = functional_report_cmd(cfg, str(tmp_path))
    assert not violated
    payload = json.loads((tmp_path / "audit.json").read_text())
    (key,) = payload.keys()
    assert payload[key]["audit"]["events"]
    assert payload[key]["rates"]


def test_decay_report_cmd(tmp_path):
    cfg = ExperimentConfig(scenario="lone_rarefaction", tau=2.0, epsilon_list=(1e-3,),
                           cap_rule="0.02", delta_list=(0.1, 0.05, 0.02))
    out = decay_report_cmd(cfg, str(tmp_path))
    assert (tmp_path / "decay.csv").exists()
    assert out["fit_p"] is not None
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert len(lines) == 4


def _write_fast_cfg(path, **over):
    opts = dict(FAST)
    opts.update(over)
    with open(path, "w") as fh:
        for k, v in opts.items():
            if isinstance(v, tuple):
                v = ",".join("%g" % x for x in v)
            fh.write(f"{k} = {v}\n")


def test_cli_determinism(tmp_path):
    cfgf = tmp_path / "exp.cfg"
    _write_fast_cfg(cfgf)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["converge", "--config", str(cfgf), "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("table.csv", "fit.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    cfgf2 = tmp_path / "decay.cfg"
    _write_fast_cfg(cfgf2, scenario="lone_rarefaction", tau=1.0, cap_rule=0.05,
                    delta_list=(0.1, 0.05))
    for name in ("c", "d"):
        assert main(["decay", "--config", str(cfgf2), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "c" / "decay.csv").read_bytes() == (tmp_path / "d" / "decay.csv").read_bytes()


def test_cli_exit_codes(tmp_path, capsys):
    # a bad or missing config exits 3 with a one-line message
    bad = tmp_path / "bad.cfg"
    for text, word in (("epsilon_list = -1\n", "positive"),
                       ("foo = 1\n", "foo"),
                       ("kappa = 10\n", "kappa"),
                       ("c0 = 4\n", "c0"),
                       ("delta_rule = sqrt_eps\n", "delta_rule"),
                       ("simplified_threshold = 1e-8\n", "simplified_threshold"),
                       ("rho_rule = (1).__class__\n", "__class__"),
                       ("dx_rule = eps/\n", "parse"),
                       ("tau = abc\n", "tau")):
        bad.write_text(text)
        assert main(["converge", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and word in err
    # each value is read as its key's type; the rest of the config runs fast
    for key, val in (("seed", 1.5), ("n_jumps", "x"), ("max_events", "inf"),
                     ("tv", "abc"), ("epsilon_list", "2e-2, x")):
        _write_fast_cfg(bad, **{key: val})
        assert main(["converge", "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} = " in err
    # an epsilon_list that is empty, not strictly decreasing or holds inf,
    # and a delta_list that is empty, repeats a value or holds a value <= 0
    # or inf, are bad configs of every command, naming the key
    for key, val in (("epsilon_list", ()), ("epsilon_list", (2e-2, 2e-2)),
                     ("epsilon_list", (math.inf,)), ("delta_list", ()),
                     ("delta_list", (0.1, 0.1)), ("delta_list", (0.1, 0.0)),
                     ("delta_list", (0.1, -0.05)), ("delta_list", (math.inf,))):
        _write_fast_cfg(bad, **{key: val})
        for cmd in ("converge", "functionals", "decay"):
            assert main([cmd, "--config", str(bad), "--out", str(tmp_path / "x")]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and key in err
    assert main(["decay", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "x")]) == 3
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "x").exists()
    # a rule with a comma is one rule, not a list
    rule = tmp_path / "rule.cfg"
    _write_fast_cfg(rule, rho_rule="min(0.5, 40*eps)")
    assert main(["converge", "--config", str(rule), "--out", str(tmp_path / "rule")]) == 0
    # a rarefaction cap above 1 builds the steps of a random jump of
    # strength 1.08 (a valid config, not a failure)
    big = tmp_path / "big.cfg"
    big.write_text("scenario = random_bv\nseed = 0\nn_jumps = 3\ntv = 3\ntau = 0.5\n"
                   "cap_rule = 2\nepsilon_list = 4e-3\ndx_rule = eps/4\n"
                   "rho_rule = sqrt_eps*abs_ln_eps\n")
    assert main(["converge", "--config", str(big), "--out", str(tmp_path / "big")]) == 0
    # an unknown system (not a silent fallback to the p-system) or scenario,
    # or a bad p-system parameter, is a bad config of one line naming the
    # value, and no command starts
    typo = tmp_path / "typo.cfg"
    for text, word in (("system = Burgers\nscenario = lone_shock\n", "'Burgers'"),
                       ("system = p_system\nscenario = merge\n", "'merge'"),
                       ("system = p_system\nscenario = lone_shock\ngamma = 1\n", "gamma > 1"),
                       ("scenario = random\n", "'random'")):
        typo.write_text(text + "epsilon_list = 1e-2\n")
        for cmd in ("converge", "functionals", "decay"):
            assert main([cmd, "--config", str(typo), "--out", str(tmp_path / cmd)]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and word in err
            assert not (tmp_path / cmd).exists()


def test_cli_nonpositive_dx_is_one_line(tmp_path, capsys):
    # a grid spacing of zero or below is a CFLViolation before the grid is
    # laid out: exit 3, one stderr line, no traceback, on either preset
    cfgf = tmp_path / "dx.cfg"
    for system, scenario in (("p_system", "lone_shock"), ("burgers", "merge_cancellation")):
        for rule in ("-eps/4", "0"):
            _write_fast_cfg(cfgf, system=system, scenario=scenario, dx_rule=rule)
            out = tmp_path / "dx"
            assert main(["converge", "--config", str(cfgf), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert err.startswith("vanvisc: converge failed: CFLViolation")
            assert not out.exists()


def test_cli_numeric_failure_is_one_line(tmp_path, capsys):
    # a numeric failure inside a command is one stderr line naming the
    # exception class, not a traceback, and the command writes no output
    cfgf = tmp_path / "budget.cfg"
    cfgf.write_text("scenario = merge_cancellation\nepsilon_list = 4e-3\nmax_events = 1\n")
    for cmd in ("converge", "functionals"):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfgf), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"vanvisc: {cmd} failed: EventBudgetExceeded: ")
        assert not out.exists()


def test_cli_exit_code_on_monotonicity_violation(tmp_path):
    # disabling the compensating constants makes the q_natural/q_sharp
    # increases at absorptions go unbalanced, which the audit must flag
    cfgf = tmp_path / "viol.cfg"
    cfgf.write_text(
        "scenario = merge_cancellation\ntau = 1.0\nepsilon_list = 1e-3\n"
        "cap_rule = 0.05\nrho_rule = 0.8\nc1 = 0.0\nc2 = 0.0\nc3 = 1e6\n"
    )
    assert main(["functionals", "--config", str(cfgf), "--out", str(tmp_path / "v")]) == 2


def test_decomposition_consistency(tmp_path):
    cfg = ExperimentConfig(scenario="merge_cancellation", tau=1.0,
                           epsilon_list=(4e-3,), rho_rule="sqrt_eps*abs_ln_eps",
                           dx_rule="eps/4")
    table = converge_cmd(cfg, str(tmp_path))
    fit = json.loads((tmp_path / "fit.json").read_text())
    # the measured distance is controlled by the sum of the decomposition
    # terms times a moderate stability factor
    assert all(r < 5.0 for r in fit["decomposition_ratio"])


SWEEP_RULES = dict(tau=1.0, rho_rule="sqrt_eps*abs_ln_eps", dx_rule="eps/4")


def test_exact_distances_of_a_lone_shock(tmp_path):
    # front tracking is exact on a lone shock, and the viscous solution sits
    # 4 ln 2 eps from it once the tanh layer has formed
    cfg = ExperimentConfig(scenario="lone_shock", epsilon_list=(2e-3, 1e-3), **SWEEP_RULES)
    table = converge_cmd(cfg, str(tmp_path))
    for row in table.rows:
        assert row["ft_error"] <= 1e-15
        assert row["l1_exact"] == pytest.approx(4 * math.log(2) * row["epsilon"], rel=1e-12)
    fit = json.loads((tmp_path / "fit.json").read_text())
    assert fit["l1_exact"] == [r["l1_exact"] for r in table.rows]
    assert fit["ft_error"] == [r["ft_error"] for r in table.rows]
    # a model without the closed forms has neither
    converge_cmd(ExperimentConfig(system="p_system", **FAST), str(tmp_path / "p"))
    assert "l1_exact" not in json.loads((tmp_path / "p" / "fit.json").read_text())


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_l1_error_is_within_front_tracking_error_of_l1_exact(seed):
    # held-out random_bv seeds: by the triangle inequality l1_error and
    # l1_exact differ by at most ft_error, plus the error of the grid's
    # linear interpolant, at most dx TV(u_eps) <= dx tv0
    cfg = ExperimentConfig(scenario="random_bv", seed=seed, epsilon_list=(4e-3, 2e-3),
                           **SWEEP_RULES)
    for row in converge_cmd(cfg).rows:
        margin = row["epsilon"] / 4 * row["tv0"]
        assert abs(row["l1_error"] - row["l1_exact"]) <= row["ft_error"] + margin


def test_front_tracking_converges_to_hopf_lax_at_first_order_in_the_cap():
    errors = []
    for cap in (0.1, 0.05, 0.025):
        cfg = ExperimentConfig(scenario="merge_cancellation", epsilon_list=(4e-3,),
                               cap_rule=str(cap), **SWEEP_RULES)
        errors.append(converge_cmd(cfg).rows[0]["ft_error"])
        assert 0.3 <= errors[-1] / cap <= 0.6
    assert all(1.9 <= a / b <= 2.1 for a, b in zip(errors[:-1], errors[1:]))


def _grid_distance_oracle(profile, x_grid, u_grid):
    """The grid distance as a function of its own: the cut at the nodes and
    the profile's breakpoints, with the interpolant at its Gauss points."""
    cut = np.union1d(x_grid, profile.xs[(profile.xs >= x_grid[0]) & (profile.xs <= x_grid[-1])])
    pts = gauss_points(cut)
    gv = np.stack([np.interp(pts, x_grid, u_grid[:, c]) for c in range(u_grid.shape[1])], axis=1)
    return gauss_l1(cut, profile(pts), gv)


def _entropy_distances_oracle(model, data, eps, tau, x, u_ft):
    """l1_exact and ft_error on their own cut: the first cut plus the shocks
    of u, located from separate evaluations of u at the segment ends, with
    the closed forms summed over every piece at every Gauss point."""
    def u(pts):
        return hopf_lax_unwindowed(data, tau, pts)[:, 0]

    cut = np.union1d(x, u_ft.xs[(u_ft.xs > x[0]) & (u_ft.xs < x[-1])])
    lo, hi = cut[:-1], cut[1:]
    u_lo = u(lo)
    falls = u_lo - u(hi) > 1e-12
    lo, hi, u_lo = lo[falls], hi[falls], u_lo[falls]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        u_mid = u(mid)
        left = u_lo - u_mid > 1e-12
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        u_lo = np.where(left, u_lo, u_mid)
    cut = np.union1d(cut, 0.5 * (lo + hi))
    pts = gauss_points(cut)
    u_exact = hopf_lax_unwindowed(data, tau, pts)
    return {"l1_exact": gauss_l1(cut, cole_hopf_unwindowed(data, eps, tau, pts), u_exact),
            "ft_error": gauss_l1(cut, u_ft(pts), u_exact)}


def _far_field_allowance(x):
    """The oracle's far-field rounding over the grid's span: where the
    point windows take a piece's value, the closed forms summed over every
    piece differ from it by at most the far-field bound (1.9e-16 at eps
    2e-3) plus their ulps, under 1e-15 per unit length."""
    return 1e-15 * (x[-1] - x[0])


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(scenario="merge_cancellation", epsilon_list=(4e-3,), **SWEEP_RULES),
    ExperimentConfig(scenario="random_bv", seed=10, epsilon_list=(2e-3,), **SWEEP_RULES),
    ExperimentConfig(system="p_system", **FAST),
    ExperimentConfig(system="p_system", scenario="random_bv", seed=3, n_jumps=4, tau=0.25,
                     epsilon_list=(2e-2,), rho_rule="0.5", dx_rule="eps/4", cap_rule="0.1"),
], ids=["burgers_merge_cancellation", "burgers_random_bv", "p_system_lone_shock",
        "p_system_random_bv"])
def test_one_cut_matches_the_two_separate_quadratures(cfg):
    # the row's three distances come from one cut; the two quadratures that
    # each built their own are the oracle.  The Burgers cut also holds the
    # shocks of u, so l1_error may move at rounding there and nowhere else
    eps = cfg.epsilon_list[0]
    model, data = cfg.model_and_data()
    u_tau = sample_profile(_track(cfg, model, data, eps, min(1e-9, eps ** 3)), cfg.tau)
    sol = solve_viscous(model, eps, data, cfg.tau, eval_rule(cfg.dx_rule, eps))
    row = converge_row(cfg, eps)
    want = _grid_distance_oracle(u_tau, sol.x, sol.final())
    if model.entropy_fn is None:
        assert "l1_exact" not in row and "ft_error" not in row
        assert row["l1_error"] == want
        return
    assert row["l1_error"] == pytest.approx(want, rel=1e-15, abs=0.0)
    # the point windows take the far field's state where the oracle adds
    # its rounding
    exact = _entropy_distances_oracle(model, data, eps, cfg.tau, sol.x, u_tau)
    for key in ("l1_exact", "ft_error"):
        assert row[key] == pytest.approx(exact[key], rel=1e-14, abs=_far_field_allowance(sol.x))


@pytest.mark.parametrize("n_jumps", [6, 12])
def test_decomposition_ratio_is_at_most_one_on_held_out_seeds(n_jumps):
    # the hybrid v is built from u_FT and viscous Burgers is an L1
    # contraction, so l1_error = L1(u_FT, u_eps) is at most the budget
    # endpoint_0 + residual + jump_sum + endpoint_tau
    for seed in (11, 12, 13, 14):
        cfg = ExperimentConfig(scenario="random_bv", seed=seed, n_jumps=n_jumps,
                               epsilon_list=(4e-3, 2e-3), **SWEEP_RULES)
        for row in converge_cmd(cfg).rows:
            budget = (row["endpoint_0"] + row["residual"] + row["jump_sum"]
                      + row["endpoint_tau"])
            assert 0.0 < row["l1_error"] / budget <= 1.0


def test_a_burgers_row_imports_neither_scipy_integrate_nor_optimize():
    # in a fresh interpreter: the profile shooting imports scipy.integrate
    # and the p-system's exact Riemann solver scipy.optimize where they are
    # used, so a Burgers row, with its closed forms, loads neither
    code = (
        "import sys\n"
        "import vanvisc\n"
        "from vanvisc.harness import ExperimentConfig, converge_row\n"
        "converge_row(ExperimentConfig(epsilon_list=(2e-2,), tau=0.25), 2e-2)\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        "converge_row(ExperimentConfig(system='p_system', scenario='lone_shock', tau=0.25,\n"
        "                              epsilon_list=(2e-2,), rho_rule='0.1'), 2e-2)\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(vanvisc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout.splitlines()
    assert out == ["[]", "['scipy.integrate', 'scipy.optimize']"]


def _row_distances_unwindowed(model, data, eps, tau, sol, u_ft):
    """The row's distances with every Gauss point evaluated, the closed
    forms summed over every piece."""
    x = sol.x
    cut = np.union1d(x, u_ft.xs[(u_ft.xs > x[0]) & (u_ft.xs < x[-1])])
    exact = model.viscous_fn is not None and model.entropy_fn is not None
    if exact:
        def u(pts):
            return hopf_lax_unwindowed(data, tau, pts)[:, 0]

        u_cut = u(cut)
        falls = u_cut[:-1] - u_cut[1:] > 1e-12
        lo, hi, u_lo = cut[:-1][falls], cut[1:][falls], u_cut[:-1][falls]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            u_mid = u(mid)
            left = u_lo - u_mid > 1e-12
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            u_lo = np.where(left, u_lo, u_mid)
        cut = np.union1d(cut, 0.5 * (lo + hi))
    pts = gauss_points(cut)
    ft = u_ft(pts)
    grid = sol.final()
    out = {"l1_error": gauss_l1(cut, ft, np.stack(
        [np.interp(pts, x, grid[:, c]) for c in range(grid.shape[1])], axis=1))}
    if exact:
        u_exact = hopf_lax_unwindowed(data, tau, pts)
        out["l1_exact"] = gauss_l1(cut, cole_hopf_unwindowed(data, eps, tau, pts), u_exact)
        out["ft_error"] = gauss_l1(cut, ft, u_exact)
    return out


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(scenario="merge_cancellation", epsilon_list=(4e-3,), **SWEEP_RULES),
    ExperimentConfig(scenario="merge_cancellation", epsilon_list=(2e-3,), **SWEEP_RULES),
    ExperimentConfig(scenario="random_bv", seed=7, n_jumps=640, epsilon_list=(4e-3,),
                     **SWEEP_RULES),
    ExperimentConfig(scenario="random_bv", seed=11, n_jumps=12, epsilon_list=(2e-3,),
                     **SWEEP_RULES),
    ExperimentConfig(scenario="random_bv", seed=13, n_jumps=6, epsilon_list=(4e-3,),
                     **SWEEP_RULES),
    ExperimentConfig(system="p_system", **FAST),
    ExperimentConfig(system="p_system", scenario="random_bv", seed=3, n_jumps=4, tau=0.25,
                     epsilon_list=(2e-2,), rho_rule="0.5", dx_rule="eps/4", cap_rule="0.1"),
], ids=["merge_cancellation_4e-3", "merge_cancellation_2e-3", "random_bv_640",
        "random_bv_11", "random_bv_13", "p_system_lone_shock", "p_system_random_bv"])
def test_point_windows_match_the_unwindowed_distances(cfg):
    # a far segment's terms are 0 in both, so l1_error keeps every bit; the
    # closed-form distances move by the oracle's far-field rounding and the
    # piece windows' rounding
    eps = cfg.epsilon_list[0]
    model, data = cfg.model_and_data()
    u_tau = sample_profile(_track(cfg, model, data, eps, min(1e-9, eps ** 3)), cfg.tau)
    sol = solve_viscous(model, eps, data, cfg.tau, eval_rule(cfg.dx_rule, eps))
    got = _row_distances(model, data, eps, cfg.tau, sol, u_tau)
    want = _row_distances_unwindowed(model, data, eps, cfg.tau, sol, u_tau)
    assert got.keys() == want.keys()
    assert got["l1_error"] == want["l1_error"]
    for key in set(got) - {"l1_error"}:
        assert got[key] == pytest.approx(want[key], rel=1e-14, abs=_far_field_allowance(sol.x))
