"""Experiment orchestration: convergence sweeps, audits, decay studies.

Configs are flat key = value text files; outputs are CSV/JSON written under
an output directory.  Exit codes: 0 ok, 2 monotonicity violation, 3 numeric
failure or a bad config (reported in one line).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .errors import VanviscError
from .front_tracking import init_front_tracking, run_until, sample_profile
from .functionals import FunctionalConstants, audit_events, interaction_decay_rates
from .hybrid import (build_hybrid, hybrid_vs_profile_l1, jump_sum, residual,
                     select_big_shocks)
from .measures import pair_interaction_integral
from .piecewise import PiecewiseConstant, gauss_l1, gauss_points
from .riemann import lax_curve
from .system import preset_model
from .viscous import solve_viscous


@dataclass
class ExperimentConfig:
    system: str = "burgers"
    gamma: float = 2.0
    k: float = 1.0
    scenario: str = "merge_cancellation"
    seed: int = 0
    n_jumps: int = 10
    tv: float = 0.3
    tau: float = 1.0
    epsilon_list: tuple = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)
    rho_rule: str = "4*sqrt_eps*abs_ln_eps"
    dx_rule: str = "eps/8"
    # rarefaction steps at the maximal small-wave scale (half the rho scale)
    cap_rule: str = "sqrt_eps*abs_ln_eps/2"
    workers: int = 1
    delta_list: tuple = (0.1, 0.05, 0.02, 0.01, 0.005)
    c1: float = FunctionalConstants.c1
    c2: float = FunctionalConstants.c2
    c3: float = FunctionalConstants.c3
    max_events: int = 100000

    def __post_init__(self):
        eps = list(self.epsilon_list)
        if not eps or not all(0 < e < math.inf for e in eps):
            raise ValueError("epsilon_list must hold finite positive values")
        if not all(a > b for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_list must be strictly decreasing")
        deltas = self.delta_list
        if not deltas or not all(0 < d < math.inf for d in deltas):
            raise ValueError("delta_list must hold finite positive values")
        if len(set(deltas)) < len(deltas):
            raise ValueError("delta_list must hold distinct values")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        for e in eps:
            for rule in (self.rho_rule, self.dx_rule, self.cap_rule):
                eval_rule(rule, e)
        # an unknown system or scenario, or a bad model parameter, fails
        # here; the model is not kept, since workers > 1 pickles the config
        self.model_and_data()

    def model_and_data(self):
        """The preset model and the scenario's initial data."""
        model = preset_model(self.system, gamma=self.gamma, k=self.k)
        return model, scenario_data(model, self.scenario, self.seed, self.n_jumps, self.tv)

    def constants(self):
        return FunctionalConstants(c1=self.c1, c2=self.c2, c3=self.c3)


_RULE_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Pow: operator.pow}
_RULE_FUNCS = {"min": min, "max": max, "sqrt": math.sqrt, "log": math.log}


def eval_rule(rule, eps):
    """Evaluate a sizing rule like "sqrt_eps", "4*sqrt_eps*abs_ln_eps",
    "eps/8" or a plain number, in terms of the current epsilon.

    Config text is never passed to eval: a rule may hold only numbers, the
    names eps, sqrt_eps and abs_ln_eps, unary minus, + - * / **, and calls
    of min, max, sqrt and log.  A number is read from its str, so a float
    inf or nan is refused like the text "inf"."""
    names = {"eps": eps, "sqrt_eps": math.sqrt(eps), "abs_ln_eps": abs(math.log(eps))}

    def ev(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return float(node.value)   # float powers overflow instead of growing
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _RULE_OPS:
            return _RULE_OPS[type(node.op)](ev(node.left), ev(node.right))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _RULE_FUNCS and not node.keywords):
            return _RULE_FUNCS[node.func.id](*map(ev, node.args))
        raise ValueError(f"rule {rule!r}: {ast.unparse(node)!r} is not allowed")

    try:
        tree = ast.parse(str(rule), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"rule {rule!r} does not parse") from exc
    return float(ev(tree.body))


def parse_config_file(path):
    """Flat key = value parser.  Each value is read as its ExperimentConfig
    field's type: epsilon_list and delta_list are comma lists of numbers,
    integer keys take integers only, and rules stay strings."""
    raw = {}
    with open(path) as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in text.split("=", 1))
            raw[key] = val.strip('"').strip("'")
    types = {f.name: f.type for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    kwargs = {}
    for key, val in raw.items():
        try:
            kwargs[key] = _PARSERS[types[key]](val)
        except ValueError as exc:
            raise ValueError(f"{key} = {val!r}: {exc}") from None
    return ExperimentConfig(**kwargs)


def _parse_int(val):
    """An integer, also when written as an integral float such as 1e5."""
    try:
        return int(val)
    except ValueError:
        pass
    try:
        x = float(val)
    except ValueError:
        x = math.nan
    if not x.is_integer():
        raise ValueError("not an integer")
    return int(x)


# ExperimentConfig field type (a string under postponed annotations) -> parser
_PARSERS = {
    "str": str,
    "float": float,
    "int": _parse_int,
    "tuple": lambda val: tuple(float(v) for v in val.split(",") if v.strip()),
}


# ---------------------------------------------------------------------------
# named scenarios

def scenario_data(model, name, seed=0, n_jumps=10, tv=0.3):
    """Initial piecewise-constant data for the named scenario."""
    if model.name == "burgers":
        table = {
            "lone_shock": ([0.0], [[1.0], [0.0]]),
            "lone_rarefaction": ([0.0], [[0.0], [0.5]]),
            "merge": ([-0.6, 0.2], [[2.0], [1.0], [0.0]]),
            "cancellation": ([-0.3, 0.1], [[0.0], [0.5], [-0.5]]),
            "merge_cancellation": ([-0.25, -0.05, 0.15, 0.6],
                                   [[1.0], [0.0], [0.5], [-0.5], [0.1]]),
        }
        if name in table:
            return PiecewiseConstant(*table[name])
        if name == "random_bv":
            rng = np.random.default_rng(seed)
            xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
            jumps = rng.normal(size=n_jumps)
            jumps *= tv / np.sum(np.abs(jumps))
            vals = np.concatenate([[0.0], np.cumsum(jumps)])
            return PiecewiseConstant(xs, vals[:, None])
        raise ValueError(f"unknown scenario {name!r} for burgers")
    if model.name != "p_system":
        raise ValueError(f"no scenarios for model {model.name!r}: "
                         "they are defined for the burgers and p_system presets")
    # p-system scenarios are generated through the wave curves so all the
    # intermediate states stay inside the domain box
    base = np.array([1.0, 0.0])
    if name == "lone_shock":
        return PiecewiseConstant([0.0], [base, lax_curve(model, 1, base, -0.3)])
    if name == "lone_rarefaction":
        return PiecewiseConstant([0.0], [base, lax_curve(model, 1, base, 0.3)])
    if name == "random_bv":
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-1.0, 1.0, n_jumps))
        strengths = rng.normal(size=n_jumps)
        strengths *= tv / np.sum(np.abs(strengths))
        fams = rng.integers(1, model.n + 1, size=n_jumps)
        vals = [base]
        for s, f in zip(strengths, fams):
            vals.append(lax_curve(model, int(f), vals[-1], float(s)))
        return PiecewiseConstant(xs, np.array(vals))
    raise ValueError(f"unknown scenario {name!r} for p_system")


# ---------------------------------------------------------------------------
# converge

@dataclass
class ConvergenceTable:
    rows: list
    fit_p: float = None
    fit_c: float = None
    ratio_spread: float = None
    # a class attribute, not a field: the CSV's column order is fixed
    columns = ("epsilon", "rate_var", "l1_error", "residual", "jump_sum",
               "endpoint_0", "endpoint_tau", "n_events", "n_tracks", "tv0")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join("%.17g" % row[c] if isinstance(row[c], float)
                                  else str(row[c]) for c in self.columns) + "\n")

    def fit(self):
        self.fit_p, self.fit_c = _loglog_fit([r["rate_var"] for r in self.rows],
                                             [r["l1_error"] for r in self.rows])
        ratios = [r["l1_error"] / r["rate_var"] for r in self.rows]
        self.ratio_spread = float(max(ratios) / min(ratios))
        return self.fit_p, self.fit_c


def _loglog_fit(xs, ys):
    """Least-squares fit of ys = c xs^p on log-log axes; returns (p, c), or
    (None, None) from fewer than two points."""
    if len(xs) < 2:
        return None, None
    x = np.log(xs)
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.log(ys), rcond=None)
    return float(sol[0]), float(np.exp(sol[1]))


def _track(cfg, model, data, scale, eps_prime):
    """Front-tracking run of data to cfg.tau, with rarefaction steps capped
    by cfg.cap_rule at the given length scale."""
    cap = eval_rule(cfg.cap_rule, scale)
    return run_until(model, init_front_tracking(model, data, eps_prime, cap),
                     cfg.tau, epsilon_prime=eps_prime, max_events=cfg.max_events)


# a fall of u between two points larger than its rounding marks a shock
_FALL_TOL = 1e-12


def _row_distances(model, data, eps, tau, sol, u_ft):
    """The row's L1 distances at tau on the grid's span [x[0], x[-1]]:
    l1_error = L1(u_FT, u_eps), with u_eps the piecewise-linear interpolant
    of the grid's values, and, for a model with viscous_fn and entropy_fn,
    l1_exact = L1(u_eps, u) and ft_error = L1(u_FT, u), with u_eps and u
    from those closed forms.

    One cut serves all three: the grid nodes, u_FT's breakpoints and, where
    u is known, its shocks; each segment is integrated by 6-point
    Gauss-Legendre at one set of points.
    Between shocks u does not fall (Oleinik's condition), so each segment
    over which it falls holds a shock, which bisection on u locates.  On a
    segment the difference of u_FT and the interpolant is linear, a + b t,
    so the rule is exact for n = 1 where a + b t keeps its sign; it is not
    where a + b t has a zero inside, nor where the norm is curved (n > 1)."""
    x = sol.x
    cut = np.union1d(x, u_ft.xs[(u_ft.xs > x[0]) & (u_ft.xs < x[-1])])
    exact = model.viscous_fn is not None and model.entropy_fn is not None
    if exact:
        def u(pts):
            return model.entropy_fn(data, tau, pts)[:, 0]

        u_cut = u(cut)
        falls = u_cut[:-1] - u_cut[1:] > _FALL_TOL
        lo, hi, u_lo = cut[:-1][falls], cut[1:][falls], u_cut[:-1][falls]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            u_mid = u(mid)
            left = u_lo - u_mid > _FALL_TOL      # the fall is in [lo, mid]
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
        u_exact = model.entropy_fn(data, tau, pts)
        out["l1_exact"] = gauss_l1(cut, model.viscous_fn(data, eps, tau, pts), u_exact)
        out["ft_error"] = gauss_l1(cut, ft, u_exact)
    return out


def converge_row(cfg, eps):
    """One epsilon row of the convergence experiment."""
    model, data = cfg.model_and_data()
    rho = eval_rule(cfg.rho_rule, eps)
    dx = eval_rule(cfg.dx_rule, eps)
    ln_eps = abs(math.log(eps))
    rate_var = math.sqrt(eps) * ln_eps

    run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
    u_tau = sample_profile(run, cfg.tau)
    tv0 = data.total_variation()

    sol = solve_viscous(model, eps, data, cfg.tau, dx)
    distances = _row_distances(model, data, eps, cfg.tau, sol, u_tau)

    tracks = select_big_shocks(run, rho)
    hyb = build_hybrid(run, tracks, eps)
    res = residual(hyb)
    js = jump_sum(hyb)
    e0 = hybrid_vs_profile_l1(hyb, 0.0)
    etau = hybrid_vs_profile_l1(hyb, cfg.tau)
    row = {
        "epsilon": eps, "rate_var": rate_var, "l1_error": distances["l1_error"],
        "residual": res["total"], "jump_sum": js["total"],
        "endpoint_0": e0, "endpoint_tau": etau,
        "n_events": len(run.events), "n_tracks": len(tracks), "tv0": tv0,
    }
    # l1_exact and ft_error, for models with the closed forms
    row.update(distances)
    return row


def converge_cmd(cfg, out_dir=None):
    rows = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futs = [pool.submit(converge_row, cfg, eps) for eps in cfg.epsilon_list]
            rows = [f.result() for f in futs]
    else:
        for eps in cfg.epsilon_list:
            rows.append(converge_row(cfg, eps))
    table = ConvergenceTable(rows=rows)
    table.fit()
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        table.to_csv(os.path.join(out_dir, "table.csv"))
        fit = {
            "fit_p": table.fit_p, "fit_c": table.fit_c,
            "ratio_spread": table.ratio_spread,
            "decomposition_ratio": [
                r["l1_error"] / max(r["endpoint_0"] + r["residual"] + r["jump_sum"]
                                    + r["endpoint_tau"], 1e-300)
                for r in rows
            ],
        }
        # the distances to the exact solution, for models with its closed form
        for key in ("l1_exact", "ft_error"):
            if key in rows[0]:
                fit[key] = [r[key] for r in rows]
        with open(os.path.join(out_dir, "fit.json"), "w") as fh:
            fh.write(json.dumps(fit, sort_keys=True, indent=1) + "\n")
    return table


# ---------------------------------------------------------------------------
# functionals

def functional_report_cmd(cfg, out_dir=None):
    model, data = cfg.model_and_data()
    reports = {}
    any_violation = False
    for eps in cfg.epsilon_list:
        rho = eval_rule(cfg.rho_rule, eps)
        run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
        tracks = select_big_shocks(run, rho)
        rep = audit_events(run, tracks, eps, cfg.constants(), rho=rho)
        rates = interaction_decay_rates(run, tracks, eps)
        any_violation = any_violation or not rep.ok()
        reports["%.6g" % eps] = {
            "audit": json.loads(rep.to_json()),
            "rates": rates,
        }
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "audit.json"), "w") as fh:
            fh.write(json.dumps(reports, sort_keys=True, indent=1, default=float) + "\n")
    return reports, any_violation


# ---------------------------------------------------------------------------
# decay

def decay_report_cmd(cfg, out_dir=None):
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, min(cfg.delta_list), 1e-9)
    tv = data.total_variation()
    rows = []
    for delta in sorted(cfg.delta_list, reverse=True):
        E = pair_interaction_integral(run, delta)
        scale = delta * (math.log(2.0 + cfg.tau) + abs(math.log(delta))) * max(tv, 1e-300)
        rows.append({"delta": delta, "integral": E, "scale": scale,
                     "ratio": E / scale})
    positive = [r for r in rows if r["integral"] > 0]
    fit_p, fit_c = _loglog_fit([r["scale"] for r in positive],
                               [r["integral"] for r in positive])
    ratios = [r["ratio"] for r in positive]
    stability = (max(ratios) / min(ratios)) if ratios else None
    out = {"rows": rows, "fit_p": fit_p, "fit_c": fit_c, "ratio_stability": stability}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "decay.csv"), "w") as fh:
            fh.write("delta,integral,scale,ratio\n")
            for r in rows:
                fh.write(",".join("%.17g" % r[c] for c in ("delta", "integral", "scale", "ratio")) + "\n")
        with open(os.path.join(out_dir, "decay_fit.json"), "w") as fh:
            fh.write(json.dumps({k: v for k, v in out.items() if k != "rows"},
                                sort_keys=True, indent=1) + "\n")
    return out


# ---------------------------------------------------------------------------
# CLI

def main(argv=None):
    parser = argparse.ArgumentParser(prog="vanvisc",
                                     description="front tracking / vanishing viscosity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "functionals", "decay"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        cfg = parse_config_file(args.config)
    except (OSError, ValueError, TypeError, ArithmeticError, VanviscError) as exc:
        print(f"vanvisc: bad config {args.config}: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "converge":
            converge_cmd(cfg, args.out)
            return 0
        if args.command == "functionals":
            _, violated = functional_report_cmd(cfg, args.out)
            return 2 if violated else 0
        decay_report_cmd(cfg, args.out)
        return 0
    except (VanviscError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"vanvisc: {args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
