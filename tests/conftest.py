"""Test-wide Hypothesis settings, and the inputs that several test modules
share: the hook-less twins of the presets, the criteria 3-4 corpus and
the criteria 5-6 comparison instances.

A failing property prints the @reproduce_failure blob, so that a failure
found on one machine (whose example database stays there) can be replayed
on another, and no example has a deadline, since the properties solve
Riemann problems and run front tracking, whose time per example varies with
the draw and the machine."""

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import settings

from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.harness import eval_rule, scenario_data
from vanvisc.measures import WaveMeasure, pos_neg_parts, wave_measure
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import SystemModel, preset_model

settings.register_profile("vanvisc", print_blob=True, deadline=None)
settings.load_profile("vanvisc")

B = preset_model("burgers")
P = preset_model("p_system")

# the presets without some of their hooks, each named for those it drops:
# the hook-less paths are the hooks' oracles (tests/oracles.py, ORACLES)
B_NO_VISCOUS_FN_PROFILE_FN = dataclasses.replace(B, viscous_fn=None, profile_fn=None)
B_NO_WAVE_CURVE = dataclasses.replace(B, wave_curve=None)
P_NO_WAVE_CURVE = dataclasses.replace(P, wave_curve=None)
P_NO_RIEMANN_FN = dataclasses.replace(P, riemann_fn=None)


def readme_config_keys():
    """The keys in the first cells of README's `| key | meaning |` table."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| key | meaning |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    cells = [row.split("|")[1] for row in table.splitlines()]
    return {key for cell in cells for key in re.findall(r"\w+", cell)}


def no_hooks(model):
    """model without any optional hook: its flux, jacobian and box only."""
    return SystemModel(n=model.n, flux=model.flux, jacobian=model.jacobian,
                       domain_box=model.domain_box)


# u_t + (u^3/3)_x = 0: lambda = u^2 >= 0, so a target lambda below zero has
# no Hugoniot point, and states of opposite sign have no Lax solution
CUBIC = SystemModel(n=1, flux=lambda u: u ** 3 / 3.0,
                    jacobian=lambda u: (np.asarray(u, dtype=float) ** 2)[..., None],
                    domain_box=((-2.0, 2.0),))
# Burgers without its preset closed forms, on a box where f is up to 5e21
WIDE = SystemModel(n=1, flux=lambda u: 0.5 * u * u,
                   jacobian=lambda u: np.array(u, dtype=float)[..., None],
                   domain_box=((-1e11, 1e11),))

# the eps of the acceptance sweep (criteria 1 and 2)
SWEEP_EPS = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)


def pc(xs, vals):
    return PiecewiseConstant(xs, np.asarray(vals, dtype=float).reshape(len(xs) + 1, -1))


def random_steps(rng, n, tv, rising=None):
    """Scalar data from 0 with n normal jumps scaled to total variation tv,
    at sorted uniform points of [-1, 1]; with rising, each jump rises with
    that probability."""
    xs = np.sort(rng.uniform(-1, 1, n))
    jumps = rng.normal(size=n)
    if rising is not None:
        jumps = np.abs(jumps) * np.where(rng.random(n) < rising, 1.0, -1.0)
    jumps *= tv / np.sum(np.abs(jumps))
    return PiecewiseConstant(xs, np.concatenate([[0.0], np.cumsum(jumps)])[:, None])


def random_monotone(rng, atom_mass=(0.02, 0.4), density=1.5):
    """A non-negative measure on [-2, 2]: up to 3 atoms of uniform masses in
    atom_mass, and a step density of up to 3 uniform values below density."""
    atoms = [(rng.uniform(-2, 2), rng.uniform(*atom_mass))
             for _ in range(rng.integers(0, 4))]
    k = int(rng.integers(1, 4))
    xs = np.sort(rng.uniform(-2, 2, k + 1))
    vals = np.concatenate([[0.0], rng.uniform(0.0, density, k), [0.0]])
    return WaveMeasure.from_atoms(atoms).with_density(xs, vals[: k + 2])


def clip_rearranged(hat_g, hat_w):
    """Measure of min(hat_g, hat_w) on x > 0 (odd extension), which is itself
    an odd rearranged profile lying below hat_w."""
    xs = sorted({0.0}
                | set(np.abs(hat_g.measure.density_xs).tolist())
                | set(np.abs(hat_w.measure.density_xs).tolist()))
    xs = [x for x in xs if x >= 0.0]
    hi = max(xs[-1], 1.0) + 1.0
    grid = []
    for a, b in zip(xs, xs[1:] + [hi]):
        grid.extend(np.linspace(a, b, 40, endpoint=False))
    grid.append(hi)
    grid = np.array(grid)

    def val(mp, x):
        return mp.measure.mass_on(0.0, x) - 0.5 * mp.measure.atom_mass()

    vals = np.minimum([val(hat_g, x) for x in grid], [val(hat_w, x) for x in grid])
    atoms = []
    v0 = min(val(hat_g, 0.0), val(hat_w, 0.0))
    if v0 > 0:
        atoms.append((0.0, 2 * v0))
    dens_xs, dens_vals = [], [0.0]
    for (x0, v_0), (x1, v_1) in zip(zip(grid[:-1], vals[:-1]), zip(grid[1:], vals[1:])):
        slope = max(0.0, (v_1 - v_0) / (x1 - x0))
        dens_xs.append(x0)
        dens_vals.append(slope)
    dens_xs.append(grid[-1])
    dens_vals.append(0.0)
    xs_full = np.concatenate([-np.array(dens_xs[::-1]), np.array(dens_xs)])
    vv = dens_vals[1:-1][::-1]
    vals_full = np.concatenate([[0.0], vv, dens_vals[1:]])
    mu = WaveMeasure.from_atoms(atoms)
    return mu.with_density(xs_full, vals_full[: xs_full.size + 1])


def ft_run(model, data, tau, cap):
    """Front tracking of data to tau with rarefaction steps of at most cap
    (epsilon_prime 1e-9)."""
    return run_until(model, init_front_tracking(model, data, 1e-9, cap), tau)


def corpus_run(model, seed, n_jumps, cap=0.02):
    """Front tracking to t = 1.5 on random_bv data of TV 0.3, as the corpus
    runs it: interactions whose strength product is below 1e-8 go to the
    exactly conservative pass-through solver, since sub-noise interactions
    would otherwise feed C1-amplified Riemann-iteration roundoff into the
    audit."""
    data = scenario_data(model, "random_bv", seed=seed, n_jumps=n_jumps, tv=0.3)
    return run_until(model, init_front_tracking(model, data, 1e-6, cap), 1.5,
                     epsilon_prime=1e-6, simplified_threshold=1e-8)


@pytest.fixture(scope="session")
def corpus():
    """The random corpus of criteria 3-4: the 25 Burgers runs of random_bv
    seeds 0-24, then the 25 p-system runs of seeds 100-124."""
    return [corpus_run(model, seed, n_jumps)
            for model, seeds, n_jumps in ((B, range(25), 10), (P, range(100, 125), 8))
            for seed in seeds]


def comparison_instance(data, cap=0.02, tau=2.0):
    """A comparison instance of criteria 5-6 from Burgers data: its
    front-tracking run, the positive part of its initial wave measure and
    the run's (t, Q) history."""
    run = ft_run(B, data, tau, cap)
    mu0p, _ = pos_neg_parts(wave_measure(B, run.configs[0].profile(), 1))
    return run, mu0p, [(t, Q) for (t, V, Q, U) in run.glimm_history]


def creation_chain_data(eps):
    """A creation scenario that scales with eps: a 0.49 rho shock crosses
    rho/2 by swallowing a 0.02 rho trigger, grows past rho through five
    0.16 rho feeders, and carries nearby same-family rarefaction content
    (0.26 rho within the weight window) that the new track switches on.
    Everything scales with rho and sqrt(eps), so the creation surcharge
    ratio is comparable across eps.  Returns (data, rho, cap, tau)."""
    rho = eval_rule("4*sqrt_eps*abs_ln_eps", eps)
    r = math.sqrt(eps)
    cap = 0.05 * rho
    xs, levels = [], [0.0]
    x_feeders = [-14 * r, -11 * r, -8.5 * r, -6.5 * r, -5 * r]
    for x in x_feeders:
        xs.append(x)
        levels.append(levels[-1] - 0.16 * rho)
    xs.append(-0.2 * r)
    levels.append(levels[-1] - 0.02 * rho)       # trigger
    xs.append(0.0)
    levels.append(levels[-1] - 0.49 * rho)       # main shock
    n_steps = 6
    for j in range(n_steps):
        xs.append(1.0 * r + j * 0.05 * r)
        levels.append(levels[-1] + 0.26 * rho / n_steps)   # rarefaction fan
    data = PiecewiseConstant(xs, np.array(levels)[:, None])
    tau = 20.0 * r / rho
    return data, rho, cap, tau
