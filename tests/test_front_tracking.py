import itertools
from dataclasses import replace

import numpy as np
import pytest

from vanvisc.errors import EventBudgetExceeded, InvalidConfiguration, OutOfRange
from vanvisc.front_tracking import (FrontConfiguration, glimm_functionals, init_front_tracking,
                                    merge_cancelling_pairs, next_interaction,
                                    resolve_interaction, run_until, sample_profile)
from vanvisc.harness import scenario_data
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import preset_model

B = preset_model("burgers")
P = preset_model("p_system")


def pc(xs, vals):
    return PiecewiseConstant(xs, np.asarray(vals, dtype=float).reshape(len(xs) + 1, -1))


def test_init_single_shock():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    assert len(cfg.fronts) == 1
    f = cfg.fronts[0]
    assert f.kind == "shock" and f.speed == pytest.approx(0.5) and f.strength == pytest.approx(-1.0)


def test_init_rarefaction_splitting():
    cfg = init_front_tracking(B, pc([0.0], [0.0, 1.0]), 1e-9, 0.25)
    assert len(cfg.fronts) == 4
    for j, f in enumerate(cfg.fronts):
        assert f.kind == "rarefaction_step"
        assert f.strength == pytest.approx(0.25, abs=1e-12)
        assert f.speed == pytest.approx(0.25 * (j + 1), abs=1e-10)


def test_init_p_system_families_ordered():
    data = PiecewiseConstant([0.0], [[1.0, 0.0], [1.1, 0.05]])
    cfg = init_front_tracking(P, data, 1e-9, 0.05)
    fams = [f.family for f in cfg.fronts]
    assert fams == sorted(fams)
    assert set(fams) == {1, 2}


def test_validate_raises_on_broken_configuration():
    cfg = init_front_tracking(B, pc([0.0, 1.0], [1.0, 0.0, -0.5]), 1e-9, 0.25)
    swapped = replace(cfg, fronts=cfg.fronts[::-1])
    with pytest.raises(InvalidConfiguration, match="inconsistent adjacent states"):
        swapped.validate()
    crossed = replace(cfg, fronts=[cfg.fronts[0], replace(cfg.fronts[1], pos=-1.0)])
    with pytest.raises(InvalidConfiguration, match="left of its neighbour"):
        crossed.validate()


def test_next_interaction_two_shocks():
    cfg = init_front_tracking(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 1e-9, 0.25)
    ev = next_interaction(cfg)
    assert ev.time == pytest.approx(1.0, abs=1e-12)
    assert ev.x == pytest.approx(1.5, abs=1e-12)
    assert ev.indices == (0, 1)


def test_next_interaction_none_for_single_front():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    assert next_interaction(cfg) is None


def test_three_front_tie_grouped():
    # shocks at -1, 0, 1 with speeds 1, 0, -1 all cross at x=0, t=1
    cfg = init_front_tracking(
        B, pc([-1.0, 0.0, 1.0], [1.5, 0.5, -0.5, -1.5]), 1e-9, 0.25
    )
    ev = next_interaction(cfg)
    assert ev.time == pytest.approx(1.0, abs=1e-12)
    assert ev.indices == (0, 1, 2)


def test_resolve_merge_drops_q():
    cfg = init_front_tracking(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 1e-9, 0.25)
    V0, Q0 = glimm_functionals(cfg)
    assert (V0, Q0) == (pytest.approx(2.0), pytest.approx(1.0))
    ev = next_interaction(cfg)
    new, incoming, outgoing, solver = resolve_interaction(B, cfg, ev, 1e-9,
                                                          itertools.count(len(cfg.fronts)))
    assert solver == "accurate"
    assert len(outgoing) == 1
    assert outgoing[0].strength == pytest.approx(-2.0)
    assert outgoing[0].speed == pytest.approx(1.0)
    V1, Q1 = glimm_functionals(new)
    assert Q1 - Q0 == pytest.approx(-1.0, abs=1e-12)


def test_resolve_cancellation():
    # rarefaction step (0 -> 0.25) catches shock (0.25 -> -0.25)
    cfg = init_front_tracking(B, pc([0.0, 1.0], [0.0, 0.25, -0.25]), 1e-9, 0.25)
    run = run_until(B, cfg, 20.0)
    assert len(run.events) == 1
    final = run.configs[-1].fronts
    assert len(final) == 1
    assert final[0].kind == "shock"
    assert final[0].strength == pytest.approx(-0.25, abs=1e-10)


def test_simplified_solver_emits_np_front():
    # tiny transversal crossing resolved by the simplified solver
    from vanvisc.riemann import lax_curve

    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.01)            # slow family-2 wave on the left
    u2 = lax_curve(P, 1, u1, -0.012)           # family-1 wave to its right
    data = PiecewiseConstant([0.0, 0.5], [u0, u1, u2])
    cfg = init_front_tracking(P, data, 1e-9, 0.05)
    run = run_until(P, cfg, 50.0, epsilon_prime=1e-9, simplified_threshold=1e-3)
    assert any(ev.solver == "simplified" for ev in run.events)
    nps = [f for c in run.configs for f in c.fronts if not f.physical]
    assert nps, "expected a non-physical front"
    assert sum(f.strength for f in run.configs[-1].fronts if not f.physical) < 1e-3


def test_run_until_examples():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    assert len(run.events) == 0
    assert run.glimm_history[0][1] == pytest.approx(1.0)

    cfg = init_front_tracking(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    assert len(run.events) == 1
    assert run.glimm_history[0][2] - run.glimm_history[1][2] == pytest.approx(1.0)


def test_random_run_glimm_monotonicity():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-1, 1, 10))
    jumps = rng.normal(size=10)
    jumps *= 0.5 / np.sum(np.abs(jumps))
    vals = np.concatenate([[0.0], np.cumsum(jumps)])
    cfg = init_front_tracking(B, PiecewiseConstant(xs, vals[:, None]), 1e-9, 0.02)
    run = run_until(B, cfg, 2.0)
    hist = run.glimm_history
    assert len(run.events) > 3
    for (_, V0, Q0, U0), (_, V1, Q1, U1) in zip(hist[:-1], hist[1:]):
        assert V1 <= V0 + 1e-12
        assert Q1 <= Q0 + 1e-12
        assert U1 <= U0 + 1e-10


def test_sample_profile_conventions():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    prof = sample_profile(run, 2.0)
    assert prof.xs[0] == pytest.approx(1.0)

    cfg = init_front_tracking(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    t1 = run.times[0]
    prof_at = sample_profile(run, t1)       # right-continuous: post-interaction
    assert np.count_nonzero(np.linalg.norm(prof_at.jumps(), axis=1) > 1e-12) == 1

    cfg = init_front_tracking(B, pc([0.0], [0.0, 1.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    prof = sample_profile(run, 1.0)
    assert prof.xs == pytest.approx([0.25, 0.5, 0.75, 1.0], abs=1e-10)

    with pytest.raises(OutOfRange):
        sample_profile(run, 2.0)


def test_glimm_functional_examples():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    assert glimm_functionals(cfg) == (pytest.approx(1.0), pytest.approx(0.0))

    cfg = init_front_tracking(B, pc([0.0, 2.0], [2.0, 1.0, 0.0]), 1e-9, 0.25)
    V, Q = glimm_functionals(cfg)
    assert Q == pytest.approx(1.0)

    # family-1 wave left of family-2 wave: diverging, Q = 0
    from vanvisc.riemann import lax_curve

    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 1, u0, -0.1)
    u2 = lax_curve(P, 2, u1, -0.1)
    data = PiecewiseConstant([-1.0, 1.0], [u0, u1, u2])
    cfg = init_front_tracking(P, data, 1e-9, 0.05)
    V, Q = glimm_functionals(cfg)
    assert Q == pytest.approx(0.0, abs=1e-12)


def test_finite_speed_l1_bound():
    cfg = init_front_tracking(B, pc([0.0, 1.0], [1.0, 0.2, -0.4]), 1e-9, 0.1)
    run = run_until(B, cfg, 2.0)
    d0 = 1.4
    vmax = 1.0
    for t0, t1 in ((0.0, 0.5), (0.3, 1.7), (1.0, 2.0)):
        d = sample_profile(run, t0).l1_distance(sample_profile(run, t1))
        assert d <= 2.0 * vmax * d0 * (t1 - t0) + 1e-12


def test_event_budget():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-1, 1, 8))
    jumps = rng.normal(size=8)
    jumps *= 0.5 / np.sum(np.abs(jumps))
    vals = np.concatenate([[0.0], np.cumsum(jumps)])
    cfg = init_front_tracking(B, PiecewiseConstant(xs, vals[:, None]), 1e-9, 0.02)
    with pytest.raises(EventBudgetExceeded):
        run_until(B, cfg, 10.0, max_events=2)


def test_merge_cancelling_pairs():
    from vanvisc.front_tracking import Front

    a = Front(0, 0.0, 1, "shock", -0.3, 0.0, np.array([0.15]), np.array([-0.15]))
    b = Front(1, 0.0, 1, "rarefaction_step", 0.1, -0.1, np.array([-0.15]), np.array([-0.05]))
    cfg = FrontConfiguration(time=0.0, fronts=[a, b], left_state=np.array([0.15]),
                             rarefaction_cap=0.25)
    merged = merge_cancelling_pairs(cfg)
    assert len(merged.fronts) == 1 and merged.rarefaction_cap == 0.25
    assert merged.fronts[0].strength == pytest.approx(-0.2)


def test_rarefaction_cap_bounds_every_step_of_a_corpus_run():
    # a p-system corpus run whose interactions emit rarefactions: the cap
    # given at initialisation bounds the steps born at interactions too
    data = scenario_data(P, "random_bv", seed=106, n_jumps=8, tv=0.3)
    run = run_until(P, init_front_tracking(P, data, 1e-6, 0.02), 1.5,
                    epsilon_prime=1e-6, simplified_threshold=1e-8)
    steps = [f.strength for c in run.configs for f in c.fronts
             if f.kind == "rarefaction_step"]
    assert max(steps) <= 0.02 * (1 + 1e-12)
    assert all(c.rarefaction_cap == 0.02 for c in run.configs)


def test_interaction_fan_split_at_the_configured_cap():
    # a 0.25 step catches a -0.05 shock at t = 2; the outgoing 0.2
    # rarefaction is within the cap of 0.25, so it stays one step
    cfg = init_front_tracking(B, pc([0.0, 0.05], [0.0, 0.25, 0.2]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.5)
    assert len(run.events) == 1
    ev = run.events[0]
    assert ev.time == pytest.approx(2.0)
    assert len(ev.outgoing) == 1
    assert ev.outgoing[0].kind == "rarefaction_step"
    assert ev.outgoing[0].strength == pytest.approx(0.2, abs=1e-12)
