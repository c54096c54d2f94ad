from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import corpus_run, ft_run, pc, random_steps
from hypothesis import strategies as st
from oracles import l1_distance

from vanvisc.errors import EventBudgetExceeded, InvalidConfiguration, OutOfRange
from vanvisc.front_tracking import (POS_TOL, Event, Front, FrontConfiguration,
                                    glimm_functionals, init_front_tracking,
                                    merge_cancelling_pairs, next_interaction,
                                    resolve_interaction, run_until, sample_profile)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve, shock_speed
from vanvisc.system import preset_model, wave_speeds

B = preset_model("burgers")
P = preset_model("p_system")


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


def test_rarefaction_cap_alone_bounds_a_step():
    # a cap of 2 keeps a rarefaction of strength 1.5 in one step
    cfg = init_front_tracking(B, pc([0.0], [0.0, 1.5]), 1e-9, 2.0)
    (f,) = cfg.fronts
    assert f.kind == "rarefaction_step" and f.strength == 1.5
    assert f.speed == pytest.approx(1.5, abs=1e-12)


def test_init_p_system_families_ordered():
    data = PiecewiseConstant([0.0], [[1.0, 0.0], [1.1, 0.05]])
    cfg = init_front_tracking(P, data, 1e-9, 0.05)
    fams = [f.family for f in cfg.fronts]
    assert fams == sorted(fams)
    assert set(fams) == {1, 2}


def test_validate_raises_on_broken_configuration():
    cfg = init_front_tracking(B, pc([0.0, 1.0], [1.0, 0.0, -0.5]), 1e-9, 0.25)
    swapped = replace(cfg, fronts=cfg.fronts[::-1])
    with pytest.raises(InvalidConfiguration, match="front 0: inconsistent adjacent states"):
        swapped.validate()
    crossed = replace(cfg, fronts=[cfg.fronts[0], replace(cfg.fronts[1], x0=-1.0)])
    with pytest.raises(InvalidConfiguration, match="front 1 at -1.0 left of its neighbour"):
        crossed.validate()


def test_validate_tolerance_is_absolute():
    # states of size 1 that differ by 4e-6 are 4000 atol apart: no relative
    # slack may pass them
    a = Front(0.0, 0.0, 1, "shock", 1.0, 0.5, np.array([1.0]), np.array([1.0]))
    b = Front(0.5, 0.0, 1, "shock", 1.0, 0.5, np.array([1.0 + 4e-6]), np.array([0.0]))
    cfg = FrontConfiguration(0.0, [a, b], np.array([1.0]), 0.25)
    with pytest.raises(InvalidConfiguration, match="front 1: inconsistent adjacent states"):
        cfg.validate()
    # a difference of exactly atol passes, the next float above it and a NaN
    # component do not
    atol = 1e-9
    for left, ok in ((atol, True), (np.nextafter(atol, 1), False), (np.nan, False)):
        a = Front(0.0, 0.0, 1, "shock", 1.0, 0.5, np.array([0.0, left]), np.array([0.0, 0.0]))
        cfg = FrontConfiguration(0.0, [a], np.array([0.0, 0.0]), 0.25)
        if ok:
            assert cfg.validate(atol)
        else:
            with pytest.raises(InvalidConfiguration, match="front 0: inconsistent"):
                cfg.validate(atol)


def test_front_is_its_own_identity():
    # fronts compare and hash by object: equal fields make another front,
    # and a replaced front is a new one
    a = Front(0.0, 0.0, 1, "shock", -0.3, 0.0, np.array([0.15]), np.array([-0.15]))
    b = Front(0.0, 0.0, 1, "shock", -0.3, 0.0, np.array([0.15]), np.array([-0.15]))
    assert a == a and a != b
    assert len({a, b}) == 2
    profiles = {a: "a", b: "b"}
    assert (profiles[a], profiles[b]) == ("a", "b")
    c = replace(a, strength=-0.3)
    assert c is not a and c not in profiles


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
    new, incoming, outgoing, solver = resolve_interaction(B, cfg, ev, 1e-9)
    assert solver == "accurate"
    assert len(outgoing) == 1
    assert outgoing[0].strength == pytest.approx(-2.0)
    assert outgoing[0].speed == pytest.approx(1.0)
    V1, Q1 = glimm_functionals(new)
    assert Q1 - Q0 == pytest.approx(-1.0, abs=1e-12)


def test_resolve_cancellation():
    # rarefaction step (0 -> 0.25) catches shock (0.25 -> -0.25)
    run = ft_run(B, pc([0.0, 1.0], [0.0, 0.25, -0.25]), 20.0, 0.25)
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


def test_pass_through_sums_strengths_per_family():
    # a 1-shock, a 2-rarefaction and a 1-rarefaction meet a non-physical
    # front; resolve_interaction reads neither positions nor speeds
    from vanvisc.riemann import lax_curve

    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 1, u0, -0.05)
    u2 = lax_curve(P, 2, u1, 0.03)
    u3 = lax_curve(P, 1, u2, 0.02)
    u4 = u3 + np.array([1e-9, 0.0])
    fronts = [Front(0.0, 0.0, 1, "shock", -0.05, 0.0, u0, u1),
              Front(0.0, 0.0, 2, "rarefaction_step", 0.03, 0.0, u1, u2),
              Front(0.0, 0.0, 1, "rarefaction_step", 0.02, 0.0, u2, u3),
              Front(0.0, 0.0, 3, "non_physical", 1e-9, 0.0, u3, u4)]
    cfg = FrontConfiguration(0.0, fronts, u0, 0.05)
    _, _, outgoing, solver = resolve_interaction(P, cfg, Event(0.0, 0.0, (0, 1, 2, 3)), 1e-9)
    assert solver == "simplified"
    assert [(f.family, f.kind) for f in outgoing] == [
        (1, "shock"), (2, "rarefaction_step"), (3, "non_physical")]
    assert outgoing[0].strength == pytest.approx(-0.03, abs=1e-15)
    assert outgoing[1].strength == pytest.approx(0.03, abs=1e-15)
    assert outgoing[0].left_state is u0 and np.array_equal(outgoing[-1].right_state, u4)
    FrontConfiguration(0.0, list(outgoing), u0, 0.05).validate(atol=0.0)


def test_run_until_examples():
    run = ft_run(B, pc([0.0], [1.0, 0.0]), 1.0, 0.25)
    assert len(run.events) == 0
    assert run.glimm_history[0][1] == pytest.approx(1.0)

    run = ft_run(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 2.0, 0.25)
    assert len(run.events) == 1
    assert run.glimm_history[0][2] - run.glimm_history[1][2] == pytest.approx(1.0)


def test_random_run_glimm_monotonicity():
    run = ft_run(B, random_steps(np.random.default_rng(3), 10, 0.5), 2.0, 0.02)
    hist = run.glimm_history
    assert len(run.events) > 3
    for (_, V0, Q0, U0), (_, V1, Q1, U1) in zip(hist[:-1], hist[1:]):
        assert V1 <= V0 + 1e-12
        assert Q1 <= Q0 + 1e-12
        assert U1 <= U0 + 1e-10


def test_sample_profile_conventions():
    run = ft_run(B, pc([0.0], [1.0, 0.0]), 2.0, 0.25)
    prof = sample_profile(run, 2.0)
    assert prof.xs[0] == pytest.approx(1.0)

    run = ft_run(B, pc([0.0, 1.0], [2.0, 1.0, 0.0]), 2.0, 0.25)
    t1 = run.times[0]
    prof_at = sample_profile(run, t1)       # right-continuous: post-interaction
    assert np.count_nonzero(np.linalg.norm(prof_at.jumps(), axis=1) > 1e-12) == 1

    run = ft_run(B, pc([0.0], [0.0, 1.0]), 1.0, 0.25)
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
    run = ft_run(B, pc([0.0, 1.0], [1.0, 0.2, -0.4]), 2.0, 0.1)
    d0 = 1.4
    vmax = 1.0
    for t0, t1 in ((0.0, 0.5), (0.3, 1.7), (1.0, 2.0)):
        d = l1_distance(sample_profile(run, t0), sample_profile(run, t1))
        assert d <= 2.0 * vmax * d0 * (t1 - t0) + 1e-12


def test_event_budget():
    cfg = init_front_tracking(B, random_steps(np.random.default_rng(5), 8, 0.5), 1e-9, 0.02)
    with pytest.raises(EventBudgetExceeded):
        run_until(B, cfg, 10.0, max_events=2)


def test_merge_cancelling_pairs():
    a = Front(0.0, 0.0, 1, "shock", -0.3, 0.0, np.array([0.15]), np.array([-0.15]))
    b = Front(0.0, 0.0, 1, "rarefaction_step", 0.1, -0.1, np.array([-0.15]), np.array([-0.05]))
    cfg = FrontConfiguration(time=0.0, fronts=[a, b], left_state=np.array([0.15]),
                             rarefaction_cap=0.25)
    merged = merge_cancelling_pairs(cfg)
    assert len(merged.fronts) == 1 and merged.rarefaction_cap == 0.25
    assert merged.fronts[0].strength == pytest.approx(-0.2)


def test_merge_cancelling_pairs_keeps_a_pair_whose_outer_states_differ():
    # a p-system 1-shock of -0.05 and the 1-rarefaction of +0.05 from its
    # right state: the strengths cancel, but the rarefaction curve does not
    # lead back to the shock's left state, so the pair is merged into one
    # front of strength 0 that keeps the jump, not deleted
    u_l = np.array([1.0, 1.0])
    u_m = lax_curve(P, 1, u_l, -0.05)
    u_r = lax_curve(P, 1, u_m, 0.05)
    assert 1e-7 < np.max(np.abs(u_r - u_l)) < 1e-5
    a = Front(0.0, 0.0, 1, "shock", -0.05, shock_speed(P, u_l, u_m), u_l, u_m)
    b = Front(0.0, 0.0, 1, "rarefaction_step", 0.05, float(wave_speeds(P, u_r)[0]), u_m, u_r)
    cfg = FrontConfiguration(time=0.0, fronts=[a, b], left_state=u_l, rarefaction_cap=0.25)
    merged = merge_cancelling_pairs(cfg)
    assert len(merged.fronts) == 1 and merged.fronts[0].strength == 0.0
    assert np.array_equal(merged.profile().values[-1], u_r)


def test_rarefaction_cap_bounds_every_step_of_a_corpus_run():
    # a p-system corpus run whose interactions emit rarefactions: the cap
    # given at initialisation bounds the steps born at interactions too
    run = corpus_run(P, 106, 8)
    steps = [f.strength for c in run.configs for f in c.fronts
             if f.kind == "rarefaction_step"]
    assert max(steps) <= 0.02 * (1 + 1e-12)
    assert all(c.rarefaction_cap == 0.02 for c in run.configs)


def test_interaction_fan_split_at_the_configured_cap():
    # a 0.25 step catches a -0.05 shock at t = 2; the outgoing 0.2
    # rarefaction is within the cap of 0.25, so it stays one step
    run = ft_run(B, pc([0.0, 0.05], [0.0, 0.25, 0.2]), 2.5, 0.25)
    assert len(run.events) == 1
    ev = run.events[0]
    assert ev.time == pytest.approx(2.0)
    assert len(ev.outgoing) == 1
    assert ev.outgoing[0].kind == "rarefaction_step"
    assert ev.outgoing[0].strength == pytest.approx(0.2, abs=1e-12)


@settings(max_examples=20)
@given(st.sampled_from(["burgers", "p_system"]), st.integers(0, 10 ** 6))
def test_configurations_share_fronts_born_at_their_events(system, seed):
    # a front is made once, at its birth: configurations share the fronts
    # an event leaves untouched, each outgoing front is born at the event,
    # and each incoming front reaches the event along Front.x
    model = B if system == "burgers" else P
    run = corpus_run(model, seed, 10 if model is B else 8, cap=0.05)
    for c in run.configs:
        assert c.validate()
    distinct = {id(f) for c in run.configs for f in c.fronts}
    assert len(distinct) == len(run.configs[0].fronts) + sum(
        len(ev.outgoing) for ev in run.events)
    for ev in run.events:
        assert all((f.x0, f.t0) == (ev.x, ev.time) for f in ev.outgoing)
        assert all(abs(f.x(ev.time) - ev.x) <= POS_TOL for f in ev.incoming)
