import dataclasses

import numpy as np
import pytest
from conftest import (B_NO_WAVE_CURVE, CUBIC, P_NO_RIEMANN_FN, P_NO_WAVE_CURVE, WIDE,
                      no_hooks)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vanvisc.errors import NoRoot, NoSolution, NotOnLocus, OutOfDomain
from vanvisc.front_tracking import WAVE_FLOOR, init_front_tracking
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import _damped_newton, lax_curve, shock_speed, solve_riemann
from vanvisc.system import eigen_frame, preset_model, wave_speeds

B = preset_model("burgers")
P = preset_model("p_system", gamma=2, k=1)

# a state in the p-system box, a family and a wave strength
P_STATE = st.tuples(st.floats(0.5, 2.0), st.floats(-2.0, 2.0)).map(np.array)
FAMILY = st.sampled_from([1, 2])
STRENGTH = st.floats(-0.3, 0.3)
# a preset with its generic twin, a state in its box and a family
CURVE_INPUT = st.one_of(
    st.tuples(st.just((P, P_NO_WAVE_CURVE)), P_STATE, FAMILY),
    st.tuples(st.just((B, B_NO_WAVE_CURVE)), st.floats(-4.0, 4.0).map(lambda v: np.array([v])),
              st.just(1)),
)


def _lam(model, u, i):
    """lambda_i (1-based) from the jacobian's eigenvalues, not through the
    model's lambda_fn."""
    return wave_speeds(no_hooks(model), u)[i - 1]


def assert_lax_inequalities(model, f):
    """lambda_i(u+) < speed < lambda_i(u-) for a shock front of family i."""
    lam_r = _lam(model, f.right_state, f.family)
    lam_l = _lam(model, f.left_state, f.family)
    assert lam_r < f.speed < lam_l


def test_lax_curve_burgers():
    assert lax_curve(B, 1, np.array([0.0]), 0.5)[0] == pytest.approx(0.5, abs=1e-12)
    assert lax_curve(B, 1, np.array([1.0]), -1.0)[0] == pytest.approx(0.0, abs=1e-10)
    assert lax_curve(B, 1, np.array([0.3]), 0.0)[0] == pytest.approx(0.3)


def test_rarefaction_curve_leaving_the_domain_raises_out_of_domain():
    # Burgers' box is [-4, 4]; the p-system curve runs out of its w range
    with pytest.raises(OutOfDomain):
        lax_curve(B, 1, [3.9], 0.5)
    with pytest.raises(OutOfDomain):
        lax_curve(P, 2, [1.0, 1.9], 0.9)
    # a 1-shock from v = 0.55 ends below the box's v >= 0.5
    with pytest.raises(OutOfDomain):
        lax_curve(P, 1, [0.55, 0.0], -0.9)
    # lambda_2 = c(v) = 0.5 at v = 2, and lambda_1 = -c(v): these ask for
    # c < 0, which no v > 0 has
    for i, s in ((2, -0.6), (1, 0.6)):
        with pytest.raises(OutOfDomain):
            lax_curve(P, i, [2.0, 0.0], s)
        # Python floats too, whose negative ** fractional is complex
        with pytest.raises(OutOfDomain):
            P.wave_curve(i, (2.0, 0.0), s)
    # c = 0 and c = 1e-12: v -> infinity
    for s in (0.5, 0.5 - 1e-12):
        with pytest.raises(OutOfDomain):
            lax_curve(P, 1, [2.0, 0.0], s)
    assert not P.in_domain([np.nan, 0.0])


def _box_gap(model, u):
    """Distance from the state u to the nearest face of the domain box."""
    return min(min(abs(ui - lo), abs(ui - hi)) for ui, (lo, hi) in zip(u, model.domain_box))


@settings(max_examples=200)
@given(CURVE_INPUT, STRENGTH)
# a strength below the rounding of a state on the face w = 2: the closed
# form lands an ulp outside w = 2, RK4 on u0 itself
@example(((P, P_NO_WAVE_CURVE), np.array([1.0, 2.0]), 1), 1e-15)
@example(((P, P_NO_WAVE_CURVE), np.array([1.0, 2.0]), 2), 1e-15)
def test_p_system_wave_curve_agrees_with_generic_path(curve_input, s):
    (model, generic), u0, i = curve_input
    try:
        u = lax_curve(model, i, u0, s)
    except OutOfDomain:
        try:
            ref = lax_curve(generic, i, u0, s)
        except (OutOfDomain, NoRoot):
            return
        # the generic path may stay inside where the closed form's rounding
        # steps out, but only on the box's boundary
        assert _box_gap(model, ref) <= 1e-12
        return
    try:
        ref = lax_curve(generic, i, u0, s)
    except OutOfDomain:
        # Newton starts from u0 + s r_i(u0), which may leave the box although
        # the shock's end state is inside
        assert s < 0 and not model.in_domain(u0 + s * eigen_frame(model, u0)[i - 1])
        return
    # RK4's truncation error at |s| = 0.3 is up to 7e-10
    assert np.max(np.abs(u - ref)) <= 1e-9


@settings(max_examples=200)
@given(P_STATE, FAMILY, STRENGTH)
def test_p_system_wave_curve_is_parametrised_by_strength(u0, i, s):
    try:
        u = lax_curve(P, i, u0, s)
    except OutOfDomain:
        return
    lam0, lam = wave_speeds(P, u0)[i - 1], wave_speeds(P, u)[i - 1]
    assert lam - lam0 == pytest.approx(s, abs=1e-14)
    # a strength below the rounding of u0 leaves it where it is
    if s < 0 and not np.array_equal(u, u0):
        speed = shock_speed(P, u0, u)
        # the difference quotient's error, ~1e-16 / |s|, is below |s| / 2
        if s < -1e-6:
            assert lam < speed < lam0


@settings(max_examples=100)
@given(P_STATE, FAMILY, STRENGTH)
# one wave from each face of the box: from v = 0.5 and v = 2 a 2-wave's
# middle state is u0 itself, a root at an end of riemann_fn's bracket
@example(np.array([0.5, 0.3]), 2, -0.25)
@example(np.array([0.5, -1.0]), 1, 0.25)
@example(np.array([2.0, 0.3]), 2, 0.2)
@example(np.array([2.0, 1.0]), 1, -0.2)
@example(np.array([1.2, 2.0]), 2, -0.2)
@example(np.array([1.2, 2.0]), 1, -0.2)
@example(np.array([0.8, -2.0]), 1, 0.2)
@example(np.array([0.8, -2.0]), 2, 0.2)
def test_p_system_riemann_round_trips_on_wave_curve(u0, i, s):
    try:
        u = lax_curve(P, i, u0, s)
    except OutOfDomain:
        return
    expect = np.zeros(2)
    expect[i - 1] = s
    assert solve_riemann(P, u0, u) == pytest.approx(expect, abs=1e-7)


# states 0.05 inside the p-system box, where the Newton path's Jacobian
# probes stay inside it
P_INNER_STATE = st.tuples(st.floats(0.55, 1.95), st.floats(-1.95, 1.95)).map(np.array)


@settings(max_examples=200)
@given(P_INNER_STATE, st.tuples(STRENGTH, STRENGTH))
def test_riemann_fn_agrees_with_newton(u_l, strengths):
    # a strength next to ZERO_WAVE may be snapped to 0 by one solver only
    assume(not any(0.5e-12 < abs(si) < 2e-12 for si in strengths))
    u_r = u_l
    for i, si in enumerate(strengths, start=1):
        try:
            u_r = lax_curve(P, i, u_r, si)
        except OutOfDomain:
            assume(False)
    assume(0.55 <= u_r[0] <= 1.95 and abs(u_r[1]) <= 1.95)
    scale = max(1.0, np.max(np.abs(u_l)), np.max(np.abs(u_r)))
    s = solve_riemann(P, u_l, u_r)
    assert np.max(np.abs(s - solve_riemann(P_NO_RIEMANN_FN, u_l, u_r))) <= 1e-13 * scale


def test_riemann_fn_without_a_middle_state_in_the_box_raises_no_solution():
    # the middle state's v would lie above 2, outside the bracket
    with pytest.raises(NoSolution, match="no middle state"):
        solve_riemann(P, np.array([1.0, 0.0]), np.array([1.8, 1.1]))
    # v_m = 0.88 is in the box, but the middle state's w = 2.44 is not
    with pytest.raises(NoSolution, match="leave the domain box"):
        solve_riemann(P, np.array([0.6, 1.8]), np.array([1.4, 1.8]))
    # a hook whose waves miss u_plus fails the composition check
    half = dataclasses.replace(B, riemann_fn=lambda u_l, u_r: 0.5 * (u_r - u_l))
    with pytest.raises(NoSolution, match="miss u_plus"):
        solve_riemann(half, np.array([1.0]), np.array([0.0]))


def test_lax_curve_p_system_strength_parametrization():
    u0 = np.array([1.0, 0.0])
    for fam, s in ((2, 0.1), (1, 0.2), (1, -0.15), (2, -0.2)):
        u1 = lax_curve(P, fam, u0, s)
        dl = _lam(P, u1, fam) - _lam(P, u0, fam)
        assert dl == pytest.approx(s, abs=1e-8)


def _fronts(model, u_l, u_r):
    """The fronts init_front_tracking makes from the one jump u_l -> u_r,
    with a rarefaction cap above any strength solve_riemann returns, so
    that each rarefaction is one step."""
    data = PiecewiseConstant([0.0], [u_l, u_r])
    return init_front_tracking(model, data, 1e-9, 10.0).fronts


def test_riemann_burgers_single_shock():
    um, up = np.array([1.0]), np.array([0.0])
    assert solve_riemann(B, um, up) == pytest.approx([-1.0], abs=1e-10)
    (f,) = _fronts(B, um, up)
    assert f.kind == "shock"
    assert f.strength == pytest.approx(-1.0, abs=1e-10)
    assert f.speed == pytest.approx(0.5, abs=1e-10)
    assert_lax_inequalities(B, f)


def test_riemann_burgers_single_rarefaction():
    um, up = np.array([0.0]), np.array([1.0])
    assert solve_riemann(B, um, up) == pytest.approx([1.0], abs=1e-10)
    (f,) = _fronts(B, um, up)
    assert f.kind == "rarefaction_step"
    assert f.strength == pytest.approx(1.0, abs=1e-10)
    # the fan spans lambda from 0 to 1, and its one step moves at lambda(u+)
    assert _lam(B, f.left_state, 1) == pytest.approx(0.0, abs=1e-10)
    assert f.speed == pytest.approx(1.0, abs=1e-10)


def test_riemann_p_system_recomposition():
    um, up = np.array([1.0, 0.0]), np.array([1.1, 0.05])
    s = solve_riemann(P, um, up)
    u = um
    for i in (1, 2):
        u = lax_curve(P, i, u, s[i - 1])
    assert u == pytest.approx(up, abs=1e-8)
    fronts = _fronts(P, um, up)
    assert [f.family for f in fronts] == [1, 2]
    for f in fronts:
        dl = _lam(P, f.right_state, f.family) - _lam(P, f.left_state, f.family)
        assert dl == pytest.approx(f.strength, abs=1e-8)
        if f.kind == "shock":
            rh = P.flux(f.right_state) - P.flux(f.left_state) - f.speed * (
                f.right_state - f.left_state
            )
            assert np.linalg.norm(rh) < 1e-8
            assert_lax_inequalities(P, f)


# a state and per-family strengths whose waves stay in the box: for Burgers
# a jump of at most 4, where the linearised start is the answer
B_WAVES = st.tuples(st.just(B), st.floats(-4.0, 4.0).map(lambda v: np.array([v])),
                    st.tuples(st.floats(-4.0, 4.0)))
P_WAVES = st.tuples(st.just(P), P_STATE, st.tuples(STRENGTH, STRENGTH))


@settings(max_examples=200)
@given(st.one_of(B_WAVES, P_WAVES))
# a middle state on each face of the p-system box
@example((P, np.array([0.5, 0.3]), (0.0, -0.25)))
@example((P, np.array([2.0, 0.3]), (0.0, 0.2)))
@example((P, np.array([1.2, 2.0]), (0.0, -0.2)))
@example((P, np.array([0.8, -2.0]), (0.0, 0.2)))
# u_r on the face of u_l, where the last wave ends
@example((P, np.array([0.5, -1.09]), (0.133, 0.133)))
@example((P, np.array([2.0, 0.64]), (-0.2, -0.2)))
# a wave below ZERO_WAVE that moves u_r by more than the composition bound
@example((P, np.array([1.0, 0.0]), (0.25, 1e-13)))
def test_riemann_fronts_chain_and_are_admissible(waves):
    model, u_l, strengths = waves
    u_r = u_l
    for i, si in enumerate(strengths, start=1):
        try:
            u_r = lax_curve(model, i, u_r, si)
        except OutOfDomain:
            assume(False)
    s = solve_riemann(model, u_l, u_r)
    assert s == pytest.approx(strengths, abs=1e-7)
    fronts = _fronts(model, u_l, u_r)
    # the fronts chain u_l to u_r, each starting where the previous one ends
    states = [u_l] + [f.right_state for f in fronts]
    assert all(f.physical for f in fronts)
    for f, left in zip(fronts, states):
        assert np.array_equal(f.left_state, left)
    assert np.array_equal(states[-1], u_r) or (not fronts and np.allclose(u_l, u_r, atol=1e-9))
    # the last front's right state is glued to u_r, off its wave curve by the
    # Riemann residual and by the waves dropped below the floor (those that
    # solve_riemann set to 0 too), whose states move by at most 3 |s|
    # (|r_i| <= 3 on the p-system box); its wave ends on the curve
    dropped = WAVE_FLOOR * np.count_nonzero(np.abs(s) < WAVE_FLOOR)
    sums = np.zeros(model.n)
    for f in fronts:
        sums[f.family - 1] += f.strength
        right = f.right_state
        if f is fronts[-1]:
            right = lax_curve(model, f.family, f.left_state, f.strength)
            assert np.max(np.abs(right - u_r)) <= 1e-12 + 4.0 * dropped
        lam_l, lam_r = _lam(model, f.left_state, f.family), _lam(model, right, f.family)
        assert lam_r - lam_l == pytest.approx(f.strength, abs=1e-12)
        if f.kind == "shock":
            rh = model.flux(right) - model.flux(f.left_state) - f.speed * (right - f.left_state)
            assert np.linalg.norm(rh) <= 1e-12 * max(1.0, np.linalg.norm(model.flux(u_l)))
            # the difference quotient's error, ~1e-16 / |s|, is below |s| / 2
            if f.strength < -1e-6:
                assert lam_r < f.speed < lam_l
        else:
            # a step moves at lambda_i of its right state
            assert f.kind == "rarefaction_step" and f.strength > 0
            assert f.speed == pytest.approx(lam_r, abs=1e-12)
    # a wave below front tracking's floor is dropped, every other one kept
    assert np.array_equal(sums, np.where(np.abs(s) < WAVE_FLOOR, 0.0, s))


def test_shock_speed_examples():
    assert shock_speed(B, np.array([2.0]), np.array([0.0])) == pytest.approx(1.0)
    assert shock_speed(B, np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 1, u0, -0.2)
    sp = shock_speed(P, u0, u1)
    l0 = _lam(P, u0, 1)
    l1 = _lam(P, u1, 1)
    assert l1 < sp < l0


def test_shock_speed_not_on_locus():
    with pytest.raises(NotOnLocus):
        shock_speed(P, np.array([1.0, 0.0]), np.array([1.1, 0.5]))
    with pytest.raises(NotOnLocus):
        shock_speed(B, np.array([1.0]), np.array([1.0]))


def test_round_trip_strengths():
    rng = np.random.default_rng(7)
    for model in (B, P):
        u0 = np.array([0.5]) if model.n == 1 else np.array([1.0, 0.0])
        for _ in range(10):
            fam = int(rng.integers(1, model.n + 1))
            s = float(rng.uniform(-0.3, 0.3))
            u1 = lax_curve(model, fam, u0, s)
            expect = np.zeros(model.n)
            expect[fam - 1] = s
            assert solve_riemann(model, u0, u1) == pytest.approx(expect, abs=1e-7)


def test_strength_additivity_burgers_merge():
    a, b, c = np.array([2.0]), np.array([1.2]), np.array([0.3])
    s1 = solve_riemann(B, a, b)[0]
    s2 = solve_riemann(B, b, c)[0]
    s = solve_riemann(B, a, c)[0]
    assert s == pytest.approx(s1 + s2, abs=1e-12)


def test_riemann_coinciding_states_have_no_waves():
    u = np.array([1.0, 0.0])
    s = solve_riemann(P, u, u)
    assert s.shape == (2,) and not s.any()
    # states closer than ZERO_WAVE times the data scale max(1, |u|) have no
    # waves either: at scale 3 a Burgers jump of 2.5e-12 has none, and one
    # of 3.5e-12 is its own strength
    s = solve_riemann(P, u, u + [0.0, 0.9e-12])
    assert s.shape == (2,) and not s.any()
    assert not solve_riemann(B, np.array([3.0]), np.array([3.0 + 2.5e-12])).any()
    assert solve_riemann(B, np.array([3.0]), np.array([3.0 + 3.5e-12]))[0] > 3e-12


def test_lax_curve_without_hugoniot_point_raises_no_root():
    with pytest.raises(NoRoot, match="line search failed"):
        lax_curve(CUBIC, 1, np.array([0.5]), -0.5)


def test_hugoniot_point_residual_is_relative_to_the_data_scale():
    # flux differences of 1e20 carry rounding far above 1e-11, which only a
    # bound relative to the data scale admits
    u0 = np.array([1e10])
    u = lax_curve(WIDE, 1, u0, -0.5)
    assert wave_speeds(WIDE, u)[0] - wave_speeds(WIDE, u0)[0] == pytest.approx(-0.5, abs=1e-5)


def test_riemann_without_lax_solution_raises_no_solution():
    with pytest.raises(NoSolution, match="line search failed"):
        solve_riemann(CUBIC, np.array([1.0]), np.array([-0.5]))


def test_damped_newton_failure_branches():
    z0 = np.array([1.0])
    with pytest.raises(NoRoot, match="singular Jacobian"):
        _damped_newton(lambda z: np.array([1.0]), z0, 1e-3, 5, NoRoot)
    # z = 0 minimises 1 + z^2 > 0: no step decreases it
    with pytest.raises(NoSolution, match="line search failed"):
        _damped_newton(lambda z: 1.0 + z ** 2, np.array([0.0]), 1e-3, 5, NoSolution)
    # 1 / (1 + z^2) falls by about 2.25 per step, from 0.5 to 7.5e-3 in five
    with pytest.raises(NoRoot, match="in 5 steps"):
        _damped_newton(lambda z: 1.0 / (1.0 + z ** 2), z0, 1e-3, 5, NoRoot)
    z = _damped_newton(lambda z: z ** 2 - 2.0, z0, 1e-12, 5, NoRoot)
    assert z[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    # a Jacobian probe that raises ends the solve with the caller's class
    def probe_fails(z):
        if z[0] != 1.0:
            raise OutOfDomain("probe outside the box")
        return z - 2.0
    with pytest.raises(NoRoot, match="Jacobian probe failed"):
        _damped_newton(probe_fails, z0, 1e-3, 5, NoRoot)


def test_riemann_start_leaving_the_box_is_halved():
    # interior data whose middle state has v = 1.977, but whose linearised
    # start composes a state at v = 2.0042, outside the box
    u_l, u_r = np.array([1.59575178, 0.15692097]), np.array([1.76258838, 0.50327455])
    s = solve_riemann(P_NO_RIEMANN_FN, u_l, u_r)
    u = lax_curve(P, 2, lax_curve(P, 1, u_l, s[0]), s[1])
    assert np.max(np.abs(u - u_r)) <= 1e-14 * 2.0
    # the Newton path's linearised start, which it halves
    s0 = np.linalg.inv(eigen_frame(P, 0.5 * (u_l + u_r)).T) @ (u_r - u_l)
    with pytest.raises(OutOfDomain):
        lax_curve(P, 2, lax_curve(P, 1, u_l, s0[0]), s0[1])


def test_riemann_burgers_strength_is_the_jump_across_the_box():
    # jumps up to the box's width 8: the start's clip and the Newton slack
    # follow the box, so a jump above 4 is no longer cut short
    states = np.concatenate([np.linspace(-4.0, 4.0, 9), [-3.5, 3.0, 3.9, -2.5]])
    for u_l in states:
        for u_r in states:
            s = solve_riemann(B, np.array([u_l]), np.array([u_r]))
            scale = max(1.0, abs(u_l), abs(u_r))
            assert abs(s[0] - (u_r - u_l)) <= 1e-14 * scale, (u_l, u_r, s)
