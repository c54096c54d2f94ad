import numpy as np
import pytest

from vanvisc.errors import NoRoot, NoSolution, NotOnLocus, OutOfDomain
from vanvisc.riemann import _damped_newton, lax_curve, shock_speed, solve_riemann
from vanvisc.system import SystemModel, eigen_frame, preset_model

B = preset_model("burgers")
P = preset_model("p_system", gamma=2, k=1)


def assert_lax_inequalities(model, w):
    """lambda_i(u+) < speed < lambda_i(u-) for a shock of family i."""
    lam_r = eigen_frame(model, w.right_state).lambdas[w.family - 1]
    lam_l = eigen_frame(model, w.left_state).lambdas[w.family - 1]
    assert lam_r < w.speed < lam_l


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


def test_lax_curve_p_system_strength_parametrization():
    u0 = np.array([1.0, 0.0])
    for fam, s in ((2, 0.1), (1, 0.2), (1, -0.15), (2, -0.2)):
        u1 = lax_curve(P, fam, u0, s)
        dl = eigen_frame(P, u1).lambdas[fam - 1] - eigen_frame(P, u0).lambdas[fam - 1]
        assert dl == pytest.approx(s, abs=1e-8)


def test_riemann_burgers_single_shock():
    fan = solve_riemann(B, np.array([1.0]), np.array([0.0]))
    assert len(fan.waves) == 1
    w = fan.waves[0]
    assert w.kind == "shock"
    assert w.strength == pytest.approx(-1.0, abs=1e-10)
    assert w.speed == pytest.approx(0.5, abs=1e-10)
    assert_lax_inequalities(B, w)


def test_riemann_burgers_single_rarefaction():
    fan = solve_riemann(B, np.array([0.0]), np.array([1.0]))
    assert len(fan.waves) == 1
    w = fan.waves[0]
    assert w.kind == "rarefaction"
    assert w.strength == pytest.approx(1.0, abs=1e-10)
    assert w.speed[0] == pytest.approx(0.0, abs=1e-10)
    assert w.speed[1] == pytest.approx(1.0, abs=1e-10)


def test_riemann_p_system_recomposition():
    um, up = np.array([1.0, 0.0]), np.array([1.1, 0.05])
    fan = solve_riemann(P, um, up)
    u = um
    for w in fan.waves:
        u = lax_curve(P, w.family, u, w.strength)
    assert u == pytest.approx(up, abs=1e-8)
    for w in fan.waves:
        dl = (eigen_frame(P, w.right_state).lambdas[w.family - 1]
              - eigen_frame(P, w.left_state).lambdas[w.family - 1])
        assert dl == pytest.approx(w.strength, abs=1e-8)
        if w.kind == "shock":
            rh = P.flux(w.right_state) - P.flux(w.left_state) - w.speed * (
                w.right_state - w.left_state
            )
            assert np.linalg.norm(rh) < 1e-8
            assert_lax_inequalities(P, w)


def test_shock_speed_examples():
    assert shock_speed(B, np.array([2.0]), np.array([0.0])) == pytest.approx(1.0)
    assert shock_speed(B, np.array([1.0]), np.array([0.0])) == pytest.approx(0.5)
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 1, u0, -0.2)
    sp = shock_speed(P, u0, u1)
    l0 = eigen_frame(P, u0).lambdas[0]
    l1 = eigen_frame(P, u1).lambdas[0]
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
            fan = solve_riemann(model, u0, u1)
            got = fan.strengths(model.n)
            expect = np.zeros(model.n)
            expect[fam - 1] = s
            assert got == pytest.approx(expect, abs=1e-7)


def test_strength_additivity_burgers_merge():
    a, b, c = np.array([2.0]), np.array([1.2]), np.array([0.3])
    s1 = solve_riemann(B, a, b).waves[0].strength
    s2 = solve_riemann(B, b, c).waves[0].strength
    s = solve_riemann(B, a, c).waves[0].strength
    assert s == pytest.approx(s1 + s2, abs=1e-12)


# u_t + (u^3/3)_x = 0: lambda = u^2 >= 0, so a target lambda below zero has
# no Hugoniot point, and states of opposite sign have no Lax solution
CUBIC = SystemModel(n=1, flux=lambda u: u ** 3 / 3.0,
                    jacobian=lambda u: (np.asarray(u, dtype=float) ** 2)[..., None],
                    domain_box=((-2.0, 2.0),))
# Burgers on a box so wide that the data scale swamps the Newton tolerances
WIDE = SystemModel(n=1, flux=lambda u: 0.5 * u * u,
                   jacobian=lambda u: np.array(u, dtype=float)[..., None],
                   domain_box=((-1e11, 1e11),))


def test_lax_curve_without_hugoniot_point_raises_no_root():
    with pytest.raises(NoRoot, match="line search failed"):
        lax_curve(CUBIC, 1, np.array([0.5]), -0.5)
    # flux differences of 1e20 never get below the absolute 1e-11
    with pytest.raises(NoRoot):
        lax_curve(WIDE, 1, np.array([1e10]), -0.5)


def test_riemann_without_lax_solution_raises_no_solution():
    with pytest.raises(NoSolution, match="line search failed"):
        solve_riemann(CUBIC, np.array([1.0]), np.array([-0.5]))


def test_damped_newton_failure_branches():
    z0 = np.array([1.0])
    with pytest.raises(NoRoot, match="singular Jacobian"):
        _damped_newton(lambda z: (np.array([1.0]), None), z0, 1e-3, 5, NoRoot)
    # z = 0 minimises 1 + z^2 > 0: no step decreases it
    with pytest.raises(NoSolution, match="line search failed"):
        _damped_newton(lambda z: (1.0 + z ** 2, None), np.array([0.0]), 1e-3, 5, NoSolution)
    # 1 / (1 + z^2) falls by about 2.25 per step, from 0.5 to 7.5e-3 in five
    with pytest.raises(NoRoot, match="in 5 steps"):
        _damped_newton(lambda z: (1.0 / (1.0 + z ** 2), None), z0, 1e-3, 5, NoRoot)
    z, extra = _damped_newton(lambda z: (z ** 2 - 2.0, "kept"), z0, 1e-12, 5, NoRoot)
    assert z[0] == pytest.approx(np.sqrt(2.0), rel=1e-12) and extra == "kept"
