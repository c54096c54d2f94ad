import numpy as np
import pytest
from conftest import B_NO_VISCOUS_FN_PROFILE_FN, no_hooks
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ode_residual, rusanov_solve
from scipy.integrate import solve_ivp

from vanvisc.errors import CFLViolation, NotLaxPair
from vanvisc.harness import scenario_data
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve
from vanvisc.system import preset_model, wave_speeds
from vanvisc.viscous import ShockProfile, _orbit_arrays, shock_profile, solve_viscous, tail_bound_check

B = preset_model("burgers")
P = preset_model("p_system")


def test_burgers_profile_matches_tanh():
    pr = shock_profile(B_NO_VISCOUS_FN_PROFILE_FN, [1.0], [0.0])
    s = np.linspace(-40, 40, 2001)
    exact = 0.5 - 0.5 * np.tanh(s / 4.0)
    assert np.max(np.abs(pr.value(s)[:, 0] - exact)) < 1e-8
    assert abs(pr.centering_residual()) < 1e-6
    assert ode_residual(pr, 800) < 1e-8


def test_burgers_profile_centering_by_symmetry():
    pr = shock_profile(B, [1.0], [0.0])
    # omega - 1/2 is odd about the center, so both mass integrals agree at 0
    assert pr.jet(0.0)[0][0] == pytest.approx(0.5, abs=1e-8)


def test_profile_rescaling():
    pr = shock_profile(B, [1.0], [0.0])
    eps = 0.01
    s = np.linspace(-0.4, 0.4, 101)
    exact = 0.5 - 0.5 * np.tanh(s / (4 * eps))
    assert np.max(np.abs(pr.jet(s / eps)[0][:, 0] - exact)) < 1e-8


def _dop853_solution():
    """Three components with a sharp bump in the forcing at t = 2, so the
    steps are uneven; a terminal event cuts the last step short, as the
    landing event does in the shooting."""
    def rhs(t, y):
        return [1.0 / (1.0 + 400.0 * (t - 2.0) ** 2), y[0] * np.cos(y[1]),
                np.sin(5.0 * t) * y[0] - y[2]]

    def stop(t, y):
        return t - 4.3

    stop.terminal = True
    return solve_ivp(rhs, (0.0, 6.0), [0.0, 0.5, -1.0], method="DOP853", rtol=1e-9,
                     atol=1e-12, dense_output=True, events=stop)


@settings(max_examples=60)
@given(m=st.integers(1, 3), t=st.lists(st.floats(-0.5, 4.8), min_size=1, max_size=60))
def test_orbit_evaluator_matches_dop853_dense_output(m, t):
    sol = _dop853_solution()
    orbit = ShockProfile(left_state=None, right_state=None, speed=0.0, family=1,
                         strength=-1.0, center_shift=0.0, s_lo=0.0, s_hi=0.0,
                         _orient=1.0, model=None,
                         **_orbit_arrays(sol.sol))._orbit
    ts = sol.sol.ts
    dts = np.diff(ts)
    assert dts.max() > 10 * dts.min()
    assert ts[-1] < sol.sol.interpolants[-1].t
    # random points (some beyond the ends), every knot, both ends
    pts = np.concatenate([t, ts, [ts[0], ts[-1]]])
    assert np.array_equal(orbit(pts), sol.sol(pts).T)
    assert np.array_equal(orbit(pts, m), sol.sol(pts)[:m].T)
    for x in (t[0], ts[0], ts[-1], ts[len(ts) // 2]):
        assert np.array_equal(orbit(x), sol.sol(x))
        assert np.array_equal(orbit(x, m), sol.sol(x)[:m])


def test_p_system_profiles_both_families():
    um = np.array([1.0, 0.0])
    for fam, s in ((1, -0.3), (2, -0.25)):
        up = lax_curve(P, fam, um, s)
        pr = shock_profile(P, um, up)
        assert pr.family == fam
        lo = pr.value(pr.s_lo - pr.center_shift - 1.0)
        hi = pr.value(pr.s_hi - pr.center_shift + 1.0)
        assert np.linalg.norm(lo - um) < 1e-8
        assert np.linalg.norm(hi - up) < 1e-8
        assert abs(pr.centering_residual()) < 1e-6
        assert ode_residual(pr, 500) < 1e-8


def test_profile_lambda_monotone_along_family():
    um = np.array([1.0, 0.0])
    up = lax_curve(P, 1, um, -0.3)
    pr = shock_profile(P, um, up)
    s = np.linspace(pr.s_lo, pr.s_hi, 400) - pr.center_shift
    lams = wave_speeds(P, pr.value(s))[:, 0]
    assert np.all(np.diff(lams) < 1e-10)


def test_tail_bounds():
    pr = shock_profile(B_NO_VISCOUS_FN_PROFILE_FN, [1.0], [0.0])
    rep = tail_bound_check(pr)
    assert rep["c1"] <= 1.0
    assert rep["c2"] <= 1.0
    assert rep["max_violation"] <= 0.01
    # at s = 0 the envelope is just C1 sigma^2, so C1 >= |omega'(0)|
    assert rep["c1"] >= abs(pr.jet(0.0)[1][0])

    um = np.array([1.0, 0.0])
    rep = tail_bound_check(shock_profile(P, um, lax_curve(P, 1, um, -0.3)))
    assert np.isfinite(rep["c1"]) and np.isfinite(rep["c2"])
    assert rep["max_violation"] <= 0.01


def test_not_lax_pair_errors():
    with pytest.raises(NotLaxPair):
        shock_profile(B, [0.0], [1.0])     # rarefaction pair
    with pytest.raises(NotLaxPair):
        shock_profile(P, np.array([1.0, 0.0]), np.array([1.1, 0.5]))  # off locus


# the Burgers solve tests run on both paths: Cole-Hopf on the grid, and the
# explicit loop of the hook-less twin


def test_solve_viscous_constant_data():
    # data without breakpoints: the grid spans [-1, 1] plus the padding
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        sol = solve_viscous(model, 0.02, PiecewiseConstant([], [[0.7]]), 0.5, 0.005)
        assert sol.final().shape == (sol.x.size, 1)
        assert sol.x[0] < -1.0 and sol.x[-1] > 1.0
        assert np.max(np.abs(sol.final() - 0.7)) == 0.0


def test_solve_viscous_travelling_wave():
    # the Riemann step 1 -> 0 relaxes to the travelling profile of speed 1/2
    eps, dx = 0.01, 0.01 / 8
    exact = lambda x: 0.5 - 0.5 * np.tanh(np.asarray(x) / (4 * eps))
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        sol = solve_viscous(model, eps, PiecewiseConstant([0.0], [[1.0], [0.0]]), 1.0, dx)
        err = np.sum(np.abs(sol.final()[:, 0] - exact(sol.x - 0.5))) * dx
        assert err <= 5 * dx


def test_solve_viscous_rarefaction_near_exact():
    eps = 0.02
    dx = eps / 4
    data = PiecewiseConstant([0.0], [[0.0], [1.0]])
    tau = 1.0
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        sol = solve_viscous(model, eps, data, tau, dx)
        xr = np.clip(sol.x / tau, 0.0, 1.0)
        err = np.sum(np.abs(sol.final()[:, 0] - xr)) * dx
        assert err <= 3.0 * np.sqrt(eps)


def test_solve_viscous_conservation():
    data = PiecewiseConstant([-0.3, 0.2], [[0.0], [0.3], [0.0]])
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        sol = solve_viscous(model, 0.02, data, 0.5, 0.005)
        assert sol.times == [0.5]
        assert abs(np.sum(sol.final()[:, 0]) - np.sum(data(sol.x)[:, 0])) * 0.005 < 1e-10


def test_solve_viscous_tv_bound_and_refinement():
    data = PiecewiseConstant([-0.3, 0.2], [[0.8], [0.1], [0.5]])
    eps = 0.02
    tv0 = data.total_variation()
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        sol1 = solve_viscous(model, eps, data, 0.5, eps / 4)
        assert np.sum(np.abs(np.diff(sol1.final()[:, 0]))) <= 1.5 * tv0
        sol2 = solve_viscous(model, eps, data, 0.5, eps / 8)
        # first-order sanity: halving dx moves the answer by O(dx)
        u2_on_1 = np.interp(sol1.x, sol2.x, sol2.final()[:, 0])
        diff = np.sum(np.abs(u2_on_1 - sol1.final()[:, 0])) * (eps / 4)
        assert diff < 10 * (eps / 4) * tv0


def test_solve_viscous_eigvals_fallback_matches_preset():
    # a model without lambda_fn takes the interface speeds from batched
    # eigenvalues of the jacobian instead of the preset's closed form
    um = np.array([1.0, 0.0])
    cases = ((B_NO_VISCOUS_FN_PROFILE_FN, PiecewiseConstant([0.0], [[1.0], [0.0]])),
             (P, PiecewiseConstant([0.0], [um, lax_curve(P, 1, um, -0.3)])))
    for model, data in cases:
        ref = solve_viscous(model, 0.04, data, 0.2, 0.01)
        got = solve_viscous(no_hooks(model), 0.04, data, 0.2, 0.01)
        assert np.max(np.abs(got.final() - ref.final())) < 1e-12


def test_solve_viscous_errors():
    data = PiecewiseConstant([0.0], [[1.0], [0.0]])
    with pytest.raises(CFLViolation, match="dx"):
        solve_viscous(B, 0.01, data, 0.1, 0.01)
    with pytest.raises(CFLViolation, match="epsilon"):
        solve_viscous(B, 0.0, data, 0.1, 0.01)
    # a grid needs a positive spacing, and NaN is not one
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        for dx in (0.0, -0.0025, float("nan")):
            with pytest.raises(CFLViolation, match="dx"):
                solve_viscous(model, 0.01, data, 0.1, dx)
    # Cole-Hopf has no t = 0, and the explicit loop would step backwards
    for model in (B, B_NO_VISCOUS_FN_PROFILE_FN):
        for tau in (0.0, -0.1):
            with pytest.raises(CFLViolation, match="tau"):
                solve_viscous(model, 0.01, data, tau, 0.0025)


def _assert_matches_full_grid(model, epsilon, data, tau):
    # to rounding against every cell stepped, and bit for bit against the
    # same window on row-major states
    dx = epsilon / 4
    x, dt, steps, u = rusanov_solve(model, epsilon, data, tau, dx, windowed=False)
    sol = solve_viscous(model, epsilon, data, tau, dx)
    assert np.array_equal(sol.x, x)
    assert sol.dt == dt
    assert round(sol.times[-1] / sol.dt) == steps
    assert np.max(np.abs(sol.final() - u)) <= 1e-12
    final = sol.final()
    assert final.shape == (x.size, model.n) and final.dtype == np.float64
    assert final.flags.c_contiguous
    assert np.array_equal(final, rusanov_solve(model, epsilon, data, tau, dx)[3])


@pytest.mark.parametrize("model, scenario, epsilon, tau, kw", [
    (P, "lone_shock", 1e-2, 1.0, {}),
    (P, "random_bv", 8e-3, 0.5, dict(seed=100, n_jumps=8)),
    (P, "random_bv", 8e-3, 0.5, dict(seed=101, n_jumps=8)),
    (B_NO_VISCOUS_FN_PROFILE_FN, "merge_cancellation", 1e-2, 1.0, {}),
    (B_NO_VISCOUS_FN_PROFILE_FN, "random_bv", 1e-2, 1.0, dict(seed=3)),
])
def test_windowed_solve_matches_full_grid(model, scenario, epsilon, tau, kw):
    _assert_matches_full_grid(model, epsilon, scenario_data(model, scenario, **kw), tau)


@st.composite
def small_data(draw):
    """A hook-less Burgers or p-system PiecewiseConstant with up to 4 jumps,
    the p-system's states built along the Lax curves from (1, 0)."""
    n_jumps = draw(st.integers(0, 4))
    xs = sorted(draw(st.lists(st.floats(-0.5, 0.5), min_size=n_jumps, max_size=n_jumps,
                              unique=True)))
    if draw(st.booleans()):
        vals = [[draw(st.floats(-1.0, 1.0))] for _ in range(n_jumps + 1)]
        return B_NO_VISCOUS_FN_PROFILE_FN, PiecewiseConstant(xs, vals)
    vals = [np.array([1.0, 0.0])]
    for _ in range(n_jumps):
        vals.append(lax_curve(P, draw(st.integers(1, 2)), vals[-1], draw(st.floats(-0.15, 0.15))))
    return P, PiecewiseConstant(xs, np.array(vals))


@settings(max_examples=80)
@given(small_data(), st.floats(1e-2, 4e-2), st.floats(0.02, 0.3))
def test_windowed_solve_matches_full_grid_on_random_data(model_data, epsilon, tau):
    model, data = model_data
    _assert_matches_full_grid(model, epsilon, data, tau)
