"""The Burgers preset's closed forms against their oracles: the tanh profile
against the shooting, Cole-Hopf against the explicit grid solve, a formed
shock layer and a rarefaction fan, the chunked evaluation against one
chunk, the piece windows against the sums over every piece, and the settled
points against their far-field bound."""

import math

import numpy as np
import pytest
from conftest import B_NO_VISCOUS_FN_PROFILE_FN
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cole_hopf_unwindowed, hopf_lax_unwindowed

from vanvisc import burgers
from vanvisc.burgers import TanhProfile, cole_hopf, hopf_lax, settled_pieces
from vanvisc.harness import scenario_data
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import preset_model
from vanvisc.viscous import shock_profile, solve_viscous

B = preset_model("burgers")


# a Lax pair in the box [-4, 4]: u_plus at least 0.05 below u_minus
LAX_PAIR = st.floats(-3.95, 4.0).flatmap(
    lambda um: st.tuples(st.just(um), st.floats(-4.0, um - 0.05)))


@settings(max_examples=10)
@given(LAX_PAIR)
def test_tanh_jet_matches_shooting_jet(pair):
    u_minus, u_plus = pair
    sigma = u_minus - u_plus
    closed = shock_profile(B, [u_minus], [u_plus])
    shot = shock_profile(B_NO_VISCOUS_FN_PROFILE_FN, [u_minus], [u_plus])
    assert isinstance(closed, TanhProfile)
    # the profile is a rescaled copy of the unit one: s scales like
    # 1/|sigma| and the k-th jet entry like |sigma|^(k+1)
    s = np.linspace(-60.0, 60.0, 1201) / sigma
    for k, (a, b) in enumerate(zip(closed.jet(s), shot.jet(s))):
        assert np.max(np.abs(a - b)) <= 1e-8 * sigma ** (k + 1)
    for a, b in zip(closed.jet(0.3 / sigma), shot.jet(0.3 / sigma)):
        assert a.shape == b.shape == (1,)


def test_grid_converges_to_cole_hopf_at_first_order_in_dx():
    eps, tau = 0.02, 0.5
    data = PiecewiseConstant([-0.3, 0.0, 0.3], [[0.8], [0.1], [0.6], [-0.2]])
    errors = []
    for dx in (eps / 4, eps / 8):
        sol = solve_viscous(B_NO_VISCOUS_FN_PROFILE_FN, eps, data, tau, dx)
        hooked = solve_viscous(B, eps, data, tau, dx)
        assert np.array_equal(hooked.x, sol.x)
        assert np.array_equal(hooked.final(), cole_hopf(data, eps, tau, sol.x))
        errors.append(np.sum(np.abs(sol.final() - hooked.final())) * dx)
    assert 1.7 <= errors[0] / errors[1] <= 2.4
    assert errors[1] <= data.total_variation() * eps / 8


def test_cole_hopf_forms_the_tanh_layer_of_a_lone_shock():
    data = PiecewiseConstant([0.0], [[1.0], [0.0]])
    layer = TanhProfile(np.array([1.0]), np.array([0.0]))
    t = 1.0
    for eps in (4e-3, 2e-3):
        x = np.linspace(0.5 - 40 * eps, 0.5 + 40 * eps, 2001)
        gap = np.max(np.abs(cole_hopf(data, eps, t, x) - layer.jet((x - 0.5) / eps)[0]))
        # the exact solution relaxes to the layer like exp(-sigma^2 t / (16 eps))
        assert gap <= np.exp(-t / (16 * eps)) + 1e-15
    assert np.array_equal(hopf_lax(data, t, np.array([0.4, 0.6])), [[1.0], [0.0]])


def test_cole_hopf_follows_a_rarefaction_fan_away_from_its_corners():
    data = PiecewiseConstant([0.0], [[0.0], [0.5]])
    t = 1.0
    x = np.linspace(0.05, 0.45, 401)
    d = np.minimum(x, 0.5 * t - x)
    assert np.allclose(hopf_lax(data, t, x)[:, 0], x / t, rtol=0, atol=1e-15)
    for eps in (4e-3, 1e-3):
        u = cole_hopf(data, eps, t, x)[:, 0]
        assert np.all(np.abs(u - x / t) <= 2 * eps / d)
        # the fan's first correction, from the two corners' Gaussian tails
        first = 2 * eps * (1 / x - 1 / (0.5 * t - x))
        assert np.all(np.abs(u - x / t - first) <= 10 * eps ** 2 / d ** 3)


def test_chunked_evaluation_equals_one_chunk(monkeypatch):
    data = scenario_data(B, "random_bv", seed=3, n_jumps=639, tv=0.3)
    assert data.values.shape[0] == 640
    x = np.linspace(-1.5, 1.5, 300)
    chunked = cole_hopf(data, 4e-3, 1.0, x), hopf_lax(data, 1.0, x)
    assert burgers._CHUNK_CELLS // 640 < x.size
    monkeypatch.setattr(burgers, "_CHUNK_CELLS", 640 * x.size)
    whole = cole_hopf(data, 4e-3, 1.0, x), hopf_lax(data, 1.0, x)
    for a, b in zip(chunked, whole):
        assert np.array_equal(a, b)
    assert np.all(np.isfinite(chunked[0]))


def far_field_bound(eps, t, du):
    """settled_pieces' bound on |u_eps - v_j| at a settled point."""
    sig = math.sqrt(2.0 * eps * t)
    m = 12.0 * math.sqrt(eps * t)
    r = 8.6 * sig
    own = sig ** 2 / t * math.exp(-r ** 2 / (2.0 * sig ** 2))
    window = math.exp(-40.0) * (t * du + 2.0 * m) * (t * du + m) / t
    past = 2.0 * (2.0 * eps * math.exp(-36.0) + du * math.sqrt(math.pi * eps * t) * math.erfc(6.0))
    return (own + window + past) / (math.sqrt(2.0 * math.pi) * sig
                                    * (1.0 - math.erfc(r / (math.sqrt(2.0) * sig))))


def staircase(n_jumps):
    """A decreasing staircase of TV 0.3 on [-0.5, 0.5], its jumps at the
    interior points of linspace(-0.5, 0.5, n_jumps + 2)."""
    xs = np.linspace(-0.5, 0.5, n_jumps + 2)[1:-1]
    return PiecewiseConstant(xs, (0.3 - 0.3 * np.arange(n_jumps + 1) / n_jumps)[:, None])


# (data, eps): 640 random pieces, the acceptance scenario at its largest
# and smallest eps, held-out seeds, and a staircase at small eps
CLOSED_FORM_CASES = [
    ("random_bv_640", scenario_data(B, "random_bv", seed=7, n_jumps=640), 2e-3),
    ("merge_cancellation_4e-3", scenario_data(B, "merge_cancellation"), 4e-3),
    ("merge_cancellation_2.5e-4", scenario_data(B, "merge_cancellation"), 2.5e-4),
    ("random_bv_11", scenario_data(B, "random_bv", seed=11, n_jumps=12), 4e-3),
    ("random_bv_12", scenario_data(B, "random_bv", seed=12, n_jumps=6), 1e-3),
    ("staircase_32", staircase(32), 1.5625e-5),
]


def _points(data, n=4000):
    """n points over the data's support padded by 2.5, and the data's
    breakpoints with their neighbours."""
    xs = data.xs
    pts = np.linspace(xs[0] - 2.5, xs[-1] + 2.5, n)
    return np.sort(np.concatenate([pts, xs, np.nextafter(xs, -np.inf), xs + 1e-9]))


def _assert_windows_keep_the_sums(data, eps, t, x):
    # a piece left out weighs below e^-36 of the peak: the values move by
    # rounding, 1e-14 relative or 1e-16 absolute near 0; the Hopf-Lax
    # minimiser is the one of all pieces, so u keeps every bit
    got, want = cole_hopf(data, eps, t, x), cole_hopf_unwindowed(data, eps, t, x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want) + 1e-16)
    assert np.array_equal(hopf_lax(data, t, x), hopf_lax_unwindowed(data, t, x))


@pytest.mark.parametrize("name, data, eps", CLOSED_FORM_CASES,
                         ids=[c[0] for c in CLOSED_FORM_CASES])
def test_windowed_closed_forms_match_the_sums_over_every_piece(name, data, eps):
    _assert_windows_keep_the_sums(data, eps, 1.0, _points(data))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)), min_size=1, max_size=30),
       st.floats(-2.0, 2.0), st.floats(1e-5, 0.1), st.floats(0.05, 2.0),
       st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=200))
def test_windowed_closed_forms_match_on_random_data(jumps, v0, eps, t, x):
    # zero-width pieces (repeated breakpoints) included; the points in the
    # order drawn, which the windows sort and put back
    xs, vals = zip(*sorted(jumps))
    data = PiecewiseConstant(list(xs), np.array([v0, *vals])[:, None])
    _assert_windows_keep_the_sums(data, eps, t, np.array(x))


@pytest.mark.parametrize("name, data, eps", CLOSED_FORM_CASES,
                         ids=[c[0] for c in CLOSED_FORM_CASES])
def test_settled_points_are_within_the_far_field_bound(name, data, eps):
    # at a settled point u is the piece's value and u_eps is within the
    # bound, plus one rounding of the closed forms (2 ulps of the value, and
    # for u one of x / t); between two points settled on the same piece too
    t = 1.0
    x = _points(data)
    piece = settled_pieces(data, eps, t, x)
    mid = 0.5 * (x[:-1] + x[1:])[(piece[:-1] == piece[1:]) & (piece[:-1] >= 0)]
    x_all = np.concatenate([x[piece >= 0], mid])
    v = data.values[np.concatenate([piece[piece >= 0], piece[:-1][(piece[:-1] == piece[1:])
                                                                   & (piece[:-1] >= 0)]]), 0]
    assert 0 < np.sum(piece >= 0) < x.size
    ulp = np.spacing(np.abs(v))
    du = float(np.ptp(data.values))
    u_eps = cole_hopf_unwindowed(data, eps, t, x_all)[:, 0]
    assert np.all(np.abs(u_eps - v) <= far_field_bound(eps, t, du) + 2 * ulp)
    u = hopf_lax_unwindowed(data, t, x_all)[:, 0]
    assert np.all(np.abs(u - v) <= 2 * ulp + 2 * np.spacing(np.abs(x_all) / t))
