"""The Burgers preset's closed forms against their oracles: the tanh profile
against the shooting, Cole-Hopf against the explicit grid solve, a formed
shock layer and a rarefaction fan, and the chunked evaluation against one
chunk."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vanvisc import burgers
from vanvisc.burgers import TanhProfile, cole_hopf, hopf_lax
from vanvisc.harness import scenario_data
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import preset_model
from vanvisc.viscous import shock_profile, solve_viscous

B = preset_model("burgers")
# the preset without its closed-form viscous references: the explicit grid
# solve and the shooting, their oracles
B_GENERIC = dataclasses.replace(B, viscous_fn=None, profile_fn=None)


# a Lax pair in the box [-4, 4]: u_plus at least 0.05 below u_minus
LAX_PAIR = st.floats(-3.95, 4.0).flatmap(
    lambda um: st.tuples(st.just(um), st.floats(-4.0, um - 0.05)))


@settings(max_examples=10)
@given(LAX_PAIR)
def test_tanh_jet_matches_shooting_jet(pair):
    u_minus, u_plus = pair
    sigma = u_minus - u_plus
    closed = shock_profile(B, [u_minus], [u_plus])
    shot = shock_profile(B_GENERIC, [u_minus], [u_plus])
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
        sol = solve_viscous(B_GENERIC, eps, data, tau, dx)
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
