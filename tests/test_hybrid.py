from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import SWEEP_EPS, _creation_chain_data

from vanvisc import hybrid
from vanvisc.errors import OverlappingTracks
from vanvisc.front_tracking import (POS_TOL, Front, FrontConfiguration, init_front_tracking,
                                    run_until)
from vanvisc.functionals import big_shock_fronts
from vanvisc.harness import ExperimentConfig, _track, eval_rule, scenario_data
from vanvisc.hybrid import (KERNEL_C, KERNEL_SUPPORT, Mollifier, build_hybrid,
                            classify_event, hybrid_vs_profile_l1, jump_sum,
                            mollification_l1_error, mollify, oscillation_weighted_tv,
                            residual, select_big_shocks, _shock_chains, _squeeze_jet)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve
from vanvisc.system import preset_model

B = preset_model("burgers")
P = preset_model("p_system")


def pc(xs, vals):
    return PiecewiseConstant(xs, np.asarray(vals, dtype=float).reshape(len(xs) + 1, -1))


def test_kernel_properties():
    mol = Mollifier(0.37)
    s = np.linspace(-0.5, 0.5, 20001)
    _, phi, dphi = mol.jet(s)
    assert np.max(np.abs(phi - mol.jet(-s)[1])) < 1e-12        # even
    assert np.trapezoid(phi, s) == pytest.approx(1.0, abs=1e-10)  # unit mass
    assert np.all(phi[np.abs(s) > 2 * 0.37 / 3] == 0.0)        # support
    assert np.all(s * dphi <= 1e-12)                           # s phi'(s) <= 0


def test_mollifier_cdf_matches_clipped_polynomial():
    # the polynomial evaluated everywhere on the argument clipped to the support
    def ref(s, delta):
        a = KERNEL_SUPPORT
        t = np.clip(np.asarray(s, dtype=float) / delta, -a, a)
        P = (64.0 / 729.0) * t - (16.0 / 81.0) * t ** 3 + (12.0 / 45.0) * t ** 5 - t ** 7 / 7.0
        Pa = (64.0 / 729.0) * a - (16.0 / 81.0) * a ** 3 + (12.0 / 45.0) * a ** 5 - a ** 7 / 7.0
        return KERNEL_C * (P + Pa)

    rng = np.random.default_rng(3)
    for delta in (0.37, np.sqrt(4e-3), np.sqrt(2.5e-4)):
        a = KERNEL_SUPPORT * delta
        for s in (rng.normal(0.0, delta, 5000), rng.uniform(-2 * a, 2 * a, (400, 7)),
                  np.array([a, -a, np.nextafter(a, 0), np.nextafter(-a, 0)]),
                  np.array([1e3, -1e3, 1e300, -1e300, np.inf, -np.inf]),
                  np.array([0.0, -0.0]), np.zeros(0)):
            with np.errstate(all="raise"):
                cdf, phi, dphi = Mollifier(delta).jet(s)
            assert np.array_equal(cdf, ref(s, delta))
            far = np.abs(np.asarray(s, dtype=float) / delta) >= KERNEL_SUPPORT
            assert np.all(phi[far] == 0.0) and np.all(dphi[far] == 0.0)


def test_mollify_constant_and_step():
    u = pc([], [0.7])
    v = mollify(u, 0.1)
    assert np.max(np.abs(v(np.linspace(-1, 1, 11)) - 0.7)) == 0.0

    u = pc([0.0], [0.0, 1.0])
    v = mollify(u, 0.1)
    assert v(np.array([0.0]))[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert v(np.array([0.07]))[0, 0] + v(np.array([-0.07]))[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_mollification_l1_bound():
    u = pc([-0.4, 0.1, 0.5], [0.0, 0.6, 0.2, 0.9])
    delta = 0.08
    err = mollification_l1_error(u, delta)
    assert 0 < err <= delta * u.total_variation()


def test_mollification_l1_error_of_a_single_jump_is_its_closed_form():
    # for one jump J, |u * phi_delta - u| is |J| Phi(x / delta) left of it and
    # |J| (1 - Phi(x / delta)) right of it, so the integral is
    # |J| delta 2 int_0^{2/3} (1 - Phi), from the kernel polynomial
    kernel = KERNEL_C * np.polynomial.Polynomial([4.0 / 9.0, 0.0, -1.0]) ** 3
    tail = 1.0 - kernel.integ(lbnd=-KERNEL_SUPPORT)
    closed = 2.0 * (tail.integ(lbnd=0.0))(KERNEL_SUPPORT)
    for jump, delta in ((0.7, 0.08), (-1.3, 0.01)):
        u = pc([0.25], [0.2, 0.2 + jump])
        assert mollification_l1_error(u, delta) == pytest.approx(
            abs(jump) * delta * closed, rel=1e-13)


def test_squeeze_map_examples():
    eps = 1e-3
    r = np.sqrt(eps)

    def squeeze_map(x, eps):
        return _squeeze_jet(np.atleast_1d(x), eps)[0]

    assert squeeze_map(0.0, eps)[0] == 0.0
    assert squeeze_map(r / 2, eps)[0] == pytest.approx(r / 2)
    assert squeeze_map(0.75 * r, eps)[0] == pytest.approx(r)
    # C^1 at the branch point, odd, increasing, blows up near the edge
    h = 1e-9
    for x0 in (r / 2, -r / 2):
        left = (squeeze_map(np.array([x0]), eps) - squeeze_map(np.array([x0 - h]), eps)) / h
        right = (squeeze_map(np.array([x0 + h]), eps) - squeeze_map(np.array([x0]), eps)) / h
        assert left[0] == pytest.approx(right[0], rel=1e-5)
    xs = np.linspace(-r * 0.999, r * 0.999, 1001)
    vals = squeeze_map(xs, eps)
    assert np.max(np.abs(vals + squeeze_map(-xs, eps))) < 1e-18
    assert np.all(np.diff(vals) > 0)
    assert abs(squeeze_map(np.array([r * (1 - 1e-6)]), eps)[0]) > 1e4 * r
    assert np.all(_squeeze_jet(xs, eps)[1] >= 1.0 - 1e-12)


def test_squeeze_jet_matches_separate_formulas():
    # the map and its derivatives as three separate masked evaluations
    def ref(x, eps):
        r = np.sqrt(eps)
        p, p1, p2 = x.copy(), np.ones_like(x), np.zeros_like(x)
        hi, lo = x > 0.5 * r, x < -0.5 * r
        p[hi] = eps / (4.0 * (r - x[hi]))
        p[lo] = -eps / (4.0 * (r + x[lo]))
        p1[hi] = eps / (4.0 * (r - x[hi]) ** 2)
        p1[lo] = eps / (4.0 * (r + x[lo]) ** 2)
        p2[hi] = eps / (2.0 * (r - x[hi]) ** 3)
        p2[lo] = -eps / (2.0 * (r + x[lo]) ** 3)
        return p, p1, p2

    rng = np.random.default_rng(4)
    for eps in (4e-3, 2e-3, 2.5e-4):
        r = np.sqrt(eps)
        xs = np.concatenate([rng.uniform(-r, r, 2000) * (1 - 1e-12), [0.0, 0.5 * r, -0.5 * r]])
        for got, want in zip(_squeeze_jet(xs, eps), ref(xs, eps)):
            assert np.array_equal(got, want)


def _t_end(run, track):
    """The time of the event that ends a track, or tau."""
    return run.t_edges[track.first + len(track.fronts)]


def test_select_big_shocks_examples():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    tracks = select_big_shocks(run, 0.5)
    assert len(tracks) == 1
    assert tracks[0].t_minus == 0.0 and _t_end(run, tracks[0]) == 1.0

    cfg = init_front_tracking(B, pc([0.0], [0.4, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    assert select_big_shocks(run, 1.0) == []

    # two 0.6-shocks merging: neither parent reaches rho=1, the child does
    cfg = init_front_tracking(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    tracks = select_big_shocks(run, 1.0)
    assert len(tracks) == 1
    assert tracks[0].t_minus == run.times[0] and tracks[0].first == 1
    assert abs(tracks[0].fronts[0].strength) == pytest.approx(1.2, abs=1e-10)
    assert tracks[0].front(0) is None and tracks[0].front(len(run.configs)) is None


def test_track_count_scales_with_tv_over_rho():
    rng = np.random.default_rng(2)
    ratios = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        xs = np.sort(rng.uniform(-1, 1, 12))
        jumps = -np.abs(rng.normal(size=12))
        jumps *= 2.0 / np.sum(np.abs(jumps))
        vals = np.concatenate([[1.5], 1.5 + np.cumsum(jumps)])
        cfg = init_front_tracking(B, PiecewiseConstant(xs, vals[:, None]), 1e-9, 0.1)
        run = run_until(B, cfg, 1.0)
        rho = 0.3
        tracks = select_big_shocks(run, rho)
        ratios.append(len(tracks) / (2.0 / rho))
    assert max(ratios) <= 1.5


def test_hybrid_reduces_to_mollification_without_tracks():
    cfg = init_front_tracking(B, pc([0.0], [0.3, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 0.5)
    hyb = build_hybrid(run, [], 1e-3)
    xs = np.linspace(-0.5, 0.8, 301)
    v = hyb.value(0.2, xs)
    vd = mollify(run.config_at(0.2).profile(), np.sqrt(1e-3))(xs)
    assert np.max(np.abs(v - vd)) < 1e-14


def test_hybrid_standing_shock_structure():
    eps = 1e-3
    delta = np.sqrt(eps)
    cfg = init_front_tracking(B, pc([0.0], [0.5, -0.5]), 1e-9, 0.25)
    run = run_until(B, cfg, 0.2)
    tracks = select_big_shocks(run, 0.5)
    hyb = build_hybrid(run, tracks, eps)
    st = hyb.strips[0]
    # v = v^delta outside J_alpha
    for x in (-2 * delta, -1.01 * delta, 1.01 * delta, 2 * delta):
        got = st.value(0.1, np.array([x]))[0, 0]
        assert got == pytest.approx(0.5 if x < 0 else -0.5, abs=1e-12)
    # profile values inside: the rescaled tanh where the squeeze is identity
    for xi in (0.0, 0.2 * delta, -0.3 * delta):
        got = st.value(0.1, np.array([xi]))[0, 0]
        exact = -0.5 * np.tanh(xi / (4 * eps))
        assert got == pytest.approx(exact, abs=1e-7)
    # continuity across the insertion boundary
    for sgn in (-1, 1):
        inner = st.value(0.1, np.array([sgn * delta * (1 - 1e-9)]))[0, 0]
        outer = st.value(0.1, np.array([sgn * delta * (1 + 1e-9)]))[0, 0]
        assert abs(inner - outer) < 1e-10


def test_hybrid_initial_distance_scales_with_sqrt_eps():
    data = pc([-0.3, 0.2, 0.5], [1.0, 0.2, 0.6, 0.0])
    ratios = []
    for eps in (4e-3, 1e-3, 2.5e-4):
        cfg = init_front_tracking(B, data, 1e-9, 0.25)
        run = run_until(B, cfg, 0.1)
        tracks = select_big_shocks(run, 0.4)
        hyb = build_hybrid(run, tracks, eps)
        e0 = hybrid_vs_profile_l1(hyb, 0.0)
        ratios.append(e0 / (data.total_variation() * np.sqrt(eps)))
    assert max(ratios) / min(ratios) < 3.0


def test_residual_vanishes_where_squeeze_is_identity():
    eps = 1e-3
    cfg = init_front_tracking(B, pc([0.0], [0.5, -0.5]), 1e-9, 0.25)
    run = run_until(B, cfg, 0.2)
    tracks = select_big_shocks(run, 0.5)
    hyb = build_hybrid(run, tracks, eps)
    st = hyb.strips[0]
    xs = np.linspace(-0.4, 0.4, 21) * np.sqrt(eps)   # inside |xi| < sqrt(eps)/2
    r = st.residual_pointwise(0.1, xs)
    assert np.max(r) < 1e-9


def test_residual_far_field_matches_oscillation_diagnostic():
    # pure rarefaction data: residual away from tracks obeys the
    # oscillation-weighted total variation bound up to a moderate constant
    eps = 1e-3
    delta = np.sqrt(eps)
    cfg = init_front_tracking(B, pc([0.0], [0.0, 0.4]), 1e-9, 0.05)
    run = run_until(B, cfg, 1.0)
    hyb = build_hybrid(run, [], eps)
    res = residual(hyb)
    osc = 0.0
    t_edges = run.t_edges
    for k, cfgk in enumerate(run.configs):
        tm = 0.5 * (t_edges[k] + t_edges[k + 1])
        prof = run.config_at(tm).profile()
        osc += oscillation_weighted_tv(prof, delta) * (t_edges[k + 1] - t_edges[k])
    assert res["total"] <= 10.0 * osc
    assert res["per_track"] == {}


def _residual_cells(st, t):
    return hybrid._cells(st, t, st.delta / 6.0, 1.1 * np.sqrt(st.epsilon))


def _halved_residual(hyb):
    """The residual's total at its own midpoint times, with every cell of
    its x-grid halved."""
    total = 0.0
    for st in hyb.strips:
        L = st.t1 - st.t0
        nt = max(2, int(np.ceil(L / (np.sqrt(hyb.epsilon) / 6.0))))
        for t in st.t0 + (np.arange(nt) + 0.5) * (L / nt):
            e = _residual_cells(st, t)
            if e is None:
                continue
            e = np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])]))
            mid = 0.5 * (e[:-1] + e[1:])
            total += L / nt * float(st.residual_pointwise(t, mid) @ np.diff(e))
    return total


def _sweep_hybrid(system, scenario, eps, seed=0, rho_rule=ExperimentConfig.rho_rule):
    """The hybrid of a converge row at tau = 1 with the default rules, or
    with rho_rule."""
    cfg = ExperimentConfig(system=system, scenario=scenario, seed=seed, epsilon_list=(eps,),
                           rho_rule=rho_rule)
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
    return build_hybrid(run, select_big_shocks(run, eval_rule(cfg.rho_rule, eps)), eps)


def test_residual_agrees_with_halved_cells():
    # measured gaps: 7.0e-5 relative on the lone shock, 4.3e-4 on the sweep row
    cfg = init_front_tracking(B, pc([0.0], [0.5, -0.5]), 1e-9, 0.25)
    run = run_until(B, cfg, 0.1)
    lone = build_hybrid(run, select_big_shocks(run, 0.5), 1e-3)
    for hyb in (lone, _sweep_hybrid("burgers", "merge_cancellation", 4e-3)):
        total = residual(hyb)["total"]
        assert total > 0
        assert _halved_residual(hyb) == pytest.approx(total, rel=0.02)


def _strip_grid_before(strip, t):
    """The residual's cells as built before the endpoints shared the
    builder: delta/6 apart over the fronts plus a pad of delta, eps/8 apart
    within 1.1 sqrt(eps) of each track."""
    delta, eps = strip.delta, strip.epsilon
    xs = strip.front_positions(t)
    if xs.size == 0:
        return None
    lo, hi = xs.min() - delta, xs.max() + delta
    edges = [np.arange(lo, hi + delta / 6.0, delta / 6.0)]
    r = np.sqrt(eps)
    for _, front, _ in strip.tracks:
        xa = front.x(t)
        edges.append(np.arange(xa - 1.1 * r, xa + 1.1 * r + eps / 8.0, eps / 8.0))
    e = np.unique(np.concatenate(edges))
    return e[(e >= lo) & (e <= hi)]


@pytest.mark.parametrize("system, scenario, eps, seed", [
    *[("burgers", "merge_cancellation", eps, 0) for eps in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)],
    ("p_system", "lone_shock", 4e-3, 0),
    ("p_system", "lone_shock", 2e-3, 0),
    ("burgers", "random_bv", 4e-3, 7),
])
def test_residual_cells_match_the_strip_grid_bit_for_bit(system, scenario, eps, seed):
    hyb = _sweep_hybrid(system, scenario, eps, seed)
    for st in hyb.strips:
        for t in st.t0 + np.array([0.0, 0.5, 0.9]) * (st.t1 - st.t0):
            got, want = _residual_cells(st, t), _strip_grid_before(st, t)
            assert (got is None and want is None) or np.array_equal(got, want)


def _transversal_hybrid(eps):
    """A small family-2 front crossing a big family-1 shock."""
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.05)          # small 2-shock, slow
    u2 = lax_curve(P, 1, u1, -0.4)           # big 1-shock to its right
    run = run_until(P, init_front_tracking(P, PiecewiseConstant([0.0, 0.1], [u0, u1, u2]),
                                           1e-9, 0.1), 1.0)
    return build_hybrid(run, select_big_shocks(run, 0.3), eps)


def _merge_hybrid():
    """Two Burgers shocks merging into one big shock."""
    run = run_until(B, init_front_tracking(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 1e-9, 0.25),
                    2.0)
    return build_hybrid(run, select_big_shocks(run, 0.5), 1e-3)


def test_jump_sum_no_events():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    tracks = select_big_shocks(run, 0.5)
    js = jump_sum(build_hybrid(run, tracks, 1e-3))
    assert js["total"] == 0.0


def test_jump_sum_transversal_case_classified_and_scales():
    vals = {}
    for eps in (1e-3, 1e-4):
        hyb = _transversal_hybrid(eps)
        assert len(hyb.tracks) == 1
        js = jump_sum(hyb)
        cases = {e["case"] for e in js["events"]}
        assert "transversal" in cases
        vals[eps] = js["per_case"]["transversal"] / (np.sqrt(eps) * 0.4 * 0.05)
    assert all(v > 0 for v in vals.values())
    assert max(vals.values()) / min(vals.values()) < 4.0


def test_jump_sum_merge_case():
    js = jump_sum(_merge_hybrid())
    assert [e["case"] for e in js["events"]] == ["merge"]
    assert js["per_case"]["merge"] > 0


def _acceptance_hybrid(eps):
    return _sweep_hybrid("burgers", "merge_cancellation", eps, rho_rule="sqrt_eps*abs_ln_eps")


def _span_grid(hyb, ev):
    """The jump grid as it was before the window: over the event and every
    track alive on either side of it, padded by 2 delta."""
    k, delta = ev.index, hyb.delta
    dx = min(hyb.epsilon / 8.0, delta / 40.0)
    centers = [ev.x] + [front.x(ev.time) for tr in hyb.tracks
                        for front in (tr.front(k), tr.front(k + 1)) if front is not None]
    return np.arange(min(centers) - 2.0 * delta, max(centers) + 2.0 * delta + dx, dx)


def _jump_at(hyb, ev, grid):
    mid = 0.5 * (grid[:-1] + grid[1:])
    dv = (hyb.strips[ev.index + 1].value(ev.time, mid)
          - hyb.strips[ev.index].value(ev.time, mid))
    return mid, np.linalg.norm(dv, axis=1)


@pytest.mark.parametrize("make", [
    lambda: _acceptance_hybrid(4e-3), lambda: _acceptance_hybrid(1e-3),
    lambda: _transversal_hybrid(1e-3), _merge_hybrid,
], ids=["merge_cancellation-4e-3", "merge_cancellation-1e-3", "transversal", "merge"])
def test_jump_sum_window_matches_the_span_of_every_track(make):
    # the midpoint rule's error moves with where the grid starts: measured
    # 5.1e-5 relative on one event at eps 4e-3, and 5.5e-6 on its total
    hyb = make()
    js = jump_sum(hyb)
    assert len(js["events"]) == len(hyb.run.events) > 0
    span_total = 0.0
    for ev, got in zip(hyb.run.events, js["events"]):
        grid = _span_grid(hyb, ev)
        mid, dv = _jump_at(hyb, ev, grid)
        span = float(dv @ np.diff(grid))
        assert got["l1"] == pytest.approx(span, rel=1e-4, abs=1e-15)
        span_total += span
    assert js["total"] == pytest.approx(span_total, rel=2e-5)


class _TanhStep:
    """A stand-in shock profile: the tanh step from u- to u+, with its two
    derivatives."""

    def __init__(self, u_minus, u_plus):
        self.u_minus, self.du = u_minus, u_plus - u_minus

    def jet(self, s):
        th = np.tanh(s)[:, None]
        sech2 = 1.0 - th * th
        return (self.u_minus + 0.5 * (1.0 + th) * self.du,
                0.5 * sech2 * self.du, -th * sech2 * self.du)


def _window_cases():
    for run, rho in _oracle_runs():
        try:
            yield build_hybrid(run, select_big_shocks(run, rho), 1e-3)
        except OverlappingTracks:
            continue
    for eps in SWEEP_EPS:
        yield _acceptance_hybrid(eps)


def test_hybrid_jumps_only_within_two_delta_of_the_event(monkeypatch):
    # measured over 227 events: jumps of at most 4.4e-16 outside the window,
    # and track fronts at most 2.2e-16 from the event.  An insertion is
    # zero or the front's jump beyond sqrt(eps) whatever its profile, so the
    # p-system's profiles, which would take ~10 s to shoot, are tanh steps
    shoot = hybrid.shock_profile
    monkeypatch.setattr(hybrid, "shock_profile", lambda model, u_minus, u_plus: (
        shoot(model, u_minus, u_plus) if model.profile_fn else _TanhStep(u_minus, u_plus)))
    events = 0
    for hyb in _window_cases():
        for ev in hyb.run.events:
            k = ev.index
            for tr in hyb.tracks:
                if tr.front(k) is not tr.front(k + 1):
                    for front in (tr.front(k), tr.front(k + 1)):
                        if front is not None:
                            assert abs(front.x(ev.time) - ev.x) <= POS_TOL
            mid, dv = _jump_at(hyb, ev, _span_grid(hyb, ev))
            assert np.all(dv[np.abs(mid - ev.x) > 2.0 * hyb.delta] <= 1e-14)
            events += 1
    assert events > 100


@pytest.mark.parametrize("eps, shots", [(4e-3, 6), (2e-3, 7)])
def test_build_hybrid_shoots_once_per_track_front(monkeypatch, eps, shots):
    # the converge row's run: every strip of a track's front shares the one
    # profile shot for that front
    cfg = ExperimentConfig(scenario="merge_cancellation", epsilon_list=(eps,),
                           rho_rule="sqrt_eps*abs_ln_eps")
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
    tracks = select_big_shocks(run, eval_rule(cfg.rho_rule, eps))
    calls = []

    def counted(*args):
        calls.append(args)
        return object()

    monkeypatch.setattr(hybrid, "shock_profile", counted)
    hyb = build_hybrid(run, tracks, eps)
    track_fronts = {f for tr in tracks for f in tr.fronts}
    assert len(calls) == len(track_fronts) == shots
    profiles = {}
    for st in hyb.strips:
        for _, front, profile in st.tracks:
            assert profiles.setdefault(front, profile) is profile
    assert len(profiles) == shots and len({id(p) for p in profiles.values()}) == shots


def test_different_family_overlap_raises():
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.4)
    u2 = lax_curve(P, 1, u1, -0.4)
    eps = 1e-2   # delta = 0.1: tracks start 0.02 apart, well inside 2 delta
    data = PiecewiseConstant([0.0, 0.02], [u0, u1, u2])
    cfg = init_front_tracking(P, data, 1e-9, 0.1)
    run = run_until(P, cfg, 0.005)
    tracks = select_big_shocks(run, 0.3)
    assert len(tracks) == 2
    with pytest.raises(OverlappingTracks):
        build_hybrid(run, tracks, eps)


@pytest.mark.parametrize("seed", [201, 204])
def test_overlap_raises_before_any_profile_is_shot(monkeypatch, seed):
    # p-system random_bv runs whose two big-shock tracks overlap in a later
    # strip: checked strip by strip after that strip's shots, each would
    # pay for 3 profiles before raising
    data = scenario_data(P, "random_bv", seed=seed, n_jumps=8, tv=0.3)
    run = run_until(P, init_front_tracking(P, data, 1e-6, 0.02), 1.5,
                    epsilon_prime=1e-6, simplified_threshold=1e-8)
    tracks = select_big_shocks(run, 0.04)
    calls = []
    monkeypatch.setattr(hybrid, "shock_profile", lambda *args: calls.append(args))
    with pytest.raises(OverlappingTracks):
        build_hybrid(run, tracks, 1e-3)
    assert len(tracks) == 2 and calls == []


# ---------------------------------------------------------------------------
# reference: big-shock tracks looked up by time and side, the way they were
# before tracks held one front per configuration index

@dataclass
class _RefSegment:
    t0: float
    t1: float
    front: object
    x0: float
    speed: float
    sigma: float


@dataclass
class _RefTrack:
    family: int
    t_minus: float
    t_plus: float
    segments: list = field(default_factory=list)

    def alive(self, t, side="+"):
        if side == "+":
            return self.t_minus <= t < self.t_plus
        return self.t_minus < t <= self.t_plus

    def segment_at(self, t, side="+"):
        for seg in self.segments:
            if (seg.t0 <= t < seg.t1) if side == "+" else (seg.t0 < t <= seg.t1):
                return seg
        if side == "+" and self.segments and abs(t - self.segments[-1].t1) < 1e-14:
            return self.segments[-1]
        return None


def _ref_select(run, rho):
    t_edges = run.t_edges
    tracks = []
    for chain in _shock_chains(run):
        segs, big_merge, family = [], [], None
        for cfg_idx, f, parents in chain:
            if f not in run.configs[cfg_idx].fronts:
                continue
            family = f.family if family is None else family
            t0, t1 = t_edges[cfg_idx], t_edges[cfg_idx + 1]
            k = cfg_idx
            # a scan over each configuration: the oracle of the lifetimes
            # that select_big_shocks reads from the event log
            while k + 1 < len(run.configs) and f in run.configs[k + 1].fronts:
                k += 1
                t1 = t_edges[k + 1]
            if t1 <= t0 or (segs and t0 < segs[-1].t1 - 1e-14):
                continue
            segs.append(_RefSegment(t0, t1, f, f.x(t0), f.speed, f.strength))
            big_merge.append(sum(1 for p in parents if p >= rho / 2.0) >= 2)
        j = 0
        while j < len(segs):
            if abs(segs[j].sigma) < rho / 2.0:
                j += 1
                continue
            k = j
            while k + 1 < len(segs) and abs(segs[k + 1].sigma) >= rho / 2.0:
                k += 1
            stretch, flags = segs[j : k + 1], big_merge[j : k + 1]
            first_rho = next((m for m, sg in enumerate(stretch) if abs(sg.sigma) >= rho), None)
            if first_rho is not None:
                open_idx = 0
                for m in range(first_rho + 1):
                    if flags[m] and abs(stretch[m - 1].sigma if m else 0.0) < rho:
                        open_idx = m
                stretch = stretch[open_idx:]
                tracks.append(_RefTrack(family, stretch[0].t0, stretch[-1].t1, stretch))
            j = k + 1
    tracks.sort(key=lambda tr: (tr.t_minus, tr.segments[0].x0))
    return tracks


def _ref_fronts(tracks, t, side):
    return {tr.segment_at(t, side).front for tr in tracks
            if tr.alive(t, side) and tr.segment_at(t, side) is not None}


def _ref_classify(ev, tracks):
    t = ev.time
    in_tracks = [tr for tr in tracks if tr.segment_at(t, "-") is not None
                 and tr.segment_at(t, "-").front in ev.incoming and tr.alive(t, "-")]
    born = [tr for tr in tracks if abs(tr.t_minus - t) < 1e-14]
    died = [tr for tr in tracks if abs(tr.t_plus - t) < 1e-14]
    flags = set()
    fams = [tr.family for tr in in_tracks]
    if len(in_tracks) >= 2 and len(set(fams)) < len(fams):
        flags.add("merge")
    if born:
        flags.add("creation")
    if died and "merge" not in flags:
        flags.add("termination")
    if in_tracks:
        mine = {tr.segment_at(t, "-").front for tr in in_tracks}
        others = [f for f in ev.incoming if f not in mine]
        if any(f.physical and f.family != in_tracks[0].family for f in others):
            flags.add("transversal")
        if any(f.physical and f.family == in_tracks[0].family for f in others):
            flags.add("absorption")
    if not flags:
        flags.add("small")
    return next(c for c in ("merge", "creation", "termination", "transversal",
                            "absorption", "small") if c in flags), flags


def _oracle_runs():
    # a merge of two big shocks
    yield run_until(B, init_front_tracking(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 1e-9, 0.25),
                    2.0), 0.5
    for eps in (1e-2, 1e-3):
        data, rho, cap, tau = _creation_chain_data(eps)
        yield run_until(B, init_front_tracking(B, data, 1e-9, cap), tau,
                        epsilon_prime=1e-6, simplified_threshold=1e-8), rho
    for seed in range(10):
        for model in (B, P):
            data = scenario_data(model, "random_bv", seed=200 + seed, n_jumps=8, tv=0.3)
            run = run_until(model, init_front_tracking(model, data, 1e-6, 0.02), 1.5,
                            epsilon_prime=1e-6, simplified_threshold=1e-8)
            yield run, 0.04


def test_index_lookups_match_time_and_side_reference():
    cases = set()
    for run, rho in _oracle_runs():
        tracks = select_big_shocks(run, rho)
        ref = _ref_select(run, rho)
        assert [(tr.family, tr.t_minus, _t_end(run, tr)) for tr in tracks] == \
            [(tr.family, tr.t_minus, tr.t_plus) for tr in ref]
        for ev in run.events:
            k, t = ev.index, ev.time
            for tr, rt in zip(tracks, ref):
                for kk, side in ((k, "-"), (k + 1, "+")):
                    front = tr.front(kk)
                    seg = rt.segment_at(t, side) if rt.alive(t, side) else None
                    assert (front is None) == (seg is None)
                    if front is not None:
                        assert front is seg.front
                        x = front.x(t)
                        assert x == pytest.approx(seg.x0 + (t - seg.t0) * seg.speed,
                                                  rel=1e-13, abs=1e-13)
            assert big_shock_fronts(tracks, k) == _ref_fronts(ref, t, "-")
            assert big_shock_fronts(tracks, k + 1) == _ref_fronts(ref, t, "+")
            case, flags = classify_event(ev, tracks)
            assert (case, flags) == _ref_classify(ev, ref)
            cases.add(case)
    assert {"creation", "termination", "merge", "transversal", "absorption",
            "small"} <= cases


# ---------------------------------------------------------------------------
# reference: the hybrid composed term by term, v = u * phi_delta + sum over
# tracks of (profile insertion minus mollified step), every jump mollified

def _ref_mollified(st, cfg, t, x):
    mol = Mollifier(st.delta)
    xs = np.array([f.x(t) for f in cfg.fronts])
    speeds = np.array([f.speed for f in cfg.fronts])
    jumps = cfg.profile().jumps() if xs.size else np.zeros((0, st.model.n))
    d = x[:, None] - xs[None, :]
    v = np.tile(cfg.left_state, (x.size, 1))
    if xs.size:
        K, phi, dphi = mol.jet(d)
        v = v + K @ jumps
        vx = phi @ jumps
        vxx = dphi @ jumps
        vt = -(phi * speeds[None, :]) @ jumps
    else:
        vx = np.zeros_like(v)
        vxx = np.zeros_like(v)
        vt = np.zeros_like(v)
    return v, vx, vxx, vt


def _ref_insertion(st, front, profile, t, x):
    mol = Mollifier(st.delta)
    eps = st.epsilon
    r = np.sqrt(eps)
    xi = x - front.x(t)
    du = front.right_state - front.left_state
    v = np.zeros((x.size, st.model.n))
    vx = np.zeros_like(v)
    vxx = np.zeros_like(v)
    inner = np.abs(xi) < r * (1.0 - 1e-12)
    if np.any(inner):
        p, p1, p2 = _squeeze_jet(xi[inner], eps)
        w, w1, w2 = profile.jet(p / eps)
        v[inner] = w
        vx[inner] = w1 * (p1 / eps)[:, None]
        vxx[inner] = w2 * (p1 ** 2 / eps ** 2)[:, None] + w1 * (p2 / eps)[:, None]
    v[~inner & (xi <= 0)] = front.left_state
    v[~inner & (xi > 0)] = front.right_state
    K, phi, dphi = mol.jet(xi)
    v -= front.left_state[None, :] + K[:, None] * du[None, :]
    vx -= phi[:, None] * du[None, :]
    vxx -= dphi[:, None] * du[None, :]
    vt = -front.speed * vx
    return v, vx, vxx, vt


def _ref_jet(st, cfg, t, x):
    jet = list(_ref_mollified(st, cfg, t, x))
    for _, front, profile in st.tracks:
        for i, part in enumerate(_ref_insertion(st, front, profile, t, x)):
            jet[i] = jet[i] + part
    return jet


@pytest.mark.parametrize("system, scenario, eps", [
    ("burgers", "merge_cancellation", 4e-3),
    ("burgers", "merge_cancellation", 2e-3),
    ("p_system", "lone_shock", 2e-3),
])
def test_hybrid_jet_matches_term_by_term_composition(system, scenario, eps):
    # the converge row's hybrid: leaving the tracked fronts out of the
    # mollified sum changes v and its derivatives by rounding only, and a
    # strip without tracks keeps every bit
    cfg = ExperimentConfig(system=system, scenario=scenario, epsilon_list=(eps,),
                           rho_rule="sqrt_eps*abs_ln_eps")
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
    tracks = select_big_shocks(run, eval_rule(cfg.rho_rule, eps))
    hyb = build_hybrid(run, tracks, eps)
    tracked = 0
    for st, config in zip(hyb.strips, run.configs):
        for t in st.t0 + np.array([0.1, 0.5, 0.9]) * (st.t1 - st.t0):
            e = _residual_cells(st, t)
            if e is None:
                continue
            mid = 0.5 * (e[:-1] + e[1:])
            got, ref = st.jet(t, mid), _ref_jet(st, config, t, mid)
            for g, w in zip(got, ref):
                if st.tracks:
                    assert np.max(np.abs(g - w)) <= 1e-13 * (1.0 + np.max(np.abs(w)))
                else:
                    assert np.array_equal(g, w)
        tracked += bool(st.tracks)
    assert tracked > 0


# ---------------------------------------------------------------------------
# the dense sums: every free front's kernel at every point, and each track's
# insertion over the whole array; the oracle of the front-local jet

def _dense_insertion(st, front, profile, t, x):
    eps = st.epsilon
    xi = x - front.x(t)
    v = np.zeros((x.size, st.model.n))
    vx = np.zeros_like(v)
    vxx = np.zeros_like(v)
    inner = np.abs(xi) < np.sqrt(eps) * (1.0 - 1e-12)
    if np.any(inner):
        p, p1, p2 = _squeeze_jet(xi[inner], eps)
        w, w1, w2 = profile.jet(p / eps)
        v[inner] = w - front.left_state
        vx[inner] = w1 * (p1 / eps)[:, None]
        vxx[inner] = w2 * (p1 ** 2 / eps ** 2)[:, None] + w1 * (p2 / eps)[:, None]
    v[~inner & (xi > 0)] = front.right_state - front.left_state
    return v, vx, vxx, -front.speed * vx


def _dense_jet(st, t, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xs = st.front_positions(t)[st.free]
    cdf, phi, dphi = st.mol.jet(x[:, None] - xs[None, :])
    v = np.tile(st.u_left, (x.size, 1)) + cdf @ st.jumps
    vx = phi @ st.jumps
    vxx = dphi @ st.jumps
    vt = -(phi * st.speeds[st.free][None, :]) @ st.jumps
    for _, front, profile in st.tracks:
        dv, dvx, dvxx, dvt = _dense_insertion(st, front, profile, t, x)
        v, vx, vxx, vt = v + dv, vx + dvx, vxx + dvxx, vt + dvt
    return v, vx, vxx, vt


def _assert_jets_agree(got, want):
    # each part to 1e-14 of its largest magnitude
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-14 * np.max(np.abs(w), initial=0.0))


def _oracle_hybrids():
    """Converge-row hybrids: the acceptance scenario, 640 random pieces
    with three tracks, held-out seeds with big shocks, and a p-system row
    with free fronts."""
    yield _sweep_hybrid("burgers", "merge_cancellation", 4e-3, rho_rule="sqrt_eps*abs_ln_eps")
    yield _sweep_hybrid("burgers", "merge_cancellation", 2e-3, rho_rule="sqrt_eps*abs_ln_eps")
    cfg = ExperimentConfig(scenario="random_bv", seed=7, n_jumps=640, tau=0.2,
                           epsilon_list=(1e-2,))
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, 1e-2, 1e-9)
    yield build_hybrid(run, select_big_shocks(run, 0.0015), 1e-2)
    for seed in (11, 12):
        yield _sweep_hybrid("burgers", "random_bv", 4e-3, seed=seed, rho_rule="0.05")
    yield _sweep_hybrid("p_system", "random_bv", 4e-3, seed=3, rho_rule="0.05")


@pytest.fixture(scope="module")
def oracle_hybrids():
    return list(_oracle_hybrids())


def test_front_local_jet_matches_the_dense_sums(oracle_hybrids):
    checked = 0
    for hyb in oracle_hybrids:
        # at most 12 strips of each, spread over the run
        picks = np.unique(np.linspace(0, len(hyb.strips) - 1, 12).astype(int))
        for st in (hyb.strips[k] for k in picks):
            for t in st.t0 + np.array([0.1, 0.5, 0.9]) * (st.t1 - st.t0):
                e = _residual_cells(st, t)
                if e is None:
                    continue
                mid = 0.5 * (e[:-1] + e[1:])
                _assert_jets_agree(st.jet(t, mid), _dense_jet(st, t, mid))
                checked += 1
    assert checked >= 100


def test_budget_matches_the_dense_sums(oracle_hybrids, monkeypatch):
    # the residual, the jump sum and the endpoints move by rounding only:
    # 1e-14 relative, or, for a jump sum of rounding alone (no track opens
    # or closes), 1e-16 (1 + max|u|) per unit length of the events' windows
    got = [(residual(h), jump_sum(h), hybrid_vs_profile_l1(h, 0.0),
            hybrid_vs_profile_l1(h, h.run.tau)) for h in oracle_hybrids]
    monkeypatch.setattr(hybrid.HybridStrip, "jet", _dense_jet)
    for hyb, (res, js, e0, etau) in zip(oracle_hybrids, got):
        want = residual(hyb)
        assert res["total"] == pytest.approx(want["total"], rel=1e-14)
        assert res["far_field"] == pytest.approx(want["far_field"], rel=1e-14)
        assert res["per_track"].keys() == want["per_track"].keys()
        for tid, part in want["per_track"].items():
            assert res["per_track"][tid] == pytest.approx(part, rel=1e-14)
        want = jump_sum(hyb)
        scale = 1.0 + max(float(np.max(np.abs(c.profile().values))) for c in hyb.run.configs)
        allowance = 1e-16 * scale * 4.0 * hyb.delta
        for g, w in zip(js["events"], want["events"]):
            assert g["l1"] == pytest.approx(w["l1"], rel=1e-14, abs=allowance)
        assert js["total"] == pytest.approx(want["total"], rel=1e-14,
                                            abs=allowance * len(want["events"]))
        assert e0 == pytest.approx(hybrid_vs_profile_l1(hyb, 0.0), rel=1e-14)
        assert etau == pytest.approx(hybrid_vs_profile_l1(hyb, hyb.run.tau), rel=1e-14)


# a free front: position in units of delta / 8 (a coarse lattice makes ties
# and fronts at the kernel's edge), jump and speed
_FREE_FRONT = st.tuples(st.integers(-40, 40), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FREE_FRONT, max_size=30), st.floats(1e-4, 1e-1), st.floats(0.0, 1.0),
       st.lists(st.integers(-400, 400), min_size=1, max_size=300))
def test_front_local_sums_match_the_dense_sums(specs, eps, t, at):
    # fronts in position order at t0 = 0 with increasing speeds, so that
    # they keep their order (ties included) up to t; the points sit on a
    # lattice of delta / 48, so some fall on a front or on its kernel's edge
    delta = np.sqrt(eps)
    state = 0.0
    fronts = []
    speeds = sorted(s[2] for s in specs)
    for (k, jump, _), speed in zip(sorted(specs), speeds):
        fronts.append(Front(k * delta / 8, 0.0, 1, "shock", jump, speed,
                            np.array([state]), np.array([state + jump])))
        state += jump
    cfg = FrontConfiguration(time=0.0, fronts=fronts, left_state=np.array([0.0]),
                             rarefaction_cap=0.25)
    strip = hybrid.HybridStrip(B, cfg, 0.0, 1.0, [], eps, delta)
    x = np.sort(np.array(at, dtype=float)) * delta / 48
    _assert_jets_agree(strip.jet(t, x), _dense_jet(strip, t, x))
    if np.any(x[1:] > x[:-1]):
        # the sums read slices of sorted points
        with pytest.raises(ValueError, match="increasing"):
            strip.jet(t, x[::-1])
