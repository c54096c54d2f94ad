import numpy as np
import pytest
from conftest import SWEEP_EPS, corpus_run, creation_chain_data, ft_run, pc
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (dense_jet, halved_residual, kernel_cdf_clipped, ref_select, span_jump,
                     squeeze_jet_masked, strip_grid_before)

from vanvisc import hybrid
from vanvisc.errors import OverlappingTracks
from vanvisc.front_tracking import (POS_TOL, Front, FrontConfiguration, init_front_tracking,
                                    run_until)
from vanvisc.functionals import big_shock_fronts
from vanvisc.harness import ExperimentConfig, _track, eval_rule, scenario_data
from vanvisc.hybrid import (KERNEL_C, KERNEL_SUPPORT, HybridStrip, Mollifier, build_hybrid,
                            classify_event, hybrid_vs_profile_l1, jump_sum, residual,
                            select_big_shocks, _squeeze_jet)
from vanvisc.piecewise import PiecewiseConstant, gauss_l1, gauss_points
from vanvisc.riemann import lax_curve
from vanvisc.system import preset_model

B = preset_model("burgers")
P = preset_model("p_system")


def test_kernel_properties():
    mol = Mollifier(0.37)
    s = np.linspace(-0.5, 0.5, 20001)
    _, phi, dphi = mol.jet(s)
    assert np.max(np.abs(phi - mol.jet(-s)[1])) < 1e-12        # even
    assert np.trapezoid(phi, s) == pytest.approx(1.0, abs=1e-10)  # unit mass
    assert np.all(phi[np.abs(s) > 2 * 0.37 / 3] == 0.0)        # support
    assert np.all(s * dphi <= 1e-12)                           # s phi'(s) <= 0
    with pytest.raises(ValueError):
        Mollifier(0.0)


def test_mollifier_cdf_matches_clipped_polynomial():
    rng = np.random.default_rng(3)
    for delta in (0.37, np.sqrt(4e-3), np.sqrt(2.5e-4)):
        a = KERNEL_SUPPORT * delta
        for s in (rng.normal(0.0, delta, 5000), rng.uniform(-2 * a, 2 * a, (400, 7)),
                  np.array([a, -a, np.nextafter(a, 0), np.nextafter(-a, 0)]),
                  np.array([1e3, -1e3, 1e300, -1e300, np.inf, -np.inf]),
                  np.array([0.0, -0.0]), np.zeros(0)):
            with np.errstate(all="raise"):
                cdf, phi, dphi = Mollifier(delta).jet(s)
            assert np.array_equal(cdf, kernel_cdf_clipped(s, delta))
            far = np.abs(np.asarray(s, dtype=float) / delta) >= KERNEL_SUPPORT
            assert np.all(phi[far] == 0.0) and np.all(dphi[far] == 0.0)


def _mollified_at_zero(model, u, delta):
    """u * phi_delta as the production sum evaluates it: the trackless strip
    of u's front tracking, read at t = 0 (the cap keeps every rarefaction of
    these data one step)."""
    cfg = init_front_tracking(model, u, 1e-9, 2.0)
    return HybridStrip(model, cfg, 0.0, 1.0, [], delta ** 2, delta)


def _mollification_l1_error(model, u, delta):
    """Integral of |u * phi_delta - u| over the strip at t = 0: 6-point
    Gauss on 8 equal sub-intervals of each gap between kernel edges."""
    xs = u.xs
    edges = np.unique(np.concatenate([
        xs, xs - KERNEL_SUPPORT * delta, xs + KERNEL_SUPPORT * delta]))
    sub = edges[:-1, None] + np.diff(edges)[:, None] * (np.arange(8) / 8.0)
    cut = np.append(sub.ravel(), edges[-1])
    pts = gauss_points(cut)
    return gauss_l1(cut, _mollified_at_zero(model, u, delta).value(0.0, pts), u(pts))


def test_mollify_constant_and_step():
    st = _mollified_at_zero(B, pc([], [0.7]), 0.1)
    assert np.max(np.abs(st.value(0.0, np.linspace(-1, 1, 11)) - 0.7)) == 0.0

    st = _mollified_at_zero(B, pc([0.0], [0.0, 1.0]), 0.1)
    assert st.value(0.0, np.array([0.0]))[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert (st.value(0.0, np.array([0.07]))[0, 0] + st.value(0.0, np.array([-0.07]))[0, 0]
            == pytest.approx(1.0, abs=1e-12))


def test_mollification_l1_bound():
    u = pc([-0.4, 0.1, 0.5], [0.0, 0.6, 0.2, 0.9])
    delta = 0.08
    err = _mollification_l1_error(B, u, delta)
    assert 0 < err <= delta * u.total_variation()


@pytest.mark.parametrize("delta", [0.08, 0.02])
@pytest.mark.parametrize("seed", [3, 5])
@pytest.mark.parametrize("model", [B, P], ids=["burgers", "p_system"])
def test_mollification_l1_bound_on_random_data(model, seed, delta):
    # the lemma in the Euclidean norm, on scalar and 2x2 data
    u = scenario_data(model, "random_bv", seed=seed, n_jumps=8, tv=0.3)
    err = _mollification_l1_error(model, u, delta)
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
        assert _mollification_l1_error(B, u, delta) == pytest.approx(
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
    rng = np.random.default_rng(4)
    for eps in (4e-3, 2e-3, 2.5e-4):
        r = np.sqrt(eps)
        xs = np.concatenate([rng.uniform(-r, r, 2000) * (1 - 1e-12), [0.0, 0.5 * r, -0.5 * r]])
        for got, want in zip(_squeeze_jet(xs, eps), squeeze_jet_masked(xs, eps)):
            assert np.array_equal(got, want)


def _t_end(run, track):
    """The time of the event that ends a track, or tau."""
    return run.t_edges[track.first + len(track.fronts)]


def test_select_big_shocks_examples():
    run = ft_run(B, pc([0.0], [1.0, 0.0]), 1.0, 0.25)
    tracks = select_big_shocks(run, 0.5)
    assert len(tracks) == 1
    assert tracks[0].t_minus == 0.0 and _t_end(run, tracks[0]) == 1.0

    run = ft_run(B, pc([0.0], [0.4, 0.0]), 1.0, 0.25)
    assert select_big_shocks(run, 1.0) == []

    # two 0.6-shocks merging: neither parent reaches rho=1, the child does
    run = ft_run(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 2.0, 0.25)
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
        run = ft_run(B, PiecewiseConstant(xs, vals[:, None]), 1.0, 0.1)
        rho = 0.3
        tracks = select_big_shocks(run, rho)
        ratios.append(len(tracks) / (2.0 / rho))
    assert max(ratios) <= 1.5


def _hybrid(model, data, tau, cap, rho, eps):
    """The hybrid of data's front-tracking run, with the tracks of the
    shocks that reach rho."""
    run = ft_run(model, data, tau, cap)
    return build_hybrid(run, select_big_shocks(run, rho), eps)


def test_hybrid_reduces_to_mollification_without_tracks():
    hyb = _hybrid(B, pc([0.0], [0.3, 0.0]), 0.5, 0.25, np.inf, 1e-3)
    xs = np.linspace(-0.5, 0.8, 301)
    v = hyb.value(0.2, xs)
    vd = dense_jet(hyb.strip_at(0.2), hyb.run.config_at(0.2), 0.2, xs)[0]
    assert np.max(np.abs(v - vd)) < 1e-14


def test_hybrid_standing_shock_structure():
    eps = 1e-3
    delta = np.sqrt(eps)
    st = _hybrid(B, pc([0.0], [0.5, -0.5]), 0.2, 0.25, 0.5, eps).strips[0]
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
        e0 = hybrid_vs_profile_l1(_hybrid(B, data, 0.1, 0.25, 0.4, eps), 0.0)
        ratios.append(e0 / (data.total_variation() * np.sqrt(eps)))
    assert max(ratios) / min(ratios) < 3.0


def test_residual_vanishes_where_squeeze_is_identity():
    eps = 1e-3
    st = _hybrid(B, pc([0.0], [0.5, -0.5]), 0.2, 0.25, 0.5, eps).strips[0]
    xs = np.linspace(-0.4, 0.4, 21) * np.sqrt(eps)   # inside |xi| < sqrt(eps)/2
    r = st.residual_pointwise(0.1, xs)
    assert np.max(r) < 1e-9


def _oscillation_weighted_tv(u, delta):
    """Sum over jumps of Osc{u; [x_j - delta, x_j + delta]} |jump_j|, the
    oscillation being the Euclidean diameter of u's values on the closed
    window (which holds the jump, so at least two values)."""
    total = 0.0
    for x, du in zip(u.xs, u.jumps()):
        i0 = np.searchsorted(u.xs, x - delta, side="left")
        i1 = np.searchsorted(u.xs, x + delta, side="right")
        vals = u.values[i0 : i1 + 1]
        osc = float(np.max(np.linalg.norm(vals[:, None, :] - vals[None, :, :], axis=2)))
        total += osc * float(np.linalg.norm(du))
    return total


def test_residual_far_field_matches_oscillation_diagnostic():
    # pure rarefaction data: residual away from tracks obeys the
    # oscillation-weighted total variation bound up to a moderate constant
    eps = 1e-3
    delta = np.sqrt(eps)
    hyb = _hybrid(B, pc([0.0], [0.0, 0.4]), 1.0, 0.05, np.inf, eps)
    run = hyb.run
    res = residual(hyb)
    osc = 0.0
    t_edges = run.t_edges
    for k, cfgk in enumerate(run.configs):
        tm = 0.5 * (t_edges[k] + t_edges[k + 1])
        prof = run.config_at(tm).profile()
        osc += _oscillation_weighted_tv(prof, delta) * (t_edges[k + 1] - t_edges[k])
    assert res["total"] <= 10.0 * osc
    assert res["per_track"] == {}


def _residual_cells(st, t):
    return hybrid._cells(st, t, st.delta / 6.0, 1.1 * np.sqrt(st.epsilon))


def _sweep_hybrid(system, scenario, eps, **fields):
    """The hybrid of a converge row with the default config (tau = 1), or
    with the given config fields."""
    cfg = ExperimentConfig(system=system, scenario=scenario, epsilon_list=(eps,), **fields)
    model, data = cfg.model_and_data()
    run = _track(cfg, model, data, eps, min(1e-9, eps ** 3))
    return build_hybrid(run, select_big_shocks(run, eval_rule(cfg.rho_rule, eps)), eps)


def test_residual_agrees_with_halved_cells():
    # measured gaps: 7.0e-5 relative on the lone shock, 4.3e-4 on the sweep row
    lone = _hybrid(B, pc([0.0], [0.5, -0.5]), 0.1, 0.25, 0.5, 1e-3)
    for hyb in (lone, _sweep_hybrid("burgers", "merge_cancellation", 4e-3)):
        total = residual(hyb)["total"]
        assert total > 0
        assert halved_residual(hyb) == pytest.approx(total, rel=0.02)


@pytest.mark.parametrize("system, scenario, eps, seed", [
    *[("burgers", "merge_cancellation", eps, 0) for eps in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)],
    ("p_system", "lone_shock", 4e-3, 0),
    ("p_system", "lone_shock", 2e-3, 0),
    ("burgers", "random_bv", 4e-3, 7),
])
def test_residual_cells_match_the_strip_grid_bit_for_bit(system, scenario, eps, seed):
    hyb = _sweep_hybrid(system, scenario, eps, seed=seed)
    for st in hyb.strips:
        for t in st.t0 + np.array([0.0, 0.5, 0.9]) * (st.t1 - st.t0):
            got, want = _residual_cells(st, t), strip_grid_before(st, t)
            assert (got is None and want is None) or np.array_equal(got, want)


def _transversal_hybrid(eps):
    """A small family-2 front crossing a big family-1 shock."""
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.05)          # small 2-shock, slow
    u2 = lax_curve(P, 1, u1, -0.4)           # big 1-shock to its right
    return _hybrid(P, PiecewiseConstant([0.0, 0.1], [u0, u1, u2]), 1.0, 0.1, 0.3, eps)


def _merge_hybrid():
    """Two Burgers shocks merging into one big shock."""
    return _hybrid(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 2.0, 0.25, 0.5, 1e-3)


def test_jump_sum_no_events():
    assert jump_sum(_hybrid(B, pc([0.0], [1.0, 0.0]), 1.0, 0.25, 0.5, 1e-3))["total"] == 0.0


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
        grid, _, dv = span_jump(hyb, ev)
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
            _, mid, dv = span_jump(hyb, ev)
            assert np.all(dv[np.abs(mid - ev.x) > 2.0 * hyb.delta] <= 1e-14)
            events += 1
    assert events > 100


@pytest.mark.parametrize("eps, shots", [(4e-3, 6), (2e-3, 7)])
def test_build_hybrid_shoots_once_per_track_front(monkeypatch, eps, shots):
    # the converge row's run: every strip of a track's front shares the one
    # profile shot for that front
    calls = []

    def counted(*args):
        calls.append(args)
        return object()

    monkeypatch.setattr(hybrid, "shock_profile", counted)
    hyb = _acceptance_hybrid(eps)
    track_fronts = {f for tr in hyb.tracks for f in tr.fronts}
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
    run = ft_run(P, data, 0.005, 0.1)
    tracks = select_big_shocks(run, 0.3)
    assert len(tracks) == 2
    with pytest.raises(OverlappingTracks):
        build_hybrid(run, tracks, eps)


@pytest.mark.parametrize("seed", [201, 204])
def test_overlap_raises_before_any_profile_is_shot(monkeypatch, seed):
    # p-system random_bv runs whose two big-shock tracks overlap in a later
    # strip: checked strip by strip after that strip's shots, each would
    # pay for 3 profiles before raising
    run = corpus_run(P, seed, 8)
    tracks = select_big_shocks(run, 0.04)
    calls = []
    monkeypatch.setattr(hybrid, "shock_profile", lambda *args: calls.append(args))
    with pytest.raises(OverlappingTracks):
        build_hybrid(run, tracks, 1e-3)
    assert len(tracks) == 2 and calls == []


def _oracle_runs():
    # a merge of two big shocks
    yield ft_run(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 2.0, 0.25), 0.5
    for eps in (1e-2, 1e-3):
        data, rho, cap, tau = creation_chain_data(eps)
        yield run_until(B, init_front_tracking(B, data, 1e-9, cap), tau,
                        epsilon_prime=1e-6, simplified_threshold=1e-8), rho
    for seed in range(10):
        for model in (B, P):
            yield corpus_run(model, 200 + seed, 8), 0.04


def test_index_lookups_match_time_and_side_reference():
    cases = set()
    for run, rho in _oracle_runs():
        tracks = select_big_shocks(run, rho)
        ref = ref_select(run, rho)
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
            assert big_shock_fronts(tracks, k) == ref.fronts(t, "-")
            assert big_shock_fronts(tracks, k + 1) == ref.fronts(t, "+")
            case, flags = classify_event(ev, tracks)
            assert (case, flags) == ref.classify(ev)
            cases.add(case)
    assert {"creation", "termination", "merge", "transversal", "absorption",
            "small"} <= cases


def _assert_jets_agree(got, want):
    # each part to 1e-14 of its largest magnitude
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-14 * np.max(np.abs(w), initial=0.0))


# converge-row hybrids: the acceptance scenario, a p-system lone shock, 640
# random pieces with three tracks, held-out seeds, and a p-system row with
# free fronts
ORACLE_HYBRIDS = {
    "burgers-merge_cancellation-0.004": lambda: _acceptance_hybrid(4e-3),
    "burgers-merge_cancellation-0.002": lambda: _acceptance_hybrid(2e-3),
    "p_system-lone_shock-0.002": lambda: _sweep_hybrid(
        "p_system", "lone_shock", 2e-3, rho_rule="sqrt_eps*abs_ln_eps"),
    "burgers-random_bv_640": lambda: _sweep_hybrid(
        "burgers", "random_bv", 1e-2, seed=7, n_jumps=640, tau=0.2, rho_rule="0.0015"),
    "burgers-random_bv-11": lambda: _sweep_hybrid("burgers", "random_bv", 4e-3, seed=11,
                                                  rho_rule="0.05"),
    "burgers-random_bv-12": lambda: _sweep_hybrid("burgers", "random_bv", 4e-3, seed=12,
                                                  rho_rule="0.05"),
    "p_system-random_bv-3": lambda: _sweep_hybrid("p_system", "random_bv", 4e-3, seed=3,
                                                  rho_rule="0.05"),
}


@pytest.fixture(scope="module")
def oracle_hybrids():
    return {name: make() for name, make in ORACLE_HYBRIDS.items()}


@pytest.mark.parametrize("name", ORACLE_HYBRIDS)
def test_hybrid_jet_matches_term_by_term_composition(oracle_hybrids, name):
    # the front-local sums, which leave the tracked fronts out of the
    # mollified sum, move v and its derivatives by rounding only, on every
    # strip at three times
    hyb = oracle_hybrids[name]
    checked = tracked = 0
    for st, config in zip(hyb.strips, hyb.run.configs):
        for t in st.t0 + np.array([0.1, 0.5, 0.9]) * (st.t1 - st.t0):
            e = _residual_cells(st, t)
            if e is None:
                continue
            mid = 0.5 * (e[:-1] + e[1:])
            _assert_jets_agree(st.jet(t, mid), dense_jet(st, config, t, mid))
            checked += 1
            tracked += bool(st.tracks)
    assert checked > 0 and (tracked > 0 or not hyb.tracks)


def test_budget_matches_the_dense_sums(oracle_hybrids, monkeypatch):
    # the residual, the jump sum and the endpoints move by rounding only:
    # 1e-14 relative, or, for a jump sum of rounding alone (no track opens
    # or closes), 1e-16 (1 + max|u|) per unit length of the events' windows
    hybs = list(oracle_hybrids.values())
    got = [(residual(h), jump_sum(h), hybrid_vs_profile_l1(h, 0.0),
            hybrid_vs_profile_l1(h, h.run.tau)) for h in hybs]
    configs = {st: cfg for h in hybs for st, cfg in zip(h.strips, h.run.configs)}
    monkeypatch.setattr(hybrid.HybridStrip, "jet",
                        lambda st, t, x: dense_jet(st, configs[st], t, x))
    for hyb, (res, js, e0, etau) in zip(hybs, got):
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
    _assert_jets_agree(strip.jet(t, x), dense_jet(strip, cfg, t, x))
    if np.any(x[1:] > x[:-1]):
        # the sums read slices of sorted points
        with pytest.raises(ValueError, match="increasing"):
            strip.jet(t, x[::-1])
