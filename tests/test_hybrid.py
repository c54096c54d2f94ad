import numpy as np
import pytest

from vanvisc.errors import OutOfRange, OverlappingTracks
from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.hybrid import (HybridStrip, Mollifier, build_hybrid,
                            classify_event, jump_sum, mollification_l1_error, mollify,
                            oscillation_weighted_tv, residual, select_big_shocks,
                            squeeze_map, _squeeze, _squeeze_d1)
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
    phi = mol.phi(s)
    assert np.max(np.abs(phi - mol.phi(-s))) < 1e-12           # even
    assert np.trapezoid(phi, s) == pytest.approx(1.0, abs=1e-10)  # unit mass
    assert np.all(phi[np.abs(s) > 2 * 0.37 / 3] == 0.0)        # support
    assert np.all(s * mol.dphi(s) <= 1e-12)                    # s phi'(s) <= 0


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


def test_squeeze_map_examples():
    eps = 1e-3
    r = np.sqrt(eps)
    assert squeeze_map(0.0, eps) == 0.0
    assert squeeze_map(r / 2, eps) == pytest.approx(r / 2)
    assert squeeze_map(0.75 * r, eps) == pytest.approx(r)
    with pytest.raises(OutOfRange):
        squeeze_map(r, eps)
    # C^1 at the branch point, odd, increasing, blows up near the edge
    h = 1e-9
    for x0 in (r / 2, -r / 2):
        left = (_squeeze(np.array([x0]), eps) - _squeeze(np.array([x0 - h]), eps)) / h
        right = (_squeeze(np.array([x0 + h]), eps) - _squeeze(np.array([x0]), eps)) / h
        assert left[0] == pytest.approx(right[0], rel=1e-5)
    xs = np.linspace(-r * 0.999, r * 0.999, 1001)
    vals = _squeeze(xs, eps)
    assert np.max(np.abs(vals + _squeeze(-xs, eps))) < 1e-18
    assert np.all(np.diff(vals) > 0)
    assert abs(_squeeze(np.array([r * (1 - 1e-6)]), eps)[0]) > 1e4 * r
    assert np.all(_squeeze_d1(xs, eps) >= 1.0 - 1e-12)


def test_select_big_shocks_examples():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    tracks = select_big_shocks(run, 0.5)
    assert len(tracks) == 1
    assert tracks[0].t_minus == 0.0 and tracks[0].t_plus == 1.0

    cfg = init_front_tracking(B, pc([0.0], [0.4, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    assert select_big_shocks(run, 1.0) == []

    # two 0.6-shocks merging: neither parent reaches rho=1, the child does
    cfg = init_front_tracking(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    tracks = select_big_shocks(run, 1.0)
    assert len(tracks) == 1
    assert tracks[0].t_minus == pytest.approx(run.times[0])
    assert abs(tracks[0].segments[0].sigma) == pytest.approx(1.2, abs=1e-10)


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
    from vanvisc.harness import hybrid_vs_profile_l1

    data = pc([-0.3, 0.2, 0.5], [1.0, 0.2, 0.6, 0.0])
    ratios = []
    for eps in (4e-3, 1e-3, 2.5e-4):
        cfg = init_front_tracking(B, data, 1e-9, 0.25)
        run = run_until(B, cfg, 0.1)
        tracks = select_big_shocks(run, 0.4)
        hyb = build_hybrid(run, tracks, eps)
        e0 = hybrid_vs_profile_l1(hyb, run, 0.0)
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
    t_edges = [0.0] + list(run.times) + [run.tau]
    for k, cfgk in enumerate(run.configs):
        tm = 0.5 * (t_edges[k] + t_edges[k + 1])
        prof = run.config_at(tm).profile()
        osc += oscillation_weighted_tv(prof, delta) * (t_edges[k + 1] - t_edges[k])
    assert res["total"] <= 10.0 * osc
    assert res["per_track"] == {}


def test_residual_refinement_check_passes():
    eps = 1e-3
    cfg = init_front_tracking(B, pc([0.0], [0.5, -0.5]), 1e-9, 0.25)
    run = run_until(B, cfg, 0.1)
    tracks = select_big_shocks(run, 0.5)
    hyb = build_hybrid(run, tracks, eps)
    res = residual(hyb, check=True)
    assert res["total"] > 0


def test_jump_sum_no_events():
    cfg = init_front_tracking(B, pc([0.0], [1.0, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    tracks = select_big_shocks(run, 0.5)
    js = jump_sum(run, tracks, build_hybrid(run, tracks, 1e-3))
    assert js["total"] == 0.0


def test_jump_sum_transversal_case_classified_and_scales():
    # small family-2 front crossing a big family-1 shock
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.05)          # small 2-shock, slow
    u2 = lax_curve(P, 1, u1, -0.4)           # big 1-shock to its right
    data = PiecewiseConstant([0.0, 0.1], [u0, u1, u2])
    vals = {}
    for eps in (1e-3, 1e-4):
        cfg = init_front_tracking(P, data, 1e-9, 0.1)
        run = run_until(P, cfg, 1.0)
        tracks = select_big_shocks(run, 0.3)
        assert len(tracks) == 1
        js = jump_sum(run, tracks, build_hybrid(run, tracks, eps))
        cases = {e["case"] for e in js["events"]}
        assert "transversal" in cases
        vals[eps] = js["per_case"]["transversal"] / (np.sqrt(eps) * 0.4 * 0.05)
    assert all(v > 0 for v in vals.values())
    assert max(vals.values()) / min(vals.values()) < 4.0


def test_jump_sum_merge_case():
    cfg = init_front_tracking(B, pc([0.0, 0.3], [1.2, 0.6, 0.0]), 1e-9, 0.25)
    run = run_until(B, cfg, 2.0)
    tracks = select_big_shocks(run, 0.5)
    js = jump_sum(run, tracks, build_hybrid(run, tracks, 1e-3))
    assert [e["case"] for e in js["events"]] == ["merge"]
    assert js["per_case"]["merge"] > 0


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
