from dataclasses import dataclass, field

import numpy as np
import pytest
from test_acceptance import _creation_chain_data

from vanvisc.errors import OverlappingTracks
from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.functionals import big_shock_uids
from vanvisc.harness import scenario_data
from vanvisc.hybrid import (KERNEL_C, KERNEL_SUPPORT, Mollifier, build_hybrid,
                            classify_event, jump_sum, mollification_l1_error, mollify,
                            oscillation_weighted_tv, residual, select_big_shocks,
                            _shock_chains, _squeeze_jet)
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
            assert np.array_equal(Mollifier(delta).cdf(s), ref(s, delta))


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
    t_edges = run.t_edges
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


# ---------------------------------------------------------------------------
# reference: big-shock tracks looked up by time and side, the way they were
# before tracks held one front per configuration index

@dataclass
class _RefSegment:
    t0: float
    t1: float
    uid: int
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
    uid_lookup = [{f.uid: f for f in cfg.fronts} for cfg in run.configs]
    tracks = []
    for chain in _shock_chains(run):
        segs, big_merge, family = [], [], None
        for cfg_idx, uid, parents in chain:
            f = uid_lookup[cfg_idx].get(uid)
            if f is None:
                continue
            family = f.family if family is None else family
            t0, t1 = t_edges[cfg_idx], t_edges[cfg_idx + 1]
            k = cfg_idx
            while k + 1 < len(run.configs) and uid in uid_lookup[k + 1]:
                k += 1
                t1 = t_edges[k + 1]
            if t1 <= t0 or (segs and t0 < segs[-1].t1 - 1e-14):
                continue
            segs.append(_RefSegment(t0, t1, uid, f.pos, f.speed, f.strength))
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


def _ref_uids(tracks, t, side):
    return {tr.segment_at(t, side).uid for tr in tracks
            if tr.alive(t, side) and tr.segment_at(t, side) is not None}


def _ref_classify(ev, tracks):
    t = ev.time
    incoming_uids = {f.uid for f in ev.incoming}
    in_tracks = [tr for tr in tracks if tr.segment_at(t, "-") is not None
                 and tr.segment_at(t, "-").uid in incoming_uids and tr.alive(t, "-")]
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
        mine = {tr.segment_at(t, "-").uid for tr in in_tracks}
        others = [f for f in ev.incoming if f.uid not in mine]
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
        assert [(tr.family, tr.t_minus, tr.t_plus) for tr in tracks] == \
            [(tr.family, tr.t_minus, tr.t_plus) for tr in ref]
        for ev in run.events:
            k, t = ev.index, ev.time
            for tr, rt in zip(tracks, ref):
                for kk, side in ((k, "-"), (k + 1, "+")):
                    front = tr.front(kk)
                    seg = rt.segment_at(t, side) if rt.alive(t, side) else None
                    assert (front is None) == (seg is None)
                    if front is not None:
                        assert (front.uid, front.strength) == (seg.uid, seg.sigma)
                        x = front.pos + (t - run.configs[kk].time) * front.speed
                        assert x == pytest.approx(seg.x0 + (t - seg.t0) * seg.speed,
                                                  rel=1e-13, abs=1e-13)
            assert big_shock_uids(tracks, k) == _ref_uids(ref, t, "-")
            assert big_shock_uids(tracks, k + 1) == _ref_uids(ref, t, "+")
            case, flags = classify_event(ev, tracks)
            assert (case, flags) == _ref_classify(ev, ref)
            cases.add(case)
    assert {"creation", "termination", "merge", "transversal", "absorption",
            "small"} <= cases
