import numpy as np
import pytest
from conftest import corpus_run, ft_run
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (audit_snapshot, glimm_double_loop, ordered_pairs, two_walks,
                     w_flat_two_branches)

from vanvisc.front_tracking import (GLIMM_C0, Front, FrontConfiguration, config_index,
                                    glimm_functionals, init_front_tracking, run_until)
from vanvisc.functionals import (FunctionalConstants, audit_events, big_shock_fronts,
                                 interaction_decay_rates, q_hat, w_flat, w_natural,
                                 weighted_potentials)
from vanvisc.harness import eval_rule, scenario_data
from vanvisc.hybrid import select_big_shocks
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import lax_curve
from vanvisc.system import preset_model

B = preset_model("burgers")
P = preset_model("p_system")
EPS = 1e-3
R = np.sqrt(EPS)


def shock(pos, fam, s, speed=0.0):
    return Front(pos, 0.0, fam, "shock", s, speed, np.zeros(1), np.zeros(1))


def raref(pos, fam, s, speed=0.0):
    return Front(pos, 0.0, fam, "rarefaction_step", s, speed, np.zeros(1), np.zeros(1))


def config(fronts):
    return FrontConfiguration(time=0.0, fronts=fronts, left_state=np.zeros(1),
                              rarefaction_cap=0.25)


def fronts_from(specs, unit):
    """The fronts of (position, family, is_shock, size[, speed]) specs in
    position order: the position in units of unit, family 3 a
    non-physical front of strength size, a shock of strength -size and a
    rarefaction step of strength size, at speed 0 unless given."""
    fronts = []
    for pos, fam, is_shock, size, *speed in sorted(specs, key=lambda t: t[0]):
        if fam == 3:
            kind, strength = "non_physical", size
        else:
            kind, strength = ("shock", -size) if is_shock else ("rarefaction_step", size)
        fronts.append(Front(pos * unit, 0.0, fam, kind, strength, speed[0] if speed else 0.0,
                            np.zeros(2), np.zeros(2)))
    return fronts


def potentials(cfg, bs=frozenset(), eps=EPS):
    """(q_flat, q_natural, q_sharp) of cfg; bs is the set of big shocks."""
    return weighted_potentials(cfg, bs, eps)[0]


def test_q_flat_examples():
    values, rates, pairs = weighted_potentials(
        config([shock(0.0, 1, -0.5), shock(1.0, 1, -0.3)]), set(), EPS)
    assert (values[0], rates[0], pairs[0]) == (0.0, 0.0, 0.0)
    # single ordered pair weight at coincident positions is 1/2
    assert w_flat(0.0, 0.0, 2, 1, EPS)[0] == pytest.approx(0.5)
    assert w_flat(-2.1 * R, 0.0, 2, 1, EPS)[0] == 0.0
    assert w_flat(2.1 * R, 0.0, 2, 1, EPS)[0] == 1.0
    # weight table is continuous at the branch points
    for fa, fb in ((2, 1), (1, 2)):
        for edge in (-2 * R, 2 * R):
            lo, _ = w_flat(edge - 1e-12, 0.0, fa, fb, EPS)
            hi, _ = w_flat(edge + 1e-12, 0.0, fa, fb, EPS)
            assert lo == pytest.approx(hi, abs=1e-10)


def test_q_natural_examples():
    a = shock(0.0, 1, -1.0)
    assert potentials(config([a]), {a})[1] == 0.0
    cfg = config([a, raref(0.0, 1, 0.1)])
    assert potentials(cfg, {a})[1] == pytest.approx(0.05)
    # a shock of equal fields is another front: not big
    assert potentials(cfg, {shock(0.0, 1, -1.0)})[1] == 0.0
    cfg = config([a] + [raref(0.0, 1, 0.125) for _ in range(4)])
    assert potentials(cfg, {a})[1] == pytest.approx(0.125)  # cut off at 1/4 * 1/2


def test_q_natural_weight_range():
    assert w_natural(0.0, 0.0, EPS)[0] == 0.5
    assert w_natural(10.0, 0.0, EPS)[0] == 1.0
    assert 0.5 <= w_natural(1.3 * R, 0.0, EPS)[0] <= 1.0


def test_q_sharp_examples():
    assert potentials(config([shock(0.0, 1, -0.4)]))[2] == 0.0
    s, d = 0.2, 0.5 * R
    cfg = config([shock(0.0, 1, -s), shock(d, 1, -s)])
    expect = 2 * s * (0.5 + d / (4 * R)) * s / (EPS + s / 2)
    assert potentials(cfg)[2] == pytest.approx(expect, rel=1e-12)
    # partner atom erased by interleaved rarefactions (3x rule)
    Rmass = (2.0 / 3.0) * (s + s / 2) * 1.05
    fronts = [shock(0.0, 1, -s)]
    for j in range(4):
        fronts.append(raref(d * (j + 1) / 6.0, 1, Rmass / 4))
    fronts.append(shock(d, 1, -s))
    assert potentials(config(fronts))[2] == 0.0


def test_q_hat_snapshot():
    C = FunctionalConstants()
    e = config([])
    V, Q = glimm_functionals(e)
    assert V == 0.0 and Q == 0.0
    assert q_hat(V + GLIMM_C0 * Q, *potentials(e), EPS, C) == 0.0
    a = shock(0.0, 1, -0.5)
    cfg = config([a, raref(0.01, 1, 0.1)])
    V, Q = glimm_functionals(cfg)
    qh = q_hat(V + GLIMM_C0 * Q, *potentials(cfg, {a}), EPS, C)
    # composite bound shape: q_hat = O(sqrt(eps) |ln eps| TV) with the default
    # constants dominated by C1 Upsilon
    bound = np.sqrt(EPS) * abs(np.log(EPS)) * (1e5 * (V + 4 * Q) + 1e3 + 10) + np.sqrt(EPS)
    assert 0.0 < qh <= bound


def test_audit_merge_strict_decrease():
    run = ft_run(B, PiecewiseConstant([0.0, 1.0], [[2.0], [1.0], [0.0]]), 2.0, 0.25)
    tracks = select_big_shocks(run, 0.8)
    rep = audit_events(run, tracks, EPS)
    assert rep.ok()
    assert len(rep.merge_records) == 1
    rec = rep.merge_records[0]
    assert rec["dq_hat"] < 0
    assert rec["loss_ratio"] > 0   # decrease exceeds a positive multiple of the bound


def test_audit_transversal_no_creation_monotone():
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 2, u0, -0.05)
    u2 = lax_curve(P, 1, u1, -0.4)
    data = PiecewiseConstant([0.0, 0.1], [u0, u1, u2])
    run = ft_run(P, data, 1.0, 0.1)
    tracks = select_big_shocks(run, 0.3)
    rep = audit_events(run, tracks, EPS)
    assert rep.ok()
    assert rep.creation_ratios == []
    for ev in rep.events:
        assert ev["dq_hat"] <= 1e-10


def test_audit_creation_ratio_recorded():
    # two shocks below rho merging above rho: a track is created at the merge
    run = ft_run(B, PiecewiseConstant([0.0, 0.3], [[1.2], [0.6], [0.0]]), 2.0, 0.25)
    tracks = select_big_shocks(run, 1.0)
    assert len(tracks) == 1 and tracks[0].t_minus > 0
    rep = audit_events(run, tracks, EPS)
    assert rep.ok()
    assert len(rep.creation_ratios) == 1
    rec = rep.creation_ratios[0]
    assert rec["sigma"] == pytest.approx(1.2, abs=1e-10)
    assert np.isfinite(rec["ratio"])


@pytest.mark.parametrize("seed", [1940059042105, 1999834075])
def test_audit_p_system_riemann_landing_seeds(seed):
    # corpus setting of criteria 3-4 on two held-out p-system seeds.  With the
    # Riemann iteration stopped at an absolute residual of 1e-11, an accurate
    # solve glued up to 1e-11 of state defect into its last outgoing wave; a
    # later pass-through re-landed a 1e-10 shock and put the defect into a
    # non-physical front, so Upsilon rose by 6.6e-12 and 6.9e-12 and the audit
    # found one q_hat rise each.  At 1e-14 times the data scale neither happens
    run = corpus_run(P, seed, 8)
    hist = run.glimm_history
    assert max(b[3] - a[3] for a, b in zip(hist[:-1], hist[1:])) <= 1e-13
    rho = eval_rule("4*sqrt_eps*abs_ln_eps", EPS)
    rep = audit_events(run, select_big_shocks(run, rho), EPS, rho=rho)
    assert rep.violations == []


def _approaching_shocks(gap):
    """A p-system 1-shock and a 2-shock gap to its right, approaching it,
    tracked to t = 1e-5."""
    u0 = np.array([1.0, 0.0])
    u1 = lax_curve(P, 1, u0, -0.2)
    u2 = lax_curve(P, 2, u1, -0.15)
    return ft_run(P, PiecewiseConstant([0.0, gap], [u0, u1, u2]), 1e-5, 0.1)


def test_flat_decay_rate_closed_form():
    run = _approaching_shocks(0.5 * R)
    row = interaction_decay_rates(run, [], EPS)[0]
    a, b = run.configs[0].fronts
    expect = -2 * abs(a.strength * b.strength) * abs(a.speed - b.speed) / (4 * R)
    assert row["rate_flat"] == pytest.approx(expect, rel=1e-12)


def test_flat_decay_rate_empty_window():
    (row,) = interaction_decay_rates(_approaching_shocks(10 * R), [], EPS)
    assert row["rate_flat"] == 0.0 and row["cross_pair_sum"] == 0.0


def test_natural_decay_rate_clean_case():
    # big Burgers shock with a same-family rarefaction step approaching from
    # the right inside the weight window
    data = PiecewiseConstant([0.0, 1.2 * R], [[0.5], [-0.5], [-0.4]])
    run = ft_run(B, data, 1e-5, 0.25)
    tracks = select_big_shocks(run, 0.8)
    rows = interaction_decay_rates(run, tracks, EPS)
    row = rows[0]
    sigma_a, sigma_b = 1.0, 0.1
    assert row["rate_natural"] <= -(sigma_a / 4.0) * sigma_b / (4 * R) + 1e-9


def test_q_flat_nonincreasing_between_events():
    rng = np.random.default_rng(9)
    base = np.array([1.0, 0.0])
    vals = [base]
    for _ in range(6):
        fam = int(rng.integers(1, 3))
        vals.append(lax_curve(P, fam, vals[-1], float(rng.uniform(-0.06, 0.06))))
    xs = np.sort(rng.uniform(-0.5, 0.5, 6))
    run = ft_run(P, PiecewiseConstant(xs, np.array(vals)), 1.0, 0.05)
    t_edges = run.t_edges
    for k, c in enumerate(run.configs):
        t0, t1 = t_edges[k], t_edges[k + 1]
        if t1 - t0 < 1e-9:
            continue
        ts = np.linspace(t0 + 1e-9, t1 - 1e-9, 5)
        vals_q = [potentials(c.at(t))[0] for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals_q[:-1], vals_q[1:]))


# one front: position in units of sqrt(eps) (a coarse lattice makes ties),
# family 1 or 2, or 3 for a non-physical front, and a strength magnitude
# spread over decades, so that several rarefactions fit under a cut-off
_FRONT = st.tuples(
    st.one_of(st.integers(-8, 8).map(lambda k: 0.5 * k), st.floats(-6.0, 6.0)),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.floats(-6.0, -0.3).map(lambda e: 10.0 ** e),
)


@settings(max_examples=300)
@given(st.lists(_FRONT, max_size=14), st.floats(1e-5, 1e-2))
def test_one_sided_walks_match_two_walks(specs, eps):
    # the two-sided walks as they were written before one one-sided walk
    # served both sides, reproduced bit for bit
    fronts = fronts_from(specs, np.sqrt(eps))
    # the natural potential of one shock is q_natural with it as the only
    # big shock; q_sharp adds the shocks' potentials in list order
    cfg = config(fronts)
    sharp = 0.0
    for i, a in enumerate(fronts):
        if a.kind == "shock":
            natural, sharp_a = two_walks(fronts, i, eps)
            assert potentials(cfg, {a}, eps)[1] == natural
            sharp += sharp_a
        for b in fronts:
            if a.physical and b.physical:
                assert (w_flat(b.x0 - a.x0, 0.0, a.family, b.family, eps)[0]
                        == w_flat_two_branches(a.x0, a.family, b.x0, b.family, eps))
    assert potentials(cfg, set(), eps)[2] == sharp


# The audit against its functionals recomputed from each event's two
# configurations.

_AUDIT_KEYS = ("dV", "dQ", "dUpsilon", "dq_flat", "dq_natural", "dq_sharp", "dq_hat")


@pytest.mark.parametrize("rho_rule", ["4*sqrt_eps*abs_ln_eps", "0.05"])
def test_audit_matches_recomputed_functionals(corpus, rho_rule):
    # at the corpus rho no shock is big; at 0.05 big shocks appear, so
    # q_natural moves and creations are recorded
    C = FunctionalConstants()
    rho = eval_rule(rho_rule, EPS)
    moved = creations = 0
    for run in corpus:
        tracks = select_big_shocks(run, rho)
        rep = audit_events(run, tracks, EPS, C, rho=rho)
        assert len(rep.events) == len(run.events)
        for ev, rec in zip(run.events, rep.events):
            k = ev.index
            sb = audit_snapshot(run.configs[k].at(ev.time), big_shock_fronts(tracks, k), EPS, C)
            sa = audit_snapshot(run.configs[k + 1], big_shock_fronts(tracks, k + 1), EPS, C)
            assert [rec[key] for key in _AUDIT_KEYS] == [a - b for a, b in zip(sa, sb)]
            moved += rec["dq_natural"] != 0.0
        creations += len(rep.creation_ratios)
    if rho_rule == "0.05":
        assert moved >= 100 and creations >= 2


# The exact rates against difference quotients.  Between events the masses,
# cut-offs and envelopes are frozen and every front moves linearly, so
# q_flat, q_natural and q_sharp are piecewise linear in t: a difference
# quotient whose stencil holds no kink is the derivative up to rounding.

def _values_and_rates(cfg, bs, eps):
    """(q_flat, q_natural, q_sharp) of cfg and their rates, as two arrays."""
    values, rates, _ = weighted_potentials(cfg, bs, eps)
    return np.array(values), np.array(rates)


# one moving front: position in units of sqrt(eps)/2, family (3 for a
# non-physical front), shock or rarefaction, strength magnitude, speed
_MOVING_FRONT = st.tuples(
    st.integers(-8, 8),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.floats(-6.0, -0.3).map(lambda e: 10.0 ** e),
    st.floats(-1.0, 1.0),
)


def _assert_matches_ordered_pairs(cfg, bs, eps, pairs=None):
    # q_flat, its rate and the pair sums (those given, or the evaluator's):
    # every term is >= 0, so the scale of a value or a pair sum is itself,
    # and the sharp walk adds the same terms in the same order
    (total, _, _), (rate, _, _), own = weighted_potentials(cfg, bs, eps)
    ref_total, ref_rate, rate_scale, (cross, natural, sharp) = ordered_pairs(cfg, bs, eps)
    pairs = own if pairs is None else pairs
    assert abs(total - ref_total) <= 1e-14 * ref_total
    assert abs(rate - ref_rate) <= 1e-14 * rate_scale
    assert abs(pairs[0] - cross) <= 1e-14 * cross
    assert abs(pairs[1] - natural) <= 1e-14 * natural
    assert pairs[2] == sharp


@settings(max_examples=300)
@given(st.lists(_MOVING_FRONT, max_size=12), st.integers(2, 7))
def test_q_flat_matches_ordered_pairs(specs, j):
    eps, r = 4.0 ** -j, 2.0 ** -j
    cfg = config(fronts_from(specs, r / 2))
    _assert_matches_ordered_pairs(cfg, set(), eps)
    _assert_matches_ordered_pairs(cfg.at(r / 8), set(), eps)


@settings(max_examples=300)
@given(st.lists(_MOVING_FRONT, max_size=12), st.integers(2, 7))
def test_pair_sums_match_ordered_pairs(specs, j):
    eps, r = 4.0 ** -j, 2.0 ** -j
    fronts = fronts_from(specs, r / 2)
    bs = {f for f in fronts if f.kind == "shock"}
    for cfg in (config(fronts), config(fronts).at(r / 8)):
        _assert_matches_ordered_pairs(cfg, bs, eps)


@settings(max_examples=300)
@given(st.lists(_MOVING_FRONT, max_size=12), st.integers(2, 7))
# two fronts of size 1e-6 on one point: q_natural ~ 1.3e-7 is linear in the
# strengths, so its rounding (1.6e-22 in the quotient) is above a bound that
# scales with their square only
@example(specs=[(0, 1, False, 1e-06, 1.0), (0, 1, True, 1e-06, 0.0)], j=2)
def test_rates_are_right_derivatives(specs, j):
    # eps = 4^-j makes sqrt(eps) a power of two, so the lattice positions,
    # their distances and the window edges +-2 sqrt(eps) are exact: ties and
    # pairs on a window edge occur, and the rate there is the one-sided one
    eps, r = 4.0 ** -j, 2.0 ** -j
    fronts = fronts_from(specs, r / 2)
    cfg = config(fronts)
    bs = {f for f in fronts if f.kind == "shock"}
    # a lattice distance off a kink (-2 sqrt(eps), 0, 2 sqrt(eps)) is at
    # least sqrt(eps)/2 from it and closes at speed 2 or less, so no kink
    # lies in (0, h]
    h = r / 8
    v0, rates = _values_and_rates(cfg, bs, eps)
    v1, _ = _values_and_rates(cfg.at(h), bs, eps)
    # the quotient's rounding is relative to the values differenced, which are
    # quadratic (q_flat, q_sharp) or linear (q_natural) in the strengths
    scale = np.maximum(sum(abs(f.strength) for f in fronts) ** 2,
                       np.maximum(np.abs(v0), np.abs(v1)))
    assert np.all(np.abs((v1 - v0) / h - rates) <= 1e-12 * scale / h)


def _check_against_centred_differences(run, tracks, eps):
    """Check each interval's rates against the centred difference of step
    (t1 - t0)/64 at t_mid wherever the second difference is zero to rounding,
    that is, where no pair crosses a kink inside the stencil.  Returns the
    number of nonzero rates checked, per functional."""
    checked = np.zeros(3, dtype=int)
    for row in interaction_decay_rates(run, tracks, eps):
        tm, h = row["t_mid"], (row["t1"] - row["t0"]) / 64
        bs = big_shock_fronts(tracks, config_index(run.times, run.tau, tm))
        v, _ = _values_and_rates(run.config_at(tm), bs, eps)
        vp, _ = _values_and_rates(run.config_at(tm + h), bs, eps)
        vm, _ = _values_and_rates(run.config_at(tm - h), bs, eps)
        rates = np.array([row["rate_flat"], row["rate_natural"], row["rate_sharp"]])
        linear = np.abs(vp - 2 * v + vm) <= 1e-12 * np.abs(v)
        err = np.abs((vp - vm) / (2 * h) - rates)
        assert np.all(err[linear] <= 1e-13 * np.abs(v[linear]) / h)
        checked += linear & (rates != 0)
    return checked


def test_corpus_rates_match_centred_differences(corpus):
    rho = eval_rule("4*sqrt_eps*abs_ln_eps", EPS)
    checked = sum(_check_against_centred_differences(run, select_big_shocks(run, rho), EPS)
                  for run in corpus)
    # no shock is big at this rho, so q_natural is 0 throughout
    assert checked[0] >= 300 and checked[1] == 0 and checked[2] >= 50


def test_corpus_q_flat_matches_ordered_pairs(corpus):
    # every configuration at its interval's midpoint and at its event
    checked = 0
    for run in corpus:
        for k, cfg in enumerate(run.configs):
            t0, t1 = run.t_edges[k], run.t_edges[k + 1]
            for t in (0.5 * (t0 + t1), t1):
                c = cfg.at(t)
                _assert_matches_ordered_pairs(c, set(), EPS)
                checked += potentials(c)[0] > 0
    assert checked >= 500


def test_corpus_pair_sums_match_ordered_pairs(corpus):
    # every interval's midpoint; at rho = 0.05 big shocks meet rarefactions
    checked = np.zeros(3, dtype=int)
    for run in corpus:
        tracks = select_big_shocks(run, 0.05)
        for row in interaction_decay_rates(run, tracks, EPS):
            tm = row["t_mid"]
            bs = big_shock_fronts(tracks, config_index(run.times, run.tau, tm))
            pairs = [row[key] for key in ("cross_pair_sum", "natural_pair_sum", "sharp_pair_sum")]
            _assert_matches_ordered_pairs(run.config_at(tm), bs, EPS, pairs)
            checked += np.array(pairs) > 0
    assert checked[0] >= 400 and checked[1] >= 100 and checked[2] >= 100


@pytest.mark.parametrize("run_index, k", [(5, 0), (44, 1)])
def test_weighted_potentials_return_python_floats(corpus, run_index, k):
    # Burgers random_bv seed 5 and p-system seed 119 at rho = 0.05: every
    # potential that the model's families allow moves inside a ramp window,
    # where a numpy-scalar square root of eps would leak into the sums
    run = corpus[run_index]
    bs = big_shock_fronts(select_big_shocks(run, 0.05), k)
    values = [v for triple in weighted_potentials(run.configs[k], bs, EPS) for v in triple]
    assert all(type(v) is float for v in values)
    moving = values[3:6] if run.model.n == 2 else values[4:6]
    assert all(rate != 0.0 for rate in moving)


def test_flat_rate_where_a_pair_leaves_the_window(corpus):
    # p-system random_bv seed 100: on [0.0528, 0.0944) a pair crosses the
    # window edge within (t1 - t0)/64 of t_mid, so the centred difference
    # of that step reads -0.14602 where the right derivative is -0.16064
    run = corpus[25]
    (row,) = [r for r in interaction_decay_rates(run, [], EPS) if r["t0"] < 0.07 < r["t1"]]
    tm, h = row["t_mid"], (row["t1"] - row["t0"]) / 64
    q = {t: potentials(run.config_at(t))[0] for t in (tm - h, tm, tm + 1e-7, tm + h)}
    assert row["rate_flat"] == pytest.approx((q[tm + 1e-7] - q[tm]) / 1e-7, rel=1e-6)
    assert row["rate_flat"] == pytest.approx(-0.16064, abs=1e-5)
    assert (q[tm + h] - q[tm - h]) / (2 * h) == pytest.approx(-0.14602, abs=1e-5)


@pytest.mark.parametrize("eps, n_moving", [(4e-3, 2), (1e-3, 4)])
def test_natural_rates_on_merge_cancellation(eps, n_moving):
    # the functionals command's run of merge_cancellation: its big shocks
    # meet same-family rarefaction steps, so q_natural moves
    cap = eval_rule("sqrt_eps*abs_ln_eps/2", eps)
    data = scenario_data(B, "merge_cancellation")
    run = run_until(B, init_front_tracking(B, data, 1e-9, cap), 1.0, epsilon_prime=1e-9)
    tracks = select_big_shocks(run, eval_rule("4*sqrt_eps*abs_ln_eps", eps))
    assert _check_against_centred_differences(run, tracks, eps)[1] == n_moving


# ---------------------------------------------------------------------------
# Glimm's V and Q against the double loop over pairs

def _assert_glimm_matches_the_double_loop(cfg):
    # V adds in the same order.  Q groups the same non-negative products by
    # the right front of each pair, two roundings per front (a product
    # rounds once more than the oracle's), so it is within 2n ulps of their
    # exact sum.  Returns the oracle's pair
    V, Q = glimm_functionals(cfg)
    V_ref, Q_ref = glimm_double_loop(cfg)
    assert V == V_ref
    assert abs(Q - Q_ref) <= 2 * len(cfg.fronts) * np.finfo(float).eps * Q_ref
    return V_ref, Q_ref


@settings(max_examples=300)
@given(st.lists(_FRONT, max_size=40))
def test_glimm_functionals_match_the_double_loop(specs):
    _assert_glimm_matches_the_double_loop(config(fronts_from(specs, 1.0)))


def test_glimm_history_matches_the_double_loop(corpus):
    # every configuration of the corpus and of a run of up to 277 fronts
    data = scenario_data(B, "merge_cancellation")
    long_run = run_until(B, init_front_tracking(B, data, 1e-9, 0.004), 1.0, epsilon_prime=1e-9)
    assert max(len(c.fronts) for c in long_run.configs) == 277
    for run in [*corpus, long_run]:
        for cfg, (t, V, Q, ups) in zip(run.configs, run.glimm_history):
            V_ref, Q_ref = _assert_glimm_matches_the_double_loop(cfg)
            ups_ref = V_ref + GLIMM_C0 * Q_ref
            assert abs(ups - ups_ref) <= 2 * len(cfg.fronts) * np.finfo(float).eps * ups_ref
