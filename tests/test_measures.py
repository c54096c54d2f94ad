import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vanvisc import measures
from vanvisc.errors import NegativeMass, NonMonotoneHistory, NotMonotone
from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.measures import (ComparisonSolution, MonotoneProfile, OddProfile, WaveMeasure,
                              band_correlation, burgers_comparison, odd_rearrangement,
                              order_leq, pair_interaction_integral, pos_neg_parts,
                              single_rarefaction_reference, spread_positive_waves, sup_mass,
                              time_integrated_band_correlation, wave_measure)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.system import preset_model

B = preset_model("burgers")
P = preset_model("p_system")


def vhat_value(mp, x):
    """Evaluate a monotone profile at x: v_left plus the mass of (-inf, x]."""
    return mp.v_left + mp.measure.mass_on(-np.inf, x)


def test_wave_measure_examples():
    mu = wave_measure(B, PiecewiseConstant([0.0], [[0.0], [1.0]]), 1)
    assert np.allclose(mu.atoms, [[0.0, 1.0]])
    mu = wave_measure(B, PiecewiseConstant([0.0], [[1.0], [0.0]]), 1)
    assert np.allclose(mu.atoms, [[0.0, -1.0]])

    from vanvisc.riemann import solve_riemann

    prof = PiecewiseConstant([0.25], [[1.0, 0.0], [1.1, 0.05]])
    expect = solve_riemann(P, np.array([1.0, 0.0]), np.array([1.1, 0.05]))
    for i in (1, 2):
        mu = wave_measure(P, prof, i)
        assert mu.atoms[0, 0] == pytest.approx(0.25)
        assert mu.atoms[0, 1] == pytest.approx(expect[i - 1], abs=1e-10)


def test_wave_measure_keeps_small_jumps_away_from_zero():
    # a jump of 1e-6 gets its atom whatever the size of the states around it
    for u_l in (0.0, 1.0):
        mu = wave_measure(B, PiecewiseConstant([0.3], [[u_l], [u_l + 1e-6]]), 1)
        assert mu.atoms.shape == (1, 2) and mu.atoms[0, 0] == 0.3
        assert mu.atoms[0, 1] == pytest.approx(1e-6, rel=1e-9)
    # equal states on both sides of a breakpoint give no atom
    mu = wave_measure(B, PiecewiseConstant([0.3], [[1.0], [1.0]]), 1)
    assert mu.atoms.shape == (0, 2)


def test_pos_neg_parts():
    mu = WaveMeasure.from_atoms([(0.0, 1.0), (1.0, -0.5)])
    p, n = pos_neg_parts(mu)
    assert np.allclose(p.atoms, [[0.0, 1.0]])
    assert np.allclose(n.atoms, [[1.0, 0.5]])

    mu = WaveMeasure.from_atoms([(0.0, 0.3), (1.0, 0.2)])
    p, n = pos_neg_parts(mu)
    assert n.total_mass() == 0.0

    mu = WaveMeasure.from_atoms([(-1.0, 0.4), (0.0, -0.1), (0.5, 0.2), (2.0, -0.3)])
    p, n = pos_neg_parts(mu)
    assert p.total_mass() == pytest.approx(0.6)
    assert n.total_mass() == pytest.approx(0.4)
    assert p.total_mass() - n.total_mass() == pytest.approx(mu.total_mass())


def test_odd_rearrangement_pure_atom():
    vh = odd_rearrangement(MonotoneProfile(0.0, WaveMeasure.from_atoms([(3.0, 1.0)])))
    for x in (0.1, 0.5, 2.0):
        assert vhat_value(vh, x) == pytest.approx(0.5)


def test_odd_rearrangement_uniform_density():
    mu = WaveMeasure.from_density([0.0, 1.0], [0.0, 1.0, 0.0])
    vh = odd_rearrangement(MonotoneProfile(0.0, mu))
    for x in (0.1, 0.3, 0.5):
        assert vhat_value(vh, x) == pytest.approx(min(x, 0.5))
    assert vhat_value(vh, 2.0) == pytest.approx(0.5)


def test_odd_rearrangement_atom_plus_density():
    mu = WaveMeasure(atoms=np.array([[0.0, 1.0]]), density_xs=np.array([2.0, 3.0]),
                     density_vals=np.array([0.0, 1.0, 0.0]))
    vh = odd_rearrangement(MonotoneProfile(0.0, mu))
    assert vhat_value(vh, 0.0) == pytest.approx(0.5)   # right-continuous at 0+
    assert vhat_value(vh, 0.25) == pytest.approx(0.75)
    assert vhat_value(vh, 0.5) == pytest.approx(1.0)
    assert vhat_value(vh, 0.9) == pytest.approx(1.0)


def test_rearrangement_sup_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(30):
        atoms = [(rng.uniform(-2, 2), rng.uniform(0.05, 0.5)) for _ in range(rng.integers(0, 4))]
        k = int(rng.integers(1, 4))
        xs = np.sort(rng.uniform(-2, 2, k + 1))
        vals = np.concatenate([[0.0], rng.uniform(0.0, 2.0, k), [0.0]])
        mu = WaveMeasure.from_atoms(atoms).with_density(xs, vals[: k + 2])
        vh = odd_rearrangement(MonotoneProfile(0.0, mu))
        for x in rng.uniform(0.01, 3.0, 5):
            assert vhat_value(vh, x) == pytest.approx(0.5 * sup_mass(mu, 2 * x), abs=1e-12)


def test_order_examples():
    mu_d = WaveMeasure.from_density([0.0, 1.0], [0.0, 1.0, 0.0])
    mu_a = WaveMeasure.from_atoms([(0.7, 1.0)])
    assert order_leq(mu_d, mu_d)
    assert order_leq(mu_d, mu_a)
    assert not order_leq(mu_a, mu_d)
    with pytest.raises(NegativeMass):
        order_leq(WaveMeasure.from_atoms([(0.0, -1.0)]), mu_a)


def test_not_monotone_error():
    with pytest.raises(NotMonotone):
        MonotoneProfile(0.0, WaveMeasure.from_atoms([(0.0, -0.5)]))


def test_odd_profile_rejects_falling_kinks():
    # a downward jump: its D_x would lose the negative atom and report mass 2.4
    with pytest.raises(NotMonotone):
        OddProfile([(0.0, 0.0), (1.0, 1.0), (1.0, 0.5), (2.0, 0.7)])
    # x running backwards, and a first kink below the origin's w = 0
    with pytest.raises(NotMonotone):
        OddProfile([(0.0, 0.0), (1.0, 0.5), (0.5, 0.7)])
    with pytest.raises(NotMonotone):
        OddProfile([(1.0, -0.5)])
    # flat stretches and upward jumps stay valid
    w = OddProfile([(0.0, 0.0), (0.0, 0.2), (1.0, 0.2), (1.0, 0.5), (2.0, 0.7)])
    assert w.dx_measure().total_mass() == pytest.approx(1.4)


def test_comparison_rarefaction_from_unit_atom():
    cs = burgers_comparison(WaveMeasure.from_atoms([(0.0, 1.0)]), [(0.0, 0.0)], kappa=10)
    w = cs.profile_at(1.0)
    for x in (0.1, 0.3, 0.45):
        assert w(x) == pytest.approx(x, abs=1e-12)
    assert w(2.0) == pytest.approx(0.5)
    assert w(-2.0) == pytest.approx(-0.5)


def test_comparison_pure_impulse():
    cs = burgers_comparison(WaveMeasure.from_atoms([]), [(0.0, 1.0), (0.5, 0.8)], kappa=2.0)
    w = cs.profile_at(1.0)
    jump = 2.0 * 0.2
    assert w(10.0) == pytest.approx(jump)
    age = 0.5
    assert w(0.5 * age * jump) == pytest.approx(0.5 * jump, abs=1e-12)


def test_comparison_against_hopf_lax_oracle():
    mu = WaveMeasure(atoms=np.array([[0.0, 0.6]]), density_xs=np.array([1.0, 2.0]),
                     density_vals=np.array([0.0, 0.4, 0.0]))
    cs = burgers_comparison(mu, [(0.0, 0.0)], kappa=10)
    t = 0.5
    w = cs.profile_at(t)
    kinks = cs._kinks0  # initial odd profile, piecewise linear on x >= 0

    def W0(y):
        """Integral of the odd initial profile from 0 to |y| (even in y)."""
        ya = abs(y)
        total = 0.0
        for (x0, w_0), (x1, w_1) in zip(kinks[:-1], kinks[1:]):
            if ya <= x0 or x1 == x0:
                continue
            hi = min(ya, x1)
            wh = w_0 + (w_1 - w_0) * (hi - x0) / (x1 - x0)
            total += 0.5 * (w_0 + wh) * (hi - x0)
        last_x, last_w = kinks[-1]
        if ya > last_x:
            total += last_w * (ya - last_x)
        return total

    def hopf_lax(x):
        lo, hi = x - t * 1.5 - 1.0, x + t * 1.5 + 1.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if W0(m1) + (x - m1) ** 2 / (2 * t) <= W0(m2) + (x - m2) ** 2 / (2 * t):
                hi = m2
            else:
                lo = m1
        y = 0.5 * (lo + hi)
        return (x - y) / t

    for x in (-1.5, -0.4, -0.05, 0.0, 0.05, 0.2, 0.6, 1.2):
        assert w(x) == pytest.approx(hopf_lax(x), abs=1e-6)


def test_non_monotone_history_rejected():
    with pytest.raises(NonMonotoneHistory):
        burgers_comparison(WaveMeasure.from_atoms([(0.0, 1.0)]),
                           [(0.0, 0.0), (1.0, 0.5)], kappa=1.0)


def test_single_rarefaction_reference_examples():
    v = single_rarefaction_reference(1.0, 1.0)
    assert v(0.5) == pytest.approx(0.5)
    assert v(2.0) == pytest.approx(1.0)
    v = single_rarefaction_reference(0.3, 2.0)
    assert v(-1.0) == pytest.approx(-0.3)


def test_pair_interaction_integral_examples():
    cfg = init_front_tracking(B, PiecewiseConstant([0.0], [[1.0], [0.0]]), 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    assert pair_interaction_integral(run, 0.1) == 0.0

    # two rarefaction steps at constant distance > delta never fire
    data = PiecewiseConstant([0.0, 1.0], [[0.0], [0.1], [0.1]])
    cfg = init_front_tracking(B, data, 1e-9, 0.25)
    run = run_until(B, cfg, 1.0)
    E = pair_interaction_integral(run, 0.5)
    assert E == pytest.approx(0.1 ** 2 * 1.0)  # only the self-pair survives


def test_band_correlation_exact_values():
    mu = WaveMeasure.from_atoms([(0.0, 1.0), (0.5, 2.0)])
    assert band_correlation(mu, 1.0) == pytest.approx(9.0)
    assert band_correlation(mu, 0.4) == pytest.approx(5.0)
    mu = WaveMeasure.from_density([0.0, 1.0], [0.0, 1.0, 0.0])
    rho = 0.25
    assert band_correlation(mu, rho) == pytest.approx(2 * rho - rho ** 2)


def random_monotone_measure(rng, n_atoms=3, n_pieces=3):
    atoms = [(rng.uniform(-2, 2), rng.uniform(0.02, 0.4)) for _ in range(rng.integers(0, n_atoms + 1))]
    k = int(rng.integers(1, n_pieces + 1))
    xs = np.sort(rng.uniform(-2, 2, k + 1))
    vals = np.concatenate([[0.0], rng.uniform(0.0, 1.5, k), [0.0]])
    return WaveMeasure.from_atoms(atoms).with_density(xs, vals[: k + 2])


def test_lemma1_window_inequality_sample():
    rng = np.random.default_rng(21)
    for _ in range(25):
        mu = random_monotone_measure(rng)
        rho = rng.uniform(0.05, 1.0)
        lhs = band_correlation(mu, rho)
        mu_hat = odd_rearrangement(MonotoneProfile(0.0, mu)).measure
        rhs = band_correlation(mu_hat, rho)
        assert lhs <= 3.0 * rhs + 1e-12


def test_lemma2_order_implies_band_inequality_sample():
    rng = np.random.default_rng(22)
    for _ in range(25):
        hat_w = odd_rearrangement(MonotoneProfile(0.0, random_monotone_measure(rng)))
        hat_g = odd_rearrangement(MonotoneProfile(0.0, random_monotone_measure(rng)))
        mu_v = _clip_rearranged(hat_g, hat_w)
        assert order_leq(mu_v, hat_w.measure)
        rho = rng.uniform(0.05, 1.0)
        assert band_correlation(mu_v, rho) <= band_correlation(hat_w.measure, rho) + 1e-11


def _clip_rearranged(hat_g, hat_w):
    """Measure of min(hat_g, hat_w) on x > 0 (odd extension), which is itself
    an odd rearranged profile lying below hat_w."""
    xs = sorted({0.0}
                | set(np.abs(hat_g.measure.density_xs).tolist())
                | set(np.abs(hat_w.measure.density_xs).tolist()))
    xs = [x for x in xs if x >= 0.0]
    hi = max(xs[-1], 1.0) + 1.0
    grid = []
    for a, b in zip(xs, xs[1:] + [hi]):
        grid.extend(np.linspace(a, b, 40, endpoint=False))
    grid.append(hi)
    grid = np.array(grid)

    def val(mp, x):
        return mp.measure.mass_on(0.0, x) - 0.5 * mp.measure.atom_mass()

    vals = np.minimum([val(hat_g, x) for x in grid], [val(hat_w, x) for x in grid])
    atoms = []
    v0 = min(val(hat_g, 0.0), val(hat_w, 0.0))
    if v0 > 0:
        atoms.append((0.0, 2 * v0))
    dens_xs, dens_vals = [], [0.0]
    for (x0, v_0), (x1, v_1) in zip(zip(grid[:-1], vals[:-1]), zip(grid[1:], vals[1:])):
        slope = max(0.0, (v_1 - v_0) / (x1 - x0))
        dens_xs.append(x0)
        dens_vals.append(slope)
    dens_xs.append(grid[-1])
    dens_vals.append(0.0)
    xs_full = np.concatenate([-np.array(dens_xs[::-1]), np.array(dens_xs)])
    vv = dens_vals[1:-1][::-1]
    vals_full = np.concatenate([[0.0], vv, dens_vals[1:]])
    mu = WaveMeasure.from_atoms(atoms)
    return mu.with_density(xs_full, vals_full[: xs_full.size + 1])


def test_lemma3_single_rarefaction_majorizes():
    data = PiecewiseConstant(
        np.array([-0.5, -0.1, 0.4]), np.array([[0.0], [0.25], [0.05], [0.3]])
    )
    cfg = init_front_tracking(B, data, 1e-9, 0.05)
    run = run_until(B, cfg, 3.0)
    mu0 = wave_measure(B, run.configs[0].profile(), 1)
    mu0p, _ = pos_neg_parts(mu0)
    qh = [(t, Q) for (t, V, Q, U) in run.glimm_history]
    cs = burgers_comparison(mu0p, qh, kappa=10.0)
    tau = 3.0
    sbar = cs.sigma_bar(tau)
    for rho in (0.05, 0.2):
        lhs = time_integrated_band_correlation(cs.profile_at, 1e-6, tau, rho, nodes=201)
        rhs = time_integrated_band_correlation(
            lambda t: single_rarefaction_reference(sbar, t), 1e-6, tau, rho, nodes=201
        )
        assert lhs <= 2.0 * rhs + 1e-10


def test_proposition1_comparison_on_run():
    from vanvisc.measures import spread_positive_waves

    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-1, 1, 8))
    jumps = rng.normal(size=8)
    jumps *= 0.3 / np.sum(np.abs(jumps))
    vals = np.concatenate([[0.0], np.cumsum(jumps)])
    cfg = init_front_tracking(B, PiecewiseConstant(xs, vals[:, None]), 1e-9, 0.02)
    run = run_until(B, cfg, 2.0)
    mu0p, _ = pos_neg_parts(wave_measure(B, run.configs[0].profile(), 1))
    qh = [(t, Q) for (t, V, Q, U) in run.glimm_history]
    cs = burgers_comparison(mu0p, qh, kappa=10.0)
    for t in np.linspace(0.05, 2.0, 8):
        mup = spread_positive_waves(run, t, 1)
        assert order_leq(mup, cs.profile_at(t).dx_measure(), tol=1e-9)


def test_comparison_order_cap_effect_on_held_out_seeds():
    # criterion 6's check (kappa = 10 at ten times up to tau = 2) on Burgers
    # random_bv seeds outside its own 500-519: at rarefaction cap 0.02 it
    # fails at these times, and at caps 0.01 and 0.005 it holds at all ten,
    # so the failures are a resolution effect of the cap
    from vanvisc.harness import scenario_data
    from vanvisc.measures import spread_positive_waves

    times = np.linspace(0.2, 2.0, 10)
    failing = {(0.02, 1509): [1.6, 1.8], (0.02, 2511): [2.0], (0.02, 2519): [2.0]}
    for cap in (0.02, 0.01, 0.005):
        for seed in (1509, 2511, 2519):
            data = scenario_data(B, "random_bv", seed=seed, n_jumps=10, tv=0.3)
            run = run_until(B, init_front_tracking(B, data, 1e-9, cap), 2.0)
            mu0p, _ = pos_neg_parts(wave_measure(B, run.configs[0].profile(), 1))
            qh = [(t, Q) for (t, V, Q, U) in run.glimm_history]
            cs = burgers_comparison(mu0p, qh, kappa=10.0)
            bad = [round(t, 1) for t in times
                   if not order_leq(spread_positive_waves(run, t, 1),
                                    cs.profile_at(t).dx_measure(), tol=1e-9)]
            assert bad == failing.get((cap, seed), []), (cap, seed)


# ---------------------------------------------------------------------------
# oracle: the piece-by-piece scan that the cumulative knots replaced

def ref_mass_on(mu, lo, hi, atoms=True):
    out = 0.0
    if atoms and mu.atoms.size:
        sel = (mu.atoms[:, 0] >= lo) & (mu.atoms[:, 0] <= hi)
        out += float(np.sum(mu.atoms[sel, 1]))
    for a, b, v in mu.density_pieces():
        w = min(b, hi) - max(a, lo)
        if w > 0:
            out += v * w
    return out


def ref_band_correlation(mu, rho):
    total = 0.0
    if mu.atoms.size:
        X, M = mu.atoms[:, 0], mu.atoms[:, 1]
        close = np.abs(X[:, None] - X[None, :]) <= rho + 1e-15
        total += float(M @ (close @ M))
        for x, m in mu.atoms:
            total += 2.0 * m * ref_mass_on(mu, x - rho, x + rho, atoms=False)
    pieces = mu.density_pieces()
    if not pieces:
        return total
    breaks = set()
    for a, b, _ in pieces:
        breaks.update((a, b, a - rho, b - rho, a + rho, b + rho))
    breaks = sorted(breaks)

    def F(x):
        out = 0.0
        for a, b, v in pieces:
            out += v * min(max(x - a, 0.0), b - a)
        return out

    def dens(x):
        for a, b, v in pieces:
            if a <= x < b:
                return v
        return 0.0

    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        mid = 0.5 * (lo + hi)
        d = dens(mid)
        if d == 0.0:
            continue
        g_lo = F(lo + rho) - F(lo - rho)
        g_hi = F(hi + rho) - F(hi - rho)
        total += d * (hi - lo) * 0.5 * (g_lo + g_hi)
    return total


def ref_order_margin(mu, mu_prime):
    """max over x > 0 of v-hat(x) - v-hat'(x); order_leq holds iff <= tol."""
    a = odd_rearrangement(MonotoneProfile(0.0, mu))
    b = odd_rearrangement(MonotoneProfile(0.0, mu_prime))
    pts = sorted({0.0} | {float(x) for x in a.measure.density_xs if x > 0}
                 | {float(x) for x in b.measure.density_xs if x > 0})
    pts.append(pts[-1] + 1.0)
    return max(vhat_value(a, x) - vhat_value(b, x) for x in pts)


@st.composite
def monotone_measures(draw):
    """Up to three atoms plus a step density on up to four pieces (breaks may
    coincide), with or without the trailing 0 in density_vals."""
    coord = st.floats(-2.0, 2.0)
    atoms = draw(st.lists(st.tuples(coord, st.floats(0.01, 1.0)), max_size=3))
    k = draw(st.integers(0, 4))
    xs = sorted(draw(st.lists(coord, min_size=k + 1, max_size=k + 1)))
    vals = [0.0] + draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k))
    if draw(st.booleans()):
        vals.append(0.0)
    return WaveMeasure.from_atoms(atoms).with_density(xs, vals)


@settings(max_examples=200)
@given(monotone_measures(), monotone_measures(), st.floats(0.01, 1.5),
       st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
def test_cumulative_evaluator_matches_piece_scan(mu, nu, rho, window):
    # the knots give masses as differences of cumulative sums, so the error
    # is relative to the measure's total mass, not to the window's
    scale = max(mu.total_mass(), 1.0)
    lo, hi = sorted(window)
    xs = np.array([lo, hi, *mu.density_xs, *mu.atoms[:, 0]])
    # closed windows: single points, and windows ending at atoms and breaks
    for a, b in [(lo, hi), *zip(xs, xs), *zip(np.sort(xs)[:-1], np.sort(xs)[1:])]:
        assert mu.mass_on(a, b) == pytest.approx(ref_mass_on(mu, a, b), rel=1e-12,
                                                 abs=1e-12 * scale)
    assert band_correlation(mu, rho) == pytest.approx(ref_band_correlation(mu, rho),
                                                      rel=1e-12, abs=1e-12 * scale ** 2)
    assert order_leq(mu, mu)
    margin = ref_order_margin(mu, nu)
    tol = 1e-12
    assume(abs(margin - tol) > 1e-12 * max(scale, nu.total_mass()))
    assert order_leq(mu, nu, tol=tol) == (margin <= tol)


@settings(max_examples=150)
@given(st.lists(monotone_measures(), min_size=1, max_size=6), st.floats(0.01, 1.5))
def test_band_kernel_batch_matches_piece_scan(mus, rho):
    # every measure of a batch is padded to the batch's knot and atom counts;
    # the padding must add nothing to any of them
    got = measures._band_correlations(mus, rho)
    assert got.shape == (len(mus),)
    for mu, value in zip(mus, got):
        scale = max(mu.total_mass(), 1.0)
        assert value == pytest.approx(ref_band_correlation(mu, rho), rel=1e-12,
                                      abs=1e-12 * scale ** 2)


def test_band_kernel_batch_examples():
    rho = 0.3
    # two atoms exactly rho apart (0.4 - 0.1 rounds above 0.3): the closed
    # band's 1e-15 slack keeps the pair
    pair = WaveMeasure.from_atoms([(0.1, 0.5), (0.4, 0.25)])
    empty = WaveMeasure.from_atoms([])
    # a 2-knot measure beside a 20-knot one, with and without atoms
    short = WaveMeasure.from_density([-0.2, 0.1], [0.0, 1.5, 0.0])
    xs = np.linspace(-1.0, 1.0, 20)
    vals = np.concatenate([[0.0], np.linspace(0.1, 1.0, 19), [0.0]])
    long = WaveMeasure.from_atoms([(0.05, 0.3)]).with_density(xs, vals)
    batch = [pair, short, long, empty, short]
    got = measures._band_correlations(batch, rho)
    assert got[0] == pytest.approx(0.75 ** 2, rel=1e-15)
    assert got[3] == 0.0
    for mu, value in zip(batch, got):
        assert value == pytest.approx(ref_band_correlation(mu, rho), rel=1e-12, abs=1e-15)
        assert value == pytest.approx(band_correlation(mu, rho), rel=1e-15)
    # one negative atom or piece anywhere in a batch raises
    neg_atom = WaveMeasure.from_atoms([(0.0, 0.2), (0.5, -0.1)])
    neg_piece = WaveMeasure.from_density([0.0, 0.5, 1.0], [0.0, 0.4, -0.2, 0.0])
    for bad in (neg_atom, neg_piece):
        with pytest.raises(NegativeMass):
            measures._band_correlations([short, long, bad, pair], rho)
        with pytest.raises(NegativeMass):
            band_correlation(bad, rho)


# ---------------------------------------------------------------------------
# oracle: D_x of an odd profile by the overlap sum that the direct pieces replaced

def ref_dx_measure(profile):
    atoms, pieces = [], []
    for (x0, w0), (x1, w1) in zip(profile.kinks[:-1], profile.kinks[1:]):
        if x1 - x0 <= 0.0:
            if w1 > w0:
                if x0 == 0.0:
                    atoms.append((0.0, 2.0 * (w1 - w0)))
                else:
                    atoms.append((x0, w1 - w0))
                    atoms.append((-x0, w1 - w0))
            continue
        slope = (w1 - w0) / (x1 - x0)
        if slope != 0.0:
            pieces.append((x0, x1, slope))
            pieces.append((-x1, -x0, slope))
    mu = WaveMeasure.from_atoms(atoms)
    if not pieces:
        return mu
    xs = np.array(sorted({a for a, _, _ in pieces} | {b for _, b, _ in pieces}))
    a, b, v = np.array(pieces, dtype=float).T
    mid = 0.5 * (xs[:-1] + xs[1:])
    inside = (a[:, None] < mid) & (mid < b[:, None])
    vals = np.zeros(xs.size + 1)
    vals[1:-1] = np.cumsum(np.where(inside, v[:, None], 0.0), axis=0)[-1]
    return mu.with_density(xs, vals)


def _comparison(data):
    run = run_until(B, init_front_tracking(B, data, 1e-9, 0.02), 2.0)
    mu0p, _ = pos_neg_parts(wave_measure(B, run.configs[0].profile(), 1))
    return run, mu0p, [(t, Q) for (t, V, Q, U) in run.glimm_history]


def _assert_same_measure(mu, nu):
    for f in ("atoms", "density_xs", "density_vals"):
        assert np.array_equal(getattr(mu, f), getattr(nu, f)), f


def test_dx_measure_matches_overlap_sum_on_criteria_5_6():
    # flat stretches between sloped pieces, jumps at 0 and beyond, a first
    # piece starting at 0 or away from it
    for kinks in ([(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 1.0)],
                  [(0.0, 0.0), (0.0, 0.2), (1.0, 0.4), (1.0, 0.6), (2.0, 0.8)],
                  [(0.5, 0.0), (1.0, 0.3), (1.0, 0.4), (1.5, 0.4), (2.5, 0.9)],
                  [(0.0, 0.0), (0.0, 0.3)], [(0.0, 0.0), (1.0, 0.0)]):
        w = OddProfile(kinks)
        _assert_same_measure(w.dx_measure(), ref_dx_measure(w))
    # criterion 5's comparison profiles and references at all 101 Simpson nodes
    nodes = np.linspace(1e-6, 2.0, 101)
    for inst in range(20):
        r2 = np.random.default_rng(300 + inst)
        xs = np.sort(r2.uniform(-1, 1, 6))
        jumps = r2.normal(size=6)
        jumps *= 0.3 / np.sum(np.abs(jumps))
        vals = np.concatenate([[0.0], np.cumsum(jumps)])
        _, mu0p, qh = _comparison(PiecewiseConstant(xs, vals[:, None]))
        cs = burgers_comparison(mu0p, qh, kappa=10.0)
        sbar = cs.sigma_bar(2.0)
        for t in nodes:
            for w in (cs.profile_at(t), single_rarefaction_reference(sbar, t)):
                _assert_same_measure(w.dx_measure(), ref_dx_measure(w))
    # criterion 6's order outcomes on its 20 runs, at every kappa of its grid
    from vanvisc.harness import scenario_data

    times = np.linspace(0.2, 2.0, 10)
    outcomes = {}
    for seed in range(500, 520):
        run, mu0p, qh = _comparison(scenario_data(B, "random_bv", seed=seed, n_jumps=10,
                                                  tv=0.3))
        mus = [spread_positive_waves(run, t, 1) for t in times]
        for kappa in (0.5, 1.0, 2.0, 4.0, 10.0):
            cs = burgers_comparison(mu0p, qh, kappa=kappa)
            for t, mu in zip(times, mus):
                w = cs.profile_at(t)
                _assert_same_measure(w.dx_measure(), ref_dx_measure(w))
                ok = order_leq(mu, w.dx_measure(), tol=1e-9)
                assert ok == order_leq(mu, ref_dx_measure(w), tol=1e-9)
                outcomes.setdefault(kappa, []).append(ok)
    print({kappa: sum(oks) for kappa, oks in outcomes.items()})
    assert all(outcomes[10.0])


# ---------------------------------------------------------------------------
# oracle: the per-front loop that the one pass per strip replaced

def ref_pair_interaction_integral(run, delta):
    total = 0.0
    t_edges = run.t_edges
    for k in range(len(t_edges) - 1):
        t0, t1 = t_edges[k], t_edges[k + 1]
        if t1 - t0 <= 0:
            continue
        fronts = [f for f in run.configs[k].fronts
                  if f.physical and f.kind == "rarefaction_step"]
        if not fronts:
            continue
        x = np.array([f.x(t0) for f in fronts])
        v = np.array([f.speed for f in fronts])
        s = np.array([abs(f.strength) for f in fronts])
        fam = np.array([f.family for f in fronts])
        L = t1 - t0
        total += float(np.sum(s * s)) * L
        for a in range(len(fronts)):
            g0, dv = x[a + 1:] - x[a], v[a + 1:] - v[a]
            w = np.where(fam[a + 1:] == fam[a], s[a] * s[a + 1:], 0.0)
            dur = np.empty_like(g0)
            still = dv == 0.0
            dur[still] = np.where(np.abs(g0[still]) <= delta, L, 0.0)
            lo = (-delta - g0[~still]) / dv[~still]
            hi = (delta - g0[~still]) / dv[~still]
            dur[~still] = np.clip(np.minimum(np.maximum(lo, hi), L)
                                  - np.maximum(np.minimum(lo, hi), 0.0), 0.0, L)
            total += 2.0 * float(w @ dur)
    return total


@pytest.mark.parametrize("chunk", [None, 5])
def test_pair_interaction_integral_matches_per_front_loop(monkeypatch, chunk):
    # chunk 5 splits every strip's pairs into many chunks
    if chunk is not None:
        monkeypatch.setattr(measures, "_PAIR_CHUNK", chunk)
    fan = PiecewiseConstant([0.0], [[0.0], [0.5]])
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(-1, 1, 10))
    jumps = np.abs(rng.normal(size=10)) * np.where(rng.random(10) < 0.7, 1.0, -1.0)
    jumps *= 0.3 / np.sum(np.abs(jumps))
    mixed = PiecewiseConstant(xs, np.concatenate([[0.0], np.cumsum(jumps)])[:, None])
    p_data = PiecewiseConstant([-0.3, 0.2, 0.5], [[1.0, 0.0], [1.1, 0.05], [1.0, 0.1],
                                                  [1.05, 0.02]])
    # two rarefaction steps 0.6 apart close in on each other across a shock,
    # coming within 0.5 of each other before either meets it
    closing = PiecewiseConstant([-0.3, 0.0, 0.3], [[0.0], [0.1], [-0.5], [-0.4]])
    for model, data, cap, tau in ((B, fan, 5e-3, 2.0), (B, mixed, 2e-3, 2.0),
                                  (P, p_data, 5e-3, 1.0), (B, closing, 0.2, 2.0)):
        run = run_until(model, init_front_tracking(model, data, 1e-9, cap), tau)
        for delta in (0.5, 0.1, 0.02, 0.003):
            E = pair_interaction_integral(run, delta)
            assert E > 0.0
            assert E == pytest.approx(ref_pair_interaction_integral(run, delta), rel=1e-12)
