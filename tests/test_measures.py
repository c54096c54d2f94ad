import numpy as np
import pytest
from conftest import (clip_rearranged, comparison_instance, ft_run, random_monotone,
                      random_steps)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (comparison_hopf_lax, numpy_atom_mass, numpy_mass_on, ref_band_correlation,
                     ref_dx_measure, ref_mass_on, ref_order_margin,
                     ref_pair_interaction_integral, sup_mass)

from vanvisc import measures
from vanvisc.errors import NegativeMass, NonMonotoneHistory, NotMonotone
from vanvisc.front_tracking import init_front_tracking, run_until
from vanvisc.harness import scenario_data
from vanvisc.measures import (MonotoneProfile, OddProfile, WaveMeasure,
                              band_correlation, burgers_comparison, odd_rearrangement,
                              order_leq, pair_interaction_integral, pos_neg_parts,
                              single_rarefaction_reference, spread_positive_waves,
                              time_integrated_band_correlation, wave_measure)
from vanvisc.piecewise import PiecewiseConstant
from vanvisc.riemann import solve_riemann
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
    # v-hat as a measure, and as the comparison solution's start
    rng = np.random.default_rng(11)
    for _ in range(30):
        mu = random_monotone(rng, atom_mass=(0.05, 0.5), density=2.0)
        vh = odd_rearrangement(MonotoneProfile(0.0, mu))
        w0 = burgers_comparison(mu, [(0.0, 0.0)], kappa=1.0).profile_at(0.0)
        for x in rng.uniform(0.01, 3.0, 5):
            expect = 0.5 * sup_mass(mu, 2 * x)
            assert vhat_value(vh, x) == pytest.approx(expect, abs=1e-12)
            assert w0(x) == pytest.approx(expect, abs=1e-12)


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
    # cs._kinks0: the initial odd profile, piecewise linear on x >= 0
    for x in (-1.5, -0.4, -0.05, 0.0, 0.05, 0.2, 0.6, 1.2):
        assert w(x) == pytest.approx(comparison_hopf_lax(cs._kinks0, t, x), abs=1e-6)


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
    with pytest.raises(ValueError):
        single_rarefaction_reference(0.5, 0.0)


def test_density_without_compact_support_raises():
    with pytest.raises(ValueError):
        WaveMeasure.from_density([0.0, 1.0], [1.0, 1.0, 1.0])


def test_pair_interaction_integral_examples():
    run = ft_run(B, PiecewiseConstant([0.0], [[1.0], [0.0]]), 1.0, 0.25)
    assert pair_interaction_integral(run, 0.1) == 0.0

    # two rarefaction steps at constant distance > delta never fire
    data = PiecewiseConstant([0.0, 1.0], [[0.0], [0.1], [0.1]])
    run = ft_run(B, data, 1.0, 0.25)
    E = pair_interaction_integral(run, 0.5)
    assert E == pytest.approx(0.1 ** 2 * 1.0)  # only the self-pair survives


def test_band_correlation_exact_values():
    mu = WaveMeasure.from_atoms([(0.0, 1.0), (0.5, 2.0)])
    assert band_correlation(mu, 1.0) == pytest.approx(9.0)
    assert band_correlation(mu, 0.4) == pytest.approx(5.0)
    mu = WaveMeasure.from_density([0.0, 1.0], [0.0, 1.0, 0.0])
    rho = 0.25
    assert band_correlation(mu, rho) == pytest.approx(2 * rho - rho ** 2)


def test_lemma1_window_inequality_sample():
    rng = np.random.default_rng(21)
    for _ in range(25):
        mu = random_monotone(rng)
        rho = rng.uniform(0.05, 1.0)
        lhs = band_correlation(mu, rho)
        mu_hat = odd_rearrangement(MonotoneProfile(0.0, mu)).measure
        rhs = band_correlation(mu_hat, rho)
        assert lhs <= 3.0 * rhs + 1e-12


def test_lemma2_order_implies_band_inequality_sample():
    rng = np.random.default_rng(22)
    for _ in range(25):
        hat_w = odd_rearrangement(MonotoneProfile(0.0, random_monotone(rng)))
        hat_g = odd_rearrangement(MonotoneProfile(0.0, random_monotone(rng)))
        mu_v = clip_rearranged(hat_g, hat_w)
        assert order_leq(mu_v, hat_w.measure)
        rho = rng.uniform(0.05, 1.0)
        assert band_correlation(mu_v, rho) <= band_correlation(hat_w.measure, rho) + 1e-11


def test_lemma3_single_rarefaction_majorizes():
    data = PiecewiseConstant(
        np.array([-0.5, -0.1, 0.4]), np.array([[0.0], [0.25], [0.05], [0.3]])
    )
    tau = 3.0
    _, mu0p, qh = comparison_instance(data, cap=0.05, tau=tau)
    cs = burgers_comparison(mu0p, qh, kappa=10.0)
    sbar = cs.sigma_bar(tau)
    for rho in (0.05, 0.2):
        lhs = time_integrated_band_correlation(cs.profile_at, 1e-6, tau, rho, nodes=201)
        rhs = time_integrated_band_correlation(
            lambda t: single_rarefaction_reference(sbar, t), 1e-6, tau, rho, nodes=201
        )
        assert lhs <= 2.0 * rhs + 1e-10


def test_proposition1_comparison_on_run():
    run, mu0p, qh = comparison_instance(random_steps(np.random.default_rng(5), 8, 0.3))
    cs = burgers_comparison(mu0p, qh, kappa=10.0)
    for t in np.linspace(0.05, 2.0, 8):
        mup = spread_positive_waves(run, t, 1)
        assert order_leq(mup, cs.profile_at(t).dx_measure(), tol=1e-9)


def test_comparison_order_cap_effect_on_held_out_seeds():
    # criterion 6's check (kappa = 10 at ten times up to tau = 2) on Burgers
    # random_bv seeds outside its own 500-519: at rarefaction cap 0.02 it
    # fails at these times, and at caps 0.01 and 0.005 it holds at all ten,
    # so the failures are a resolution effect of the cap
    times = np.linspace(0.2, 2.0, 10)
    failing = {(0.02, 1509): [1.6, 1.8], (0.02, 2511): [2.0], (0.02, 2519): [2.0]}
    for cap in (0.02, 0.01, 0.005):
        for seed in (1509, 2511, 2519):
            run, mu0p, qh = comparison_instance(
                scenario_data(B, "random_bv", seed=seed, n_jumps=10, tv=0.3), cap=cap)
            cs = burgers_comparison(mu0p, qh, kappa=10.0)
            bad = [round(t, 1) for t in times
                   if not order_leq(spread_positive_waves(run, t, 1),
                                    cs.profile_at(t).dx_measure(), tol=1e-9)]
            assert bad == failing.get((cap, seed), []), (cap, seed)


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


@st.composite
def signed_measures(draw):
    """Up to 12 atoms of either sign, with or without a step density of
    either sign on up to five pieces; coordinates repeat often, so atoms
    merge and knots coincide (zero-width pieces)."""
    coord = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([-1.0, 0.0, 0.5]))
    n = draw(st.integers(0, 12))
    mu = WaveMeasure.from_atoms(draw(st.lists(st.tuples(coord, st.floats(-1.0, 1.0)),
                                              min_size=n, max_size=n)))
    if not draw(st.booleans()):
        return mu
    k = draw(st.integers(0, 5))
    xs = sorted(draw(st.lists(coord, min_size=k + 1, max_size=k + 1)))
    vals = [0.0] + draw(st.lists(st.floats(-1.5, 1.5), min_size=k, max_size=k))
    return mu.with_density(xs, vals + draw(st.sampled_from([[], [0.0]])))


# nine atoms, where np.sum's pairwise total (atom_mass) and the running sum
# (the atoms' part of mass_on) part; and an atom-only measure, where
# np.interp maps a NaN end to 0 density mass
_NINE = [0.27, -0.46, -0.92, -0.97, 0.63, 0.83, 0.21, 0.46, 0.09]


@settings(max_examples=120)
@given(signed_measures(), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
@example(WaveMeasure.from_atoms([(0.1 * i, m) for i, m in enumerate(_NINE)]), [0.0, 1.0])
@example(WaveMeasure.from_atoms([(0.1, 0.3), (0.5, 0.2)]), [0.0, 1.0])
def test_float_view_matches_numpy_evaluation(mu, window):
    # every pair of ends: on every knot and atom, at +-inf and NaN, with
    # lo == hi and lo > hi; exact, except that a NaN end now gives NaN
    assert mu.atom_mass() == numpy_atom_mass(mu)
    ends = [*window, -np.inf, np.inf, np.nan, *mu.density_xs, *mu.atoms[:, 0]]
    for lo in ends:
        for hi in ends:
            got = mu.mass_on(lo, hi)
            assert type(got) is float
            if np.isnan(lo) or np.isnan(hi):
                assert np.isnan(got)
            else:
                assert got == numpy_mass_on(mu, lo, hi), (lo, hi)


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


def _assert_same_measure(mu, nu):
    for f in ("atoms", "density_xs", "density_vals"):
        assert np.array_equal(getattr(mu, f), getattr(nu, f)), f


def test_dx_measure_builds_what_the_measure_constructors_build():
    # dx_measure builds its arrays directly; from_atoms and with_density, fed
    # the same numbers, must give the same bits, dtypes and shapes, (0, 2)
    # atoms included
    for kinks in ([(0.0, 0.0), (0.0, 0.2), (1.0, 0.4), (1.0, 0.6), (2.0, 0.8)],
                  [(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 1.0)],
                  [(0.5, 0.0), (1.0, 0.3), (1.0, 0.4), (1.5, 0.4), (2.5, 0.9)],
                  [(0.0, 0.0), (0.0, 0.3)], [(0.0, 0.0), (1.0, 0.0), (1.0, 0.5)],
                  [(0.0, 0.0), (1.0, 0.0)]):
        mu = OddProfile(kinks).dx_measure()
        nu = WaveMeasure.from_atoms(mu.atoms.tolist())
        if mu.density_xs.size:
            nu = nu.with_density(mu.density_xs.tolist(), mu.density_vals.tolist())
        for f in ("atoms", "density_xs", "density_vals"):
            a, b = getattr(mu, f), getattr(nu, f)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (kinks, f)


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
        _, mu0p, qh = comparison_instance(random_steps(np.random.default_rng(300 + inst), 6, 0.3))
        cs = burgers_comparison(mu0p, qh, kappa=10.0)
        sbar = cs.sigma_bar(2.0)
        for t in nodes:
            for w in (cs.profile_at(t), single_rarefaction_reference(sbar, t)):
                _assert_same_measure(w.dx_measure(), ref_dx_measure(w))
    # criterion 6's order outcomes on its 20 runs, at every kappa of its grid
    times = np.linspace(0.2, 2.0, 10)
    outcomes = {}
    for seed in range(500, 520):
        run, mu0p, qh = comparison_instance(scenario_data(B, "random_bv", seed=seed, n_jumps=10,
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


@pytest.mark.parametrize("chunk", [None, 5])
def test_pair_interaction_integral_matches_per_front_loop(monkeypatch, chunk):
    # chunk 5 splits every strip's pairs into many chunks
    if chunk is not None:
        monkeypatch.setattr(measures, "_PAIR_CHUNK", chunk)
    fan = PiecewiseConstant([0.0], [[0.0], [0.5]])
    mixed = random_steps(np.random.default_rng(11), 10, 0.3, rising=0.7)
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
