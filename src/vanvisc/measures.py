"""Wave measures, rearrangements, the singularity order, and decay integrals.

A measure here is a finite signed combination of point atoms plus a
piecewise-constant density with compact support; every integral below is
evaluated in closed form over breakpoint decompositions, so the comparison
lemmas can be checked without quadrature noise.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NegativeMass, NonMonotoneHistory, NotMonotone
from .front_tracking import merge_cancelling_pairs
from .riemann import solve_riemann


# ---------------------------------------------------------------------------
# measures

@dataclass(frozen=True)
class WaveMeasure:
    """Atoms at points plus a piecewise-constant density.

    atoms: array (k, 2) of (position, signed mass), positions increasing.
    density_xs / density_vals: right-continuous density with
    density_vals[0] = density_vals[-1] = 0 (compact support).
    """
    atoms: np.ndarray
    density_xs: np.ndarray = field(default_factory=lambda: np.array([]))
    density_vals: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    @staticmethod
    def from_atoms(pairs):
        pairs = sorted((float(x), float(m)) for x, m in pairs)
        merged = []
        for x, m in pairs:
            if merged and x == merged[-1][0]:
                merged[-1][1] += m
            else:
                merged.append([x, m])
        arr = np.array(merged, dtype=float).reshape(-1, 2)
        return WaveMeasure(atoms=arr)

    @staticmethod
    def from_density(xs, vals):
        xs = np.asarray(xs, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ValueError("density must have compact support")
        return WaveMeasure(atoms=np.zeros((0, 2)), density_xs=xs, density_vals=vals)

    def with_density(self, xs, vals):
        return WaveMeasure(self.atoms, np.asarray(xs, float), np.asarray(vals, float))

    def atom_mass(self):
        return self._view[4]

    def density_pieces(self):
        """List of (a, b, value) with value != 0."""
        out = []
        xs, vals = self.density_xs, self.density_vals
        for j in range(xs.size - 1):
            if vals[j + 1] != 0.0:
                out.append((xs[j], xs[j + 1], vals[j + 1]))
        return out

    @cached_property
    def _view(self):
        """The measure as Python floats, for the scalar queries: (xs, F, X,
        cum, total).  F is the density mass of (-inf, x] at each breakpoint
        of xs (linear in between; xs is [0.0] without a density), X the atom
        positions, cum[k] the mass of the first k atoms and total np.sum's
        atom mass, which pairs the terms up and so is not cum[-1] at 9+
        atoms.  Piece j = [xs[j], xs[j+1]) has value density_vals[j + 1],
        so density_vals may or may not carry the trailing 0."""
        xs = self.density_xs if self.density_xs.size else np.zeros(1)
        F = np.concatenate([[0.0], np.cumsum(self.density_vals[1:xs.size] * np.diff(xs))])
        M = self.atoms[:, 1]
        total = float(np.sum(M)) if M.size else 0.0
        return (xs.tolist(), F.tolist(), self.atoms[:, 0].tolist(),
                [0.0, *np.cumsum(M).tolist()], total)

    def density_mass(self):
        return self._view[1][-1]

    def total_mass(self):
        return self.atom_mass() + self.density_mass()

    def is_nonnegative(self):
        if self.atoms.size and np.any(self.atoms[:, 1] < 0):
            return False
        return not np.any(self.density_vals[1:self.density_xs.size] < 0)

    def mass_on(self, lo, hi):
        """Measure of the closed interval [lo, hi]; NaN if an end is NaN."""
        lo, hi = float(lo), float(hi)
        if not lo <= hi:
            return 0.0 if hi < lo else math.nan
        xs, F, X, cum, _ = self._view
        return (_interp(hi, xs, F) - _interp(lo, xs, F) + cum[bisect_right(X, hi)]
                - cum[bisect_left(X, lo)])


def _interp(x, xs, F):
    """np.interp(x, xs, F) at one float x that is not NaN, by its branches
    and arithmetic: F[0] left of the knots, F[-1] from the last one on,
    F[j] on knot j, and F's chord in between."""
    if x >= xs[-1]:
        return F[-1]
    j = bisect_right(xs, x) - 1
    if j < 0:
        return F[0]
    if xs[j] == x:
        return F[j]
    return (F[j + 1] - F[j]) / (xs[j + 1] - xs[j]) * (x - xs[j]) + F[j]


def pos_neg_parts(m):
    """Jordan decomposition (mu+, mu-); both returned non-negative."""
    pos_atoms = [(x, v) for x, v in m.atoms if v > 0]
    neg_atoms = [(x, -v) for x, v in m.atoms if v < 0]
    pieces = m.density_pieces()

    def build(atoms, keep):
        mu = WaveMeasure.from_atoms(atoms)
        return _with_step_density(mu, [(a, b, abs(v)) for a, b, v in pieces if keep(v)])

    return build(pos_atoms, lambda v: v > 0), build(neg_atoms, lambda v: v < 0)


def _with_step_density(mu, pieces):
    """mu plus the step density summing the (a, b, value) pieces that cover
    each point (for disjoint pieces, the value of the one piece)."""
    if not pieces:
        return mu
    xs = np.array(sorted({a for a, _, _ in pieces} | {b for _, b, _ in pieces}))
    a, b, v = np.array(pieces, dtype=float).T
    mid = 0.5 * (xs[:-1] + xs[1:])
    inside = (a[:, None] < mid) & (mid < b[:, None])
    vals = np.zeros(xs.size + 1)
    # a running sum adds the pieces in list order; np.sum may pair them up
    vals[1:-1] = np.cumsum(np.where(inside, v[:, None], 0.0), axis=0)[-1]
    return mu.with_density(xs, vals)


def wave_measure(model, u, i):
    """Measure of i-waves of a piecewise-constant profile.

    One atom per jump, with mass equal to the i-th strength of the local
    Riemann problem across that jump (for Burgers, whose wave curve is
    u0 + s, that is u_r - u_l).
    """
    atoms = []
    for x, left, right in zip(u.xs, u.values[:-1], u.values[1:]):
        s = solve_riemann(model, left, right)[i - 1]
        if s != 0.0:
            atoms.append((float(x), float(s)))
    return WaveMeasure.from_atoms(atoms)


# ---------------------------------------------------------------------------
# monotone profiles and rearrangements

@dataclass(frozen=True)
class MonotoneProfile:
    """Bounded non-decreasing v with D_x v = measure (non-negative)."""
    v_left: float
    measure: WaveMeasure

    def __post_init__(self):
        if not self.measure.is_nonnegative():
            raise NotMonotone("profile derivative has a negative part")

    @property
    def singular_mass(self):
        return self.measure.atom_mass()


def _odd_kinks(mu):
    """The kinks on x >= 0 of v-hat, the odd rearrangement of a non-negative
    measure mu, as OddProfile takes them: half the atom mass as a jump at 0,
    then the density's pieces by decreasing value, each over half its width.
    The one place that knows the rearrangement."""
    x = 0.0
    w = 0.5 * mu.atom_mass()
    kinks = [(0.0, 0.0)] + ([(0.0, w)] if w > 0 else [])
    for a, b, val in sorted(mu.density_pieces(), key=lambda p: -p[2]):
        x_next = x + 0.5 * (b - a)
        w += val * (x_next - x)
        x = x_next
        kinks.append((x, w))
    return kinks


def odd_rearrangement(v):
    """Odd rearrangement v-hat of a MonotoneProfile.

    v-hat(0+) = singular mass / 2 and, for x > 0, v-hat grows with the
    symmetric non-increasing rearrangement of the density; it satisfies
    v-hat(x) = sgn(x) sup_{meas(A) <= 2|x|} mu(A)/2.
    """
    kinks = _odd_kinks(v.measure)
    return MonotoneProfile(-kinks[-1][1], OddProfile(kinks).dx_measure())


def order_leq(mu, mu_prime, tol=1e-12):
    """Partial order: mu <= mu' iff the odd rearrangements compare on x > 0.

    Both v-hats are linear between their kinks and constant past the last
    one, so they compare at 0+ and at every kink of either."""
    for m in (mu, mu_prime):
        if not m.is_nonnegative():
            raise NegativeMass("order_leq is defined for positive measures")
    a, b = OddProfile(_odd_kinks(mu)), OddProfile(_odd_kinks(mu_prime))
    # odd profiles read 0 at x = 0; v-hat(0+) is the top of the jump there
    at_0 = [max(w for x, w in p.kinks if x == 0.0) for p in (a, b)]
    pts = np.array([x for x, _ in a.kinks + b.kinks if x > 0.0])
    return at_0[0] <= at_0[1] + tol and not np.any(a(pts) > b(pts) + tol)


# ---------------------------------------------------------------------------
# band auto-correlation (mu x mu)(|x - y| <= rho), exact

def band_correlation(mu, rho):
    """(mu x mu)({(x, y): |x - y| <= rho}) for a non-negative measure."""
    return float(_band_correlations([mu], rho)[0])


def _band_correlations(mus, rho):
    """band_correlation of each measure of mus, in one array pass.

    Row b holds measure b padded to the batch's knot and atom counts: its
    last knot repeated (zero-width pieces of density 0) and zero-mass atoms,
    so the padding adds nothing.  With F the density mass of (-inf, x], the
    atoms give sum M_i M_j over close pairs plus 2 M_i (F(X_i + rho) -
    F(X_i - rho)), and the density part is the integral of
    d(x) [F(x + rho) - F(x - rho)] dx: between consecutive breaks of
    {xs, xs - rho, xs + rho} the density d is constant and the bracket is
    linear, so the trapezoid rule is exact.
    """
    xs_l = [mu.density_xs if mu.density_xs.size else _ORIGIN for mu in mus]
    n, n_atoms = np.array([(xs.size, mu.atoms.shape[0]) for xs, mu in zip(xs_l, mus)]).T
    B, K = n.size, n.max()
    rows = np.arange(B)[:, None]
    # column c of x_lo, steps, F_lo and slope is the cell [knot c-1, knot c):
    # its left knot, density, F there and F's slope, with cells 0 and K
    # outside the knots; each row's last knot repeats past its own
    x_lo = np.full((B, K + 1), -np.inf)
    x_lo[:, 0] = 0.0
    xs = x_lo[:, 1:]
    xs[np.arange(K) < n[:, None]] = np.concatenate(xs_l)
    np.maximum.accumulate(xs, axis=1, out=xs)
    steps = np.zeros((B, K + 1))
    steps[:, 1:K][np.arange(K - 1) < n[:, None] - 1] = np.concatenate(
        [mu.density_vals[1:x.size] for mu, x in zip(mus, xs_l)])
    atoms = np.zeros((B, n_atoms.max(), 2))
    atoms[np.arange(atoms.shape[1]) < n_atoms[:, None]] = np.concatenate(
        [mu.atoms for mu in mus]).reshape(-1, 2)
    X, M = atoms[..., 0], atoms[..., 1]
    if (M < 0).any() or (steps < 0).any():
        raise NegativeMass("band_correlation needs a non-negative measure")
    dxs = xs[:, 1:] - xs[:, :-1]
    F_lo = np.zeros((B, K + 1))
    np.cumsum(steps[:, 1:K] * dxs, axis=1, out=F_lo[:, 2:])
    slope = np.zeros((B, K + 1))
    np.divide(F_lo[:, 2:] - F_lo[:, 1:-1], dxs, out=slope[:, 1:K], where=dxs > 0)
    # the breaks, each with the number of knots at or below it (a knot sorts
    # before an equal shifted knot), which is the cell right of it
    br = np.concatenate([xs, xs - rho, xs + rho], axis=1)
    order = br.argsort(axis=1, kind="stable")
    br = br[rows, order]
    d = steps[rows, (order < K).cumsum(axis=1)[:, :-1]]
    # F with np.interp's arithmetic: F(knot c-1) + slope (q - knot c-1) in
    # cell c, 0 left of the knots and F's last value right of them
    q = np.concatenate([br + rho, br - rho, X + rho, X - rho], axis=1)
    c = _knots_at_or_below(xs, q)
    cdf = slope[rows, c] * (q - x_lo[rows, c]) + F_lo[rows, c]
    nb, na = br.shape[1], X.shape[1]
    g = cdf[:, :nb] - cdf[:, nb:2 * nb]
    window = cdf[:, 2 * nb:2 * nb + na] - cdf[:, 2 * nb + na:]
    close = np.abs(X[:, :, None] - X[:, None, :]) <= rho + 1e-15
    total = (M * (close * M[:, None, :]).sum(axis=2)).sum(axis=1)
    total += 2.0 * (M * window).sum(axis=1)
    total += (d * (br[:, 1:] - br[:, :-1]) * 0.5 * (g[:, :-1] + g[:, 1:])).sum(axis=1)
    return total


_ORIGIN = np.zeros(1)


def _knots_at_or_below(xs, q):
    """Per row b, the number of knots xs[b] <= q[b, p] (np.searchsorted with
    side="right"), from one stable sort of each row's knots and points, in
    which a knot sorts before an equal point."""
    K = xs.shape[1]
    order = np.concatenate([xs, q], axis=1).argsort(axis=1, kind="stable")
    cnt = np.empty_like(order)
    cnt[np.arange(xs.shape[0])[:, None], order] = (order < K).cumsum(axis=1)
    return cnt[:, K:]


# ---------------------------------------------------------------------------
# odd piecewise-linear profiles (comparison solutions)

class OddProfile:
    """Odd non-decreasing piecewise-linear profile, stored on x >= 0.

    kinks is the list of (x, w) with x, w non-decreasing; the profile is
    linear between kinks, constant beyond the last one, and odd.  A pair of
    kinks with equal x encodes a jump.  A kink whose x or w falls raises
    NotMonotone.
    """

    def __init__(self, kinks):
        self.kinks = [(float(x), float(w)) for x, w in kinks]
        if not self.kinks or self.kinks[0] != (0.0, 0.0):
            self.kinks = [(0.0, 0.0)] + self.kinks
        for (x0, w0), (x1, w1) in zip(self.kinks[:-1], self.kinks[1:]):
            if x1 < x0 or w1 < w0:
                raise NotMonotone(f"kink ({x1}, {w1}) falls below ({x0}, {w0})")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xs = np.array([k[0] for k in self.kinks])
        ws = np.array([k[1] for k in self.kinks])
        vals = np.interp(ax, xs, ws)
        vals = np.where(ax >= xs[-1], ws[-1], vals)
        return np.sign(x) * vals

    def dx_measure(self):
        """D_x of the odd extension as a WaveMeasure on the whole line.

        The sloped pieces on x >= 0 follow each other and are disjoint, and
        so are their mirror images, so each cell between breaks holds one
        slope or 0.
        """
        atoms = []
        breaks, cells = [], []      # breaks on x >= 0, the slope between each two
        for (x0, w0), (x1, w1) in zip(self.kinks[:-1], self.kinks[1:]):
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
                if not breaks or breaks[-1] != x0:
                    if breaks:
                        cells.append(0.0)
                    breaks.append(x0)
                breaks.append(x1)
                cells.append(slope)
        atoms = WaveMeasure.from_atoms(atoms).atoms if atoms else np.zeros((0, 2))
        if not breaks:
            return WaveMeasure(atoms)
        # mirror the breaks through 0, sharing a break at 0
        at_zero = breaks[0] == 0.0
        xs = [-x for x in reversed(breaks[1:] if at_zero else breaks)] + breaks
        vals = [0.0] + cells[::-1] + ([] if at_zero else [0.0]) + cells + [0.0]
        return WaveMeasure(atoms, np.array(xs), np.array(vals))


def single_rarefaction_reference(sigma_bar, t):
    """One centered rarefaction of strength 2 sigma_bar: x/t inside the fan."""
    if not (sigma_bar > 0 and t > 0):
        raise ValueError("need sigma_bar > 0 and t > 0")
    return OddProfile([(0.0, 0.0), (sigma_bar * t, sigma_bar)])


# ---------------------------------------------------------------------------
# Burgers comparison solution with impulsive source

class ComparisonSolution:
    """Solution of w_t + (w^2/2)_x = -kappa sgn(x) dQ/dt, w(0) = odd
    rearrangement of the initial positive-wave measure.

    The data stays odd, non-decreasing and piecewise linear, so the exact
    evolution moves each kink at its own characteristic speed; each downward
    jump of Q adds kappa |dQ| to w on x > 0 (a new fan at the origin).
    """

    def __init__(self, mu0_plus, q_history, kappa):
        if not mu0_plus.is_nonnegative():
            raise NegativeMass("initial measure must be non-negative")
        self.kappa = float(kappa)
        qh = [(float(t), float(q)) for t, q in q_history]
        for (t0, q0), (t1, q1) in zip(qh[:-1], qh[1:]):
            if q1 > q0 + 1e-12:
                raise NonMonotoneHistory(f"Q increases at t={t1}: {q0} -> {q1}")
            if t1 < t0:
                raise NonMonotoneHistory("q_history times must be increasing")
        self.q_history = qh
        self.impulses = [
            (t1, max(0.0, q0 - q1))
            for (t0, q0), (t1, q1) in zip(qh[:-1], qh[1:])
            if q0 - q1 > 0.0 and t1 > 0.0
        ]
        self._kinks0 = _odd_kinks(mu0_plus)
        self.mu0_total = mu0_plus.total_mass()

    def q_drop(self, tau):
        """Q(0) - Q(tau) from the recorded history."""
        q0 = self.q_history[0][1]
        qt = q0
        for t, q in self.q_history:
            if t <= tau + 1e-15:
                qt = q
        return q0 - qt

    def sigma_bar(self, tau):
        return 0.5 * self.mu0_total + self.kappa * self.q_drop(tau)

    def profile_at(self, t):
        kinks = list(self._kinks0)
        t_last = 0.0
        for t_imp, d in self.impulses:
            if t_imp > t + 1e-15:
                break
            dt = t_imp - t_last
            kinks = [(x + dt * w, w) for x, w in kinks]
            jump = self.kappa * d
            kinks = [(0.0, 0.0), (0.0, jump)] + [(x, w + jump) for x, w in kinks[1:]]
            t_last = t_imp
        dt = t - t_last
        kinks = [(x + dt * w, w) for x, w in kinks]
        return OddProfile(kinks)


def burgers_comparison(mu0_plus, q_history, kappa):
    return ComparisonSolution(mu0_plus, q_history, kappa)


def spread_positive_waves(run, t, family):
    """Positive i-wave measure of a run at time t with each rarefaction step
    opened back into the fan it discretizes.

    A step of strength sigma born at time t_b occupies, at time t, the
    interval of width sigma (t - t_b) behind its front with density
    1/(t - t_b); adjacent steps of a common fan tile the exact rarefaction.
    Without this reconstruction the sampled steps are atoms and are strictly
    more singular than any Lipschitz comparison profile.  A step born at t
    itself (age below 1e-12) stays an atom.
    """
    cfg = merge_cancelling_pairs(run.config_at(t))
    atoms = []
    pieces = []
    for f in cfg.fronts:
        if not f.physical or f.family != family or f.strength <= 0:
            continue
        age = t - f.t0
        x = f.x(t)
        if age <= 1e-12:
            atoms.append((x, f.strength))
        else:
            pieces.append((x - f.strength * age, x, 1.0 / age))
    return _with_step_density(WaveMeasure.from_atoms(atoms), pieces)


# ---------------------------------------------------------------------------
# pairwise interaction integrals along a front-tracking run

def pair_interaction_integral(run, delta):
    """Time integral of the pairwise proximity sums along a run.

    The sum is over ordered pairs (alpha, beta), including alpha = beta, of
    rarefaction fronts of the same family with |x_alpha - x_beta| <= delta.
    Exact per strip: indicators of linearly moving gaps switch at computable
    times.  The integral runs from 0 to run.tau.

    A strip of length L visits only the pairs that can come within delta in
    it: with the fronts sorted by position, the partners of front a are the
    fronts b after it with x_b - x_a <= delta + L max(0, v_a - min v_b),
    found by one searchsorted.  The pairs go through in chunks of about
    _PAIR_CHUNK, small enough to stay in cache (one front's partners are
    never split).
    """
    t_edges = run.t_edges
    total = 0.0
    for k in range(len(t_edges) - 1):
        t0, t1 = t_edges[k], t_edges[k + 1]
        if t1 - t0 <= 0:
            continue
        fronts = [f for f in run.configs[k].fronts
                  if f.physical and f.kind == "rarefaction_step"]
        if not fronts:
            continue
        x = np.array([f.x(t0) for f in fronts])
        order = np.argsort(x, kind="stable")
        x = x[order]
        v = np.array([f.speed for f in fronts])[order]
        s = np.array([abs(f.strength) for f in fronts])[order]
        fam = np.array([f.family for f in fronts])[order]
        L = t1 - t0
        # diagonal pairs: indicator always on
        total += float(np.sum(s * s)) * L
        n = x.size
        v_after = np.append(np.minimum.accumulate(v[::-1])[::-1][1:], np.inf)
        reach = delta + np.maximum(v - v_after, 0.0) * L
        partners = np.searchsorted(x, x + reach, side="right") - np.arange(1, n + 1)
        first = np.concatenate([[0], np.cumsum(partners)])
        a0 = 0
        while a0 < n:
            a1 = max(a0 + 1, int(np.searchsorted(first, first[a0] + _PAIR_CHUNK,
                                                 side="right")) - 1)
            a = np.repeat(np.arange(a0, a1), partners[a0:a1])
            b = a + 1 + np.arange(a.size) - (first[a] - first[a0])
            w = np.where(fam[a] == fam[b], s[a] * s[b], 0.0)
            dur = _window_duration(x[b] - x[a], v[b] - v[a], delta, L)
            total += 2.0 * float(w @ dur)
            a0 = a1
    return total


_PAIR_CHUNK = 1 << 13


def _window_duration(g0, dv, delta, L):
    """Time within [0, L] during which |g0 + t dv| <= delta (vectorized)."""
    dur = np.empty_like(g0)
    still = dv == 0.0
    dur[still] = np.where(np.abs(g0[still]) <= delta, L, 0.0)
    m = ~still
    lo = (-delta - g0[m]) / dv[m]
    hi = (delta - g0[m]) / dv[m]
    a = np.minimum(lo, hi)
    b = np.maximum(lo, hi)
    dur[m] = np.clip(np.minimum(b, L) - np.maximum(a, 0.0), 0.0, L)
    return dur


def time_integrated_band_correlation(profile_fn, t0, t1, rho, nodes=33):
    """Simpson integral over t of band_correlation(D_x profile_fn(t), rho)."""
    nodes = nodes if nodes % 2 == 1 else nodes + 1
    ts = np.linspace(t0, t1, nodes)
    vals = _band_correlations([profile_fn(t).dx_measure() for t in ts], rho)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (t1 - t0) / (nodes - 1)
    return float(h / 3.0 * weights @ vals)
