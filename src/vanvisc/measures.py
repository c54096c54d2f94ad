"""Wave measures, rearrangements, the singularity order, and decay integrals.

A measure here is a finite signed combination of point atoms plus a
piecewise-constant density with compact support; every integral below is
evaluated in closed form over breakpoint decompositions, so the comparison
lemmas can be checked without quadrature noise.
"""

from __future__ import annotations

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
        assert vals[0] == 0.0 and vals[-1] == 0.0, "density must have compact support"
        return WaveMeasure(atoms=np.zeros((0, 2)), density_xs=xs, density_vals=vals)

    def with_density(self, xs, vals):
        return WaveMeasure(self.atoms, np.asarray(xs, float), np.asarray(vals, float))

    def atom_mass(self):
        return float(np.sum(self.atoms[:, 1])) if self.atoms.size else 0.0

    def density_pieces(self):
        """List of (a, b, value) with value != 0."""
        out = []
        xs, vals = self.density_xs, self.density_vals
        for j in range(xs.size - 1):
            if vals[j + 1] != 0.0:
                out.append((xs[j], xs[j + 1], vals[j + 1]))
        return out

    @cached_property
    def _knots(self):
        """(xs, F, steps): the breakpoints, the density mass F of (-inf, x]
        at each of them (linear in between), and the density on the
        xs.size + 1 intervals they cut the line into, 0 on the outer two.
        Piece j = [xs[j], xs[j+1]) has value density_vals[j + 1], so
        density_vals may or may not carry the trailing 0."""
        xs = self.density_xs if self.density_xs.size else np.zeros(1)
        steps = np.zeros(xs.size + 1)
        steps[1:-1] = self.density_vals[1:xs.size]
        F = np.concatenate([[0.0], np.cumsum(steps[1:-1] * np.diff(xs))])
        return xs, F, steps

    @cached_property
    def _atom_cum(self):
        """Entry k is the mass of the first k atoms."""
        return np.concatenate([[0.0], np.cumsum(self.atoms[:, 1])])

    def density_cdf(self, x):
        """Density mass of (-inf, x], vectorized."""
        xs, F, _ = self._knots
        return np.interp(x, xs, F)

    def density_mass(self):
        return float(self._knots[1][-1])

    def total_mass(self):
        return self.atom_mass() + self.density_mass()

    def is_nonnegative(self):
        if self.atoms.size and np.any(self.atoms[:, 1] < 0):
            return False
        return not np.any(self._knots[2] < 0)

    def mass_on(self, lo, hi):
        """Measure of the closed interval [lo, hi]."""
        if hi < lo:
            return 0.0
        f_lo, f_hi = self.density_cdf((lo, hi))
        X, cum = self.atoms[:, 0], self._atom_cum
        return float(f_hi - f_lo + cum[np.searchsorted(X, hi, side="right")]
                     - cum[np.searchsorted(X, lo, side="left")])


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


def sup_mass(mu, size):
    """sup { mu(A) : meas(A) <= size } for a non-negative measure.

    Atoms count in full (they sit on null sets); the density contributes its
    largest values first.
    """
    if not mu.is_nonnegative():
        raise NegativeMass("sup_mass needs a non-negative measure")
    total = mu.atom_mass()
    pieces = sorted(mu.density_pieces(), key=lambda p: -p[2])
    left = size
    for a, b, v in pieces:
        if left <= 0:
            break
        w = min(b - a, left)
        total += v * w
        left -= w
    return total


def odd_rearrangement(v):
    """Odd rearrangement v-hat of a MonotoneProfile.

    v-hat(0+) = singular mass / 2 and, for x > 0, v-hat grows with the
    symmetric non-increasing rearrangement of the density; it satisfies
    v-hat(x) = sgn(x) sup_{meas(A) <= 2|x|} mu(A)/2.
    """
    mu = v.measure
    S = mu.atom_mass()
    pieces = sorted(mu.density_pieces(), key=lambda p: -p[2])
    xs, vals = [0.0], [0.0]
    half = 0.0
    for a, b, val in pieces:
        half += 0.5 * (b - a)
        xs.append(half)
        vals.append(val)
    vals.append(0.0)
    # symmetric density on [-half, half]
    if half > 0.0:
        dx = np.concatenate([-np.array(xs[::-1][:-1]), np.array(xs)])
        dv = np.concatenate([[0.0], vals[1:-1][::-1], vals[1:]])
        dens_xs, dens_vals = dx, dv
    else:
        dens_xs, dens_vals = np.array([]), np.array([0.0])
    atoms = np.array([[0.0, S]]) if S > 0 else np.zeros((0, 2))
    mu_hat = WaveMeasure(atoms=atoms, density_xs=dens_xs, density_vals=dens_vals)
    return MonotoneProfile(v_left=-0.5 * mu_hat.total_mass(), measure=mu_hat)


def order_leq(mu, mu_prime, tol=1e-12):
    """Partial order: mu <= mu' iff the odd rearrangements compare on x > 0."""
    for m in (mu, mu_prime):
        if not m.is_nonnegative():
            raise NegativeMass("order_leq is defined for positive measures")
    a = odd_rearrangement(MonotoneProfile(0.0, mu)).measure
    b = odd_rearrangement(MonotoneProfile(0.0, mu_prime)).measure
    pts = np.unique(np.concatenate([[0.0], a.density_xs[a.density_xs > 0],
                                    b.density_xs[b.density_xs > 0]]))
    pts = np.append(pts, pts[-1] + 1.0)
    # v-hat(x) = S/2 + density((0, x]) for x > 0, S the atom mass at 0
    va = a.density_cdf(pts) - a.density_cdf(0.0) + 0.5 * a.atom_mass()
    vb = b.density_cdf(pts) - b.density_cdf(0.0) + 0.5 * b.atom_mass()
    return not np.any(va > vb + tol)


# ---------------------------------------------------------------------------
# band auto-correlation (mu x mu)(|x - y| <= rho), exact

def band_correlation(mu, rho):
    """(mu x mu)({(x, y): |x - y| <= rho}) for a non-negative measure."""
    if not mu.is_nonnegative():
        raise NegativeMass("band_correlation needs a non-negative measure")
    total = 0.0
    A = mu.atoms
    if A.size:
        X, M = A[:, 0], A[:, 1]
        close = np.abs(X[:, None] - X[None, :]) <= rho + 1e-15
        total += float(M @ (close @ M))
        window = mu.density_cdf(X + rho) - mu.density_cdf(X - rho)
        total += 2.0 * float(M @ window)
    total += _density_band(mu, rho)
    return total


def _density_band(mu, rho):
    """Integral of d(x) [F(x+rho) - F(x-rho)] dx for the density part d with
    cumulative mass F.  Between consecutive breaks d is constant and the
    bracket is linear, so the trapezoid rule is exact."""
    xs, _, steps = mu._knots
    br = np.unique(np.concatenate([xs, xs - rho, xs + rho]))
    g = mu.density_cdf(br + rho) - mu.density_cdf(br - rho)
    d = steps[np.searchsorted(xs, 0.5 * (br[:-1] + br[1:]), side="right")]
    return float(np.sum(d * np.diff(br) * 0.5 * (g[:-1] + g[1:])))


# ---------------------------------------------------------------------------
# odd piecewise-linear profiles (comparison solutions)

class OddProfile:
    """Odd non-decreasing piecewise-linear profile, stored on x >= 0.

    kinks is the list of (x, w) with x, w non-decreasing; the profile is
    linear between kinks, constant beyond the last one, and odd.  A pair of
    kinks with equal x encodes a jump.
    """

    def __init__(self, kinks):
        self.kinks = [(float(x), float(w)) for x, w in kinks]
        if not self.kinks or self.kinks[0] != (0.0, 0.0):
            self.kinks = [(0.0, 0.0)] + self.kinks

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xs = np.array([k[0] for k in self.kinks])
        ws = np.array([k[1] for k in self.kinks])
        vals = np.interp(ax, xs, ws)
        vals = np.where(ax >= xs[-1], ws[-1], vals)
        return np.sign(x) * vals

    def dx_measure(self):
        """D_x of the odd extension as a WaveMeasure on the whole line."""
        atoms = []
        pieces = []
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
                pieces.append((x0, x1, slope))
                pieces.append((-x1, -x0, slope))
        return _with_step_density(WaveMeasure.from_atoms(atoms), pieces)


def single_rarefaction_reference(sigma_bar, t):
    """One centered rarefaction of strength 2 sigma_bar: x/t inside the fan."""
    assert sigma_bar > 0 and t > 0
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
        vhat = odd_rearrangement(MonotoneProfile(0.0, mu0_plus))
        mu = vhat.measure
        kinks = [(0.0, 0.0)]
        w = 0.5 * mu.atom_mass()
        if w > 0:
            kinks.append((0.0, w))
        for a, b, v in sorted(mu.density_pieces()):
            if a < 0:
                continue
            if not kinks or kinks[-1][0] < a:
                kinks.append((a, w))
            w += v * (b - a)
            kinks.append((b, w))
        self._kinks0 = kinks
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
        v = np.array([f.speed for f in fronts])
        s = np.array([abs(f.strength) for f in fronts])
        fam = np.array([f.family for f in fronts])
        L = t1 - t0
        # diagonal pairs: indicator always on
        total += float(np.sum(s * s)) * L
        n = len(fronts)
        for a in range(n):
            g0 = x[a + 1 :] - x[a]
            dv = v[a + 1 :] - v[a]
            w = np.where(fam[a + 1 :] == fam[a], s[a] * s[a + 1 :], 0.0)
            dur = _window_duration(g0, dv, delta, L)
            total += 2.0 * float(w @ dur)
    return total


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
    vals = np.array([band_correlation(profile_fn(t).dx_measure(), rho) for t in ts])
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (t1 - t0) / (nodes - 1)
    return float(h / 3.0 * weights @ vals)
