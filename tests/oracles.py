"""The tests' oracles: one independent reference for each fast path of the
package, and ORACLES, the registry that says which test compares which
fast path with which oracle, at what tolerance.

An oracle is either a function here or a hook-less fallback in the package
(named "module.function"), which a model without the hook runs.
tests/test_lint.py keeps the registry exact: every optional hook of
SystemModel has an entry, every public function here is an entry's oracle,
and every test an entry names exists.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from vanvisc import burgers
from vanvisc.errors import NegativeMass
from vanvisc.front_tracking import GLIMM_C0, glimm_functionals
from vanvisc.functionals import w_flat, w_natural, weighted_potentials
from vanvisc.hybrid import KERNEL_C, KERNEL_SUPPORT, Mollifier, _cells, _shock_chains, _squeeze_jet
from vanvisc.measures import (_HISTORY_SLACK, MonotoneProfile, OddProfile, WaveMeasure,
                              _knots_at_or_below, _odd_kinks, odd_rearrangement)
from vanvisc.piecewise import gauss_l1, gauss_points
from vanvisc.system import max_abs_eigenvalue
from vanvisc.viscous import CFL


# ---------------------------------------------------------------------------
# Burgers closed forms summed over every piece

def _over_every_piece(rows_fn, data, x):
    """rows_fn(pieces, x_chunk) over chunks of x, every piece in each."""
    pieces = burgers._pieces(data)[:5]
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, 1))
    step = max(1, burgers._CHUNK_CELLS // pieces[0].size)
    for i in range(0, x.size, step):
        out[i : i + step, 0] = rows_fn(pieces, x[i : i + step])
    return out


def cole_hopf_unwindowed(data, eps, t, x):
    """Cole-Hopf u_eps(t, x) with every piece in every point's sum."""
    sig = math.sqrt(2.0 * eps * t)

    def rows(pieces, xc):
        a, b, v, p, U = pieces
        c = xc[:, None] - v * t
        A = (a - c) / sig
        B = (b - c) / sig
        flip = A > 0
        lo = np.where(flip, -B, A)
        hi = np.where(flip, -A, B)
        l_hi = special.log_ndtr(hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mass = l_hi + special.log1p(-burgers._exp(special.log_ndtr(lo) - l_hi))
            log_w = log_mass + (0.5 * v * v * t - U - v * (xc[:, None] - p)) / (2.0 * eps)
            drift = (burgers._exp(-0.5 * A * A - burgers._HALF_LOG_2PI - log_mass)
                     - burgers._exp(-0.5 * B * B - burgers._HALF_LOG_2PI - log_mass))
            w = burgers._exp(log_w - np.max(log_w, axis=1, keepdims=True))
            terms = np.where(w > 0.0, w * (v - (sig / t) * drift), 0.0)
        return np.sum(terms, axis=1) / np.sum(w, axis=1)

    return _over_every_piece(rows, data, x)


def hopf_lax_unwindowed(data, t, x):
    """Hopf-Lax u(t, x), the minimiser searched over every piece."""
    def rows(pieces, xc):
        a, b, v, p, U = pieces
        y = np.clip(xc[:, None] - v * t, a, b)
        cost = U + v * (y - p) + (xc[:, None] - y) ** 2 / (2.0 * t)
        y_star = np.take_along_axis(y, np.argmin(cost, axis=1)[:, None], axis=1)[:, 0]
        return (xc - y_star) / t

    return _over_every_piece(rows, data, x)


def row_distances_unwindowed(model, data, eps, tau, sol, u_ft):
    """A converge row's distances with every Gauss point evaluated: the cut
    at the grid nodes and u_ft's breakpoints, plus, for a model with both
    closed forms, the shocks of u, located by 60 rounds of bisection, with
    the closed forms summed over every piece."""
    x = sol.x
    cut = np.union1d(x, u_ft.xs[(u_ft.xs > x[0]) & (u_ft.xs < x[-1])])
    exact = model.viscous_fn is not None and model.entropy_fn is not None
    if exact:
        def u(pts):
            return hopf_lax_unwindowed(data, tau, pts)[:, 0]

        u_cut = u(cut)
        falls = u_cut[:-1] - u_cut[1:] > 1e-12
        cut = np.union1d(cut, _bisected_shocks(u, cut[:-1][falls], cut[1:][falls],
                                               u_cut[:-1][falls]))
    pts = gauss_points(cut)
    ft = u_ft(pts)
    grid = sol.final()
    out = {"l1_error": gauss_l1(cut, ft, np.stack(
        [np.interp(pts, x, grid[:, c]) for c in range(grid.shape[1])], axis=1))}
    if exact:
        u_exact = hopf_lax_unwindowed(data, tau, pts)
        out["l1_exact"] = gauss_l1(cut, cole_hopf_unwindowed(data, eps, tau, pts), u_exact)
        out["ft_error"] = gauss_l1(cut, ft, u_exact)
    return out


def _bisected_shocks(u, lo, hi, u_lo):
    """The shocks of u in the segments [lo, hi] (u_lo = u(lo)) across which
    it falls: the midpoints after 60 rounds of bisection, each keeping the
    half where u falls by more than 1e-12."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        u_mid = u(mid)
        left = u_lo - u_mid > 1e-12
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        u_lo = np.where(left, u_lo, u_mid)
    return 0.5 * (lo + hi)


def grid_distance_own_cut(profile, x_grid, u_grid):
    """The grid distance as a function of its own: the cut at the nodes and
    the profile's breakpoints, with the interpolant at its Gauss points."""
    cut = np.union1d(x_grid, profile.xs[(profile.xs >= x_grid[0]) & (profile.xs <= x_grid[-1])])
    pts = gauss_points(cut)
    gv = np.stack([np.interp(pts, x_grid, u_grid[:, c]) for c in range(u_grid.shape[1])], axis=1)
    return gauss_l1(cut, profile(pts), gv)


def entropy_distances_own_cut(data, eps, tau, x, u_ft):
    """l1_exact and ft_error on their own cut: the first cut plus the shocks
    of u, located from separate evaluations of u at the segment ends, with
    the closed forms summed over every piece at every Gauss point."""
    def u(pts):
        return hopf_lax_unwindowed(data, tau, pts)[:, 0]

    cut = np.union1d(x, u_ft.xs[(u_ft.xs > x[0]) & (u_ft.xs < x[-1])])
    lo, hi = cut[:-1], cut[1:]
    u_lo = u(lo)
    falls = u_lo - u(hi) > 1e-12
    cut = np.union1d(cut, _bisected_shocks(u, lo[falls], hi[falls], u_lo[falls]))
    pts = gauss_points(cut)
    u_exact = hopf_lax_unwindowed(data, tau, pts)
    return {"l1_exact": gauss_l1(cut, cole_hopf_unwindowed(data, eps, tau, pts), u_exact),
            "ft_error": gauss_l1(cut, u_ft(pts), u_exact)}


# ---------------------------------------------------------------------------
# the viscous layer

def rusanov_solve(model, epsilon, initial, tau, dx, windowed=True):
    """The explicit Rusanov solve on row-major (N, n) states, allocating
    every intermediate: (x, dt, steps, u).

    solve_viscous runs the same steps on component-major states and
    preallocated buffers.  Windowed, each step covers only the cells its
    padding rule says the waves can have reached, every operation in
    solve_viscous's order; otherwise every cell of the grid is stepped."""
    vmax = float(np.max(max_abs_eigenvalue(model, initial.values))) * 1.2 + 0.1
    lo, hi = -1.0, 1.0
    if initial.xs.size:
        lo, hi = float(initial.xs[0]), float(initial.xs[-1])

    def reach(t):
        return vmax * t + np.sqrt(4.0 * epsilon * t * np.log(1e10))

    x_lo, x_hi = lo - reach(tau) - 10 * dx, hi + reach(tau) + 10 * dx
    N = int(np.ceil((x_hi - x_lo) / dx)) + 1
    x = x_lo + dx * np.arange(N)
    u = initial(x)
    dt = CFL / (vmax / dx + 2.0 * epsilon / dx ** 2)
    steps = max(1, int(np.ceil(tau / dt)))
    dt = tau / steps
    i0, i1 = 0, N
    for k in range(1, steps + 1):
        if windowed:
            pad = reach(k * dt) + 10 * dx
            i0 = max(math.floor((lo - pad - x_lo) / dx), 0)
            i1 = min(math.ceil((hi + pad - x_lo) / dx) + 1, N)
        w = u[i0:i1]
        f = model.flux(w)
        a = max_abs_eigenvalue(model, 0.5 * (w[:-1] + w[1:]))[:, None]
        F = 0.5 * (f[:-1] + f[1:]) - 0.5 * a * (w[1:] - w[:-1])
        lap = w[2:] - 2.0 * w[1:-1] + w[:-2]
        w[1:-1] -= dt / dx * (F[1:] - F[:-1])
        w[1:-1] += epsilon * dt / dx ** 2 * lap
        u[0] = u[1]
        u[-1] = u[-2]
    return x, dt, steps, u


def ode_residual(profile, samples):
    """Max defect of a fine RK4 re-step of a shooting orbit against the
    stored one.

    The base grid of samples points is refined wherever the profile moves,
    so the check resolves the steep layer even when the tails are long."""
    base = np.linspace(profile.s_lo, profile.s_hi, samples) - profile.center_shift
    w0 = profile.value(base)
    grid = [base[0]]
    sigma = abs(profile.strength)
    for j in range(samples - 1):
        h = base[j + 1] - base[j]
        dw = np.linalg.norm(w0[j + 1] - w0[j])
        # resolve both the layer (value change) and the exponential
        # tails (step against the decay scale 1/sigma)
        n_sub = 1 + int(dw / (0.002 * sigma + 1e-300)) + int(h * sigma / 0.1)
        n_sub = min(n_sub, 128)
        grid.extend(np.linspace(base[j], base[j + 1], n_sub + 1)[1:])
    ss = np.array(grid)
    w = profile.value(ss)
    worst = 0.0
    for j in range(ss.size - 1):
        h = ss[j + 1] - ss[j]
        k1 = profile.rhs(w[j])[0]
        k2 = profile.rhs(w[j] + 0.5 * h * k1)[0]
        k3 = profile.rhs(w[j] + 0.5 * h * k2)[0]
        k4 = profile.rhs(w[j] + h * k3)[0]
        pred = w[j] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        worst = max(worst, float(np.linalg.norm(pred - w[j + 1])))
    return worst


# ---------------------------------------------------------------------------
# the hybrid

def kernel_cdf_clipped(s, delta):
    """The mollifier's cdf: its polynomial evaluated everywhere, on the
    argument clipped to the support."""
    a = KERNEL_SUPPORT
    t = np.clip(np.asarray(s, dtype=float) / delta, -a, a)
    P = (64.0 / 729.0) * t - (16.0 / 81.0) * t ** 3 + (12.0 / 45.0) * t ** 5 - t ** 7 / 7.0
    Pa = (64.0 / 729.0) * a - (16.0 / 81.0) * a ** 3 + (12.0 / 45.0) * a ** 5 - a ** 7 / 7.0
    return KERNEL_C * (P + Pa)


def squeeze_jet_masked(x, eps):
    """The squeeze map and its derivatives as three separate masked
    evaluations."""
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


def _term_by_term_insertion(st, front, profile, t, x):
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


def dense_jet(st, cfg, t, x):
    """(v, vx, vxx, vt) of a hybrid strip term by term, as the paper builds
    it: u(t) * phi_delta with every front of the strip's configuration cfg
    mollified at every point, plus for each track its profile insertion
    minus its mollified step, over the whole array."""
    mol = Mollifier(st.delta)
    xs = np.array([f.x(t) for f in cfg.fronts])
    speeds = np.array([f.speed for f in cfg.fronts])
    jumps = cfg.profile().jumps() if xs.size else np.zeros((0, st.model.n))
    v = np.tile(cfg.left_state, (x.size, 1))
    vx, vxx, vt = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    if xs.size:
        K, phi, dphi = mol.jet(x[:, None] - xs[None, :])
        v = v + K @ jumps
        vx = phi @ jumps
        vxx = dphi @ jumps
        vt = -(phi * speeds[None, :]) @ jumps
    jet = [v, vx, vxx, vt]
    for _, front, profile in st.tracks:
        for i, part in enumerate(_term_by_term_insertion(st, front, profile, t, x)):
            jet[i] = jet[i] + part
    return jet


def halved_residual(hyb):
    """The residual's total at its own midpoint times, with every cell of
    its x-grid halved."""
    total = 0.0
    for st in hyb.strips:
        L = st.t1 - st.t0
        nt = max(2, int(np.ceil(L / (np.sqrt(hyb.epsilon) / 6.0))))
        for t in st.t0 + (np.arange(nt) + 0.5) * (L / nt):
            e = _cells(st, t, st.delta / 6.0, 1.1 * np.sqrt(st.epsilon))
            if e is None:
                continue
            e = np.sort(np.concatenate([e, 0.5 * (e[:-1] + e[1:])]))
            mid = 0.5 * (e[:-1] + e[1:])
            total += L / nt * float(st.residual_pointwise(t, mid) @ np.diff(e))
    return total


def strip_grid_before(strip, t):
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


def span_jump(hyb, ev):
    """The jump of the hybrid across event ev on the grid it had before its
    window: over the event and every track alive on either side of it,
    padded by 2 delta.  Returns (grid, cell midpoints, |jump| at them)."""
    k, delta = ev.index, hyb.delta
    dx = min(hyb.epsilon / 8.0, delta / 40.0)
    centers = [ev.x] + [front.x(ev.time) for tr in hyb.tracks
                        for front in (tr.front(k), tr.front(k + 1)) if front is not None]
    grid = np.arange(min(centers) - 2.0 * delta, max(centers) + 2.0 * delta + dx, dx)
    mid = 0.5 * (grid[:-1] + grid[1:])
    dv = hyb.strips[k + 1].value(ev.time, mid) - hyb.strips[k].value(ev.time, mid)
    return grid, mid, np.linalg.norm(dv, axis=1)


# big-shock tracks looked up by time and side, the way they were before
# tracks held one front per configuration index

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


class _RefTracks(list):
    """Time-and-side tracks, with the lookups that read them."""

    def fronts(self, t, side):
        """The fronts of the tracks alive at t on side."""
        return {tr.segment_at(t, side).front for tr in self
                if tr.alive(t, side) and tr.segment_at(t, side) is not None}

    def classify(self, ev):
        """An event's case and flags."""
        t = ev.time
        in_tracks = [tr for tr in self if tr.segment_at(t, "-") is not None
                     and tr.segment_at(t, "-").front in ev.incoming and tr.alive(t, "-")]
        born = [tr for tr in self if abs(tr.t_minus - t) < 1e-14]
        died = [tr for tr in self if abs(tr.t_plus - t) < 1e-14]
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


def ref_select(run, rho):
    """The big-shock tracks of run as time-and-side tracks (_RefTracks),
    their lifetimes from a scan over each configuration."""
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
    return _RefTracks(sorted(tracks, key=lambda tr: (tr.t_minus, tr.segments[0].x0)))


# ---------------------------------------------------------------------------
# front tracking and the functionals

def l1_distance(a, b):
    """Exact integral of the Euclidean distance of two PiecewiseConstant
    profiles, which must agree far left and far right."""
    if not np.allclose(a.values[0], b.values[0], atol=1e-13) or not np.allclose(
        a.values[-1], b.values[-1], atol=1e-13
    ):
        raise ValueError("profiles differ at infinity; L1 distance diverges")
    xs = np.union1d(a.xs, b.xs)
    if xs.size < 2:
        return 0.0
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(np.linalg.norm(a(mids) - b(mids), axis=1) * np.diff(xs)))


def glimm_double_loop(config):
    """V and Q as the O(n^2) loop over ordered pairs i < j: different
    families with the faster one on the left, or a physical same-family pair
    holding a shock.  Q is the correctly rounded sum of the pairs'
    products."""
    fronts = config.fronts
    V = sum(abs(f.strength) for f in fronts)
    terms = []
    for i in range(len(fronts)):
        fi = fronts[i]
        for j in range(i + 1, len(fronts)):
            fj = fronts[j]
            if fi.family != fj.family:
                if fi.family > fj.family:
                    terms.append(abs(fi.strength * fj.strength))
            elif fi.physical and (fi.kind == "shock" or fj.kind == "shock"):
                terms.append(abs(fi.strength * fj.strength))
    return V, math.fsum(terms)


def ordered_pairs(cfg, bs, eps):
    """(q_flat, its rate, the sum of the rate's absolute terms, (cross,
    natural, sharp) pair sums) as one double loop over ordered pairs of the
    physical fronts at cfg's time.  q_flat and its rate sum the pairs of
    different families; the pair sums take the pairs within 2 sqrt(eps) of
    each other: of different families, of a big shock (in bs) and a
    rarefaction step of its family, and of two shocks of one family in list
    order."""
    r = np.sqrt(eps)
    total = rate = rate_scale = cross = natural = sharp = 0.0
    fronts = [(f, f.x(cfg.time)) for f in cfg.fronts if f.physical]
    for i, (a, xa) in enumerate(fronts):
        for j, (b, xb) in enumerate(fronts):
            if i == j:
                continue
            m = abs(a.strength * b.strength)
            near = abs(xb - xa) <= 2 * r
            if a.family != b.family:
                w, dw = w_flat(xb - xa, b.speed - a.speed, a.family, b.family, eps)
                total += w * m
                rate += dw * m
                rate_scale += abs(dw * m)
                if near:
                    cross += m
            elif near and a.kind == "shock":
                if a in bs and b.kind == "rarefaction_step":
                    natural += m
                if b.kind == "shock" and i < j:
                    sharp += m
    return total, rate, rate_scale, (cross, natural, sharp)


def w_flat_two_branches(x_alpha, fam_alpha, x_beta, fam_beta, epsilon):
    """The q_flat weight of an ordered pair, one branch per family order."""
    r = np.sqrt(epsilon)
    d = x_beta - x_alpha
    if fam_beta < fam_alpha:
        if d < -2 * r:
            return 0.0
        if d > 2 * r:
            return 1.0
        return 0.5 + d / (4 * r)
    if d < -2 * r:
        return 1.0
    if d > 2 * r:
        return 0.0
    return 0.5 - d / (4 * r)


def two_walks(fronts, ai, epsilon):
    """The q_natural and q_sharp potentials of the shock fronts[ai], each
    from one walk to its right and another to its left."""
    alpha = fronts[ai]
    cap = abs(alpha.strength) / 4.0
    natural = 0.0
    cum = 0.0
    for b in fronts[ai + 1 :]:
        if not b.physical or b.family != alpha.family or b.kind != "rarefaction_step":
            continue
        new = cum + b.strength
        mass = min(new, cap) - min(cum, cap)
        if mass > 0:
            natural += w_natural(b.x0 - alpha.x0, 0.0, epsilon)[0] * mass
        cum = new
    cum = 0.0
    for b in reversed(fronts[:ai]):
        if not b.physical or b.family != alpha.family or b.kind != "rarefaction_step":
            continue
        new = cum - b.strength
        mass = max(cum, -cap) - max(new, -cap)
        if mass > 0:
            natural += w_natural(b.x0 - alpha.x0, 0.0, epsilon)[0] * mass
        cum = new
    base = abs(alpha.strength) / 2.0
    sharp = 0.0
    z = base
    runmax = base
    for b in fronts[ai + 1 :]:
        if not b.physical or b.family != alpha.family:
            continue
        if b.kind == "shock":
            z_new = z + abs(b.strength)
            mass = max(0.0, z_new - runmax)
            if mass > 0:
                sharp += w_natural(b.x0 - alpha.x0, 0.0, epsilon)[0] * mass / (epsilon + runmax)
            z = z_new
            runmax = max(runmax, z_new)
        else:
            z = z - 3.0 * b.strength
    z = -base
    runmin = -base
    for b in reversed(fronts[:ai]):
        if not b.physical or b.family != alpha.family:
            continue
        if b.kind == "shock":
            z_new = z - abs(b.strength)
            mass = max(0.0, runmin - z_new)
            if mass > 0:
                sharp += w_natural(b.x0 - alpha.x0, 0.0, epsilon)[0] * mass / (epsilon - runmin)
            z = z_new
            runmin = min(runmin, z_new)
        else:
            z = z + 3.0 * b.strength
    return natural, abs(alpha.strength) * sharp


def audit_snapshot(config, bs, epsilon, constants):
    """(V, Q, Upsilon, q_flat, q_natural, q_sharp, q_hat) of one
    configuration, q_hat from one snapshot of the Glimm pair."""
    V, Q = glimm_functionals(config)
    ups = V + GLIMM_C0 * Q
    qf, qn, qs = weighted_potentials(config, bs, epsilon)[0]
    r = np.sqrt(epsilon)
    ln = abs(np.log(epsilon))
    qh = r * ln * (constants.c1 * ups + constants.c2 * qf + constants.c3 * qn) + r * qs
    return V, Q, ups, qf, qn, qs, qh


# ---------------------------------------------------------------------------
# the measures

def sup_mass(mu, size):
    """sup { mu(A) : meas(A) <= size } for a non-negative measure: the
    atoms in full (they sit on null sets), then the density's largest
    values first."""
    if not mu.is_nonnegative():
        raise NegativeMass("sup_mass needs a non-negative measure")
    total = mu.atom_mass()
    left = size
    for a, b, v in sorted(mu.density_pieces(), key=lambda p: -p[2]):
        if left <= 0:
            break
        w = min(b - a, left)
        total += v * w
        left -= w
    return total


def ref_mass_on(mu, lo, hi, atoms=True):
    """mu([lo, hi]) by a scan over the atoms and the density's pieces."""
    out = 0.0
    if atoms and mu.atoms.size:
        sel = (mu.atoms[:, 0] >= lo) & (mu.atoms[:, 0] <= hi)
        out += float(np.sum(mu.atoms[sel, 1]))
    for a, b, v in mu.density_pieces():
        w = min(b, hi) - max(a, lo)
        if w > 0:
            out += v * w
    return out


def numpy_mass_on(mu, lo, hi):
    """mu([lo, hi]) by numpy: np.interp over the density's cumulative mass at
    its knots, np.searchsorted over the atoms' cumulative masses."""
    if hi < lo:
        return 0.0
    xs = mu.density_xs if mu.density_xs.size else np.zeros(1)
    steps = np.zeros(xs.size + 1)
    steps[1:-1] = mu.density_vals[1:xs.size]
    F = np.concatenate([[0.0], np.cumsum(steps[1:-1] * np.diff(xs))])
    cum = np.concatenate([[0.0], np.cumsum(mu.atoms[:, 1])])
    f_lo, f_hi = np.interp((lo, hi), xs, F)
    X = mu.atoms[:, 0]
    return float(f_hi - f_lo + cum[np.searchsorted(X, hi, side="right")]
                 - cum[np.searchsorted(X, lo, side="left")])


def numpy_atom_mass(mu):
    """The atoms' total mass by np.sum, which sums pairwise."""
    return float(np.sum(mu.atoms[:, 1])) if mu.atoms.size else 0.0


def ref_band_correlation(mu, rho):
    """The band correlation of mu by a piece-by-piece scan."""
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
    """max over x > 0 of v-hat(x) - v-hat'(x), the odd rearrangements'
    values; order_leq holds iff it is <= tol."""
    a = odd_rearrangement(MonotoneProfile(0.0, mu))
    b = odd_rearrangement(MonotoneProfile(0.0, mu_prime))
    pts = sorted({0.0} | {float(x) for x in a.measure.density_xs if x > 0}
                 | {float(x) for x in b.measure.density_xs if x > 0})
    pts.append(pts[-1] + 1.0)
    return max((a.v_left + a.measure.mass_on(-np.inf, x))
               - (b.v_left + b.measure.mass_on(-np.inf, x)) for x in pts)


def ref_dx_measure(profile):
    """D_x of an odd profile as the overlap sum of its sloped pieces."""
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


def replayed_profile(mu0_plus, cs, t):
    """The profile of cs, the comparison solution from mu0_plus, at a
    finite time t >= 0 (ValueError otherwise): every impulse at or before
    t + the history's slack replayed from t = 0, the kinks moved at their
    speeds w (not back, for a t within the slack before an impulse), and
    the result checked by OddProfile."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"no profile at t = {t}")
    kinks = _odd_kinks(mu0_plus)
    t_last = 0.0
    for t_imp, d in cs.impulses:
        if t_imp > t + _HISTORY_SLACK:
            break
        dt = t_imp - t_last
        kinks = [(x + dt * w, w) for x, w in kinks]
        jump = cs.kappa * d
        kinks = [(0.0, 0.0), (0.0, jump)] + [(x, w + jump) for x, w in kinks[1:]]
        t_last = t_imp
    dt = max(t - t_last, 0.0)
    kinks = [(x + dt * w, w) for x, w in kinks]
    return OddProfile(kinks)


def per_node_band_integral(profile_fn, t0, t1, rho, nodes=33):
    """The Simpson integral of time_integrated_band_correlation with a
    WaveMeasure per node (dx_measure), padded into arrays measure by
    measure."""
    nodes = nodes if nodes % 2 == 1 else nodes + 1
    ts = np.linspace(t0, t1, nodes)
    vals = _padded_band_correlations([profile_fn(t).dx_measure() for t in ts], rho)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (t1 - t0) / (nodes - 1)
    return float(h / 3.0 * weights @ vals)


def _padded_band_correlations(mus, rho):
    """The band correlation of each measure of mus, padded to the batch's
    knot and atom counts from the measures' own arrays (see
    measures._band_kernel for the method)."""
    xs_l = [mu.density_xs if mu.density_xs.size else np.zeros(1) for mu in mus]
    n, n_atoms = np.array([(xs.size, mu.atoms.shape[0]) for xs, mu in zip(xs_l, mus)]).T
    B, K = n.size, n.max()
    rows = np.arange(B)[:, None]
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
    br = np.concatenate([xs, xs - rho, xs + rho], axis=1)
    order = br.argsort(axis=1, kind="stable")
    br = br[rows, order]
    d = steps[rows, (order < K).cumsum(axis=1)[:, :-1]]
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


def ref_pair_interaction_integral(run, delta):
    """The pair interaction integral as a loop over each strip's fronts."""
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


def comparison_hopf_lax(kinks, t, x):
    """The Burgers solution at (t, x) from the odd piecewise-linear profile
    with these kinks (on x >= 0), by Hopf-Lax: a ternary search of 200
    rounds for the minimiser of W0(y) + (x - y)^2 / (2t), W0 the profile's
    integral from 0 to |y|."""
    def W0(y):
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

    lo, hi = x - t * 1.5 - 1.0, x + t * 1.5 + 1.0
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if W0(m1) + (x - m1) ** 2 / (2 * t) <= W0(m2) + (x - m2) ** 2 / (2 * t):
            hi = m2
        else:
            lo = m1
    return (x - 0.5 * (lo + hi)) / t


# ---------------------------------------------------------------------------
# fast path: (oracle, tolerance, the tests that compare the two)
ORACLES = {
    "SystemModel.grad_lambda_fn": ("system.grad_lambda_fd", "grad lambda_i . r_i = 1 to 1e-5",
                                   "test_system::test_p_system_frame_at_reference_state",
                                   "test_system::test_eigen_normalization_and_duality_on_samples"),
    "SystemModel.lambda_fn": ("system.wave_speeds", "1e-12 relative and absolute",
                              "test_system::test_eigvals_fallback_matches_closed_form",
                              "test_system::test_lambda_fn_matches_eigen_frame",
                              "test_riemann::test_lax_curve_p_system_strength_parametrization"),
    "SystemModel.wave_curve": ("riemann.lax_curve", "1e-9",
                               "test_riemann::test_p_system_wave_curve_agrees_with_generic_path"),
    "SystemModel.riemann_fn": ("riemann._damped_newton", "1e-13 times the data scale",
                               "test_riemann::test_riemann_fn_agrees_with_newton"),
    "SystemModel.viscous_fn": ("viscous.solve_viscous", "first order in dx",
                               "test_burgers::test_grid_converges_to_cole_hopf_at_first_order_in_dx"),
    "SystemModel.profile_fn": ("viscous.shock_profile", "1e-8 |sigma|^(k+1) on jet entry k",
                               "test_burgers::test_tanh_jet_matches_shooting_jet"),
    "SystemModel.entropy_fn": (
        "front_tracking.run_until", "first order in the rarefaction cap",
        "test_harness::test_front_tracking_converges_to_hopf_lax_at_first_order_in_the_cap"),
    "burgers.cole_hopf piece windows": (
        cole_hopf_unwindowed, "1e-14 relative, 1e-16 absolute",
        "test_burgers::test_windowed_closed_forms_match_the_sums_over_every_piece",
        "test_burgers::test_windowed_closed_forms_match_on_random_data"),
    "burgers.hopf_lax piece windows": (
        hopf_lax_unwindowed, "bit for bit",
        "test_burgers::test_windowed_closed_forms_match_the_sums_over_every_piece",
        "test_burgers::test_windowed_closed_forms_match_on_random_data"),
    "burgers.settled_pieces": (
        cole_hopf_unwindowed, "the far-field bound plus 2 ulps",
        "test_burgers::test_settled_points_are_within_the_far_field_bound"),
    "harness._row_distances point windows": (
        row_distances_unwindowed, "l1_error bit for bit, the others 1e-14 relative",
        "test_harness::test_point_windows_match_the_unwindowed_distances"),
    "harness.converge_row one cut: l1_error": (
        grid_distance_own_cut, "bit for bit on the p-system, 1e-15 relative on Burgers",
        "test_harness::test_one_cut_matches_the_two_separate_quadratures"),
    "harness.converge_row one cut: l1_exact, ft_error": (
        entropy_distances_own_cut, "1e-14 relative plus 1e-15 per unit length",
        "test_harness::test_one_cut_matches_the_two_separate_quadratures"),
    "viscous.solve_viscous window and buffers": (
        rusanov_solve, "1e-12 to the whole grid, bit for bit to the window",
        "test_viscous::test_windowed_solve_matches_full_grid",
        "test_viscous::test_windowed_solve_matches_full_grid_on_random_data"),
    "viscous.shock_profile shooting": (ode_residual, "1e-8",
                                       "test_viscous::test_burgers_profile_matches_tanh",
                                       "test_viscous::test_p_system_profiles_both_families"),
    "hybrid.Mollifier.jet": (kernel_cdf_clipped, "bit for bit",
                             "test_hybrid::test_mollifier_cdf_matches_clipped_polynomial"),
    "hybrid._squeeze_jet": (squeeze_jet_masked, "bit for bit",
                            "test_hybrid::test_squeeze_jet_matches_separate_formulas"),
    "hybrid.HybridStrip.jet front-local sums": (
        dense_jet, "1e-14 of each part's largest magnitude (of v, 1e-14 absolute without "
        "tracks); the budget 1e-14 relative",
        "test_hybrid::test_hybrid_jet_matches_term_by_term_composition",
        "test_hybrid::test_hybrid_reduces_to_mollification_without_tracks",
        "test_hybrid::test_budget_matches_the_dense_sums",
        "test_hybrid::test_front_local_sums_match_the_dense_sums"),
    "hybrid.residual": (halved_residual, "2% relative",
                        "test_hybrid::test_residual_agrees_with_halved_cells"),
    "hybrid._cells": (strip_grid_before, "bit for bit",
                      "test_hybrid::test_residual_cells_match_the_strip_grid_bit_for_bit"),
    "hybrid.jump_sum window": (
        span_jump, "1e-4 relative per event, 2e-5 on the total; 1e-14 outside the window",
        "test_hybrid::test_jump_sum_window_matches_the_span_of_every_track",
        "test_hybrid::test_hybrid_jumps_only_within_two_delta_of_the_event"),
    "hybrid.select_big_shocks, classify_event, functionals.big_shock_fronts": (
        ref_select, "exact; positions 1e-13",
        "test_hybrid::test_index_lookups_match_time_and_side_reference"),
    "front_tracking.run_until finite speed": (l1_distance, "2 vmax TV(u0) per unit time",
                                              "test_front_tracking::test_finite_speed_l1_bound"),
    "front_tracking.glimm_functionals O(n) pass": (
        glimm_double_loop, "V bit for bit, Q within 2n ulps",
        "test_functionals::test_glimm_functionals_match_the_double_loop",
        "test_functionals::test_glimm_history_matches_the_double_loop"),
    "functionals.weighted_potentials family-grouped pass": (
        ordered_pairs, "1e-14 relative, sharp_pair_sum bit for bit",
        "test_functionals::test_q_flat_matches_ordered_pairs",
        "test_functionals::test_pair_sums_match_ordered_pairs",
        "test_functionals::test_corpus_q_flat_matches_ordered_pairs",
        "test_functionals::test_corpus_pair_sums_match_ordered_pairs"),
    "functionals.w_flat": (w_flat_two_branches, "bit for bit",
                           "test_functionals::test_one_sided_walks_match_two_walks"),
    "functionals.weighted_potentials one-sided walks": (
        two_walks, "bit for bit", "test_functionals::test_one_sided_walks_match_two_walks"),
    "functionals.audit_events": (audit_snapshot, "bit for bit",
                                 "test_functionals::test_audit_matches_recomputed_functionals"),
    "measures._odd_kinks: odd_rearrangement and the comparison solution's start": (
        sup_mass, "1e-12", "test_measures::test_rearrangement_sup_identity_random"),
    "measures.WaveMeasure.mass_on": (
        ref_mass_on, "1e-12 of the total mass",
        "test_measures::test_cumulative_evaluator_matches_piece_scan"),
    "measures.WaveMeasure.mass_on on Python floats": (
        numpy_mass_on, "bit for bit; a NaN end gives NaN",
        "test_measures::test_float_view_matches_numpy_evaluation"),
    "measures.WaveMeasure.atom_mass": (
        numpy_atom_mass, "bit for bit", "test_measures::test_float_view_matches_numpy_evaluation"),
    "measures.band_correlation batched kernel": (
        ref_band_correlation, "1e-12 relative",
        "test_measures::test_cumulative_evaluator_matches_piece_scan",
        "test_measures::test_band_kernel_batch_matches_piece_scan",
        "test_measures::test_band_kernel_batch_examples"),
    "measures.order_leq": (
        ref_order_margin, "the same outcome (the oracle reads odd_rearrangement's measures)",
        "test_measures::test_cumulative_evaluator_matches_piece_scan"),
    "measures.OddProfile.dx_measure": (
        ref_dx_measure, "bit for bit",
        "test_measures::test_dx_measure_matches_overlap_sum_on_criteria_5_6"),
    "measures.ComparisonSolution.profile_at kinks after each impulse": (
        replayed_profile, "bit for bit, the same NotMonotone",
        "test_measures::test_comparison_kinks_and_integrals_match_the_replay",
        "test_measures::test_dx_measure_matches_overlap_sum_on_criteria_5_6"),
    "measures.time_integrated_band_correlation kinks to arrays": (
        per_node_band_integral, "bit for bit",
        "test_measures::test_comparison_kinks_and_integrals_match_the_replay",
        "test_measures::test_dx_measure_matches_overlap_sum_on_criteria_5_6"),
    "measures.pair_interaction_integral": (
        ref_pair_interaction_integral, "1e-12 relative",
        "test_measures::test_pair_interaction_integral_matches_per_front_loop"),
    "measures.burgers_comparison": (comparison_hopf_lax, "1e-6",
                                    "test_measures::test_comparison_against_hopf_lax_oracle"),
}
