"""Hybrid approximation: mollified front tracking plus inserted shock layers.

v(t) is the far-left state, plus the mollified steps of the untracked fronts,
plus at each big shock its squeezed profile step: the rescaled travelling
profile, composed with the squeeze map that compresses the line onto
|x - x_alpha| < sqrt(eps), minus the shock's left state (0 to the left of
that window, the shock's jump to its right).  By linearity of convolution
this is u(t) * phi_delta + sum over big shocks of (profile insertion minus
mollified step): a tracked front's mollified step cancels the one subtracted.
All x- and t-derivatives are closed forms (the only time dependence inside a
strip is the linear motion of fronts), so the residual integrand
|v_t + A(v) v_x - eps v_xx| is evaluated without numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverlappingTracks
from .front_tracking import config_index, sample_profile
from .piecewise import gauss_l1, gauss_points
from .viscous import shock_profile

KERNEL_C = 76545.0 / 4096.0   # unit mass for (4/9 - s^2)^3 on |s| <= 2/3
KERNEL_SUPPORT = 2.0 / 3.0


class Mollifier:
    """Polynomial bump phi(s) = c (4/9 - s^2)^3 on |s| <= 2/3, rescaled by
    phi_delta(s) = phi(s/delta)/delta.  Even, unit mass, s phi'(s) <= 0."""

    def __init__(self, delta):
        assert delta > 0
        self.delta = float(delta)

    def jet(self, s):
        """(Phi, phi_delta, phi_delta') at s, where Phi(s) is the integral of
        phi_delta up to s (0 at -inf, 1 at +inf).

        Phi's polynomial is evaluated on the support only; beyond it Phi
        takes the values the polynomial has at the edges t = -+2/3."""
        t = np.asarray(s, dtype=float) / self.delta
        inside = np.abs(t) < KERNEL_SUPPORT
        tt = np.where(inside, t, 0.0)   # no squaring of far (or infinite) t
        q = np.where(inside, 4.0 / 9.0 - tt * tt, 0.0)
        cdf = np.where(t > 0, _CDF_EDGES[1], _CDF_EDGES[0])
        cdf[inside] = _kernel_cdf(t[inside])
        phi = KERNEL_C * q ** 3 / self.delta
        dphi = KERNEL_C * 3.0 * q ** 2 * (-2.0 * tt) / self.delta ** 2
        return cdf, phi, dphi


def _kernel_cdf(t):
    """KERNEL_C (P(t) + P(2/3)) for t in [-2/3, 2/3], P the antiderivative
    of (4/9 - t^2)^3 with P(0) = 0."""
    a = KERNEL_SUPPORT
    P = (64.0 / 729.0) * t - (16.0 / 81.0) * t ** 3 + (12.0 / 45.0) * t ** 5 - t ** 7 / 7.0
    Pa = (64.0 / 729.0) * a - (16.0 / 81.0) * a ** 3 + (12.0 / 45.0) * a ** 5 - a ** 7 / 7.0
    return KERNEL_C * (P + Pa)


# the edge values from the same array expression, so that points at or
# beyond the edges get the bits the polynomial gives there
_CDF_EDGES = _kernel_cdf(np.array([-KERNEL_SUPPORT, KERNEL_SUPPORT]))


def mollify(u, delta):
    """Mollified evaluator for a PiecewiseConstant u (exact convolution)."""
    mol = Mollifier(delta)
    xs = np.asarray(u.xs, dtype=float)
    jumps = u.jumps()
    u0 = u.values[0]

    def value(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.tile(u0, (x.size, 1)) + mol.jet(x[:, None] - xs[None, :])[0] @ jumps

    return value


def mollification_l1_error(u, delta):
    """Integral of |u * phi_delta - u|: 6-point Gauss on 8 equal
    sub-intervals of each gap between kernel edges."""
    xs = u.xs
    if xs.size == 0:
        return 0.0
    edges = np.unique(np.concatenate([
        xs, xs - KERNEL_SUPPORT * delta, xs + KERNEL_SUPPORT * delta]))
    sub = edges[:-1, None] + np.diff(edges)[:, None] * (np.arange(8) / 8.0)
    cut = np.append(sub.ravel(), edges[-1])
    pts = gauss_points(cut)
    return gauss_l1(cut, mollify(u, delta)(pts), u(pts))


def oscillation_weighted_tv(u, delta):
    """Sum over jumps of Osc{u; [x_j - delta, x_j + delta]} |jump_j|."""
    total = 0.0
    for x, du in zip(u.xs, u.jumps()):
        total += u.oscillation(x - delta, x + delta) * float(np.linalg.norm(du))
    return total


# ---------------------------------------------------------------------------
# squeeze map (C^1 compression of the line onto |xi| < sqrt(eps))

def _squeeze_jet(x, epsilon):
    """The squeeze map and its first two derivatives at |x| < sqrt(eps):
    the identity on |x| <= sqrt(eps)/2, +-eps / (4 (sqrt(eps) -+ x)) beyond."""
    r = np.sqrt(epsilon)
    x = np.atleast_1d(x)
    p, p1, p2 = x.copy(), np.ones_like(x), np.zeros_like(x)
    hi = x > 0.5 * r
    lo = x < -0.5 * r
    dh = r - x[hi]
    dl = r + x[lo]
    p[hi] = epsilon / (4.0 * dh)
    p[lo] = -epsilon / (4.0 * dl)
    p1[hi] = epsilon / (4.0 * dh ** 2)
    p1[lo] = epsilon / (4.0 * dl ** 2)
    p2[hi] = epsilon / (2.0 * dh ** 3)
    p2[lo] = -epsilon / (2.0 * dl ** 3)
    return p, p1, p2


# ---------------------------------------------------------------------------
# big-shock selection

@dataclass
class BigShockTrack:
    """A big shock, one front per configuration of its run.

    Configurations are indexed as in FTRun: configs[0] holds the fronts at
    t = 0 and configs[k] the fronts just after event k - 1, so event k sees
    configs[k] before it and configs[k + 1] after it.  fronts[j] is the
    track's Front in configs[first + j]; the track lives from t_minus, the
    time of event first - 1 (or t = 0), to the event that ends it (or tau).
    A track is known by its index in select_big_shocks' list.
    """
    family: int
    t_minus: float
    first: int
    fronts: list

    def front(self, k):
        """The track's front in configs[k], or None outside its range."""
        j = k - self.first
        return self.fronts[j] if 0 <= j < len(self.fronts) else None


def _shock_chains(run):
    """Lineage chains of shock fronts: lists of (config_index, front,
    parents), where parents holds the strengths of the same-family shocks
    that merged into the front (empty for a new shock)."""
    chains = []
    owner = {}         # front -> chain index
    for f in run.configs[0].fronts:
        if f.kind == "shock":
            owner[f] = len(chains)
            chains.append([(0, f, [])])
    for k, ev in enumerate(run.events):
        incoming = [f for f in ev.incoming if f.kind == "shock"]
        outgoing = [f for f in ev.outgoing if f.kind == "shock"]
        by_family_in = {}
        for f in incoming:
            by_family_in.setdefault(f.family, []).append(f)
        for g in outgoing:
            parents = by_family_in.pop(g.family, [])
            if parents:
                main = max(parents, key=lambda f: abs(f.strength))
                ci = owner.pop(main)
                chains[ci].append((k + 1, g, [abs(f.strength) for f in parents]))
                owner[g] = ci
                for other in parents:
                    owner.pop(other, None)
            else:
                owner[g] = len(chains)
                chains.append([(k + 1, g, [])])
        for fam, parents in by_family_in.items():
            for f in parents:
                owner.pop(f, None)
    return chains


def select_big_shocks(run, rho):
    """Tracks of shocks that reach strength rho and stay above rho/2.

    A track opens when the chain's strength first reaches rho/2 provided it
    later attains rho within the same stretch, follows merges through the
    strongest same-family parent, and closes when the strength drops below
    rho/2 (or the chain ends).  A merge of two shocks that are each already
    above rho/2 but below rho starts the track at the merge itself: the
    parents alone never qualify as large.
    """
    t_edges = run.t_edges
    # a front lives through configs[start:end], where end is one past the
    # event that consumes it, or len(run.configs) if none does
    end = {f: ev.index + 1 for ev in run.events for f in ev.incoming}
    tracks = []
    for chain in _shock_chains(run):
        # one link per chain front: its first configuration, the front once
        # for each configuration it lives through, and whether it began at a
        # merge of two shocks that were each >= rho/2
        links = []
        for start, f, parents in chain:
            links.append((start, [f] * (end.get(f, len(run.configs)) - start),
                          sum(1 for p in parents if p >= rho / 2.0) >= 2))

        def sigma(m):
            return abs(links[m][1][0].strength)

        # stretches with |sigma| >= rho/2 that attain rho
        j = 0
        while j < len(links):
            if sigma(j) < rho / 2.0:
                j += 1
                continue
            k = j
            while k + 1 < len(links) and sigma(k + 1) >= rho / 2.0:
                k += 1
            first_rho = next((m for m in range(j, k + 1) if sigma(m) >= rho), None)
            if first_rho is not None:
                # the qualification must not ride on swallowing another
                # would-be-large shock before rho was ever attained
                open_idx = max((m for m in range(j, first_rho + 1) if links[m][2]), default=j)
                first = links[open_idx][0]
                fronts = [f for link in links[open_idx : k + 1] for f in link[1]]
                tracks.append(BigShockTrack(family=fronts[0].family,
                                            t_minus=t_edges[first], first=first,
                                            fronts=fronts))
            j = k + 1
    tracks.sort(key=lambda tr: (tr.first, tr.fronts[0].x(tr.t_minus)))
    return tracks


# ---------------------------------------------------------------------------
# hybrid approximation per strip

class HybridStrip:
    """The approximation v on one strip [t0, t1) between interaction times.

    tracks holds one (track index, front, profile) per big shock alive in
    the strip's configuration."""

    def __init__(self, model, config, t0, t1, tracks, epsilon, delta):
        self.model = model
        self.t0, self.t1 = t0, t1
        self.epsilon = epsilon
        self.delta = delta
        self.mol = Mollifier(delta)
        self.u_left = config.left_state
        self.x0s = np.array([f.x0 for f in config.fronts])
        self.t0s = np.array([f.t0 for f in config.fronts])
        self.speeds = np.array([f.speed for f in config.fronts])
        self.tracks = tracks
        # a tracked front's step comes with its insertion, so the mollified
        # sum runs over the untracked fronts only
        tracked = {front for _, front, _ in tracks}
        self.free = np.array([f not in tracked for f in config.fronts], dtype=bool)
        self.jumps = config.profile().jumps()[self.free]

    def front_positions(self, t):
        """Front.x of every front at time t, elementwise."""
        return self.x0s + (t - self.t0s) * self.speeds

    def _mollified(self, t, x):
        """u(t) * phi_delta over the free fronts, with its derivatives.

        A point sums the kernels of the free fronts within the kernel's
        reach of it, found by searchsorted on their ordered positions (ties
        allowed), plus the cumulative jump of the fronts wholly to its left
        times Phi beyond the support (the polynomial's edge value, as in
        Mollifier.jet); the reach is padded by 1e-12 relative, so that every
        front left out is beyond the support in floating point too."""
        n = self.u_left.size
        xs = self.front_positions(t)[self.free]
        order = np.argsort(xs, kind="stable")
        xs, jumps = xs[order], self.jumps[order]
        speeds = self.speeds[self.free][order]
        reach = KERNEL_SUPPORT * self.delta * (1.0 + 1e-12)
        lo = np.searchsorted(xs, x - reach, side="left")
        count = np.searchsorted(xs, x + reach, side="right") - lo
        # (point, front) pairs within reach, point by point
        point = np.repeat(np.arange(x.size), count)
        front = np.arange(point.size) + np.repeat(lo - (np.cumsum(count) - count), count)
        cdf, phi, dphi = self.mol.jet(x[point] - xs[front])

        def summed(w):
            """sum over each point's pairs of w times the front's jump"""
            # (bincount gives integer zeros when there are no pairs)
            return np.stack([np.bincount(point, w * jumps[front, c], minlength=x.size)
                             for c in range(n)], axis=1, dtype=float)

        left = _CDF_EDGES[1] * np.concatenate([np.zeros((1, n)), np.cumsum(jumps, axis=0)])[lo]
        v = self.u_left + left + summed(cdf)
        return v, summed(phi), summed(dphi), summed(-phi * speeds[front])

    def _insert(self, front, profile, t, x, jet):
        """Add to jet = (v, vx, vxx, vt) the squeezed profile step
        omega-tilde minus the front's left state, with derivatives: the
        rescaled profile composed with the squeeze map inside
        |xi| < sqrt(eps), 0 to the left and the front's jump to the right.
        Its only time dependence is the front's motion.  x is increasing,
        so the window and the right of it are slices."""
        v, vx, vxx, vt = jet
        eps = self.epsilon
        xi = x - front.x(t)
        r = np.sqrt(eps) * (1.0 - 1e-12)
        i0 = np.searchsorted(xi, -r, side="right")     # the first xi > -r
        i1 = np.searchsorted(xi, r)                     # the first xi >= r
        v[i1:] += front.right_state - front.left_state
        if i1 > i0:
            p, p1, p2 = _squeeze_jet(xi[i0:i1], eps)
            w, w1, w2 = profile.jet(p / eps)
            dvx = w1 * (p1 / eps)[:, None]
            v[i0:i1] += w - front.left_state
            vx[i0:i1] += dvx
            vxx[i0:i1] += w2 * (p1 ** 2 / eps ** 2)[:, None] + w1 * (p2 / eps)[:, None]
            vt[i0:i1] += -front.speed * dvx

    def jet(self, t, x):
        """(v, vx, vxx, vt) at (t, x); x is an increasing 1-D array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x[1:] < x[:-1]):
            raise ValueError("the hybrid is evaluated at increasing points")
        jet = self._mollified(t, x)
        for _, front, profile in self.tracks:
            self._insert(front, profile, t, x, jet)
        return jet

    def value(self, t, x):
        return self.jet(t, x)[0]

    def residual_pointwise(self, t, x):
        v, vx, vxx, vt = self.jet(t, x)
        Av_x = (self.model.jacobian(v) @ vx[..., None])[..., 0]
        return np.linalg.norm(vt + Av_x - self.epsilon * vxx, axis=1)


class HybridApprox:
    """All strips of the construction over [0, tau], with the run and the
    big-shock tracks they were built from; strips[k] belongs to the run's
    configs[k]."""

    def __init__(self, strips, run, tracks, epsilon, delta):
        self.strips = strips
        self.run = run
        self.tracks = tracks
        self.epsilon = epsilon
        self.delta = delta

    def strip_at(self, t):
        return self.strips[config_index(self.run.times, self.run.tau, t)]

    def value(self, t, x):
        return self.strip_at(t).value(t, np.atleast_1d(x))


def build_hybrid(run, tracks, epsilon):
    """Assemble the per-strip hybrid approximation of a front-tracking run,
    mollified at width sqrt(eps).  Tracks of different families that come
    within 2 sqrt(eps) of each other in a strip raise OverlappingTracks,
    before any profile is shot."""
    delta = np.sqrt(epsilon)
    t_edges = run.t_edges
    live = []          # per strip: (track index, front) of each live track
    for k in range(len(run.configs)):
        t0, t1 = t_edges[k], t_edges[k + 1]
        fronts = [(index, f) for index, f in enumerate(tr.front(k) for tr in tracks)
                  if f is not None]
        for i, (ia, a) in enumerate(fronts):
            for ib, b in fronts[i + 1 :]:
                gap0 = abs(a.x(t0) - b.x(t0))
                gap1 = abs(a.x(t1) - b.x(t1))
                if min(gap0, gap1) < 2 * delta and a.family != b.family:
                    raise OverlappingTracks(
                        f"tracks {ia}, {ib} of different families overlap"
                    )
        live.append(fronts)
    profiles = {}      # track front -> its shock profile, shot once
    strips = []
    for k, (cfg, fronts) in enumerate(zip(run.configs, live)):
        slices = []
        for index, f in fronts:
            if f not in profiles:
                profiles[f] = shock_profile(run.model, f.left_state, f.right_state)
            slices.append((index, f, profiles[f]))
        strips.append(HybridStrip(run.model, cfg, t_edges[k], t_edges[k + 1], slices,
                                  epsilon, delta))
    return HybridApprox(strips, run, tracks, epsilon, delta)


# ---------------------------------------------------------------------------
# the error budget: residual, endpoint distances and jump sum

def _cells(strip, t, dx_far, near, extra=()):
    """Cell edges at time t over the fronts padded by delta: dx_far apart,
    eps/8 apart within near of each track, and the extra breakpoints; None
    when the strip has no fronts."""
    xs = strip.front_positions(t)
    if xs.size == 0:
        return None
    lo, hi = xs.min() - strip.delta, xs.max() + strip.delta
    dx_near = strip.epsilon / 8.0
    edges = [np.arange(lo, hi + dx_far, dx_far), np.asarray(extra, dtype=float)]
    for _, front, _ in strip.tracks:
        xa = front.x(t)
        edges.append(np.arange(xa - near, xa + near + dx_near, dx_near))
    e = np.unique(np.concatenate(edges))
    return e[(e >= lo) & (e <= hi)]


def residual(hyb):
    """Space-time integral of |v_t + A(v)v_x - eps v_xx| plus per-track parts.

    Returns a dict with the strip-summed total, the per-track window
    integrals E_alpha (window |x - x_alpha| <= sqrt(eps)), and the far-field
    remainder.  Each strip is sampled at max(2, ceil(L / (sqrt(eps)/6)))
    midpoint times, each by the midpoint rule on cells delta/6 wide, eps/8
    within 1.1 sqrt(eps) of each track.
    """
    r_eps = np.sqrt(hyb.epsilon)
    total = 0.0
    per_track = {}
    far = 0.0
    for st in hyb.strips:
        L = st.t1 - st.t0
        nt = max(2, int(np.ceil(L / (r_eps / 6.0))))
        tmids = st.t0 + (np.arange(nt) + 0.5) * (L / nt)
        wt = L / nt
        for t in tmids:
            e = _cells(st, t, hyb.delta / 6.0, 1.1 * r_eps)
            if e is None:
                continue
            mid = 0.5 * (e[:-1] + e[1:])
            h = np.diff(e)
            r = st.residual_pointwise(t, mid)
            total += wt * float(r @ h)
            near_any = np.zeros(mid.size, dtype=bool)
            for tid, front, _ in st.tracks:
                near = np.abs(mid - front.x(t)) <= r_eps
                near_any |= near
                per_track[tid] = per_track.get(tid, 0.0) + wt * float(r[near] @ h[near])
            far += wt * float(r[~near_any] @ h[~near_any])
    return {"total": total, "per_track": per_track, "far_field": far}


def hybrid_vs_profile_l1(hyb, t):
    """L1 distance between the hybrid v(t) and the front-tracking u(t) of
    its run, by the midpoint rule on cells delta/40 wide, eps/8 within
    1.2 sqrt(eps) of each track, cut at u(t)'s breakpoints."""
    st = hyb.strip_at(t)
    prof = sample_profile(hyb.run, t)
    e = _cells(st, t, hyb.delta / 40.0, 1.2 * np.sqrt(hyb.epsilon), prof.xs)
    if e is None:
        return 0.0
    mid = 0.5 * (e[:-1] + e[1:])
    dv = st.value(t, mid) - prof(mid)
    return float(np.sum(np.linalg.norm(dv, axis=1) * np.diff(e)))


_CASE_ORDER = ["merge", "creation", "termination", "transversal", "absorption", "small"]


def classify_event(ev, tracks):
    """Section-3 cases: creation, termination, transversal crossing,
    same-family absorption, big-big merge; 'small' when no track is touched.

    Tracks are read in the configurations before (ev.index) and after
    (ev.index + 1) the event."""
    k = ev.index
    in_tracks = [tr for tr in tracks if tr.front(k) in ev.incoming]
    born = [tr for tr in tracks if tr.first == k + 1]
    died = [tr for tr in tracks if tr.front(k) is not None and tr.front(k + 1) is None]
    flags = set()
    fams = [tr.family for tr in in_tracks]
    if len(in_tracks) >= 2 and len(set(fams)) < len(fams):
        flags.add("merge")
    if born:
        flags.add("creation")
    if died and not flags & {"merge"}:
        flags.add("termination")
    if in_tracks:
        track_fronts = {tr.front(k) for tr in in_tracks}
        others = [f for f in ev.incoming if f not in track_fronts]
        if any(f.physical and f.family != in_tracks[0].family for f in others):
            flags.add("transversal")
        if any(f.physical and f.family == in_tracks[0].family for f in others):
            flags.add("absorption")
    if not flags:
        flags.add("small")
    return next(c for c in _CASE_ORDER if c in flags), flags


def jump_sum(hyb):
    """Sum over interaction times of the L1 jump of the hybrid hyb, with
    per-case totals.  Each event's jump is integrated over
    [ev.x - 2 delta, ev.x + 2 delta] on a grid of step min(eps/8, delta/40).

    That window holds the whole jump: both strips share every other Front
    and its profile, and a track opens or closes only at a front that meets
    the event.  So beyond the kernel's 2 delta/3 and the insertion's
    sqrt(eps) = delta of ev.x, the two v differ by rounding only."""
    delta = hyb.delta
    dx = min(hyb.epsilon / 8.0, delta / 40.0)
    per_case = {c: 0.0 for c in _CASE_ORDER}
    per_event = []
    total = 0.0
    for ev in hyb.run.events:
        k = ev.index
        before, after = hyb.strips[k], hyb.strips[k + 1]
        lo, hi = ev.x - 2.0 * delta, ev.x + 2.0 * delta
        grid = np.append(np.arange(lo, hi, dx), hi)
        mid = 0.5 * (grid[:-1] + grid[1:])
        dv = after.value(ev.time, mid) - before.value(ev.time, mid)
        contrib = float(np.sum(np.linalg.norm(dv, axis=1) * np.diff(grid)))
        case, flags = classify_event(ev, hyb.tracks)
        per_case[case] += contrib
        per_event.append({"t": ev.time, "x": ev.x, "case": case,
                          "flags": sorted(flags), "l1": contrib})
        total += contrib
    return {"total": total, "per_case": per_case, "events": per_event}
