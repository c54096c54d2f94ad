"""Hybrid approximation: mollified front tracking plus inserted shock layers.

v(t) = u(t) * phi_delta + sum over big shocks of (profile insertion minus
mollified step).  The correction is supported on J_alpha = (x_alpha - delta,
x_alpha + delta); inside, the rescaled travelling profile is composed with
the squeeze map that compresses the line onto a width-2 sqrt(eps) window.
All x- and t-derivatives are closed forms (the only time dependence inside a
strip is the linear motion of fronts), so the residual integrand
|v_t + A(v) v_x - eps v_xx| is evaluated without numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OverlappingTracks, ResolutionTooCoarse
from .front_tracking import config_index
from .viscous import shock_profile

KERNEL_C = 76545.0 / 4096.0   # unit mass for (4/9 - s^2)^3 on |s| <= 2/3
KERNEL_SUPPORT = 2.0 / 3.0


class Mollifier:
    """Polynomial bump phi(s) = c (4/9 - s^2)^3 on |s| <= 2/3, rescaled by
    phi_delta(s) = phi(s/delta)/delta.  Even, unit mass, s phi'(s) <= 0."""

    def __init__(self, delta):
        assert delta > 0
        self.delta = float(delta)

    def phi(self, s):
        t = np.asarray(s, dtype=float) / self.delta
        inside = np.abs(t) < KERNEL_SUPPORT
        q = np.where(inside, 4.0 / 9.0 - t * t, 0.0)
        return KERNEL_C * q ** 3 / self.delta

    def dphi(self, s):
        t = np.asarray(s, dtype=float) / self.delta
        inside = np.abs(t) < KERNEL_SUPPORT
        q = np.where(inside, 4.0 / 9.0 - t * t, 0.0)
        return KERNEL_C * 3.0 * q ** 2 * (-2.0 * t) / self.delta ** 2

    def cdf(self, s):
        """Phi(s) = integral of phi_delta up to s (0 at -inf, 1 at +inf).

        The polynomial is evaluated on the support only; beyond it Phi takes
        the values the polynomial has at the edges t = -+2/3."""
        t = np.asarray(s, dtype=float) / self.delta
        inside = np.abs(t) < KERNEL_SUPPORT
        out = np.where(t > 0, _CDF_EDGES[1], _CDF_EDGES[0])
        out[inside] = _kernel_cdf(t[inside])
        return out


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
    jumps = u.jumps() if xs.size else np.zeros((0, u.n))
    u0 = u.values[0]

    def value(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.tile(u0, (x.size, 1))
        if xs.size:
            out = out + mol.cdf(x[:, None] - xs[None, :]) @ jumps
        return out

    return value


def mollification_l1_error(u, delta):
    """Integral of |u * phi_delta - u|: 10-point Gauss on 8 sub-intervals of
    each gap between kernel edges."""
    mol = Mollifier(delta)
    xs = np.asarray(u.xs, dtype=float)
    if xs.size == 0:
        return 0.0
    jumps = u.jumps()
    edges = np.unique(np.concatenate([
        xs, xs - KERNEL_SUPPORT * delta, xs + KERNEL_SUPPORT * delta]))
    gx, gw = np.polynomial.legendre.leggauss(10)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, 9)
        for s0, s1 in zip(sub[:-1], sub[1:]):
            h = 0.5 * (s1 - s0)
            pts = 0.5 * (s0 + s1) + h * gx
            diff = mol.cdf(pts[:, None] - xs[None, :]) @ jumps - (u(pts) - u.values[0])
            total += h * float(gw @ np.linalg.norm(diff, axis=1))
    return total


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
    track's Front in configs[first + j]; the track lives on
    [t_minus, t_plus), from event first - 1 (or t = 0) to the event that
    ends it (or tau).
    """
    id: int
    family: int
    t_minus: float
    t_plus: float
    first: int
    fronts: list

    def front(self, k):
        """The track's front in configs[k], or None outside its range."""
        j = k - self.first
        return self.fronts[j] if 0 <= j < len(self.fronts) else None


def _shock_chains(run):
    """Lineage chains of shock fronts: lists of (config_index, uid, merged)
    where merged marks links created by a same-family shock-shock merge."""
    chains = []
    owner = {}         # uid -> chain index
    for f in run.configs[0].fronts:
        if f.kind == "shock":
            owner[f.uid] = len(chains)
            chains.append([(0, f.uid, [])])
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
                ci = owner.pop(main.uid)
                chains[ci].append((k + 1, g.uid, [abs(f.strength) for f in parents]))
                owner[g.uid] = ci
                for other in parents:
                    owner.pop(other.uid, None)
            else:
                owner[g.uid] = len(chains)
                chains.append([(k + 1, g.uid, [])])
        for fam, parents in by_family_in.items():
            for f in parents:
                owner.pop(f.uid, None)
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
    uid_lookup = [{f.uid: f for f in cfg.fronts} for cfg in run.configs]
    tracks = []
    for chain in _shock_chains(run):
        # one link per chain front: its first configuration, its Front in
        # each configuration it persists through, and whether it began at a
        # merge of two shocks that were each >= rho/2
        links = []
        for start, uid, parents in chain:
            end = start
            while end < len(run.configs) and uid in uid_lookup[end]:
                end += 1
            links.append((start, [uid_lookup[i][uid] for i in range(start, end)],
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
                tracks.append(BigShockTrack(
                    id=len(tracks), family=fronts[0].family,
                    t_minus=t_edges[first], t_plus=t_edges[first + len(fronts)],
                    first=first, fronts=fronts,
                ))
            j = k + 1
    tracks.sort(key=lambda tr: (tr.first, tr.fronts[0].pos))
    for i, tr in enumerate(tracks):
        tr.id = i
    return tracks


# ---------------------------------------------------------------------------
# hybrid approximation per strip

class ProfileCache:
    def __init__(self, model):
        self.model = model
        self._cache = {}

    def __call__(self, u_minus, u_plus):
        key = (tuple(np.round(u_minus, 13)), tuple(np.round(u_plus, 13)))
        if key not in self._cache:
            self._cache[key] = shock_profile(self.model, u_minus, u_plus)
        return self._cache[key]


class HybridStrip:
    """The approximation v on one strip [t0, t1) between interaction times.

    tracks holds one (track id, front, profile) per big shock alive in the
    strip's configuration."""

    def __init__(self, model, config, t0, t1, tracks, epsilon, delta):
        self.model = model
        self.t0, self.t1 = t0, t1
        self.epsilon = epsilon
        self.delta = delta
        self.mol = Mollifier(delta)
        self.u_left = config.left_state
        self.xs0 = np.array([f.pos for f in config.fronts])
        self.speeds = np.array([f.speed for f in config.fronts])
        prof = config.profile()
        self.jumps = prof.jumps() if self.xs0.size else np.zeros((0, model.n))
        self.tracks = tracks

    def front_positions(self, t):
        return self.xs0 + (t - self.t0) * self.speeds

    def track_x(self, front, t):
        """Position at time t of a front of the strip's configuration."""
        return front.pos + (t - self.t0) * front.speed

    def _mollified(self, t, x):
        xs = self.front_positions(t)
        d = x[:, None] - xs[None, :]
        v = np.tile(self.u_left, (x.size, 1))
        if xs.size:
            K = self.mol.cdf(d)
            v = v + K @ self.jumps
            phi = self.mol.phi(d)
            vx = phi @ self.jumps
            vxx = self.mol.dphi(d) @ self.jumps
            vt = -(phi * self.speeds[None, :]) @ self.jumps
        else:
            vx = np.zeros_like(v)
            vxx = np.zeros_like(v)
            vt = np.zeros_like(v)
        return v, vx, vxx, vt

    def _insertion(self, front, profile, t, x):
        """omega-tilde minus rho for one track's front, with derivatives."""
        eps = self.epsilon
        r = np.sqrt(eps)
        xi = x - self.track_x(front, t)
        du = front.right_state - front.left_state
        n = self.model.n
        v = np.zeros((x.size, n))
        vx = np.zeros_like(v)
        vxx = np.zeros_like(v)

        # squeezed profile inside |xi| < sqrt(eps), endpoint states beyond
        inner = np.abs(xi) < r * (1.0 - 1e-12)
        if np.any(inner):
            p, p1, p2 = _squeeze_jet(xi[inner], eps)
            w, w1, w2 = profile.jet(p / eps)
            v[inner] = w
            vx[inner] = w1 * (p1 / eps)[:, None]
            vxx[inner] = w2 * (p1 ** 2 / eps ** 2)[:, None] + w1 * (p2 / eps)[:, None]
        v[~inner & (xi <= 0)] = front.left_state
        v[~inner & (xi > 0)] = front.right_state

        # subtract the mollified single step
        K = self.mol.cdf(xi)
        v -= front.left_state[None, :] + K[:, None] * du[None, :]
        phi = self.mol.phi(xi)
        vx -= phi[:, None] * du[None, :]
        vxx -= self.mol.dphi(xi)[:, None] * du[None, :]
        vt = -front.speed * vx
        return v, vx, vxx, vt

    def jet(self, t, x):
        """(v, vx, vxx, vt) at (t, x); x is a 1-D array."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v, vx, vxx, vt = self._mollified(t, x)
        for _, front, profile in self.tracks:
            dv, dvx, dvxx, dvt = self._insertion(front, profile, t, x)
            v = v + dv
            vx = vx + dvx
            vxx = vxx + dvxx
            vt = vt + dvt
        return v, vx, vxx, vt

    def value(self, t, x):
        return self.jet(t, x)[0]

    def residual_pointwise(self, t, x):
        v, vx, vxx, vt = self.jet(t, x)
        Av_x = (self.model.jacobian(v) @ vx[..., None])[..., 0]
        return np.linalg.norm(vt + Av_x - self.epsilon * vxx, axis=1)


class HybridApprox:
    """All strips of the construction over [0, tau]; strips[k] belongs to
    the run's configs[k] and times are the run's event times."""

    def __init__(self, strips, times, tau, epsilon, delta):
        self.strips = strips
        self.times = times
        self.tau = tau
        self.epsilon = epsilon
        self.delta = delta

    def strip_at(self, t):
        return self.strips[config_index(self.times, self.tau, t)]

    def value(self, t, x):
        return self.strip_at(t).value(t, np.atleast_1d(x))


def build_hybrid(run, tracks, epsilon, delta=None):
    """Assemble the per-strip hybrid approximation of a front-tracking run."""
    if delta is None:
        delta = np.sqrt(epsilon)
    profiles = ProfileCache(run.model)
    t_edges = run.t_edges
    strips = []
    for k, cfg in enumerate(run.configs):
        t0, t1 = t_edges[k], t_edges[k + 1]
        slices = []
        for tr in tracks:
            f = tr.front(k)
            if f is not None:
                slices.append((tr.id, f, profiles(f.left_state, f.right_state)))
        st = HybridStrip(run.model, cfg, t0, t1, slices, epsilon, delta)
        for i, (ia, a, _) in enumerate(slices):
            for ib, b, _ in slices[i + 1 :]:
                gap0 = abs(st.track_x(a, t0) - st.track_x(b, t0))
                gap1 = abs(st.track_x(a, t1) - st.track_x(b, t1))
                if min(gap0, gap1) < 2 * delta and a.family != b.family:
                    raise OverlappingTracks(
                        f"tracks {ia}, {ib} of different families overlap"
                    )
        strips.append(st)
    return HybridApprox(strips, run.times, run.tau, epsilon, delta)


# ---------------------------------------------------------------------------
# residual and jump diagnostics

def _strip_grid(strip, t, refine):
    """Cell edges at time t: delta/6 apart over the fronts plus a pad of
    delta, eps/8 apart within 1.1 sqrt(eps) of each track, both divided by
    refine."""
    delta = strip.delta
    eps = strip.epsilon
    dx_far = delta / 6.0 / refine
    dx_near = eps / 8.0 / refine
    xs = strip.front_positions(t)
    if xs.size == 0:
        return None
    lo, hi = xs.min() - delta, xs.max() + delta
    edges = [np.arange(lo, hi + dx_far, dx_far)]
    r = np.sqrt(eps)
    for _, front, _ in strip.tracks:
        xa = strip.track_x(front, t)
        edges.append(np.arange(xa - 1.1 * r, xa + 1.1 * r + dx_near, dx_near))
    e = np.unique(np.concatenate(edges))
    e = e[(e >= lo) & (e <= hi)]
    return e


def residual(hyb, check=False):
    """Space-time integral of |v_t + A(v)v_x - eps v_xx| plus per-track parts.

    Returns a dict with the strip-summed total, the per-track window
    integrals E_alpha (window |x - x_alpha| <= sqrt(eps)), and the far-field
    remainder.  Each strip is sampled at max(2, ceil(L / (sqrt(eps)/6)))
    midpoint times.  With check=True the x-steps are halved once and
    ResolutionTooCoarse is raised if the total moves by more than 2%.
    """
    epsilon = hyb.epsilon

    def run_once(refine):
        total = 0.0
        per_track = {}
        far = 0.0
        t_step = np.sqrt(epsilon) / 6.0
        for st in hyb.strips:
            L = st.t1 - st.t0
            nt = max(2, int(np.ceil(L / t_step)))
            tmids = st.t0 + (np.arange(nt) + 0.5) * (L / nt)
            wt = L / nt
            for t in tmids:
                e = _strip_grid(st, t, refine)
                if e is None:
                    continue
                mid = 0.5 * (e[:-1] + e[1:])
                h = np.diff(e)
                r = st.residual_pointwise(t, mid)
                total += wt * float(r @ h)
                near_any = np.zeros(mid.size, dtype=bool)
                for tid, front, _ in st.tracks:
                    near = np.abs(mid - st.track_x(front, t)) <= np.sqrt(epsilon)
                    near_any |= near
                    per_track[tid] = per_track.get(tid, 0.0) + wt * float(
                        r[near] @ h[near]
                    )
                far += wt * float(r[~near_any] @ h[~near_any])
        return {"total": total, "per_track": per_track, "far_field": far}

    out = run_once(1)
    if check:
        out2 = run_once(2)
        denom = max(abs(out2["total"]), 1e-300)
        if abs(out2["total"] - out["total"]) / denom > 0.02:
            raise ResolutionTooCoarse(
                f"residual moved {out['total']:.6g} -> {out2['total']:.6g} on refinement"
            )
        out = out2
    return out


_CASE_ORDER = ["merge", "creation", "termination", "transversal", "absorption", "small"]


def classify_event(ev, tracks):
    """Section-3 cases: creation, termination, transversal crossing,
    same-family absorption, big-big merge; 'small' when no track is touched.

    Tracks are read in the configurations before (ev.index) and after
    (ev.index + 1) the event."""
    k = ev.index
    incoming_uids = {f.uid for f in ev.incoming}
    in_tracks = [tr for tr in tracks
                 if tr.front(k) is not None and tr.front(k).uid in incoming_uids]
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
        track_uids = {tr.front(k).uid for tr in in_tracks}
        others = [f for f in ev.incoming if f.uid not in track_uids]
        if any(f.physical and f.family != in_tracks[0].family for f in others):
            flags.add("transversal")
        if any(f.physical and f.family == in_tracks[0].family for f in others):
            flags.add("absorption")
    if not flags:
        flags.add("small")
    return next(c for c in _CASE_ORDER if c in flags), flags


def jump_sum(run, tracks, hyb):
    """Sum over interaction times of the L1 jump of the hybrid hyb of run,
    with per-case totals, on a grid of step min(eps/8, delta/40)."""
    delta = hyb.delta
    dx = min(hyb.epsilon / 8.0, delta / 40.0)
    per_case = {c: 0.0 for c in _CASE_ORDER}
    per_event = []
    total = 0.0
    for ev in run.events:
        k = ev.index
        before, after = hyb.strips[k], hyb.strips[k + 1]
        # the jump is supported near the event and near any touched track
        centers = [ev.x]
        for tr in tracks:
            for st, front in ((before, tr.front(k)), (after, tr.front(k + 1))):
                if front is not None:
                    centers.append(st.track_x(front, ev.time))
        lo = min(centers) - 2.0 * delta
        hi = max(centers) + 2.0 * delta
        grid = np.arange(lo, hi + dx, dx)
        mid = 0.5 * (grid[:-1] + grid[1:])
        dv = after.value(ev.time, mid) - before.value(ev.time, mid)
        contrib = float(np.sum(np.linalg.norm(dv, axis=1) * np.diff(grid)))
        case, flags = classify_event(ev, tracks)
        per_case[case] += contrib
        per_event.append({"t": ev.time, "x": ev.x, "case": case,
                          "flags": sorted(flags), "l1": contrib})
        total += contrib
    return {"total": total, "per_case": per_case, "events": per_event}
