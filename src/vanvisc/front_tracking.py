"""Event-driven front tracking with the simplified/accurate Riemann solver.

Fronts move at constant speed between pairwise interactions.  At each
interaction the incoming fronts are replaced either by the full Riemann fan
of the outer states (rarefactions split into steps of at most the
configuration's cap, each step travelling at the characteristic speed of
its right state) or, when the product of incoming strengths falls below the
simplified-solver threshold, by outgoing waves of unchanged strength plus a
non-physical front that carries the residual at a speed strictly above
every characteristic speed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import EventBudgetExceeded, InvalidConfiguration, OutOfRange
from .piecewise import PiecewiseConstant
from .riemann import solve_riemann, shock_speed, lax_curve
from .system import wave_speeds

GLIMM_C0 = 4.0
TIME_TOL = 1e-12
POS_TOL = 1e-12
# waves below this strength are Riemann-iteration noise, not physics; they
# are dropped (the state defect is glued into the neighbouring wave)
WAVE_FLOOR = 1e-10
NP_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class Front:
    """A front from its birth at (x0, t0) on; configurations share it, and
    the object itself is its identity (fronts compare and hash by object)."""
    x0: float
    t0: float
    family: int          # 1..n physical, n+1 for non-physical fronts
    kind: str            # "shock" | "rarefaction_step" | "non_physical"
    strength: float      # signed sigma; |u+ - u-| for non-physical
    speed: float
    left_state: np.ndarray
    right_state: np.ndarray

    @property
    def physical(self):
        return self.kind != "non_physical"

    def x(self, t):
        """Position at time t: the front moves at constant speed."""
        return self.x0 + (t - self.t0) * self.speed


@dataclass
class FrontConfiguration:
    time: float
    fronts: list
    left_state: np.ndarray
    # largest rarefaction step, for the initial fans and every fan an
    # interaction emits alike
    rarefaction_cap: float

    def at(self, t):
        """The same fronts at time t (no interaction may occur strictly
        inside (self.time, t))."""
        return replace(self, time=t)

    def profile(self):
        xs = np.array([f.x(self.time) for f in self.fronts])
        vals = [self.left_state] + [f.right_state for f in self.fronts]
        return PiecewiseConstant(xs, np.array(vals))

    def validate(self, atol=1e-9):
        prev = self.left_state
        prev_x = -np.inf
        for i, f in enumerate(self.fronts):
            x = f.x(self.time)
            if x < prev_x - POS_TOL:
                raise InvalidConfiguration(f"front {i} at {x} left of its neighbour")
            if not np.allclose(f.left_state, prev, rtol=0.0, atol=atol):
                raise InvalidConfiguration(f"front {i}: inconsistent adjacent states")
            prev, prev_x = f.right_state, x
        return True


@dataclass(frozen=True)
class Event:
    time: float
    x: float
    indices: tuple


@dataclass(frozen=True)
class EventRecord:
    index: int
    time: float
    x: float
    incoming: tuple
    outgoing: tuple
    solver: str


@dataclass
class FTRun:
    model: object
    configs: list          # configs[0] at t=0, configs[i] just after t_i
    times: list            # interaction times t_1 < ... < t_N
    events: list           # EventRecord per interaction
    tau: float
    glimm_history: list    # (t, V, Q, Upsilon) at t=0 and after each event

    @property
    def t_edges(self):
        """[0, t_1, ..., t_N, tau]: configs[k] covers [t_edges[k], t_edges[k+1])."""
        return [0.0] + list(self.times) + [self.tau]

    def config_at(self, t):
        """Post-interaction configuration at t (right-continuous)."""
        return self.configs[config_index(self.times, self.tau, t)].at(t)


def config_index(times, tau, t):
    """Index k of the configuration in force at time t: configs[k] covers
    [times[k-1], times[k]) (right-continuous), with times the event times."""
    if t < -TIME_TOL or t > tau + TIME_TOL:
        raise OutOfRange(f"t={t} outside [0, {tau}]")
    return int(np.searchsorted(np.asarray(times), t, side="right"))


def lambda_hat(model):
    """Speed of non-physical fronts: above every characteristic speed."""
    return model.max_speed + 1.0


def _np_front(x, t, model, u_l, u_r):
    return Front(
        x0=x,
        t0=t,
        family=model.n + 1,
        kind="non_physical",
        strength=float(np.linalg.norm(u_r - u_l)),
        speed=lambda_hat(model),
        left_state=u_l,
        right_state=u_r,
    )


def _fronts_from_strengths(model, strengths, u, x, t, cap):
    """Fronts born at (x, t) for per-family strengths composed from u
    through lax_curve: each wave starts where the previous front ends, a
    wave below WAVE_FLOOR is dropped without advancing the state, and a
    rarefaction splits into steps of strength <= cap."""
    out = []
    for family, s in enumerate(map(float, strengths), start=1):
        if abs(s) < WAVE_FLOOR:
            continue
        if s < 0:
            u_next = lax_curve(model, family, u, s)
            sp = shock_speed(model, u, u_next)
            out.append(Front(x, t, family, "shock", s, sp, u, u_next))
        else:
            out.extend(_rarefaction_steps(model, family, u, s, x, t, cap))
        u = out[-1].right_state
    return out


def _rarefaction_steps(model, family, u, strength, x, t, cap):
    """A rarefaction of the given strength from u, born at (x, t), split into
    equal steps of strength <= cap, each at the characteristic speed of its
    right state."""
    m = max(1, int(np.ceil(strength / cap - 1e-12)))
    s_step = strength / m
    out = []
    for _ in range(m):
        u_next = lax_curve(model, family, u, s_step)
        sp = float(wave_speeds(model, u_next)[family - 1])
        out.append(Front(x, t, family, "rarefaction_step", s_step, sp, u, u_next))
        u = u_next
    return out


def init_front_tracking(model, initial, epsilon_prime, rarefaction_cap):
    """Resolve every jump of the piecewise-constant data into its wave fan;
    rarefaction_cap bounds every rarefaction step of the run, here and at
    each later interaction."""
    fronts = []
    u = initial.values[0]
    for x, u_next in zip(initial.xs, initial.values[1:]):
        strengths = solve_riemann(model, u, u_next)
        fronts.extend(_fronts_from_strengths(model, strengths, u, float(x), 0.0,
                                             rarefaction_cap))
        if fronts:
            # re-anchor so consecutive fans chain exactly
            fronts[-1] = replace(fronts[-1], right_state=u_next)
        u = u_next
    cfg = FrontConfiguration(time=0.0, fronts=fronts, left_state=initial.values[0],
                             rarefaction_cap=rarefaction_cap)
    cfg.validate(atol=1e-7)
    return cfg


def next_interaction(config):
    """Earliest future pairwise crossing (ties grouped; leftmost first)."""
    fronts = config.fronts
    xs = [f.x(config.time) for f in fronts]
    cands = []
    for i in range(len(fronts) - 1):
        a, b = fronts[i], fronts[i + 1]
        dv = a.speed - b.speed
        if dv <= 1e-14:
            continue
        dt = max(0.0, (xs[i + 1] - xs[i])) / dv
        cands.append((config.time + dt, xs[i] + a.speed * dt, i))
    if not cands:
        return None
    tmin = min(c[0] for c in cands)
    near = sorted([c for c in cands if c[0] <= tmin + TIME_TOL], key=lambda c: (c[1], c[2]))
    t_ev, x_ev, _ = near[0]
    idx = set()
    for t, x, i in near:
        if abs(x - x_ev) <= POS_TOL:
            idx.update((i, i + 1))
    i0, i1 = min(idx), max(idx)
    # swallow same-position neighbours that would re-collide immediately
    while i0 > 0:
        f = fronts[i0 - 1]
        if abs(f.x(t_ev) - x_ev) <= POS_TOL and f.speed > fronts[i0].speed - 1e-14:
            i0 -= 1
        else:
            break
    while i1 < len(fronts) - 1:
        f = fronts[i1 + 1]
        if abs(f.x(t_ev) - x_ev) <= POS_TOL and f.speed < fronts[i1].speed + 1e-14:
            i1 += 1
        else:
            break
    return Event(time=t_ev, x=x_ev, indices=tuple(range(i0, i1 + 1)))


def _simplified_outgoing(model, incoming, u_l, u_r, x, t, cap):
    """Pass-through solver: the per-family sums of the physical strengths
    go out unchanged, and the residual goes to a non-physical front."""
    strengths = np.zeros(model.n)
    for f in incoming:
        if f.physical:
            strengths[f.family - 1] += f.strength
    out = _fronts_from_strengths(model, strengths, u_l, x, t, cap)
    u = out[-1].right_state if out else u_l
    if float(np.linalg.norm(u_r - u)) > NP_FLOOR:
        out.append(_np_front(x, t, model, u, u_r))
    return out


def resolve_interaction(model, config, event, simplified_threshold):
    """Replace the interacting fronts by the outgoing pattern born at the
    event's (x, t); the untouched fronts are kept as the same objects."""
    cap = config.rarefaction_cap
    fronts = config.fronts
    i0, i1 = event.indices[0], event.indices[-1]
    incoming = fronts[i0 : i1 + 1]
    u_l, u_r = incoming[0].left_state, incoming[-1].right_state
    x, t = event.x, event.time

    has_np = any(not f.physical for f in incoming)
    small = (
        len(incoming) == 2
        and all(f.physical for f in incoming)
        and abs(incoming[0].strength * incoming[1].strength) < simplified_threshold
    )
    if has_np or small:
        outgoing = _simplified_outgoing(model, incoming, u_l, u_r, x, t, cap)
        solver = "simplified"
    else:
        strengths = solve_riemann(model, u_l, u_r)
        outgoing = _fronts_from_strengths(model, strengths, u_l, x, t, cap)
        if outgoing:
            outgoing[-1] = replace(outgoing[-1], right_state=u_r)
        solver = "accurate"

    new_fronts = fronts[:i0] + outgoing + fronts[i1 + 1 :]
    return replace(config, time=t, fronts=new_fronts), tuple(incoming), tuple(outgoing), solver


def glimm_functionals(config):
    """Total wave strength V and interaction potential Q.

    Approaching pairs: different families with the faster family on the
    left, or a same-family (genuinely nonlinear) pair containing at least
    one shock.  Same-position ties keep list order.  Non-physical fronts
    count as a fastest, linearly degenerate family.

    One pass from left to right: each front meets the fronts to its left
    through running per-family sums of |sigma| and of shock |sigma|, so the
    cost is O(fronts x families).
    """
    fronts = config.fronts
    families = 1 + max((f.family for f in fronts), default=0)
    seen = [0.0] * families        # per family, sum of |sigma| so far
    shocks = [0.0] * families      # the same over shocks only
    V = Q = 0.0
    for f in fronts:
        s = abs(f.strength)
        V += s
        left = sum(seen[f.family + 1:])        # faster families on the left
        if f.physical:
            left += seen[f.family] if f.kind == "shock" else shocks[f.family]
        Q += s * left
        seen[f.family] += s
        if f.kind == "shock":
            shocks[f.family] += s
    return V, Q


def run_until(model, config, tau, epsilon_prime=1e-9, simplified_threshold=None,
              max_events=100000):
    """Evolve a configuration to time tau, recording every interaction.

    Interactions whose strength product is below simplified_threshold
    (default epsilon_prime) take the simplified solver."""
    if simplified_threshold is None:
        simplified_threshold = epsilon_prime

    configs = [config]
    times, events = [], []
    V, Q = glimm_functionals(config)
    history = [(config.time, V, Q, V + GLIMM_C0 * Q)]
    cur = config
    n_ev = 0
    while True:
        ev = next_interaction(cur)
        if ev is None or ev.time > tau + TIME_TOL:
            break
        n_ev += 1
        if n_ev > max_events:
            raise EventBudgetExceeded(f"more than {max_events} interactions before t={tau}")
        cur, incoming, outgoing, solver = resolve_interaction(
            model, cur, ev, simplified_threshold)
        V1, Q1 = glimm_functionals(cur)
        events.append(
            EventRecord(index=n_ev - 1, time=ev.time, x=ev.x, incoming=incoming,
                        outgoing=outgoing, solver=solver)
        )
        times.append(ev.time)
        configs.append(cur)
        history.append((ev.time, V1, Q1, V1 + GLIMM_C0 * Q1))
    return FTRun(model=model, configs=configs, times=times, events=events, tau=tau,
                 glimm_history=history)


def sample_profile(run, t):
    """Piecewise-constant u(t, .) of a run, right-continuous in t."""
    return run.config_at(t).profile()


def merge_cancelling_pairs(config):
    """Remark-3 cleanup: adjacent same-family fronts of opposite sign closer
    than POS_TOL are merged into a single jump (used before measure
    extraction, never for evolution)."""
    fronts = list(config.fronts)
    t = config.time
    changed = True
    while changed:
        changed = False
        for i in range(len(fronts) - 1):
            a, b = fronts[i], fronts[i + 1]
            if (
                a.physical and b.physical
                and a.family == b.family
                and a.strength * b.strength < 0
                and abs(b.x(t) - a.x(t)) < POS_TOL
            ):
                s = a.strength + b.strength
                kind = "shock" if s < 0 else "rarefaction_step"
                # keeps a's birth: measure extraction reads its position
                # and age, never its speed
                merged = replace(a, kind=kind, strength=s, right_state=b.right_state)
                fronts[i : i + 2] = [] if abs(s) < 1e-14 and np.allclose(
                    a.left_state, b.right_state, atol=1e-12
                ) else [merged]
                changed = True
                break
    return replace(config, fronts=fronts)


def write_run_log(run, path):
    """JSON-lines event log: time, solver type, and the changes dV, dQ of
    the Glimm functionals across each event, from run.glimm_history."""
    hist = run.glimm_history
    with open(path, "w") as fh:
        for ev, (_, V0, Q0, _), (_, V1, Q1, _) in zip(run.events, hist, hist[1:]):
            fh.write(json.dumps({
                "t": round(ev.time, 15), "x": round(ev.x, 15), "solver": ev.solver,
                "dV": round(V1 - V0, 15), "dQ": round(Q1 - Q0, 15),
                "n_in": len(ev.incoming), "n_out": len(ev.outgoing),
            }, sort_keys=True) + "\n")
