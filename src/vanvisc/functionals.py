"""Distance-weighted interaction functionals and the interaction audit.

Three weighted potentials supplement the Glimm pair (V, Q):
  * q_flat: pairs of different families, weight ramping linearly over a
    4 sqrt(eps) window around the crossing order;
  * q_natural: big shocks against same-family rarefactions, counted through
    a cumulative rarefaction profile cut off at |sigma_alpha|/4;
  * q_sharp: all shocks against same-family shocks, weighted by the
    reciprocal of the enveloped shock content between them (rarefactions
    count negatively with a factor 3).
The composite functional combines them so that it decreases at every
interaction except when a new big shock appears.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .front_tracking import GLIMM_C0
from .hybrid import classify_event

SQRT = np.sqrt


@dataclass(frozen=True)
class FunctionalConstants:
    c1: float = 1e5
    c2: float = 1e3
    c3: float = 10.0


def _ramp(d, dd, epsilon):
    """clip(1/2 + d/(4 sqrt(eps)), 0, 1) for a distance d moving at rate dd,
    with its right t-derivative: dd/(4 sqrt(eps)) inside the window and 0
    outside.  On a window edge the branch is the one d enters just after t."""
    r = SQRT(epsilon)
    if d < -2 * r or (d == -2 * r and dd <= 0):
        return 0.0, 0.0
    if d > 2 * r or (d == 2 * r and dd >= 0):
        return 1.0, 0.0
    return 0.5 + d / (4 * r), dd / (4 * r)


def w_flat(d, dd, fam_alpha, fam_beta, epsilon):
    """Transversal pair weight and its right t-derivative, for
    d = x_beta - x_alpha moving at rate dd: piecewise linear over
    +-2 sqrt(eps), rising in d when beta is of the slower family, else
    falling, which is the rising ramp at -d."""
    if fam_beta >= fam_alpha:
        d, dd = -d, -dd
    return _ramp(d, dd, epsilon)


def w_natural(d, dd, epsilon):
    """min(1/2 + |d|/(4 sqrt(eps)), 1) and its right t-derivative, for
    d = x - x_alpha moving at rate dd; at a tie |d| grows at |dd|."""
    if d < 0 or (d == 0 and dd < 0):
        d, dd = -d, -dd
    return _ramp(d, dd, epsilon)


def q_flat(config, epsilon):
    """Sum over ordered pairs of different families of W_flat |sigma sigma'|,
    and its right t-derivative.  Both orders of a pair carry the same weight
    and rate, so each unordered pair is visited once and counted twice."""
    by_family = {}
    for f in config.fronts:
        if f.physical:
            by_family.setdefault(f.family, []).append((f, f.x(config.time)))
    total = rate = 0.0
    for group_a, group_b in combinations(by_family.values(), 2):
        for (a, xa), (b, xb) in product(group_a, group_b):
            w, dw = w_flat(xb - xa, b.speed - a.speed, a.family, b.family, epsilon)
            m = abs(a.strength * b.strength)
            total += w * m
            rate += dw * m
    return 2.0 * total, 2.0 * rate


def _natural_alpha(fronts, ai, epsilon, t):
    """Integral of W_natural against the cut-off rarefaction accumulator of
    the shock fronts[ai] at time t, and its right t-derivative; ties in
    position are resolved by list order.

    The accumulator grows away from x_alpha on the right and shrinks on the
    left; the left walk carries its negation, which is exact, so one walk
    serves both sides."""
    alpha = fronts[ai]
    total, rate = _natural_side(alpha, fronts[ai + 1 :], epsilon, t, 0.0, 0.0)
    return _natural_side(alpha, reversed(fronts[:ai]), epsilon, t, total, rate)


def _natural_side(alpha, side, epsilon, t, total, rate):
    """Add to total the rarefaction mass of side (fronts ordered away from
    alpha) below the cut-off |sigma_alpha|/4, weighted by W_natural, and to
    rate its t-derivative; the masses are frozen between events."""
    cap = abs(alpha.strength) / 4.0
    x_alpha = alpha.x(t)
    cum = 0.0
    for b in side:
        if not b.physical or b.family != alpha.family or b.kind != "rarefaction_step":
            continue
        new = cum + b.strength
        mass = min(new, cap) - min(cum, cap)
        if mass > 0:
            w, dw = w_natural(b.x(t) - x_alpha, b.speed - alpha.speed, epsilon)
            total += w * mass
            rate += dw * mass
        cum = new
    return total, rate


def q_natural(config, bs, epsilon):
    """Sum of the cut-off rarefaction potentials over the big shocks, the
    fronts in the set bs, and its right t-derivative."""
    fronts = list(config.fronts)
    total = rate = 0.0
    for i, f in enumerate(fronts):
        if f.kind == "shock" and f in bs:
            v, dv = _natural_alpha(fronts, i, epsilon, config.time)
            total, rate = total + v, rate + dv
    return total, rate


def _sharp_alpha(fronts, ai, epsilon, t):
    """|sigma_alpha| int W_nat W_sharp dz-tilde for the shock fronts[ai] at
    time t, and its right t-derivative.

    z accumulates |sigma| for same-family shocks and -3 sigma for
    same-family rarefactions moving away from x_alpha; the monotone envelope
    keeps running extrema, so a partner shock screened by rarefactions
    contributes nothing.  W_sharp at a surviving atom uses the envelope
    value on the alpha side of the jump; the envelope's own jump at x_alpha
    is not counted.
    """
    alpha = fronts[ai]
    total, rate = _sharp_side(alpha, fronts[ai + 1 :], epsilon, t, 0.0, 0.0)
    total, rate = _sharp_side(alpha, reversed(fronts[:ai]), epsilon, t, total, rate)
    return abs(alpha.strength) * total, abs(alpha.strength) * rate


def _sharp_side(alpha, side, epsilon, t, total, rate):
    """Add to total the W_sharp-weighted shock content of side (fronts
    ordered away from alpha), and to rate its t-derivative.  z starts at
    |sigma_alpha|/2 and the envelope is its running max; on the left this is
    the negation of z, which starts at -|sigma_alpha|/2 under the running
    min."""
    z = runmax = abs(alpha.strength) / 2.0
    x_alpha = alpha.x(t)
    for b in side:
        if not b.physical or b.family != alpha.family:
            continue
        if b.kind == "shock":
            z_new = z + abs(b.strength)
            mass = max(0.0, z_new - runmax)
            if mass > 0:
                w, dw = w_natural(b.x(t) - x_alpha, b.speed - alpha.speed, epsilon)
                total += w * mass / (epsilon + runmax)
                rate += dw * mass / (epsilon + runmax)
            z = z_new
            runmax = max(runmax, z_new)
        else:
            z = z - 3.0 * b.strength
    return total, rate


def q_sharp(config, epsilon):
    """Same-family shock interaction potential (all shocks, big or small),
    and its right t-derivative."""
    fronts = list(config.fronts)
    total = rate = 0.0
    for i, f in enumerate(fronts):
        if f.kind == "shock":
            v, dv = _sharp_alpha(fronts, i, epsilon, config.time)
            total, rate = total + v, rate + dv
    return total, rate


def big_shock_fronts(tracks, k):
    """The big-shock fronts in the run's configs[k]."""
    return {f for f in (tr.front(k) for tr in tracks) if f is not None}


def q_hat(upsilon, flat, natural, sharp, epsilon, constants):
    """The composite functional of the Glimm pair upsilon = V + C0 Q and the
    weighted potentials q_flat, q_natural and q_sharp."""
    r = SQRT(epsilon)
    ln = abs(np.log(epsilon))
    return (r * ln * (constants.c1 * upsilon + constants.c2 * flat + constants.c3 * natural)
            + r * sharp)


# ---------------------------------------------------------------------------
# event audit

@dataclass
class AuditReport:
    epsilon: float
    rho: float
    constants: FunctionalConstants
    events: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    creation_ratios: list = field(default_factory=list)
    merge_records: list = field(default_factory=list)

    def ok(self):
        return not self.violations

    def to_json(self):
        payload = {
            "epsilon": self.epsilon,
            "rho": self.rho,
            "constants": {"c0": GLIMM_C0, **vars(self.constants)},
            "events": self.events,
            "violations": self.violations,
            "creation_ratios": self.creation_ratios,
            "merge_records": self.merge_records,
        }
        return json.dumps(payload, sort_keys=True, indent=1, default=float)


def _weighted_totals(config, bs, epsilon):
    """(q_flat, q_natural, q_sharp) of the configuration; bs is the set of
    big-shock fronts."""
    return (q_flat(config, epsilon)[0], q_natural(config, bs, epsilon)[0],
            q_sharp(config, epsilon)[0])


def audit_events(run, tracks, epsilon, constants=FunctionalConstants(), rho=None):
    """Classify every interaction and check the composite-functional law:
    decrease (within 1e-10) unless a new big shock is created; at creations,
    record the increase ratio against sqrt(eps) |ln eps| |sigma_alpha|.

    V, Q and Upsilon on either side of event k are run.glimm_history[k] and
    [k + 1]."""
    r = SQRT(epsilon)
    ln = abs(np.log(epsilon))
    report = AuditReport(epsilon=epsilon, rho=rho, constants=constants)
    hist = run.glimm_history
    for ev in run.events:
        k = ev.index
        after = run.configs[k + 1]
        bs_a = big_shock_fronts(tracks, k + 1)
        (_, V0, Q0, ups0), (_, V1, Q1, ups1) = hist[k], hist[k + 1]
        wb = _weighted_totals(run.configs[k].at(ev.time), big_shock_fronts(tracks, k), epsilon)
        wa = _weighted_totals(after, bs_a, epsilon)
        d_qhat = q_hat(ups1, *wa, epsilon, constants) - q_hat(ups0, *wb, epsilon, constants)
        case, flags = classify_event(ev, tracks)
        born = [tr for tr in tracks if tr.first == k + 1]
        record = {
            "t": ev.time, "x": ev.x, "case": case, "flags": sorted(flags),
            "dV": V1 - V0, "dQ": Q1 - Q0, "dUpsilon": ups1 - ups0,
            "dq_flat": wa[0] - wb[0], "dq_natural": wa[1] - wb[1],
            "dq_sharp": wa[2] - wb[2], "dq_hat": d_qhat,
            "participants": [
                {"family": f.family, "kind": f.kind, "sigma": f.strength}
                for f in ev.incoming
            ],
        }
        report.events.append(record)
        if born:
            sigma = max(abs(tr.fronts[0].strength) for tr in born)
            record["creation_sigma"] = sigma
            # increase attributable to the creation itself: the only part of
            # the composite functional that depends on the big-shock set is
            # the shock-rarefaction potential
            born_fronts = {tr.fronts[0] for tr in born}
            qn_without, _ = q_natural(after, bs_a - born_fronts, epsilon)
            surcharge = r * ln * constants.c3 * (wa[1] - qn_without)
            report.creation_ratios.append(
                {"t": ev.time, "sigma": sigma,
                 "ratio": d_qhat / (r * ln * sigma),
                 "surcharge_ratio": surcharge / (r * ln * sigma)}
            )
        else:
            if d_qhat > 1e-10:
                report.violations.append(record)
        if case == "merge":
            in_fronts = [f for f in (tr.front(k) for tr in tracks) if f in ev.incoming]
            if len(in_fronts) >= 2:
                s1, s2 = (abs(f.strength) for f in in_fronts[:2])
                bound = r * s1 * s2 / (s1 + s2 + epsilon)
                report.merge_records.append(
                    {"t": ev.time, "sigma1": s1, "sigma2": s2,
                     "loss_bound": bound, "dq_hat": d_qhat,
                     "loss_ratio": -d_qhat / bound if bound > 0 else None}
                )
    return report


# ---------------------------------------------------------------------------
# inter-event decay rates

def interaction_decay_rates(run, tracks, epsilon):
    """Per-interval report of the decay rates of the weighted functionals.

    Between events the masses, cut-offs and envelopes are frozen and every
    front moves linearly, so q_flat, q_natural and q_sharp are piecewise
    linear in t; each rate is the exact right t-derivative at the interval's
    midpoint.  The pair sums entering the right-hand sides of the decay
    estimates are itemized per interval: ordered pairs within 2 sqrt(eps) of
    different families (cross), of a big shock and a same-family rarefaction
    (natural), and unordered pairs of same-family shocks (sharp).
    """
    t_edges = run.t_edges
    rows = []
    r = SQRT(epsilon)
    for k, cfg in enumerate(run.configs):
        t0, t1 = t_edges[k], t_edges[k + 1]
        if t1 - t0 <= 1e-14:
            continue
        tm = 0.5 * (t0 + t1)
        bs = big_shock_fronts(tracks, k)
        c_m = cfg.at(tm)
        _, rate_flat = q_flat(c_m, epsilon)
        _, rate_nat = q_natural(c_m, bs, epsilon)
        _, rate_sharp = q_sharp(c_m, epsilon)
        nat_pairs = sharp_pairs = cross_pairs = 0.0
        fronts = [(f, f.x(tm)) for f in c_m.fronts if f.physical]
        for i, (a, xa) in enumerate(fronts):
            for j, (b, xb) in enumerate(fronts):
                if i == j or abs(xb - xa) > 2 * r:
                    continue
                if a.family != b.family:
                    cross_pairs += abs(a.strength * b.strength)
                    continue
                if a.kind == "shock" and a in bs and b.kind == "rarefaction_step":
                    nat_pairs += abs(a.strength * b.strength)
                if a.kind == "shock" and b.kind == "shock" and i < j:
                    sharp_pairs += abs(a.strength * b.strength)
        rows.append({
            "t0": t0, "t1": t1, "t_mid": tm,
            "rate_flat": rate_flat, "rate_natural": rate_nat, "rate_sharp": rate_sharp,
            "natural_pair_sum": nat_pairs, "sharp_pair_sum": sharp_pairs,
            "cross_pair_sum": cross_pairs,
        })
    return rows
