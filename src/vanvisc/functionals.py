"""Distance-weighted interaction functionals and the interaction audit.

Three weighted potentials supplement the Glimm pair (V, Q):
  * q_flat: pairs of different families, weight ramping linearly over a
    4 sqrt(eps) window around the crossing order;
  * q_natural: big shocks against same-family rarefactions, counted through
    a cumulative rarefaction profile cut off at |sigma_alpha|/4;
  * q_sharp: all shocks against same-family shocks, weighted by the
    reciprocal of the enveloped shock content between them (rarefactions
    count negatively with a factor 3).
weighted_potentials evaluates all three, their rates and their pair sums in
one pass over the fronts grouped by family.  The composite functional combines them so that it decreases at every
interaction except when a new big shock appears.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .front_tracking import GLIMM_C0
from .hybrid import classify_event

# math.sqrt, not np.sqrt: the same correctly rounded root, but a Python
# float, so the pair walks below do no numpy-scalar arithmetic
SQRT = math.sqrt


@dataclass(frozen=True)
class FunctionalConstants:
    c1: float = 1e5
    c2: float = 1e3
    c3: float = 10.0


def _ramp(d, dd, epsilon):
    """clip(1/2 + d/(4 sqrt(eps)), 0, 1) for a distance d moving at rate dd,
    with its right t-derivative: dd/(4 sqrt(eps)) inside the window and 0
    outside.  On a window edge the branch is the one d enters just after t."""
    h = 2 * SQRT(epsilon)
    if d < -h or (d == -h and dd <= 0):
        return 0.0, 0.0
    if d > h or (d == h and dd >= 0):
        return 1.0, 0.0
    return 0.5 + d / (2 * h), dd / (2 * h)


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


def weighted_potentials(config, bs, epsilon):
    """(q_flat, q_natural, q_sharp) of the configuration, their exact right
    t-derivatives and their pair sums, as three triples; bs is the set of
    big-shock fronts.

    The physical fronts are grouped by family once, with their positions at
    config.time; ties in position are resolved by list order.  q_flat walks
    each pair of fronts from different families once and counts it twice,
    since both orders carry the same weight and rate.  Each shock alpha, in
    list order, walks its own family's list once to the right and once to
    the left:
      * q_natural (big shocks only) integrates W_natural against the
        rarefaction accumulator cut off at |sigma_alpha|/4;
      * q_sharp is |sigma_alpha| int W_nat W_sharp dz-tilde: z accumulates
        |sigma| for shocks and -3 sigma for rarefactions moving away from
        x_alpha, and the monotone envelope keeps its running extremum, so a
        partner shock screened by rarefactions contributes nothing.  W_sharp
        at a surviving atom uses the envelope value on the alpha side of the
        jump; the envelope's own jump at x_alpha is not counted.
    On the left both accumulators carry their negation, which is exact, so
    one walk serves both sides.  The pair sums add |sigma sigma'| over the
    pairs within 2 sqrt(eps): of different families (both orders), of a big
    shock and a rarefaction of its family, and of two shocks of one family
    (once, from the right-hand walk of the left one).
    """
    near = 2 * SQRT(epsilon)
    groups = {}
    shocks = []
    for f in config.fronts:
        if f.physical:
            group = groups.setdefault(f.family, [])
            shock = f.kind == "shock"
            if shock:
                shocks.append((f, group, len(group)))
            # |sigma sigma'| is |sigma| |sigma'| exactly, so each front's
            # fields are read once here, not once per pair
            group.append((f.x(config.time), f.speed, abs(f.strength), f.strength, shock))
    flat = d_flat = cross = 0.0
    for (fam_a, group_a), (fam_b, group_b) in combinations(groups.items(), 2):
        for (xa, va, ma, _, _), (xb, vb, mb, _, _) in product(group_a, group_b):
            d = xb - xa
            w, dw = w_flat(d, vb - va, fam_a, fam_b, epsilon)
            m = ma * mb
            flat += w * m
            d_flat += dw * m
            if abs(d) <= near:
                cross += m
    natural = d_natural = natural_pairs = sharp = d_sharp = sharp_pairs = 0.0
    for alpha, group, j in shocks:
        x_alpha, v_alpha, size, _, _ = group[j]
        big = alpha in bs
        cap = size / 4.0
        nat = d_nat = sh = d_sh = 0.0
        for side, right in ((group[j + 1 :], True), (reversed(group[:j]), False)):
            cum = 0.0
            z = runmax = size / 2.0
            for x, v, m, sigma, shock in side:
                d = x - x_alpha
                if shock:
                    z_new = z + m
                    mass = z_new - runmax
                    if mass > 0:
                        w, dw = w_natural(d, v - v_alpha, epsilon)
                        sh += w * mass / (epsilon + runmax)
                        d_sh += dw * mass / (epsilon + runmax)
                        runmax = z_new
                    z = z_new
                    if right and abs(d) <= near:
                        sharp_pairs += size * m
                    continue
                z = z - 3.0 * sigma
                if not big:
                    continue
                new = cum + sigma
                mass = min(new, cap) - min(cum, cap)
                if mass > 0:
                    w, dw = w_natural(d, v - v_alpha, epsilon)
                    nat += w * mass
                    d_nat += dw * mass
                cum = new
                if abs(d) <= near:
                    natural_pairs += size * m
        natural, d_natural = natural + nat, d_natural + d_nat
        sharp, d_sharp = sharp + size * sh, d_sharp + size * d_sh
    return ((2.0 * flat, natural, sharp), (2.0 * d_flat, d_natural, d_sharp),
            (2.0 * cross, natural_pairs, sharp_pairs))


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
        bs_b, bs_a = big_shock_fronts(tracks, k), big_shock_fronts(tracks, k + 1)
        (_, V0, Q0, ups0), (_, V1, Q1, ups1) = hist[k], hist[k + 1]
        wb = weighted_potentials(run.configs[k].at(ev.time), bs_b, epsilon)[0]
        wa = weighted_potentials(after, bs_a, epsilon)[0]
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
            qn_without = weighted_potentials(after, bs_a - born_fronts, epsilon)[0][1]
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
    estimates are those of weighted_potentials at the midpoint: pairs within
    2 sqrt(eps) of different families counted in both orders (cross), of a
    big shock and a same-family rarefaction (natural), and of same-family
    shocks (sharp).
    """
    t_edges = run.t_edges
    rows = []
    for k, cfg in enumerate(run.configs):
        t0, t1 = t_edges[k], t_edges[k + 1]
        if t1 - t0 <= 1e-14:
            continue
        tm = 0.5 * (t0 + t1)
        _, rates, pairs = weighted_potentials(cfg.at(tm), big_shock_fronts(tracks, k), epsilon)
        rows.append({
            "t0": t0, "t1": t1, "t_mid": tm,
            "rate_flat": rates[0], "rate_natural": rates[1], "rate_sharp": rates[2],
            "natural_pair_sum": pairs[1], "sharp_pair_sum": pairs[2],
            "cross_pair_sum": pairs[0],
        })
    return rows
