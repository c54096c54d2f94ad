"""Viscous solver u_t + A(u) u_x = eps u_xx and travelling shock profiles.

The PDE is advanced with a conservative local Lax-Friedrichs (Rusanov) flux,
its dissipation |lambda| at the arithmetic mean of the two neighbours, plus
explicit centered diffusion under a combined CFL bound.  The flux adds a
numerical viscosity |lambda| dx/2 to eps: 12.5% of eps for Burgers with
|u| <= 1 at dx = eps/4, and about 21% on the p-system lone shock
(|lambda| ~ 1.7).  Each step updates only the cells that the grid's padding
rule, evaluated at that step's time, says the waves can have reached.  The
grid state is stored component-major (each component one contiguous row of
an (n, N) array, seen as its (N, n) transpose), and the steps write into
scratch rows allocated once per solve; the returned state is a C-ordered
(N, n) array.  The grid spacing must satisfy 0 < dx <= eps/4.

Shock profiles solve the first integral of omega'' = (A(omega) - lambda)
omega', namely

    omega' = f(omega) - f(u-) - lambda (omega - u-),

by shooting from the endpoint at which the connection is attracting
(forward from u- for the fastest family, backward from u+ for the slowest),
then recentering the parameter so the mass on both sides of s = 0 balances.

A model's closed forms, viscous_fn and profile_fn, take the place of the
grid steps and of the shooting; both stay for models without them and as
the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, NotLaxPair, ShootFailure
from .riemann import shock_speed
from .system import eigen_frame, max_abs_eigenvalue, wave_speeds

_LAND_TOL = 1e-12
CFL = 0.9


@dataclass
class GridSolution:
    x: np.ndarray
    times: list           # [tau]
    values: list          # [the (N, n) state at tau]
    dt: float

    def final(self):
        return self.values[-1]


def solve_viscous(model, epsilon, initial, tau, dx):
    """Explicit conservative solve of u_t + A(u)u_x = eps u_xx; the state at tau.

    initial is a PiecewiseConstant, sampled once on the whole grid x.  A
    model with viscous_fn has its closed form evaluated on the grid instead,
    as one step of length tau.

    The solver sizes its own grid.  The speed bound vmax is the largest
    |lambda_i| over the data's states with a margin of 20% plus 0.1.  The
    grid spans the data's breakpoints, or [-1, 1] without any, padded on
    each side by vmax tau, the diffusion width sqrt(4 eps tau ln 1e10) and
    10 dx.  A step ending at time t updates only the cells within the same
    padding at t of the span; beyond it the grid holds the data's states to
    the padding's own 1e-10 truncation.  The window's end cells are that
    step's frozen ghosts.  It raises CFLViolation unless eps > 0, tau > 0
    and 0 < dx <= eps/4, before it lays out the grid.
    """
    if epsilon <= 0:
        raise CFLViolation("epsilon must be positive")
    if not tau > 0:
        raise CFLViolation("tau must be positive")
    if not 0 < dx <= epsilon / 4.0 + 1e-15:
        raise CFLViolation(f"dx={dx} must satisfy 0 < dx <= eps/4 = {epsilon/4.0}")
    vmax = float(np.max(max_abs_eigenvalue(model, initial.values))) * 1.2 + 0.1
    lo, hi = -1.0, 1.0
    if initial.xs.size:
        lo, hi = float(initial.xs[0]), float(initial.xs[-1])
    log_tail = float(np.log(1e10))

    def reach(t):
        # how far the waves and the diffusion's 1e-10 tail get by time t
        return vmax * t + math.sqrt(4.0 * epsilon * t * log_tail)

    x_lo, x_hi = lo - reach(tau) - 10 * dx, hi + reach(tau) + 10 * dx
    N = int(np.ceil((x_hi - x_lo) / dx)) + 1
    x = x_lo + dx * np.arange(N)
    if model.viscous_fn is not None:
        return GridSolution(x=x, times=[tau], values=[model.viscous_fn(initial, epsilon, tau, x)],
                            dt=tau)
    # the (N, n) state, stored component-major: a window u[i0:i1] hands the
    # model contiguous component rows
    u = np.ascontiguousarray(initial(x).T).T

    dt = CFL / (vmax / dx + 2.0 * epsilon / dx ** 2)
    steps = max(1, int(np.ceil(tau / dt)))
    dt = tau / steps
    if dt * (vmax / dx + 2.0 * epsilon / dx ** 2) > 1.0:
        raise CFLViolation("time step violates the CFL bound")

    lam_dt_dx = dt / dx
    mu_coef = epsilon * dt / dx ** 2
    # scratch stacks laid out like u, whose prefixes each step overwrites
    mid_s, flux_s, tmp_s, lap_s = (np.empty((model.n, N)).T for _ in range(4))
    for k in range(1, steps + 1):
        # the cells within the grid's padding of the span at this step's end
        pad = reach(k * dt) + 10 * dx
        i0 = max(math.floor((lo - pad - x_lo) / dx), 0)
        i1 = min(math.ceil((hi + pad - x_lo) / dx) + 1, N)
        w = u[i0:i1]      # a view: the update below lands in u
        m = i1 - i0
        # local Lax-Friedrichs flux with max |lambda_i| at the arithmetic
        # mean, in the operation order of
        #   F = 0.5 (f[:-1] + f[1:]) - (0.5 a) (w[1:] - w[:-1])
        f = model.flux(w)
        mid = mid_s[:m - 1]
        np.add(w[:-1], w[1:], out=mid)
        np.multiply(mid, 0.5, out=mid)
        a = max_abs_eigenvalue(model, mid)[:, None]
        F = flux_s[:m - 1]
        np.add(f[:-1], f[1:], out=F)
        np.multiply(F, 0.5, out=F)
        d = tmp_s[:m - 1]
        np.subtract(w[1:], w[:-1], out=d)
        np.multiply(0.5 * a, d, out=d)
        np.subtract(F, d, out=F)
        # lap = (w[2:] - 2 w[1:-1]) + w[:-2]
        lap = lap_s[:m - 2]
        np.multiply(w[1:-1], 2.0, out=lap)
        np.subtract(w[2:], lap, out=lap)
        np.add(lap, w[:-2], out=lap)
        d = tmp_s[:m - 2]
        np.subtract(F[1:], F[:-1], out=d)
        np.multiply(d, lam_dt_dx, out=d)
        w[1:-1] -= d
        np.multiply(lap, mu_coef, out=lap)
        w[1:-1] += lap
        u[0] = u[1]
        u[-1] = u[-2]
    return GridSolution(x=x, times=[tau], values=[np.ascontiguousarray(u)], dt=dt)


# ---------------------------------------------------------------------------
# travelling-wave profiles

@dataclass
class ShockProfile:
    left_state: np.ndarray
    right_state: np.ndarray
    speed: float
    family: int
    strength: float         # lambda_i(u+) - lambda_i(u-) < 0
    center_shift: float
    s_lo: float             # centered parameter range covered by the orbit
    s_hi: float
    # the shooting orbit (omega and the two mass integrals) as DOP853 dense
    # output: knots ts (from 0 to the landing parameter), and per step its
    # start t_old, length h, start state y_old and coefficient rows F of
    # shape (n_seg, 7, n + 2) in Horner order
    _ts: np.ndarray
    _t_old: np.ndarray
    _h: np.ndarray
    _y_old: np.ndarray
    _F: np.ndarray
    _orient: float          # raw = orient * (s + shift) mapping
    model: object

    def _orbit(self, raw, m=None):
        """The first m components of the shooting state at raw parameter(s).

        Same segment choice and float operations as scipy's OdeSolution
        over Dop853DenseOutput, applied to all points at once: shape
        (m,) for a scalar, (len(raw), m) for a 1-d array.
        """
        raw = np.asarray(raw, dtype=float)
        seg = np.clip(np.searchsorted(self._ts, raw, side="left") - 1,
                      0, self._h.size - 1)
        x = (raw - self._t_old[seg]) / self._h[seg]
        F = self._F[seg, :, :m]
        if raw.ndim:
            x = x[:, None]
        y = np.zeros(F.shape[:-2] + F.shape[-1:])
        for i in range(F.shape[-2]):
            y += F[..., i, :]
            if i % 2 == 0:
                y *= x
            else:
                y *= 1 - x
        y += self._y_old[seg, :m]
        return y

    def value(self, s):
        """omega at centered parameter s (clamped to u-+ / u+ in the tails)."""
        s = np.asarray(s, dtype=float)
        raw = self._orient * (s + self.center_shift)
        raw_cl = np.clip(raw, self._ts[0], self._ts[-1])
        out = np.atleast_2d(self._orbit(raw_cl, self.model.n))
        left = s + self.center_shift < self.s_lo
        right = s + self.center_shift > self.s_hi
        out[np.asarray(left).reshape(-1)] = self.left_state
        out[np.asarray(right).reshape(-1)] = self.right_state
        return out[0] if s.ndim == 0 else out

    def rhs(self, w):
        """First integral g(w) = f(w) - f(u-) - speed (w - u-) = omega'."""
        w = np.atleast_2d(w)
        return self.model.flux(w) - self.model.flux(self.left_state) \
            - self.speed * (w - self.left_state)

    def jet(self, s):
        """(omega, omega', omega'') at s from one orbit lookup.

        omega' comes from the first integral (zero in the tails) and
        omega'' = (A(omega) - speed) omega'.
        """
        w = np.atleast_2d(self.value(s))
        g = self.rhs(w)
        s_arr = np.atleast_1d(np.asarray(s, dtype=float)) + self.center_shift
        g[(s_arr < self.s_lo) | (s_arr > self.s_hi)] = 0.0
        a = self.model.jacobian(w) - self.speed * np.eye(self.model.n)
        g2 = (a @ g[..., None])[..., 0]
        if np.asarray(s).ndim == 0:
            return w[0], g[0], g2[0]
        return w, g, g2

    def mass_balance(self, s_uncentered):
        """I-(s) - I+(s): left mass below s minus right mass above s, using
        the quadrature states carried by the shooting integration."""
        n = self.model.n
        raw = float(np.clip(self._orient * s_uncentered, self._ts[0], self._ts[-1]))
        y = self._orbit(raw)
        yT = self._orbit(self._ts[-1])
        if self._orient > 0:
            i_minus = float(y[n])
            i_plus = float(yT[n + 1] - y[n + 1])
        else:
            i_minus = float(yT[n] - y[n])
            i_plus = float(y[n + 1])
        return i_minus - i_plus

    def centering_residual(self):
        return self.mass_balance(self.center_shift)


def _lax_family(lam_l, lam_r, speed):
    for i in range(len(lam_l)):
        if lam_r[i] < speed + 1e-7 and speed < lam_l[i] + 1e-7:
            return i + 1
    raise NotLaxPair(
        f"no family satisfies lambda_i(u+) < {speed:.6g} < lambda_i(u-); "
        f"lambdas: {lam_r} | {lam_l}"
    )


def _orbit_arrays(ode_solution):
    """The ShockProfile orbit fields of a DOP853 OdeSolution, which is not
    kept: its knots and, stacked over steps, the Dop853DenseOutput fields
    t_old, h, y_old and F (rows reversed into Horner order)."""
    steps = ode_solution.interpolants
    return {
        "_ts": np.asarray(ode_solution.ts, dtype=float),
        "_t_old": np.array([st.t_old for st in steps]),
        "_h": np.array([st.h for st in steps]),
        "_y_old": np.array([st.y_old for st in steps]),
        "_F": np.array([st.F[::-1] for st in steps]),
    }


def shock_profile(model, u_minus, u_plus):
    """Viscous profile connecting a Lax shock pair, centered per the
    equal-mass rule (integral of |omega - u-| on s<0 equals that of
    |omega - u+| on s>0).

    The pair is checked first; a model with profile_fn then returns its
    closed form, and one without shoots."""
    um = np.asarray(u_minus, dtype=float)
    up = np.asarray(u_plus, dtype=float)
    try:
        lam = shock_speed(model, um, up)
    except Exception as exc:
        raise NotLaxPair(str(exc))
    lam_l, lam_r = wave_speeds(model, um), wave_speeds(model, up)
    fam = _lax_family(lam_l, lam_r, lam)
    sigma = float(lam_r[fam - 1] - lam_l[fam - 1])
    if sigma >= 0:
        raise NotLaxPair("strength is non-negative; not a shock")
    if model.profile_fn is not None:
        return model.profile_fn(um, up)
    scale = max(1.0, float(np.max(np.abs(um))), float(np.max(np.abs(up))))

    forward = fam == model.n
    if not forward and fam != 1:
        raise ShootFailure("profiles are shipped for the extreme families only")
    if forward:
        start_anchor, target = um, up
    else:
        start_anchor, target = up, um
    d = eigen_frame(model, start_anchor)[fam - 1]
    d = d / np.linalg.norm(d)
    if float(d @ (up - um)) * (1.0 if forward else -1.0) < 0:
        d = -d
    eta = 1e-8 * abs(sigma)
    w0 = start_anchor + eta * d

    sign = 1.0 if forward else -1.0
    flux, n = model.flux, model.n
    f_um = flux(um)

    def rhs(_, y):
        # a fresh array per call: the solver keeps earlier right-hand sides
        out = np.empty(n + 2)
        w = y[:n]
        a = w - um
        b = w - up
        out[:n] = sign * (flux(w) - f_um - lam * a)
        out[n] = math.sqrt(a @ a)       # np.linalg.norm of a real vector
        out[n + 1] = math.sqrt(b @ b)
        return out

    def landed(_, y):
        return float(np.linalg.norm(y[: model.n] - target)) - _LAND_TOL * scale

    landed.terminal = True
    landed.direction = -1

    s_max = 400.0 / abs(sigma) + 100.0
    # cap the step near the layer scale so the dense interpolant stays well
    # below the 1e-8 profile accuracy everywhere, not just at solver nodes
    from scipy.integrate import solve_ivp    # imported here: only the shooting needs it

    sol = solve_ivp(rhs, (0.0, s_max), np.concatenate([w0, [0.0, 0.0]]),
                    method="DOP853", rtol=1e-12, atol=1e-14 * scale,
                    max_step=0.1 / abs(sigma),
                    dense_output=True, events=landed)
    end = float(np.linalg.norm(sol.y[: model.n, -1] - target))
    if end > 1e-10 * scale:
        raise ShootFailure(f"orbit missed the target state by {end:.3e}")
    T = sol.t[-1]

    # physical parameter: forward raw in [0, T] maps to s in [0, T] with u-
    # behind; backward raw in [0, T] maps to s in [-T, 0]
    if forward:
        orient, s_lo, s_hi = 1.0, 0.0, T
    else:
        orient, s_lo, s_hi = -1.0, -T, 0.0

    prof = ShockProfile(
        left_state=um, right_state=up, speed=lam, family=fam, strength=sigma,
        center_shift=0.0, s_lo=s_lo, s_hi=s_hi, **_orbit_arrays(sol.sol),
        _orient=orient, model=model,
    )
    lo, hi = s_lo, s_hi
    if prof.mass_balance(lo) > 0 or prof.mass_balance(hi) < 0:
        raise ShootFailure("centering bracket failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if prof.mass_balance(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-13 * (1.0 + abs(s_hi - s_lo)):
            break
    prof.center_shift = 0.5 * (lo + hi)
    return prof


def tail_bound_check(profile):
    """Fit C1, C2 in the exponential tail envelopes of the profile derivatives.

    The envelope rate is the endpoint linearization rate
    min(lambda_i(u-) - speed, speed - lambda_i(u+)), reported as a fraction
    of |sigma| (about 1/2 for weak shocks).  max_violation measures how much
    the outer 10% of the sampled range exceeds the interior maximum of the
    ratio |omega'| / envelope: zero for a valid envelope.
    """
    i = profile.family - 1
    lam_l = wave_speeds(profile.model, profile.left_state)[i]
    lam_r = wave_speeds(profile.model, profile.right_state)[i]
    rate = min(lam_l - profile.speed, profile.speed - lam_r)
    sigma = abs(profile.strength)
    rate_factor = rate / sigma

    s = np.linspace(profile.s_lo, profile.s_hi, 4000) - profile.center_shift
    w, d1, d2 = profile.jet(s)
    # drop the deep tails where the orbit sits below the dense-output noise
    # floor; the envelope is about the profile shape, not float dust
    dist = np.minimum(
        np.linalg.norm(w - profile.left_state, axis=1),
        np.linalg.norm(w - profile.right_state, axis=1),
    )
    keep = dist > 1e-9 * max(1.0, sigma)
    s = s[keep]
    d1 = np.linalg.norm(d1[keep], axis=1)
    d2 = np.linalg.norm(d2[keep], axis=1)
    env1 = sigma ** 2 * np.exp(-rate * np.abs(s))
    env2 = sigma ** 3 * np.exp(-rate * np.abs(s))
    r1 = d1 / env1
    r2 = d2 / env2
    span = float(np.max(np.abs(s)))
    outer = np.abs(s) > 0.9 * span
    inner = ~outer

    def viol(r):
        m_in = float(np.max(r[inner]))
        m_out = float(np.max(r[outer])) if np.any(outer) else 0.0
        return max(0.0, m_out / m_in - 1.0)

    return {
        "c1": float(np.max(r1)),
        "c2": float(np.max(r2)),
        "rate_factor": float(rate_factor),
        "max_violation": max(viol(r1), viol(r2)),
    }
