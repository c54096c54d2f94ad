"""Exact Riemann solver: Lax curves, admissible shocks, signed strengths.

Wave strength follows the lambda-difference convention: an i-wave joining
u_left to u_right has sigma = lambda_i(u_right) - lambda_i(u_left), so
shocks carry sigma < 0 and rarefactions sigma > 0 under genuine
nonlinearity.  The i-shock branch of the wave curve is parametrized by that
same sigma (root-finding on the Hugoniot locus), which keeps strengths
additive in every functional downstream.
"""

from __future__ import annotations

import numpy as np

from .errors import NoRoot, NoSolution, NotOnLocus, OutOfDomain, VanviscError
from .system import eigen_frame, wave_speeds

RH_TOL = 1e-8
ZERO_WAVE = 1e-12
# residual bound of the Hugoniot point, relative to the scale of f(u0) in
# the Rankine-Hugoniot rows and of lambda(u0) in the speed row
_HUGONIOT_TOL = 1e-11
# Riemann iteration: residual bound relative to the data scale, the least
# clip on each starting strength, and Newton step budget
_RIEMANN_TOL = 1e-14
_MAX_STRENGTH = 4.0
_MAX_ITER = 100


def _rk4_curve(model, i, u0, s):
    """Integrate d(omega)/ds = r_i(omega) with classic RK4, fixed step."""
    steps = max(8, int(np.ceil(abs(s) / 0.01)))
    h = s / steps
    u = np.array(u0, dtype=float)

    def rhs(w):
        return eigen_frame(model, w)[i - 1]

    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * h * k1)
        k3 = rhs(u + 0.5 * h * k2)
        k4 = rhs(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def lax_curve(model, i, u0, s):
    """Point at parameter s on the i-th Lax wave curve through u0.

    s > 0 follows the rarefaction curve (integral curve of r_i, so that
    lambda_i increases by exactly s); s < 0 lands on the Hugoniot locus with
    lambda_i(result) - lambda_i(u0) = s.  model.wave_curve gives the point in
    closed form; a model without it takes RK4 on r_i or Newton on the locus.
    """
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    if s == 0.0:
        return u0.copy()
    if model.wave_curve is not None:
        u = model.wave_curve(i, u0, s)
    elif s > 0:
        u = _rk4_curve(model, i, u0, s)
    else:
        u = _hugoniot_point(model, i, u0, s)
    model.check_domain(u)
    return u


def _damped_newton(res, z, tol, max_iter, error):
    """Newton's method for res(z) = 0.

    The Jacobian is a forward difference with column step
    1e-7 max(1, |z_k|); each step is halved up to 40 times until the max
    norm of the residual decreases, and a probe that raises counts as no
    decrease.  Returns z once the residual is below tol; raises error on a
    Jacobian probe that raises, a singular Jacobian, a failed line search or
    after max_iter steps.
    """
    f = res(z)
    it = 0
    while np.max(np.abs(f)) >= tol:
        it += 1
        if it > max_iter:
            raise error(f"Newton did not converge in {max_iter} steps, "
                        f"residual {np.max(np.abs(f)):.3e}")
        J = np.empty((f.size, z.size))
        for k in range(z.size):
            dz = np.zeros(z.size)
            dz[k] = 1e-7 * max(1.0, abs(z[k]))
            try:
                J[:, k] = (res(z + dz) - f) / dz[k]
            except VanviscError as exc:
                # a probe past the Newton slack, or outside the domain
                raise error(f"Jacobian probe failed: {exc}") from exc
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise error("singular Jacobian in Newton's method")
        lam = 1.0
        for _ in range(40):
            z_new = z + lam * step
            try:
                f_new = res(z_new)
            except Exception:
                f_new = None
            if f_new is not None and np.max(np.abs(f_new)) < np.max(np.abs(f)):
                z, f = z_new, f_new
                break
            lam *= 0.5
        else:
            raise error(f"Newton line search failed at residual {np.max(np.abs(f)):.3e}")
    return z


def _hugoniot_point(model, i, u0, s):
    """Solve f(u)-f(u0) = speed (u-u0), lambda_i(u)-lambda_i(u0) = s."""
    lams0 = wave_speeds(model, u0)
    lam0 = lams0[i - 1]
    r0 = eigen_frame(model, u0)[i - 1]
    f0 = model.flux(u0)
    f_scale = max(1.0, float(np.max(np.abs(f0))))
    lam_scale = max(1.0, float(np.max(np.abs(lams0))))
    n = model.n
    z = np.empty(n + 1)
    z[:n] = u0 + s * r0
    z[n] = lam0 + 0.5 * s

    def res(z):
        u, sp = z[:n], z[n]
        # the line search rejects probes outside the domain by this raise
        model.check_domain(u)
        out = np.empty(n + 1)
        out[:n] = (model.flux(u) - f0 - sp * (u - u0)) / f_scale
        out[n] = (wave_speeds(model, u)[i - 1] - lam0 - s) / lam_scale
        return out

    return _damped_newton(res, z, _HUGONIOT_TOL, 60, NoRoot)[:n]


def shock_speed(model, u_minus, u_plus):
    """Least-squares Rankine-Hugoniot speed; NotOnLocus if the pair is not
    (numerically) on a single Hugoniot locus."""
    um = np.asarray(u_minus, dtype=float)
    up = np.asarray(u_plus, dtype=float)
    du = up - um
    nd = float(du @ du)
    if nd == 0.0:
        raise NotOnLocus("states coincide")
    df = model.flux(up) - model.flux(um)
    speed = float(df @ du) / nd
    resid = float(np.linalg.norm(df - speed * du))
    if resid > RH_TOL:
        raise NotOnLocus(f"RH residual {resid:.3e} exceeds {RH_TOL:.1e}")
    return speed


def _compose(model, u_minus, s):
    """End state of the strengths s composed from u_minus through lax_curve."""
    u = u_minus
    for i in range(1, model.n + 1):
        u = lax_curve(model, i, u, float(s[i - 1]))
    return u


def _snap(s):
    return np.where(np.abs(s) <= ZERO_WAVE, 0.0, s)


def solve_riemann(model, u_minus, u_plus):
    """Classical Lax solution of the Riemann problem (small data).

    Returns the (n,) per-family signed strengths, one of at most ZERO_WAVE
    set to 0; composed through lax_curve, they map u_minus to u_plus with
    residual below 1e-14 times the data scale before that snap.
    model.riemann_fn gives the strengths, composed once as the check
    (NoSolution if the composition leaves the box or misses u_plus); a
    model without it takes a damped Newton iteration.
    """
    um = np.asarray(u_minus, dtype=float)
    up = np.asarray(u_plus, dtype=float)
    model.check_domain(um)
    model.check_domain(up)
    # the scale, zero-wave and miss checks run on the states' Python floats,
    # which give the same maxima without numpy-scalar overhead; no state in
    # the box holds a NaN, which Python's max would not propagate
    ul, ur = um.tolist(), up.tolist()
    scale = max(1.0, max(map(abs, ur)), max(map(abs, ul)))

    if max(abs(b - a) for a, b in zip(ul, ur)) < ZERO_WAVE * scale:
        return np.zeros(model.n)
    tol = _RIEMANN_TOL * scale

    if model.riemann_fn is not None:
        s = model.riemann_fn(um, up)
        try:
            u = _compose(model, um, s).tolist()
            miss = max(abs(a - b) for a, b in zip(u, ur))
        except OutOfDomain as exc:
            raise NoSolution(f"riemann_fn's waves leave the domain box: {exc}") from exc
        if not miss < tol:
            raise NoSolution(f"riemann_fn's waves miss u_plus by {miss:.3e}")
        return _snap(s)

    # the left eigenvectors, dual to the rows of R, give the linearised strengths
    L = np.linalg.inv(eigen_frame(model, 0.5 * (um + up)).T)
    # the most lambda_i can change between two states of the box; probes
    # may step past it by half again
    bound = max(_MAX_STRENGTH, 2.0 * model.max_speed)
    s = np.clip(L @ (up - um), -bound, bound)
    slack = 1.5 * bound + 0.1

    def res(s):
        if np.max(np.abs(s)) > slack:
            raise NoSolution(f"|s|={np.max(np.abs(s))} exceeds the Newton slack {slack}")
        return _compose(model, um, s) - up

    while True:
        try:
            return _snap(_damped_newton(res, s, tol, _MAX_ITER, NoSolution))
        except OutOfDomain:
            # only the start's residual is unguarded: halve a start whose
            # composition leaves the box toward 0, which composes to u_minus
            s = 0.5 * s
