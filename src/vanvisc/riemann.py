"""Exact Riemann solver: Lax curves, admissible shocks, signed strengths.

Wave strength follows the lambda-difference convention: an i-wave joining
u_left to u_right has sigma = lambda_i(u_right) - lambda_i(u_left), so
shocks carry sigma < 0 and rarefactions sigma > 0 under genuine
nonlinearity.  The i-shock branch of the wave curve is parametrized by that
same sigma (root-finding on the Hugoniot locus), which keeps strengths
additive in every functional downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoRoot, NoSolution, NotOnLocus
from .system import eigen_frame, wave_speeds

RH_TOL = 1e-8
ZERO_WAVE = 1e-12
# absolute residual bound of the Hugoniot point
_HUGONIOT_TOL = 1e-11
# Riemann iteration: residual bound relative to the data scale, clip on each
# starting strength, and Newton step budget
_RIEMANN_TOL = 1e-14
_MAX_STRENGTH = 4.0
_MAX_ITER = 100


@dataclass(frozen=True)
class ElementaryWave:
    family: int            # 1-based
    kind: str              # "shock" | "rarefaction"
    strength: float
    speed: object          # float for shocks, (lambda_left, lambda_right) for fans
    left_state: np.ndarray
    right_state: np.ndarray


@dataclass(frozen=True)
class WaveFan:
    waves: list

    def strengths(self, n):
        out = np.zeros(n)
        for w in self.waves:
            out[w.family - 1] += w.strength
        return out


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


def lax_curve(model, i, u0, s, max_param=1.0):
    """Point at parameter s on the i-th Lax wave curve through u0.

    s > 0 follows the rarefaction curve (integral curve of r_i, so that
    lambda_i increases by exactly s); s < 0 lands on the Hugoniot locus with
    lambda_i(result) - lambda_i(u0) = s.
    """
    u0 = np.asarray(u0, dtype=float)
    model.check_domain(u0)
    if abs(s) > max_param:
        raise ValueError(f"|s|={abs(s)} exceeds max_param={max_param}")
    if s == 0.0:
        return u0.copy()
    if s > 0:
        u = _rk4_curve(model, i, u0, s)
        model.check_domain(u)
        return u
    return _hugoniot_point(model, i, u0, s)


def _damped_newton(res, z, tol, max_iter, error):
    """Newton's method for res(z) = (residual, extra) = (0, extra).

    The Jacobian is a forward difference with column step
    1e-7 max(1, |z_k|); each step is halved up to 40 times until the max
    norm of the residual decreases, and a probe that raises counts as no
    decrease.  Returns z and its extra once the residual is below tol;
    raises error on a singular Jacobian, a failed line search or after
    max_iter steps.
    """
    f, extra = res(z)
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
            J[:, k] = (res(z + dz)[0] - f) / dz[k]
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise error("singular Jacobian in Newton's method")
        lam = 1.0
        for _ in range(40):
            z_new = z + lam * step
            try:
                f_new, extra_new = res(z_new)
            except Exception:
                f_new = None
            if f_new is not None and np.max(np.abs(f_new)) < np.max(np.abs(f)):
                z, f, extra = z_new, f_new, extra_new
                break
            lam *= 0.5
        else:
            raise error(f"Newton line search failed at residual {np.max(np.abs(f)):.3e}")
    return z, extra


def _hugoniot_point(model, i, u0, s):
    """Solve f(u)-f(u0) = speed (u-u0), lambda_i(u)-lambda_i(u0) = s."""
    lam0 = wave_speeds(model, u0)[i - 1]
    r0 = eigen_frame(model, u0)[i - 1]
    n = model.n
    z = np.empty(n + 1)
    z[:n] = u0 + s * r0
    z[n] = lam0 + 0.5 * s

    def res(z):
        u, sp = z[:n], z[n]
        # the line search rejects probes outside the domain by this raise
        model.check_domain(u)
        out = np.empty(n + 1)
        out[:n] = model.flux(u) - model.flux(u0) - sp * (u - u0)
        out[n] = wave_speeds(model, u)[i - 1] - lam0 - s
        return out, None

    return _damped_newton(res, z, _HUGONIOT_TOL, 60, NoRoot)[0][:n]


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


def _compose(model, u_minus, s, max_param):
    u = np.asarray(u_minus, dtype=float)
    states = [u]
    for i in range(1, model.n + 1):
        u = lax_curve(model, i, u, float(s[i - 1]), max_param=max_param)
        states.append(u)
    return states


def solve_riemann(model, u_minus, u_plus):
    """Classical Lax solution of the Riemann problem (small data).

    Returns a WaveFan whose strengths, composed through lax_curve, map
    u_minus to u_plus with residual below 1e-14 times the data scale.
    """
    um = np.asarray(u_minus, dtype=float)
    up = np.asarray(u_plus, dtype=float)
    model.check_domain(um)
    model.check_domain(up)
    scale = max(1.0, float(np.max(np.abs(up))), float(np.max(np.abs(um))))

    if np.max(np.abs(up - um)) < ZERO_WAVE * scale:
        return WaveFan(waves=[])

    mid = 0.5 * (um + up)
    # the left eigenvectors, dual to the rows of R, give the linearised strengths
    L = np.linalg.inv(eigen_frame(model, mid).T)
    s = L @ (up - um)
    s = np.clip(s, -_MAX_STRENGTH, _MAX_STRENGTH)
    slack = 1.5 * _MAX_STRENGTH + 0.1  # Newton probes may step past the data size

    def residual(s):
        states = _compose(model, um, s, max_param=slack)
        return states[-1] - up, states

    s, states = _damped_newton(residual, s, _RIEMANN_TOL * scale, _MAX_ITER, NoSolution)

    waves = []
    for i in range(1, model.n + 1):
        si = float(s[i - 1])
        ul, ur = states[i - 1], states[i]
        if abs(si) <= ZERO_WAVE:
            continue
        if si < 0:
            sp = shock_speed(model, ul, ur)
            waves.append(ElementaryWave(i, "shock", si, sp, ul, ur))
        else:
            lam_l = wave_speeds(model, ul)[i - 1]
            lam_r = wave_speeds(model, ur)[i - 1]
            waves.append(ElementaryWave(i, "rarefaction", si, (lam_l, lam_r), ul, ur))
    return WaveFan(waves=waves)

