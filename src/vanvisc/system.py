"""Hyperbolic system definitions: flux, Jacobian and normalized eigenvectors.

Ships two genuinely nonlinear presets: the scalar Burgers law f(u) = u^2/2
and the 2x2 p-system (v, w) with f(v, w) = (-w, p(v)), p(v) = k v^(-gamma).
Right eigenvectors are scaled so that grad(lambda_i) . r_i = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .burgers import TanhProfile, cole_hopf, hopf_lax
from .errors import BadParameter, GNLViolation, NoSolution, NonHyperbolic, OutOfDomain

_EIG_TOL = 1e-12
_FD_STEP = 1e-6
# brentq's least relative tolerance, 4 machine epsilons
_BRENT_RTOL = 4 * np.finfo(float).eps


@dataclass(frozen=True)
class SystemModel:
    """A system u_t + f(u)_x = 0 with n components.

    flux, jacobian and lambda_fn take one state of shape (n,) or a stack of
    states of shape (..., n): flux returns (n,) or (..., n), jacobian (n, n)
    or (..., n, n), lambda_fn the eigenvalues in ascending order, (n,) or
    (..., n).  Grid solvers and the hybrid call them once on whole arrays.
    A stack may be a non-contiguous view (the viscous grid passes windows of
    its component-major state), so these callables must not rely on memory
    layout.
    """
    n: int
    flux: Callable
    jacobian: Callable
    domain_box: tuple  # ((lo_1, hi_1), ..., (lo_n, hi_n))
    name: str = "custom"
    # optional closed-form gradient of the eigenvalues, rows = grad lambda_i;
    # presets ship one, the finite-difference fallback remains the oracle
    grad_lambda_fn: Callable = None
    # optional closed-form eigenvalues; without it wave_speeds falls back to
    # batched np.linalg.eigvals of the jacobian
    lambda_fn: Callable = None
    # optional closed-form Lax wave curve: wave_curve(i, u0, s) is the state
    # with lambda_i - lambda_i(u0) = s on the i-th rarefaction curve (s > 0)
    # or Hugoniot locus (s < 0) through one state u0, raising OutOfDomain
    # where the curve has no such state; without it riemann.lax_curve
    # integrates r_i by RK4 and solves the Hugoniot locus by Newton, which
    # remain the oracle
    wave_curve: Callable = None
    # optional exact Riemann solver: riemann_fn(u_l, u_r) returns the (n,)
    # per-family strengths of the Lax solution, raising NoSolution where it
    # finds none; riemann.solve_riemann composes them once through lax_curve
    # as its check.  Without it solve_riemann runs a damped Newton over
    # lax_curve, which remains the oracle
    riemann_fn: Callable = None
    # optional closed-form viscous solution: viscous_fn(data, eps, t, x) is
    # u_eps(t, x) of shape (len(x), n) for PiecewiseConstant data; with it
    # viscous.solve_viscous evaluates it on its grid instead of stepping
    viscous_fn: Callable = None
    # optional closed-form travelling shock profile: profile_fn(u_minus,
    # u_plus) for a Lax shock pair, centred at s = 0, whose jet(s) is all
    # that the hybrid reads; without it viscous.shock_profile shoots
    profile_fn: Callable = None
    # optional closed-form entropy solution: entropy_fn(data, t, x) is u(t, x)
    # of shape (len(x), n); with viscous_fn it gives the convergence rows
    # their distances to the exact solution, whose far field is read from
    # the Burgers closed forms' settled points (burgers.settled_pieces)
    entropy_fn: Callable = None

    def in_domain(self, u):
        u = np.asarray(u, dtype=float)
        for ui, (lo, hi) in zip(u, self.domain_box):
            # written so that NaN is outside
            if not lo <= ui <= hi:
                return False
        return True

    def check_domain(self, u):
        if not self.in_domain(u):
            raise OutOfDomain(f"state {np.asarray(u)} outside domain_box {self.domain_box}")

    @cached_property
    def max_speed(self):
        """Largest |lambda_i| over a 5-point-per-axis grid of the domain box,
        computed once per model."""
        return float(np.max(max_abs_eigenvalue(self, _domain_grid(self.domain_box, 5))))


def wave_speeds(model, u):
    """Eigenvalues lambda_1 <= ... <= lambda_n at one state (n,) or a stack
    (..., n): model.lambda_fn, or the sorted eigenvalues of the jacobian."""
    u = np.asarray(u, dtype=float)
    if model.lambda_fn is not None:
        return model.lambda_fn(u)
    return np.sort(np.linalg.eigvals(model.jacobian(u)).real, axis=-1)


def max_abs_eigenvalue(model, u):
    """max_i |lambda_i(u)| for a stack of states u of shape (..., n)."""
    lam = wave_speeds(model, u)
    # ascending eigenvalues: the extreme families bound every |lambda_i|
    return np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))


def _domain_grid(box, samples):
    axes = [np.linspace(lo, hi, samples) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _unit_eigenvectors(A, lam):
    """Unit right eigenvectors of the (n, n) matrix A for its real eigenvalues
    lam: row i spans the null space of A - lam_i I.  A coupled 2x2 takes one
    adjugate column per speed; a diagonal 2x2 and n >= 3 take the SVD null
    vector."""
    n = A.shape[0]
    if n == 1:
        return np.array([[1.0]])
    if n == 2 and (A[0, 1] != 0.0 or A[1, 0] != 0.0):
        V = np.empty((2, 2))
        if abs(A[0, 1]) >= abs(A[1, 0]):
            V[:, 0], V[:, 1] = A[0, 1], lam - A[0, 0]
        else:
            V[:, 0], V[:, 1] = lam - A[1, 1], A[1, 0]
        return V / np.hypot(V[:, 0], V[:, 1])[:, None]
    return np.array([np.linalg.svd(A - li * np.eye(n))[2][-1] for li in lam])


def grad_lambda_fd(model, u):
    """Central finite differences of wave_speeds at u, one axis at a time,
    with the step 1e-6 max(1, |u_k|) so that it stays above the rounding of
    large states: row i of the (n, n) result is grad lambda_i."""
    u = np.asarray(u, dtype=float)
    g = np.empty((model.n, model.n))
    for k in range(model.n):
        e = np.zeros(model.n)
        e[k] = h = _FD_STEP * max(1.0, abs(u[k]))
        g[:, k] = (wave_speeds(model, u + e) - wave_speeds(model, u - e)) / (2 * h)
    return g


def grad_lambda(model, u):
    """Row i is grad lambda_i at u: model.grad_lambda_fn, or finite
    differences without it."""
    if model.grad_lambda_fn is not None:
        return model.grad_lambda_fn(np.asarray(u, dtype=float))
    return grad_lambda_fd(model, u)


def eigen_frame(model, u):
    """Normalized right eigenvectors at u: row i of the (n, n) result is r_i,
    an eigenvector for the i-th speed of wave_speeds, with
    grad lambda_i . r_i = 1.  A complex pair shares its real part, so it
    fails the gap check between families."""
    u = np.asarray(u, dtype=float)
    model.check_domain(u)
    lams = wave_speeds(model, u)
    if model.n > 1 and np.min(np.diff(lams)) < _EIG_TOL:
        raise NonHyperbolic(f"eigenvalue gap below {_EIG_TOL} at {u}")
    V = _unit_eigenvectors(model.jacobian(u), lams)
    G = grad_lambda(model, u)
    R = np.empty((model.n, model.n))
    for i in range(model.n):
        scale = float(G[i] @ V[i])
        if abs(scale) < 1e-14:
            raise GNLViolation(f"grad lambda_{i+1} . r_{i+1} vanishes at {u}")
        R[i] = V[i] / scale
    return R


def preset_model(name, gamma=None, k=None):
    """Named genuinely nonlinear presets: "burgers" or "p_system"."""
    if name == "burgers":
        return SystemModel(
            n=1,
            flux=lambda u: 0.5 * u * u,
            jacobian=lambda u: np.array(u, dtype=float)[..., None],
            domain_box=((-4.0, 4.0),),
            name="burgers",
            grad_lambda_fn=lambda u: np.array([[1.0]]),
            lambda_fn=lambda u: np.array(u, dtype=float),
            wave_curve=lambda i, u0, s: u0 + s,   # lambda = u on both branches
            viscous_fn=cole_hopf,
            profile_fn=TanhProfile,
            entropy_fn=hopf_lax,
        )
    if name == "p_system":
        gamma = 2.0 if gamma is None else float(gamma)
        k = 1.0 if k is None else float(k)
        if gamma <= 1.0:
            raise BadParameter(f"p_system needs gamma > 1, got {gamma}")
        if k <= 0.0:
            raise BadParameter(f"p_system needs k > 0, got {k}")

        # u.T unpacks one state into numpy scalars (the per-state callers in
        # front tracking stay scalar) and a stack into whole component arrays
        def flux(u):
            v, w = u.T
            return np.array([-w, k * v ** (-gamma)]).T

        def jac(u):
            v = u.T[0]
            out = np.zeros(np.shape(u) + (2,))
            out[..., 0, 1] = -1.0
            out[..., 1, 0] = (-gamma * k * v ** (-gamma - 1.0)).T
            return out

        root_gk = math.sqrt(gamma * k)

        def lam(u):
            # lambda_{1,2} = -/+ sqrt(gamma k) v^(-(gamma+1)/2)
            c = root_gk * u.T[0] ** (-(gamma + 1.0) / 2.0)
            return np.array([-c, c]).T

        def grad_lam(u):
            # lambda_{1,2} = -/+ sqrt(gamma k) v^(-(gamma+1)/2)
            v, _ = u
            d = root_gk * 0.5 * (gamma + 1.0) * v ** (-(gamma + 3.0) / 2.0)
            return np.array([[d, 0.0], [-d, 0.0]])

        def sound_speed(v):
            # c(v) = lambda_2 = -lambda_1 at one Python float v
            return root_gk * v ** (-(gamma + 1.0) / 2.0)

        def increment(i, v0, s):
            # (v - v0, w - w0) at lambda_i - lambda_i(u0) = s on the i-th
            # wave curve through u0, in Python floats: the curves do not
            # depend on w0.  lambda_i = -/+ c(v), so c(v) = c(v0) -/+ s
            # gives v.  On a rarefaction, w -/+ 2 c(v) v / (gamma - 1) is the
            # Riemann invariant; on a shock, (w - w0)^2 = -(p(v) - p(v0))(v - v0)
            # with sign(w - w0) = +/- sign(v - v0) (Smoller, ch. 17).  The
            # increments go through log1p/expm1 of ln(c / c0), so a small s
            # moves u0 by a small, accurate amount.
            sign = 1.0 if i == 1 else -1.0
            c0 = sound_speed(v0)
            dc = -sign * s / c0             # c / c0 - 1
            if not dc > -1.0:
                raise OutOfDomain(f"{i}-wave curve through v = {v0} leaves v > 0 at s = {s}")
            try:
                log_c = math.log1p(dc)      # ln(c / c0); v / v0 = (c / c0)^(-2 / (gamma + 1))
                dv = v0 * math.expm1(-2.0 * log_c / (gamma + 1.0))
                if s > 0:
                    # w - w0 = 2 (c0 v0 - c v) / (gamma - 1) up to the sign
                    cv_ratio_m1 = math.expm1((gamma - 1.0) * log_c / (gamma + 1.0))
                    dw = -2.0 * c0 * v0 / (gamma - 1.0) * cv_ratio_m1
                else:
                    # p(v) - p(v0) = p(v0) ((v / v0)^(-gamma) - 1)
                    dp = k * v0 ** (-gamma) * math.expm1(2.0 * gamma * log_c / (gamma + 1.0))
                    dw = math.copysign(math.sqrt(abs(dp * dv)), dv)
            except OverflowError:
                raise OutOfDomain(f"{i}-wave curve through v = {v0} overflows at s = {s}")
            return dv, sign * dw

        def wave_curve(i, u0, s):
            v0, w0 = u0
            dv, dw = increment(i, float(v0), float(s))
            return np.array([v0 + dv, w0 + dw])

        box = ((0.5, 2.0), (-2.0, 2.0))
        # the sound speeds of the box's v range
        c_min, c_max = sound_speed(box[0][1]), sound_speed(box[0][0])

        def riemann_fn(u_l, u_r):
            # The system is invariant under w -> w + const, so the middle
            # state's sound speed c_m fixes both strengths, s_1 = c_l - c_m
            # and s_2 = c_r - c_m, and c_m is the root of g, the miss in w of
            # the two waves composed from u_l: the p-system form of the
            # pressure-function solver (Toro, ch. 4).  g is monotone, so the
            # box's sound speeds bracket its root.
            v_l, w_l = map(float, u_l)
            v_r, w_r = map(float, u_r)
            c_l = sound_speed(v_l)
            # the last wave ends where c = c_r, up to a few ulps of rounding
            # in v; aimed 2^-48 (relative) inside the box's sound speeds, it
            # does not end past a face of the box's v range
            c_r = min(max(sound_speed(v_r), c_min * (1 + 2.0 ** -48)), c_max * (1 - 2.0 ** -48))

            def g(c_m):
                dv1, dw1 = increment(1, v_l, c_l - c_m)
                return w_l + dw1 + increment(2, v_l + dv1, c_r - c_m)[1] - w_r

            # a 1-wave whose absence misses u_r by less than solve_riemann's
            # composition bound is exactly 0, so that the middle state is u_l
            # itself, also on a face of the box
            tol = 1e-14 * max(1.0, abs(v_l), abs(w_l), abs(v_r), abs(w_r))
            if abs(g(c_l)) < tol:
                return np.array([0.0, c_r - c_l])
            from scipy import optimize    # imported here: only this solver needs it

            try:
                c_m = optimize.brentq(g, c_min, c_max, xtol=1e-300, rtol=_BRENT_RTOL)
            except ValueError:
                # brentq's refusal of a bracket on which g keeps its sign
                raise NoSolution(f"no middle state in the box joins {u_l} to {u_r}") from None
            return np.array([c_l - c_m, c_r - c_m])

        return SystemModel(
            n=2,
            flux=flux,
            jacobian=jac,
            domain_box=box,
            name="p_system",
            grad_lambda_fn=grad_lam,
            lambda_fn=lam,
            wave_curve=wave_curve,
            riemann_fn=riemann_fn,
        )
    raise BadParameter(f"unknown preset {name!r}")


def check_genuine_nonlinearity(model, samples=100):
    """Sample grad(lambda_i) . r_i with unit eigenvectors over the domain box.

    The eigenvector sign is fixed so the product is >= 0 (r is only defined
    up to sign before GNL normalization).  Returns a dict with per-family
    minima of the product, the minimum eigenvalue gap, and the sample count.
    Raises GNLViolation if any family degenerates on the sample set.
    """
    if samples < 1:
        raise BadParameter("samples must be >= 1")
    per_side = max(2, int(round(samples ** (1.0 / model.n))))
    pts = _domain_grid(model.domain_box, per_side)
    gnl_min = np.full(model.n, np.inf)
    argmin = [None] * model.n
    gap_min = np.inf
    for u in pts:
        lams = wave_speeds(model, u)
        V = _unit_eigenvectors(model.jacobian(u), lams)
        if model.n > 1:
            gap_min = min(gap_min, float(np.min(np.diff(lams))))
        G = grad_lambda_fd(model, u)
        for i in range(model.n):
            val = abs(float(G[i] @ V[i]))
            if val < gnl_min[i]:
                gnl_min[i] = val
                argmin[i] = u.copy()
    for i in range(model.n):
        if gnl_min[i] < 1e-8:
            raise GNLViolation(
                f"family {i+1} degenerates: grad lambda . r = {gnl_min[i]:.3e} at {argmin[i]}"
            )
    return {
        "gnl_min": gnl_min,
        "gnl_argmin": argmin,
        "min_gap": (gap_min if model.n > 1 else np.inf),
        "n_samples": pts.shape[0],
    }
