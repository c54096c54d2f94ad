"""Hyperbolic system definitions: flux, Jacobian and normalized eigenvectors.

Ships two genuinely nonlinear presets: the scalar Burgers law f(u) = u^2/2
and the 2x2 p-system (v, w) with f(v, w) = (-w, p(v)), p(v) = k v^(-gamma).
Right eigenvectors are scaled so that grad(lambda_i) . r_i = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BadParameter, GNLViolation, NonHyperbolic, OutOfDomain

_EIG_TOL = 1e-12
_FD_STEP = 1e-6


@dataclass(frozen=True)
class SystemModel:
    """A system u_t + f(u)_x = 0 with n components.

    flux, jacobian and lambda_fn take one state of shape (n,) or a stack of
    states of shape (..., n): flux returns (n,) or (..., n), jacobian (n, n)
    or (..., n, n), lambda_fn the eigenvalues in ascending order, (n,) or
    (..., n).  Grid solvers and the hybrid call them once on whole arrays.
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

    def in_domain(self, u):
        u = np.asarray(u, dtype=float)
        for ui, (lo, hi) in zip(u, self.domain_box):
            if ui < lo or ui > hi:
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


def _eig_sorted(A):
    """Real sorted eigen-decomposition; closed form for n <= 2."""
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0]]), np.array([[1.0]])
    if n == 2:
        tr = A[0, 0] + A[1, 1]
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        disc = tr * tr / 4.0 - det
        if disc < 0:
            raise NonHyperbolic("complex eigenvalues")
        rt = np.sqrt(disc)
        lams = np.array([tr / 2.0 - rt, tr / 2.0 + rt])
        vecs = []
        for lam in lams:
            if abs(A[0, 1]) >= abs(A[1, 0]):
                v = np.array([A[0, 1], lam - A[0, 0]])
            else:
                v = np.array([lam - A[1, 1], A[1, 0]])
            nv = np.linalg.norm(v)
            if nv == 0.0:
                v = np.array([1.0, 0.0]) if abs(A[0, 0] - lam) < abs(A[1, 1] - lam) else np.array([0.0, 1.0])
                nv = 1.0
            vecs.append(v / nv)
        return lams, np.array(vecs)
    lam, V = np.linalg.eig(A)
    order = np.argsort(lam.real)
    return lam.real[order], V.real[:, order].T


def grad_lambda_fd(model, u, i):
    """Central finite difference of lambda_i at u (i is 0-based here)."""
    u = np.asarray(u, dtype=float)
    g = np.zeros(model.n)
    for k in range(model.n):
        e = np.zeros(model.n)
        e[k] = _FD_STEP
        lp, _ = _eig_sorted(model.jacobian(u + e))
        lm, _ = _eig_sorted(model.jacobian(u - e))
        g[k] = (lp[i] - lm[i]) / (2 * _FD_STEP)
    return g


def grad_lambda(model, u, i):
    if model.grad_lambda_fn is not None:
        return model.grad_lambda_fn(np.asarray(u, dtype=float))[i]
    return grad_lambda_fd(model, u, i)


def eigen_frame(model, u):
    """Normalized right eigenvectors at u: row i of the (n, n) result is r_i,
    with grad lambda_i . r_i = 1.  The eigenvalues of the decomposition only
    check the gap between families; wave_speeds is the eigenvalue source."""
    u = np.asarray(u, dtype=float)
    model.check_domain(u)
    lams, V = _eig_sorted(model.jacobian(u))
    if model.n > 1 and np.min(np.diff(lams)) < _EIG_TOL:
        raise NonHyperbolic(f"eigenvalue gap below {_EIG_TOL} at {u}")
    R = np.empty((model.n, model.n))
    for i in range(model.n):
        g = grad_lambda(model, u, i)
        scale = float(g @ V[i])
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

        root_gk = np.sqrt(gamma * k)

        def lam(u):
            # lambda_{1,2} = -/+ sqrt(gamma k) v^(-(gamma+1)/2)
            c = root_gk * u.T[0] ** (-(gamma + 1.0) / 2.0)
            return np.array([-c, c]).T

        def grad_lam(u):
            # lambda_{1,2} = -/+ sqrt(gamma k) v^(-(gamma+1)/2)
            v, _ = u
            d = root_gk * 0.5 * (gamma + 1.0) * v ** (-(gamma + 3.0) / 2.0)
            return np.array([[d, 0.0], [-d, 0.0]])

        return SystemModel(
            n=2,
            flux=flux,
            jacobian=jac,
            domain_box=((0.5, 2.0), (-2.0, 2.0)),
            name="p_system",
            grad_lambda_fn=grad_lam,
            lambda_fn=lam,
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
        lams, V = _eig_sorted(model.jacobian(u))
        if model.n > 1:
            gap_min = min(gap_min, float(np.min(np.diff(lams))))
        for i in range(model.n):
            val = abs(float(grad_lambda_fd(model, u, i) @ V[i]))
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
