"""Closed forms of Burgers' equation for piecewise-constant data.

The Burgers preset ships these as its SystemModel hooks:

* cole_hopf(data, eps, t, x): the viscous solution u_eps of
  u_t + (u^2/2)_x = eps u_xx (Hopf 1950, CPAM 3; Cole 1951, Q. Appl. Math. 9);
* hopf_lax(data, t, x): the entropy solution u of u_t + (u^2/2)_x = 0
  (Lax 1957, CPAM 10);
* TanhProfile(u_minus, u_plus): the travelling shock profile.

The transcendental functions come from scipy.special, whose kernels are
plain compiled loops: numpy dispatches exp, log and tanh to SIMD code whose
last bits differ between CPU generations, and the convergence outputs are
compared byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

_LOG2E = math.log2(math.e)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# (points x pieces) cells per evaluation chunk: memory stays O(chunk)
# whatever the number of pieces
_CHUNK_CELLS = 1 << 14


def _exp(z):
    return special.exp2(z * _LOG2E)


def _pieces(data):
    """The pieces (a_j, b_j) of a scalar PiecewiseConstant with their values
    v_j, and the antiderivative U0 of the data (zero at the first
    breakpoint) written on piece j as U0(y) = U_j + v_j (y - p_j) about an
    anchor p_j in it.  Pieces of zero width carry no mass and are dropped."""
    xs = data.xs
    v = data.values[:, 0]
    if not xs.size:     # constant data: one piece, U0 = v y
        return tuple(np.array([z]) for z in (-np.inf, np.inf, v[0], 0.0, 0.0))
    P = np.concatenate([[0.0], np.cumsum(v[1:-1] * np.diff(xs))])    # U0 at xs
    a = np.concatenate([[-np.inf], xs])
    b = np.concatenate([xs, [np.inf]])
    p = np.concatenate([xs[:1], xs])
    U = np.concatenate([P[:1], P])
    keep = b > a
    return a[keep], b[keep], v[keep], p[keep], U[keep]


def _by_chunks(rows_fn, pieces, x):
    """rows_fn(pieces, x_chunk) over chunks of x, stacked into (len(x), 1)."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, 1))
    step = max(1, _CHUNK_CELLS // pieces[0].size)
    for i in range(0, x.size, step):
        out[i : i + step, 0] = rows_fn(pieces, x[i : i + step])
    return out


def cole_hopf(data, eps, t, x):
    """The viscous Burgers solution u_eps(t, x), shape (len(x), 1), from
    piecewise-constant data at t > 0.

    With U0 = U_j + v_j (y - p_j) on piece (a_j, b_j), sigma = sqrt(2 eps t),
    A_j = (a_j - x + v_j t) / sigma and B_j likewise with b_j,

        u = sum_j w_j [v_j + sqrt(2 eps / t) (phi(B_j) - phi(A_j)) / (Phi(B_j) - Phi(A_j))]

    with softmax weights of log
    (v_j^2 t / 2 - U_j - v_j (x - p_j)) / (2 eps) + log(Phi(B_j) - Phi(A_j)).
    The Gaussian masses are taken in log space by log_ndtr, on (-B, -A)
    where A > 0, so that no tail underflows.
    """
    sig = math.sqrt(2.0 * eps * t)

    def rows(pieces, xc):
        a, b, v, p, U = pieces
        c = xc[:, None] - v * t          # centre of piece j's Gaussian in y
        A = (a - c) / sig
        B = (b - c) / sig
        flip = A > 0
        lo = np.where(flip, -B, A)
        hi = np.where(flip, -A, B)
        l_hi = special.log_ndtr(hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_mass = l_hi + special.log1p(-_exp(special.log_ndtr(lo) - l_hi))
            log_w = log_mass + (0.5 * v * v * t - U - v * (xc[:, None] - p)) / (2.0 * eps)
            # the mean of (y - c) / sig over the piece's Gaussian mass
            drift = (_exp(-0.5 * A * A - _HALF_LOG_2PI - log_mass)
                     - _exp(-0.5 * B * B - _HALF_LOG_2PI - log_mass))
            w = _exp(log_w - np.max(log_w, axis=1, keepdims=True))
            # a piece whose mass underflows has w = 0 and a NaN drift
            terms = np.where(w > 0.0, w * (v - (sig / t) * drift), 0.0)
        return np.sum(terms, axis=1) / np.sum(w, axis=1)

    return _by_chunks(rows, _pieces(data), x)


def hopf_lax(data, t, x):
    """The entropy solution u(t, x) of inviscid Burgers, shape (len(x), 1),
    from piecewise-constant data at t > 0: u = (x - y*) / t, where y*
    minimises U0(y) + (x - y)^2 / (2 t).  On each piece the minimiser is
    x - v_j t clipped to the piece."""

    def rows(pieces, xc):
        a, b, v, p, U = pieces
        y = np.clip(xc[:, None] - v * t, a, b)
        cost = U + v * (y - p) + (xc[:, None] - y) ** 2 / (2.0 * t)
        y_star = np.take_along_axis(y, np.argmin(cost, axis=1)[:, None], axis=1)[:, 0]
        return (xc - y_star) / t

    return _by_chunks(rows, _pieces(data), x)


@dataclass(frozen=True)
class TanhProfile:
    """Burgers' travelling profile from u_minus down to u_plus,

        omega(s) = lambda - (|sigma| / 2) tanh(|sigma| s / 4)
                 = u_plus + |sigma| expit(-|sigma| s / 2),

    lambda = (u_minus + u_plus) / 2 and sigma = u_plus - u_minus < 0.  It is
    odd about lambda, so s = 0 is its equal-mass centre."""
    u_minus: np.ndarray     # (1,)
    u_plus: np.ndarray

    def jet(self, s):
        """(omega, omega', omega'') at s, shape (1,) for a scalar and
        (len(s), 1) for an array, with omega' = (omega - u-)(omega - u+) / 2
        and omega'' = (omega - lambda) omega'."""
        s = np.asarray(s, dtype=float)
        mag = float(self.u_minus[0] - self.u_plus[0])         # |sigma|
        z = 0.5 * mag * s[..., None]
        p, q = special.expit(z), special.expit(-z)        # p + q = 1
        w = self.u_plus + mag * q
        g = -0.5 * mag * mag * p * q
        return w, g, 0.5 * mag * (q - p) * g
