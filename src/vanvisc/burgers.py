"""Closed forms of Burgers' equation for piecewise-constant data.

The Burgers preset ships these as its SystemModel hooks:

* cole_hopf(data, eps, t, x): the viscous solution u_eps of
  u_t + (u^2/2)_x = eps u_xx (Hopf 1950, CPAM 3; Cole 1951, Q. Appl. Math. 9);
* hopf_lax(data, t, x): the entropy solution u of u_t + (u^2/2)_x = 0
  (Lax 1957, CPAM 10);
* TanhProfile(u_minus, u_plus): the travelling shock profile.

settled_pieces(data, eps, t, x) tells where u and u_eps both equal one
piece's value, which the convergence rows take without evaluating either.

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
# the piece window's margin beyond the backward cone, in units of
# sqrt(eps t): the Cole-Hopf weight of a piece beyond it is below e^-36
_MARGIN = 12.0
# a settled point: every other piece's action exceeds that of the piece
# holding the minimiser by at least _GAP eps (a weight below e^-40), and the
# minimiser sits at least _DEPTH sqrt(2 eps t) inside that piece
_GAP = 80.0
_DEPTH = 8.6


def _exp(z):
    return special.exp2(z * _LOG2E)


def _pieces(data):
    """The pieces (a_j, b_j) of a scalar PiecewiseConstant with their values
    v_j, the antiderivative U0 of the data (zero at the first breakpoint)
    written on piece j as U0(y) = U_j + v_j (y - p_j) about an anchor p_j
    in it, and the row of data.values each piece comes from.  Pieces of
    zero width carry no mass and are dropped."""
    xs = data.xs
    v = data.values[:, 0]
    if not xs.size:     # constant data: one piece, U0 = v y
        return tuple(np.array([z]) for z in (-np.inf, np.inf, v[0], 0.0, 0.0, 0))
    P = np.concatenate([[0.0], np.cumsum(v[1:-1] * np.diff(xs))])    # U0 at xs
    a = np.concatenate([[-np.inf], xs])
    b = np.concatenate([xs, [np.inf]])
    p = np.concatenate([xs[:1], xs])
    U = np.concatenate([P[:1], P])
    keep = b > a
    return a[keep], b[keep], v[keep], p[keep], U[keep], np.flatnonzero(keep)


def _windowed(rows_fn, pieces, t, x, margin, cell=None):
    """rows_fn(window, x_chunk) over chunks of the points x, in increasing
    order, gathered into shape (len(x),).

    A chunk holds at most _CHUNK_CELLS // len(pieces) points, and window
    holds the pieces that meet [lo - t u_max - margin, hi - t u_min + margin]
    (u_min, u_max the extremes of the data).  [lo, hi] is the chunk's span,
    or, given a cell width, the lattice cell [k cell, (k + 1) cell) that
    holds the chunk: chunks then never straddle two cells, and each point
    sees the same pieces however the points are chunked.

    This is the one window rule of the closed forms.  For every x in
    [lo, hi], the minimiser y* of the Hopf-Lax action
    G_x(y) = U0(y) + (x - y)^2 / (2 t) lies in the backward cone
    [x - t u_max, x - t u_min]: beyond its right end y_hi = x - t u_min,
    G_x'(y) = u0(y) - (x - y) / t >= (y - y_hi) / t > 0, so that
    G_x(y) >= G_x(y_hi) + (y - y_hi)^2 / (2 t) >= G_x(y*) + d^2 / (2 t) at a
    distance d beyond it, and likewise on the left.  The Cole-Hopf kernel
    exp(-G_x / (2 eps)) of every point of a piece beyond the window is so at
    most exp(-margin^2 / (4 eps t)) times its peak: e^-36 at
    margin = 12 sqrt(eps t), and it falls off like a Gaussian of variance
    2 eps t beyond."""
    x = np.asarray(x, dtype=float)
    # callers pass increasing points; others are sorted (and put back)
    order = None if np.all(x[:-1] <= x[1:]) else np.argsort(x, kind="stable")
    xs = x if order is None else x[order]
    a, b, v = pieces[:3]
    u_min, u_max = float(np.min(v)), float(np.max(v))
    step = max(1, _CHUNK_CELLS // a.size)
    if cell is None:
        starts = np.array([0])
    else:
        k = np.floor(xs / cell)
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
    out = np.empty(x.size, dtype=float)
    for g0, g1 in zip(starts, np.append(starts[1:], x.size)):
        for i in range(g0, g1, step):
            chunk = xs[i : min(i + step, g1)]
            if cell is None:
                lo, hi = chunk[0], chunk[-1]
            else:
                lo = math.floor(chunk[0] / cell) * cell
                hi = lo + cell
            j0 = np.searchsorted(b, lo - t * u_max - margin)
            j1 = np.searchsorted(a, hi - t * u_min + margin, side="right")
            at = slice(i, i + chunk.size) if order is None else order[i : i + chunk.size]
            out[at] = rows_fn(tuple(q[j0:j1] for q in pieces), chunk)
    return out


def _actions(pieces, t, xc):
    """The least Hopf-Lax action on each piece at the points xc, and where
    it is taken: y clipped into the piece and cost = U0(y) + (x - y)^2 / (2 t),
    both of shape (len(xc), pieces)."""
    a, b, v, p, U = pieces[:5]
    y = np.clip(xc[:, None] - v * t, a, b)
    return y, U + v * (y - p) + (xc[:, None] - y) ** 2 / (2.0 * t)


def cole_hopf(data, eps, t, x):
    """The viscous Burgers solution u_eps(t, x), shape (len(x), 1), from
    piecewise-constant data at t > 0.

    With U0 = U_j + v_j (y - p_j) on piece (a_j, b_j), sigma = sqrt(2 eps t),
    A_j = (a_j - x + v_j t) / sigma and B_j likewise with b_j,

        u = sum_j w_j [v_j + sqrt(2 eps / t) (phi(B_j) - phi(A_j)) / (Phi(B_j) - Phi(A_j))]

    with softmax weights of log
    (v_j^2 t / 2 - U_j - v_j (x - p_j)) / (2 eps) + log(Phi(B_j) - Phi(A_j)).
    The Gaussian masses are taken in log space by log_ndtr, on (-B, -A)
    where A > 0, so that no tail underflows.  The sum runs over the pieces
    of _windowed's window, on lattice cells 12 sqrt(eps t) wide; the pieces
    left out weigh below e^-36 of the peak.
    """
    sig = math.sqrt(2.0 * eps * t)

    def rows(pieces, xc):
        a, b, v, p, U = pieces[:5]
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

    m = _MARGIN * math.sqrt(eps * t)
    return _windowed(rows, _pieces(data), t, x, m, cell=m)[:, None]


def hopf_lax(data, t, x):
    """The entropy solution u(t, x) of inviscid Burgers, shape (len(x), 1),
    from piecewise-constant data at t > 0: u = (x - y*) / t, where y*
    minimises U0(y) + (x - y)^2 / (2 t).  On each piece the minimiser is
    x - v_j t clipped to the piece.  Only the pieces of _windowed's window
    are searched, with a margin of 1e-6 sqrt(t): a piece further beyond the
    backward cone costs at least 5e-13 more than y*, far above the costs'
    rounding, so the minimiser found is the one of all pieces."""

    def rows(pieces, xc):
        y, cost = _actions(pieces, t, xc)
        y_star = np.take_along_axis(y, np.argmin(cost, axis=1)[:, None], axis=1)[:, 0]
        return (xc - y_star) / t

    return _windowed(rows, _pieces(data), t, x, 1e-6 * math.sqrt(t))[:, None]


def settled_pieces(data, eps, t, x):
    """Where u and u_eps both equal one piece's value at t: per point, the
    row of data.values of that piece, or -1.

    A point x is settled on piece j when the Hopf-Lax minimiser
    y* = x - v_j t sits at least r = 8.6 sigma inside piece j
    (sigma = sqrt(2 eps t)), and every other piece that meets
    [x - t u_max - m, x - t u_min + m] (m = 12 sqrt(eps t)) has a least
    action at least 80 eps above piece j's.  Then u(x) = v_j, and
    D(y) = G_x(y) - G_x(y*) = B(y) + (y - y*)^2 / (2 t), with B = U0 minus
    piece j's line (0 on piece j), is at least 80 eps beyond piece j up to
    m past the cone, and beyond that at least d^2 / (2 t) at a distance d
    past the cone edge (_windowed's lemma).  With the kernel
    K = exp(-D / (2 eps)), u_eps(x) - v_j is the K-mean of (y* - y) / t, so

        |u_eps - v_j| <= [(sigma^2 / t) e^(-r^2 / 2 sigma^2)
                          + e^-40 (t Du + 2 m)(t Du + m) / t
                          + 2 (2 eps e^-36 + Du sqrt(pi eps t) erfc(6))]
                         / (sqrt(2 pi) sigma (1 - erfc(r / (sqrt(2) sigma))))

    with Du = u_max - u_min: the three terms bound piece j's own tails, the
    cone and its margins, and what lies past them (where |y* - y| / t is at
    most Du plus the distance past the cone over t), against piece j's
    mass.  That is 1.9e-16 at eps 2e-3, t = 1, Du = 1.5.

    Both points of a segment [x1, x2] settled on the same piece settle
    every point between: y* moves inside [x1 - v_j t, x2 - v_j t], which
    keeps its depth r, and for y left of piece j, D grows with x, so it is
    at least its value at x1, where y lies in x1's window (y >= x -
    t u_max - m >= x1 - t u_max - m); right of piece j likewise with x2."""
    sig = math.sqrt(2.0 * eps * t)
    m = _MARGIN * math.sqrt(eps * t)
    pieces = _pieces(data)
    u_min, u_max = float(np.min(pieces[2])), float(np.max(pieces[2]))

    def rows(pieces, xc):
        a, b, v = pieces[:3]
        row = pieces[5]
        _, cost = _actions(pieces, t, xc)
        outside = ((b < xc[:, None] - t * u_max - m) | (a > xc[:, None] - t * u_min + m))
        cost = np.where(outside, np.inf, cost)
        j = np.argmin(cost, axis=1)
        best = np.take_along_axis(cost, j[:, None], axis=1)
        np.put_along_axis(cost, j[:, None], np.inf, axis=1)
        gap = np.min(cost, axis=1) - best[:, 0]
        y = xc - v[j] * t
        depth = np.minimum(y - a[j], b[j] - y)
        return np.where((gap >= _GAP * eps) & (depth >= _DEPTH * sig), row[j], -1)

    return _windowed(rows, pieces, t, x, m).astype(int)


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
