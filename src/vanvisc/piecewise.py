"""Piecewise-constant profiles on the line and exact L1 arithmetic on them.

A profile with breakpoints x_1 < ... < x_k and values u_0, ..., u_k is the
right-continuous function equal to u_j on (x_j, x_{j+1}).  All states are
stored as float arrays of length n (n = 1 for scalar laws).
"""

from __future__ import annotations

import numpy as np


class PiecewiseConstant:
    def __init__(self, xs, values):
        xs = np.asarray(xs, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != xs.size + 1:
            raise ValueError("need len(values) == len(xs) + 1")
        if xs.size > 1 and np.any(np.diff(xs) < 0):
            raise ValueError("breakpoints must be non-decreasing")
        self.xs = xs
        self.values = values

    @property
    def n(self):
        return self.values.shape[1]

    def __call__(self, x):
        """Right-continuous evaluation; accepts scalars or arrays."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.xs, x, side="right")
        out = self.values[idx]
        return out[0] if x.ndim == 0 else out

    def jumps(self):
        """Array of per-breakpoint jumps, shape (k, n)."""
        return self.values[1:] - self.values[:-1]

    def total_variation(self):
        """Sum of Euclidean jump sizes."""
        if self.xs.size == 0:
            return 0.0
        return float(np.sum(np.linalg.norm(self.jumps(), axis=1)))

    def l1_distance(self, other):
        """Exact integral of the Euclidean pointwise distance.

        Both profiles must agree far left and far right, otherwise the
        distance is infinite and a ValueError is raised.
        """
        a, b = self, other
        if not np.allclose(a.values[0], b.values[0], atol=1e-13) or not np.allclose(
            a.values[-1], b.values[-1], atol=1e-13
        ):
            raise ValueError("profiles differ at infinity; L1 distance diverges")
        xs = np.union1d(a.xs, b.xs)
        if xs.size == 0:
            return 0.0
        mids = 0.5 * (xs[:-1] + xs[1:])
        total = 0.0
        if mids.size:
            da = a(mids) - b(mids)
            total += float(np.sum(np.linalg.norm(da, axis=1) * np.diff(xs)))
        return total

    def oscillation(self, lo, hi):
        """Euclidean diameter of the value set on the closed window [lo, hi]."""
        i0 = np.searchsorted(self.xs, lo, side="left")
        i1 = np.searchsorted(self.xs, hi, side="right")
        vals = self.values[i0 : i1 + 1]
        if vals.shape[0] <= 1:
            return 0.0
        d = vals[:, None, :] - vals[None, :, :]
        return float(np.max(np.linalg.norm(d, axis=2)))

    def to_csv(self, path):
        """Breakpoint/value table: x, u_1..u_n (leftmost state uses x=-inf)."""
        with open(path, "w") as fh:
            cols = ",".join(f"u_{i+1}" for i in range(self.n))
            fh.write(f"x,{cols}\n")
            fh.write("-inf," + ",".join("%.17g" % v for v in self.values[0]) + "\n")
            for x, u in zip(self.xs, self.values[1:]):
                fh.write(("%.17g," % x) + ",".join("%.17g" % v for v in u) + "\n")


def l1_distance_to_grid(profile, x_grid, u_grid):
    """L1 distance on [x_grid[0], x_grid[-1]] between a PiecewiseConstant
    and the piecewise-linear interpolant of (x_grid, u_grid), with u_grid
    of shape (N, n) on the N nodes x_grid.

    The interval is cut at the grid nodes and at the profile's breakpoints
    inside it, so on each segment the difference is linear, a + b t, and
    its Euclidean norm is integrated by 6-point Gauss-Legendre.  The rule is
    exact where |a + b t| is linear in t (n = 1 with no sign change on the
    segment); it is not exact on a segment where a + b t has a zero inside,
    at the kink of the norm, nor where the norm is curved (n > 1).
    """
    cut = np.union1d(x_grid, profile.xs[(profile.xs >= x_grid[0]) & (profile.xs <= x_grid[-1])])
    # 6-point Gauss nodes on [0, 1]
    gx, gw = np.polynomial.legendre.leggauss(6)
    gx = 0.5 * (gx + 1.0)
    gw = 0.5 * gw
    a, b = cut[:-1], cut[1:]
    h = b - a
    pts = a[:, None] + h[:, None] * gx[None, :]
    flat = pts.ravel()
    pv = profile(flat)
    gv = np.empty_like(pv)
    for c in range(u_grid.shape[1]):
        gv[:, c] = np.interp(flat, x_grid, u_grid[:, c])
    norms = np.linalg.norm(pv - gv, axis=1).reshape(pts.shape)
    return float(np.sum(norms @ gw * h))
