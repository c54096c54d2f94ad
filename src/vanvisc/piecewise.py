"""Piecewise-constant profiles on the line, and the 6-point Gauss quadrature
of L1 distances.

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

    def to_csv(self, path):
        """Breakpoint/value table: x, u_1..u_n (leftmost state uses x=-inf)."""
        with open(path, "w") as fh:
            cols = ",".join(f"u_{i+1}" for i in range(self.n))
            fh.write(f"x,{cols}\n")
            fh.write("-inf," + ",".join("%.17g" % v for v in self.values[0]) + "\n")
            for x, u in zip(self.xs, self.values[1:]):
                fh.write(("%.17g," % x) + ",".join("%.17g" % v for v in u) + "\n")


# 6-point Gauss nodes and weights on [0, 1]
_GX, _GW = np.polynomial.legendre.leggauss(6)
_GX = 0.5 * (_GX + 1.0)
_GW = 0.5 * _GW


def gauss_points(cut):
    """The 6-point Gauss-Legendre nodes of every segment between the
    increasing cut points, flattened segment by segment."""
    a, h = cut[:-1], np.diff(cut)
    return (a[:, None] + h[:, None] * _GX[None, :]).ravel()


def gauss_l1(cut, u, v):
    """Sum over the segments between the cut points of the 6-point
    Gauss-Legendre integral of |u - v|, from the values u and v, of shape
    (6 (len(cut) - 1), n), at gauss_points(cut)."""
    norms = np.linalg.norm(u - v, axis=1).reshape(-1, _GX.size)
    return float(np.sum(norms @ _GW * np.diff(cut)))
