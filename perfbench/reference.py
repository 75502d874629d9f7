"""A fixed reference kernel that tracks the speed of the machine.

The benchmark host is shared: measured on it, the same pass ran 1.3 s in
one minute and 2.5 s a few minutes later, with no change in the work done.
To keep these swings out of the gated times, a run times this kernel
between its passes and reports each pass time divided by the mean kernel
time around it, multiplied by ``NOMINAL_S``. The result is in seconds on a
machine on which the kernel takes ``NOMINAL_S``. The raw times are
reported too.

The kernel mixes the three kinds of work the workloads do, in about equal
shares: a Python loop over small vector operations (like per-row PGD), a
subgradient loop over a 500 x 201 matrix (like ``train``), and forward and
backward passes of a small two-layer ReLU net (like ``neural``). It uses
numpy only, never the program under test, so no change to the program can
change it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.07  # about the kernel time on the 2-vCPU host the bounds were set on


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = rng.standard_normal((500, 201))
        self.y = np.sign(rng.standard_normal(500))
        self.theta = rng.standard_normal(200)
        self.gamma = rng.standard_normal(200)
        self.rows = rng.standard_normal((96, 200))
        self.w = [rng.standard_normal(s) for s in ((2, 32), (32, 32), (32, 2))]
        self.x = rng.standard_normal((64, 2))

    def _vector_loop(self) -> float:
        acc = 0.0
        for z in self.rows:
            d = np.zeros(200)
            for _ in range(20):
                f, r = float((z + d) @ self.gamma), float((z + d) @ self.theta)
                g = 0.5 * (self.theta - self.gamma) if r > f else -0.8 * self.theta
                d = d + 0.01 * g / np.linalg.norm(g)
                n = np.linalg.norm(d)
                if n > 0.1:
                    d = d * (0.1 / n)
            acc += float(d @ self.theta)
        return acc

    def _subgradient_loop(self) -> float:
        z, y = self.z, self.y
        g, t = np.zeros(201), np.zeros(201)
        for _ in range(200):
            f, r = z @ g, z @ t
            a, b = 1.0 + r - y * f, 0.2 * (1.0 - r)
            ma, mb = (a >= b) & (a > 0), (b > a) & (b > 0)
            g = g + 1e-3 * (y[ma] @ z[ma])
            t = t - 1e-3 * z[mb].sum(axis=0)
        return float(g @ t)

    def _net_loop(self) -> float:
        w1, w2, w3 = (w.copy() for w in self.w)
        x = self.x
        for _ in range(500):
            h1 = np.maximum(x @ w1, 0.0)
            h2 = np.maximum(h1 @ w2, 0.0)
            do = h2 @ w3 - 0.5
            dh2 = (do @ w3.T) * (h2 > 0)
            dh1 = (dh2 @ w2.T) * (h1 > 0)
            w3 -= 1e-4 * h2.T @ do
            w2 -= 1e-4 * h1.T @ dh2
            w1 -= 1e-4 * x.T @ dh1
        return float(w3.sum())

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        self._vector_loop()
        self._subgradient_loop()
        self._net_loop()
        return time.perf_counter() - t0
