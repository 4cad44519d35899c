"""A fixed reference kernel that measures how fast the machine runs now.

On a shared 2-core host, other tenants' load moves every wall time by 15 to
25 % for minutes at a time, which is more than any in-run statistic can
average away. The benchmark therefore runs this kernel between operations
and scales its end-to-end times to a machine on which the kernel takes
REFERENCE_S seconds. The kernel is a 3-cube convolution and a 3-cube max-pool
on a desk-sized activation, written here in plain numpy and never calling
the engine, so no change to the engine moves it; it must not change either.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.03


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 16, 16, 16)).astype(np.float32)
        self.x = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
        self.w = rng.standard_normal((16, 16, 3, 3, 3)).astype(np.float32)
        self.samples = []

    def _kernel(self):
        out = np.zeros((2, 16, 4096), np.float32)
        pooled = np.full((2, 16, 16, 16, 16), -np.inf, np.float32)
        for dz in range(3):
            for dy in range(3):
                for dx in range(3):
                    xs = self.x[:, :, dz:dz + 16, dy:dy + 16, dx:dx + 16]
                    out += self.w[:, :, dz, dy, dx] @ xs.reshape(2, 16, 4096)
                    np.copyto(pooled, xs, where=xs > pooled)
        return out, pooled

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that turns a time measured now into reference-machine time."""
        return REFERENCE_S / statistics.median(self.samples)
