"""Calibration kernels: fixed work that does not touch collapse_sim.

The machine the benchmark runs on is a share of a host whose speed drifts by
tens of percent over seconds to minutes, with the load of its other tenants.
That drift moves every op time alike and hides what the program itself does.
So each timed op is bracketed by a calibration kernel, and ``op_cal.p50`` is
the median of op time over the mean of the two kernel times around it: the
op's cost in units of a fixed piece of work measured at the same moment.
A change to the program moves the op and not the kernel; a change in the
host's speed moves both.

Each workload names the kernel whose mix of work is closest to its op: small
numpy calls driven from Python, dense 256 x 256 complex products, or 100 x 100
Hermitian eigendecompositions. The inputs are fixed, never drawn from the
workload's seed, so the unit is the same in every run.
"""

from __future__ import annotations

import json
import time

import numpy as np


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class Kernel:
    """A fixed piece of work; ``seconds()`` times one run of it."""

    def __init__(self):
        rng = np.random.default_rng(20230106)
        self.h4 = _hermitian(rng, 4)
        self.m16 = _hermitian(rng, 16) / 16.0
        self.m256 = _hermitian(rng, 256)
        self.m256 /= np.abs(np.linalg.eigvalsh(self.m256)).max()
        self.h100 = _hermitian(rng, 100)
        self.run()  # warm up

    def run(self) -> None:
        raise NotImplementedError

    def seconds(self) -> float:
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


class SmallNumpy(Kernel):
    """Python-driven small numpy calls, small objects and text, like the CLI
    path at n = 4: 4 x 4 eigvalsh, 16 x 16 products, JSON and formatting."""

    def run(self) -> None:
        total = 0.0
        rows = []
        for k in range(600):
            total += float(np.linalg.eigvalsh(self.h4)[0])
            m = self.m16 @ self.m16
            m = m - 1j * (self.m16 @ m - m @ self.m16)
            rows.append(f"{k},{total:.17g},{m[0, 0].real:.17g}")
        json.dumps({"rows": rows})


class Dense(Kernel):
    """Python-driven 16 x 16 products (like assembling the generator term by
    term) followed by a power of a 256 x 256 complex matrix (like propagating
    with the step map), in about the op's 2 : 3 proportion."""

    def run(self) -> None:
        acc = np.zeros((16, 16), dtype=complex)
        for _ in range(8000):
            acc = self.m16 @ self.m16 - 0.5 * (self.m16 @ acc)
        for _ in range(6):
            np.linalg.matrix_power(self.m256, 255)


class Wide(Kernel):
    """Eigendecompositions of 100 x 100 Hermitian matrices, like the fast
    path's snapshot analysis at n = 100."""

    def run(self) -> None:
        for _ in range(64):
            np.linalg.eigvalsh(self.h100)


KERNELS = {"small_numpy": SmallNumpy, "dense": Dense, "wide": Wide}
