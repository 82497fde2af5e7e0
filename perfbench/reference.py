"""Fixed reference kernels that gauge how fast the host runs right now.

On a shared host the same work can run up to 1.5x slower for seconds to
minutes at a time, so raw wall times of two runs of the same code differ
by more than any regression worth catching. A measured run therefore
times one call of its workload's reference kernel before every operation.
An operation's cost is its wall time divided by the median of the last
`WINDOW` reference times: the program's speed in units of this fixed code,
which cancels the host's state. Raw wall times are still reported.

Each workload uses the kernel whose time moves most like its own:
`small` (a Python loop over small arrays, like the planner's many small
matrices) for sweep_cells, `stream` (two passes over 8 MB arrays, like the
N x N entropy matrices) for dense_filter, and `parse` (float parsing of CSV
text into tuples and an array, like loading a maglog and building its
regressor rows) for calibrate.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

WINDOW = 5


class Reference:
    def __init__(self, kind: str):
        if kind == "small":
            self._x = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
            self._kernel = self._small
        elif kind == "stream":
            self._a = np.linspace(-1.0, 1.0, 1_000_000)
            self._b = np.empty_like(self._a)
            self._kernel = self._stream
        elif kind == "parse":
            self._lines = [
                ",".join(repr(0.1 * i + 0.01 * k) for k in range(7)) for i in range(400)
            ]
            self._kernel = self._parse
        else:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.ms: list[float] = []  # rolling median after each measure()
        self.spent_s = 0.0
        self._window: list[float] = []

    def _small(self) -> float:
        acc = 0.0
        for k in range(30):
            y = np.exp(-0.5 * (self._x - 0.01 * k) ** 2)
            acc += float(np.log(y.sum()))
        return acc

    def _stream(self) -> float:
        np.exp(self._a, out=self._b)
        np.multiply(self._b, self._a, out=self._b)
        return float(self._b[::1000].sum())

    def _parse(self) -> float:
        rows = [tuple(float(v) for v in line.split(",")) for line in self._lines]
        return float(np.array(rows).sum())

    def measure(self) -> None:
        t0 = perf_counter()
        self._kernel()
        dt = perf_counter() - t0
        self.spent_s += dt
        self._window = (self._window + [dt * 1e3])[-WINDOW:]
        self.ms.append(statistics.median(self._window))
