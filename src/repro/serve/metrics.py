"""Fleet metrics: counters, gauges, and latency/cycle histograms.

The runtime records everything it does into a :class:`MetricsRegistry`;
``snapshot()`` renders the whole registry as one plain, JSON-serializable
dict so benchmarks can persist it and dashboards (or tests) can assert
on it without importing any serve types.

Histograms keep a bounded reservoir of raw observations.  For the sizes
this repository serves (traces of a few thousand requests) the reservoir
holds everything and the reported p50/p95/p99 are exact; past the cap,
uniform reservoir sampling keeps the quantiles unbiased.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Iterable

from repro.errors import ConfigurationError

#: Default reservoir capacity; a 1k-request bench fits with headroom.
RESERVOIR_SIZE = 65_536

#: Default trailing window for :class:`RateView` (simulated ms).
RATE_WINDOW_MS = 250.0


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class RateView:
    """Windowed rate view over a :class:`Counter`.

    Counters are cumulative; control loops (the cluster autoscaler's
    shed-rate signal, the deployer's SLO probes) need *derivatives* on
    the simulated clock.  A RateView is sampled at control ticks
    (``sample(now_ms)``) and reads the exact rate over the trailing
    ``window_ms``.  A sample that does not advance time is ignored.
    """

    def __init__(
        self, counter: Counter, window_ms: float = RATE_WINDOW_MS
    ) -> None:
        if window_ms <= 0.0:
            raise ConfigurationError("rate window must be positive")
        self._counter = counter
        self.window_ms = float(window_ms)
        self._samples: deque[tuple[float, float]] = deque()

    def sample(self, now_ms: float) -> None:
        """Record the counter's value at simulated time ``now_ms``."""
        if self._samples and now_ms <= self._samples[-1][0]:
            return
        self._samples.append((now_ms, float(self._counter.value)))
        # Keep one sample at/before the window start so the windowed
        # rate spans at least window_ms once warmed up.
        cutoff = now_ms - self.window_ms
        while len(self._samples) > 2 and self._samples[1][0] <= cutoff:
            self._samples.popleft()

    def rate_per_s(self) -> float:
        """Increments per second over the trailing window (0.0 cold)."""
        if len(self._samples) < 2:
            return 0.0
        first_ms, first_value = self._samples[0]
        last_ms, last_value = self._samples[-1]
        return (last_value - first_value) / (last_ms - first_ms) * 1e3

    def summary(self) -> dict[str, float]:
        return {"windowed_per_s": self.rate_per_s()}


class Histogram:
    """Reservoir-sampled distribution with exact small-n quantiles."""

    def __init__(self, capacity: int = RESERVOIR_SIZE, seed: int = 0) -> None:
        self._capacity = capacity
        self._samples: list[float] = []
        self.count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:  # Vitter's algorithm R
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._samples[slot] = value

    def summary(self) -> dict[str, float]:
        return summarize(
            self._samples, count=self.count, total=self._sum,
            minimum=self._min, maximum=self._max,
        )


def summarize(
    samples: Iterable[float],
    *,
    count: int | None = None,
    total: float | None = None,
    minimum: float | None = None,
    maximum: float | None = None,
) -> dict[str, float]:
    """Count, mean, extrema and nearest-rank p50/p95/p99 of a sample.

    By default ``samples`` are every observation and all of it is exact.
    A reservoir passes the exact stream ``count``/``total``/extrema and
    a uniform subsample, from which only the quantiles are read.
    """
    ordered = sorted(samples)
    if count is None:
        count, total = len(ordered), sum(ordered)
        if ordered:
            minimum, maximum = ordered[0], ordered[-1]
    if count == 0:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    last = len(ordered) - 1

    def quantile(q: float) -> float:
        return ordered[min(last, int(round(q * last)))]

    return {
        "count": count,
        "mean": total / count,
        "min": minimum,
        "max": maximum,
        "p50": quantile(0.50),
        "p95": quantile(0.95),
        "p99": quantile(0.99),
    }


class MetricsRegistry:
    """Named metrics, created on first use, snapshotted as one dict.

    A registry has one owner (a :class:`~repro.serve.runtime.
    ServeRuntime`) and is touched only under that owner's lock.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._rates: dict[str, RateView] = {}
        self._labels: dict[str, str] = {}

    def label(self, name: str, value: str | None = None) -> str | None:
        """Set (or, with ``value=None``, read) a string-valued label.

        Labels carry run metadata — e.g. which execution engine produced
        a benchmark snapshot — so persisted JSONs are self-describing.
        """
        if value is not None:
            self._labels[name] = str(value)
        return self._labels.get(name)

    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self._histograms.setdefault(name, Histogram())

    def rate_view(
        self, name: str, window_ms: float = RATE_WINDOW_MS
    ) -> RateView:
        """The (one) rate view over counter ``name``, created on first use.

        The window of the first caller wins; later callers share the
        same view so every control loop reads one signal.
        """
        if name not in self._rates:
            self._rates[name] = RateView(self.counter(name), window_ms)
        return self._rates[name]

    def snapshot(self) -> dict[str, Any]:
        """Everything, as plain JSON-serializable values."""
        return {
            "counters": {
                k: c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
            "rates": {
                k: r.summary() for k, r in sorted(self._rates.items())
            },
            "labels": dict(sorted(self._labels.items())),
        }
