"""Hierarchical metrics registry (counters, gauges, log-scale histograms).

Components register instruments by dotted hierarchical name —
``sim.cache.hits``, ``noc.port.stall_cycles``, ``hbm.chan3.bytes``,
``scheduler.queue_depth`` — into one :class:`MetricsRegistry` per run.
The registry is intentionally dependency-free and cheap: an instrument is
a tiny object with a plain numeric slot, so hot paths may either update
instruments directly or (the pattern the simulator uses) keep their own
raw counters and *export* them into a registry once at end of run, which
makes instrumentation exactly zero-cost while the run executes.

Naming convention: lower-case dotted segments, coarsest component first
(``<component>.<subcomponent>.<quantity>``), with units spelled out in the
final segment where ambiguous (``_cycles``, ``_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Counter:
    """A monotonically increasing count (events, bytes, cycles)."""

    name: str
    value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def as_value(self) -> int | float:
        return self.value


@dataclass
class Gauge:
    """A point-in-time level (queue depth, footprint, rate)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def as_value(self) -> float:
        return self.value


@dataclass
class Histogram:
    """A log2-bucketed histogram of non-negative observations.

    Observation ``v`` lands in bucket ``b`` where ``2**(b-1) <= v < 2**b``
    (``v == 0`` lands in bucket 0), i.e. a log-scale histogram suitable for
    heavy-tailed quantities like queue depths, front sizes, or latencies.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: int | float) -> None:
        if value < 0:
            raise ValueError(f"{self.name}: histogram values must be >= 0")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_value(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of instruments keyed by hierarchical name."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # -- registration -------------------------------------------------------

    def _get_or_create(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name=name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    # -- queries ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def value(self, name: str, default: int | float = 0) -> int | float:
        """The scalar value of a counter/gauge (``default`` if absent)."""
        inst = self._instruments.get(name)
        if inst is None:
            return default
        if isinstance(inst, Histogram):
            raise TypeError(f"{name!r} is a histogram; use get()")
        return inst.value

    def names(self, prefix: str = "") -> list[str]:
        """Sorted instrument names, optionally below a dotted prefix."""
        if not prefix:
            return sorted(self._instruments)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in self._instruments
                      if n == prefix.rstrip(".") or n.startswith(dotted))

    # -- export -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Name -> value mapping (histograms expand to summary dicts)."""
        return {
            name: inst.as_value()
            for name, inst in sorted(self._instruments.items())
        }

    def flatten(self) -> dict[str, float]:
        """Flat name -> scalar mapping suitable for diffing.

        Histograms contribute ``name.count`` / ``name.mean`` / ``name.max``
        scalars so two runs can be compared metric-by-metric.
        """
        flat: dict[str, float] = {}
        for name, inst in sorted(self._instruments.items()):
            if isinstance(inst, Histogram):
                flat[f"{name}.count"] = float(inst.count)
                flat[f"{name}.mean"] = float(inst.mean)
                flat[f"{name}.max"] = float(inst.max if inst.count else 0.0)
            else:
                flat[name] = inst.value
        return flat


# -- process-global registry --------------------------------------------------
#
# The simulator builds one registry per run; library code that runs outside
# any simulation (the numeric engine, the analysis cache) instead reports
# into this process-global registry, which CLI commands snapshot into run
# artifacts.  Hot paths aggregate locally and export once per operation, so
# the global registry costs a handful of attribute updates per
# factorization, not per pivot.

_global_registry = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry (numeric engine, caches, solves)."""
    return _global_registry


def reset_global_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests / CLI run isolation)."""
    global _global_registry
    _global_registry = MetricsRegistry()
    return _global_registry
