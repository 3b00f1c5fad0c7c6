"""Process-wide metrics: counters, gauges, bounded-memory histograms.

The registry is the aggregate view the tracer cannot give: where a trace
explains one request, the registry accumulates *every* request —
per-tenant admission counts, stage-latency percentiles, cache hit
ratios, shard makespans — in bounded memory, and renders the whole state
as Prometheus text exposition for the gateway's ``GET /v1/metrics``.

Design points:

* **Labeled instruments.**  ``counter("x", ("tenant",))`` is one
  instrument; each distinct label-value tuple is one *series* (its own
  atomic cell).  Series materialize on first touch and live for the
  registry's lifetime — normal Prometheus client behaviour.
* **Bounded histograms.**  :class:`Histogram` keeps a fixed-capacity
  uniform sample (Vitter's reservoir algorithm R) plus exact
  count/sum/min/max, so a histogram that has seen ten million
  observations still holds ~1k floats.  While the stream fits in the
  reservoir the sample *is* the stream and quantiles are exact
  (numpy-style linear interpolation); past capacity they are unbiased
  estimates.  The reservoir's RNG is seeded from the series identity,
  never the wall clock, so instrumented runs stay reproducible.
* **Kill switch.**  :func:`set_metrics_enabled` turns every record call
  into a single flag check — the fully-disabled mode the overhead gate
  measures.  Metrics default to *on*: they are pure counters at run
  boundaries and bitwise-invisible to numerics.

Everything is stdlib-only and thread-safe (one lock per series, one for
the registry's instrument tables).
"""

from __future__ import annotations

import math
import os
import random
import threading
import zlib
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Type, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "set_metrics_enabled",
    "render_prometheus",
]

#: Default reservoir capacity.  Large enough that every test and every
#: realistic per-process stage stream stays in the exact-quantile regime.
RESERVOIR_CAPACITY = 1024

LabelValues = Tuple[str, ...]

_InstrumentT = TypeVar("_InstrumentT", bound="_Instrument")


def _format_value(value: float) -> str:
    """Prometheus-style float rendering: integers without the '.0'."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(names: Sequence[str], values: LabelValues, extra: str = "") -> str:
    parts = [f'{n}="{_escape_label(str(v))}"' for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Shared shell: a named, labeled family of series."""

    kind = ""

    def __init__(self, reg: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...]) -> None:
        self._registry = reg
        self.name = name
        self.help = help
        self.labelnames = labelnames
        # Cells are _CounterCell / _HistogramCell per subclass; Any keeps
        # the shared accessors usable on either without a cast.
        self._series: Dict[LabelValues, Any] = {}
        self._lock = threading.Lock()

    def _resolve(self, labels: Dict[str, str]) -> LabelValues:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[n]) for n in self.labelnames)

    def _cell(self, values: LabelValues) -> Any:
        cell = self._series.get(values)
        if cell is None:
            with self._lock:
                cell = self._series.setdefault(values, self._new_cell(values))
        return cell

    def _new_cell(self, values: LabelValues) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def series(self) -> List[Tuple[LabelValues, Any]]:
        with self._lock:
            return sorted(self._series.items())


class _CounterCell:
    __slots__ = ("value", "lock")

    def __init__(self) -> None:
        self.value = 0.0
        self.lock = threading.Lock()


class Counter(_Instrument):
    """Monotonically increasing count (events, bytes, shed requests)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            cell.value += amount

    def value(self, **labels) -> float:
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            return cell.value

    def _new_cell(self, values: LabelValues) -> _CounterCell:
        return _CounterCell()


class Gauge(_Instrument):
    """Point-in-time level (queue depth, jobs running)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            cell.value = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            cell.value += amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            return cell.value

    def _new_cell(self, values: LabelValues) -> _CounterCell:
        return _CounterCell()


class _HistogramCell:
    __slots__ = ("count", "sum", "min", "max", "sample", "rng", "lock", "_capacity")

    def __init__(self, capacity: int, seed: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sample: List[float] = []
        # Deterministic per-series stream: reproducible reservoirs, and
        # no global random-module state is touched.
        self.rng = random.Random(seed)
        self.lock = threading.Lock()
        self._capacity = capacity

    def observe(self, value: float) -> None:
        with self.lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if len(self.sample) < self._capacity:
                self.sample.append(value)
            else:
                # Algorithm R: keep each of the n observations with
                # probability capacity/n — a uniform sample of the stream.
                j = self.rng.randrange(self.count)
                if j < self._capacity:
                    self.sample[j] = value

    def quantile(self, q: float) -> float:
        with self.lock:
            if not self.sample:
                return math.nan
            data = sorted(self.sample)
        # numpy's default "linear" interpolation, so the accuracy test
        # can compare against np.percentile directly.
        pos = q * (len(data) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return data[lo]
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac


class Histogram(_Instrument):
    """Streaming distribution with exact count/sum and sampled quantiles."""

    kind = "histogram"

    #: Quantiles rendered in exposition and snapshots.
    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, reg: "MetricsRegistry", name: str, help: str,
                 labelnames: Tuple[str, ...],
                 capacity: int = RESERVOIR_CAPACITY) -> None:
        super().__init__(reg, name, help, labelnames)
        self.capacity = capacity

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        self._cell(self._resolve(labels)).observe(float(value))

    def quantile(self, q: float, **labels) -> float:
        return self._cell(self._resolve(labels)).quantile(q)

    def count(self, **labels) -> int:
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            return cell.count

    def sum(self, **labels) -> float:
        cell = self._cell(self._resolve(labels))
        with cell.lock:
            return cell.sum

    def _new_cell(self, values: LabelValues) -> _HistogramCell:
        # Seed from the series identity so reservoirs are reproducible
        # run to run for the same label set.
        seed = zlib.crc32("\x1f".join((self.name,) + values).encode())
        return _HistogramCell(self.capacity, seed)


class MetricsRegistry:
    """Named instruments, memoized by name, rendered as one exposition.

    Instrument constructors are idempotent: two call sites asking for
    ``counter("repro_cache_lookups_total", ...)`` share the instrument
    (conflicting label names raise).  Call-time lookup through
    :func:`registry` is the intended pattern — module-level instrument
    bindings would detach when tests swap the registry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: Dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- instrument constructors -------------------------------------------------

    def _get(self, cls: Type[_InstrumentT], name: str, labelnames: Iterable[str],
             help: str, **kwargs: Any) -> _InstrumentT:
        names = tuple(labelnames)
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(self, name, help, names, **kwargs)
                self._instruments[name] = inst
                return inst
        if not isinstance(inst, cls) or inst.labelnames != names:
            raise ValueError(
                f"metric {name!r} already registered as {inst.kind} "
                f"with labels {inst.labelnames}"
            )
        return inst

    def counter(self, name: str, labelnames: Iterable[str] = (),
                help: str = "") -> Counter:
        return self._get(Counter, name, labelnames, help)

    def gauge(self, name: str, labelnames: Iterable[str] = (),
              help: str = "") -> Gauge:
        return self._get(Gauge, name, labelnames, help)

    def histogram(self, name: str, labelnames: Iterable[str] = (),
                  help: str = "", capacity: int = RESERVOIR_CAPACITY) -> Histogram:
        return self._get(Histogram, name, labelnames, help, capacity=capacity)

    # -- views -------------------------------------------------------------------

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return sorted(self._instruments.values(), key=lambda i: i.name)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every series (the `/v1/stats` shape)."""
        out: Dict[str, object] = {}
        for inst in self.instruments():
            series_out: Dict[str, object] = {}
            for values, cell in inst.series():
                key = ",".join(f"{n}={v}" for n, v in zip(inst.labelnames, values)) or ""
                if isinstance(inst, Histogram):
                    with cell.lock:
                        count, total = cell.count, cell.sum
                    series_out[key] = {
                        "count": count,
                        "sum": total,
                        **{
                            f"p{int(q * 100)}": cell.quantile(q)
                            for q in Histogram.QUANTILES
                        },
                    }
                else:
                    with cell.lock:
                        series_out[key] = cell.value
            out[inst.name] = {"type": inst.kind, "series": series_out}
        return out

    def render(self) -> str:
        return render_prometheus(self)

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._instruments.clear()


def render_prometheus(reg: MetricsRegistry) -> str:
    """Prometheus text exposition (format version 0.0.4) of a registry.

    Histograms render as the ``summary`` type — precomputed quantiles
    plus ``_sum``/``_count`` — which is the honest mapping for a
    reservoir (no fixed buckets to publish).
    """
    lines: List[str] = []
    for inst in reg.instruments():
        if inst.help:
            lines.append(f"# HELP {inst.name} {inst.help}")
        prom_type = "summary" if inst.kind == "histogram" else inst.kind
        lines.append(f"# TYPE {inst.name} {prom_type}")
        for values, cell in inst.series():
            if isinstance(inst, Histogram):
                with cell.lock:
                    count, total = cell.count, cell.sum
                for q in Histogram.QUANTILES:
                    labels = _label_str(inst.labelnames, values,
                                        extra=f'quantile="{q}"')
                    lines.append(
                        f"{inst.name}{labels} {_format_value(cell.quantile(q))}"
                    )
                base = _label_str(inst.labelnames, values)
                lines.append(f"{inst.name}_sum{base} {_format_value(total)}")
                lines.append(f"{inst.name}_count{base} {count}")
            else:
                with cell.lock:
                    value = cell.value
                labels = _label_str(inst.labelnames, values)
                lines.append(f"{inst.name}{labels} {_format_value(value)}")
    return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry(enabled=True)


def _reset_locks_in_child() -> None:
    """Fresh registry, instrument and series locks in a forked child.

    Any of them may have been held by another parent thread at fork time;
    the child would inherit it held, and its first metric update — a
    stage worker's, say — would block forever.
    """
    _REGISTRY._lock = threading.Lock()
    for inst in list(_REGISTRY._instruments.values()):
        inst._lock = threading.Lock()
        for cell in list(inst._series.values()):
            cell.lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_locks_in_child)


def registry() -> MetricsRegistry:
    """The process-wide registry.  Look instruments up at call time."""
    return _REGISTRY


def set_metrics_enabled(enabled: bool) -> bool:
    """Flip the global record switch; returns the previous state."""
    prev = _REGISTRY.enabled
    _REGISTRY.enabled = bool(enabled)
    return prev
