"""Labeled metrics: counters, gauges and log-scale latency histograms.

The :class:`MetricsRegistry` is the queryable view over the simulator's
flat hot-path counters. ``SiteStats`` stays what it is — a plain
dataclass the sites increment attribute-by-attribute, because that is the
cheapest thing Python can do on the hot path — and the registry ingests
those counters *after* a run, fanning each field into a labeled series
(site, protocol) derived from ``dataclasses.fields`` so a newly added
counter can never be silently dropped. On top of that it ingests
per-transaction records and trace spans into labeled log-scale latency
histograms, giving the per-document and per-protocol breakdowns the flat
dataclass cannot express.

Series are keyed by ``(name, sorted(labels))``; labels are plain
key=value strings. Nothing here touches the simulation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic labeled counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins labeled gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Log-scale latency histogram (powers of two, in milliseconds).

    Bucket ``i`` counts observations ``v`` with ``bounds[i-1] < v <=
    bounds[i]``; the bounds run from 2**-10 ms (~1 µs) to 2**14 ms
    (~16 s), which brackets every latency the simulator produces. The
    quantile estimate is the upper bound of the bucket the rank falls in
    — coarse by design, like any fixed-bucket histogram.
    """

    __slots__ = ("counts", "count", "sum", "max")

    BOUNDS = tuple(2.0**k for k in range(-10, 15))

    def __init__(self) -> None:
        self.counts = [0] * (len(self.BOUNDS) + 1)  # +1: overflow bucket
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value_ms: float) -> None:
        self.counts[bisect_left(self.BOUNDS, value_ms)] += 1
        self.count += 1
        self.sum += value_ms
        if value_ms > self.max:
            self.max = value_ms

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q`` quantile (0 < q <= 1)."""
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return self.BOUNDS[i] if i < len(self.BOUNDS) else self.max
        return self.max

    def to_dict(self) -> dict:
        buckets = {}
        for i, c in enumerate(self.counts):
            if c:
                le = self.BOUNDS[i] if i < len(self.BOUNDS) else float("inf")
                buckets[str(le)] = c
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "buckets": buckets,
        }


class MetricsRegistry:
    """Labeled series store: ``(name, labels) -> Counter|Gauge|Histogram``."""

    __slots__ = ("_series",)

    def __init__(self) -> None:
        self._series: dict[tuple, tuple] = {}  # (name, labelkey) -> (labels, metric)

    def _get(self, name: str, labels: dict, cls):
        key = (name, _label_key(labels))
        entry = self._series.get(key)
        if entry is None:
            entry = (dict(labels), cls())
            self._series[key] = entry
        metric = entry[1]
        if not isinstance(metric, cls):
            raise TypeError(
                f"series {name!r}{labels} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(name, labels, Histogram)

    def collect(self, name: Optional[str] = None) -> list[tuple]:
        """``(name, labels, metric)`` triples, optionally filtered by name."""
        out = []
        for (series_name, _), (labels, metric) in sorted(self._series.items()):
            if name is None or series_name == name:
                out.append((series_name, labels, metric))
        return out

    def total(self, name: str, **labels) -> float:
        """Sum of every matching counter/gauge series (labels filter)."""
        total = 0.0
        for _, series_labels, metric in self.collect(name):
            if all(str(series_labels.get(k)) == str(v) for k, v in labels.items()):
                total += metric.value
        return total

    def to_dict(self) -> dict:
        """JSON-ready dump: ``name{k=v,...}`` -> metric dict."""
        out = {}
        for series_name, labels, metric in self.collect():
            label_str = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            out[f"{series_name}{{{label_str}}}"] = metric.to_dict()
        return out

    # -- ingestion bridges -------------------------------------------------

    def ingest_site_stats(
        self, site_stats: dict, protocol: str = ""
    ) -> None:
        """Fan every ``SiteStats`` field into per-site labeled counters.

        Field discovery is ``dataclasses.fields``-driven — the drift
        hazard of hand-enumerated reporting (a new counter silently
        missing from output) cannot occur here.
        """
        from dataclasses import fields as dc_fields

        for site_id, stats in site_stats.items():
            for f in dc_fields(stats):
                self.counter(
                    f"site_{f.name}", site=site_id, protocol=protocol
                ).inc(getattr(stats, f.name))

    def ingest_records(self, records: Iterable, protocol: str = "") -> None:
        """Per-transaction latency histograms, labeled by outcome status."""
        for r in records:
            self.counter("tx_total", status=r.status, protocol=protocol).inc()
            self.histogram(
                "tx_response_ms", status=r.status, protocol=protocol
            ).observe(r.response_ms)
            if r.restarts:
                self.counter("tx_restarts", protocol=protocol).inc(r.restarts)

    def ingest_spans(self, spans: Iterable, protocol: str = "") -> None:
        """Per-category span-duration histograms, labeled by document.

        This is where the per-document breakdown comes from: lock-wait
        and execution spans carry a ``doc`` label, so contended documents
        get their own latency series.
        """
        for s in spans:
            if s.end is None:
                continue
            doc = s.label("doc") or ""
            self.histogram(
                "span_ms", cat=s.cat, doc=doc, protocol=protocol
            ).observe(s.end - s.start)
            self.counter("span_total", cat=s.cat, protocol=protocol).inc()


def registry_from_run(
    result, protocol: str = "", spans: Optional[list] = None
) -> MetricsRegistry:
    """Build a registry from a :class:`~repro.core.results.RunResult`.

    Ingests site counters (fields-driven), client transaction records,
    and — when the run was traced — the span forest, in one call.
    """
    registry = MetricsRegistry()
    proto = protocol or getattr(result, "protocol", "")
    registry.ingest_site_stats(result.site_stats, protocol=proto)
    registry.ingest_records(result.records, protocol=proto)
    span_list = spans if spans is not None else getattr(result, "spans", [])
    if span_list:
        registry.ingest_spans(span_list, protocol=proto)
    return registry
