"""Service metrics: request counters, queue depth, latency histograms.

A thread-safe facade over :class:`~repro.obs.metrics.MetricsRegistry` —
the same registry the batch engine uses, rendered by the same
OpenMetrics exporter, so one scrape config covers batch runs and the
service. The batch engine merges registries *between* processes and
never shares one across threads; the service does the opposite (many
request/worker threads, one registry), hence the lock here rather than
in the registry.

Naming: every series lives under ``serve.*`` (the exporter prefixes
``repro_`` and sanitizes dots to underscores). Per-route and per-status
series are separate counters rather than labels — the exporter is
label-free by design, and the route space is tiny and fixed.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry

#: Buckets for whole-job submit→done latency: jobs span milliseconds
#: (trivial documents) to many minutes (paper-scale sweeps).
JOB_LATENCY_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)


class ServiceMetrics:
    """All counters/gauges/histograms of one service process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._registry = MetricsRegistry()
        self.started = time.time()

    def request(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            self._registry.count("serve.requests")
            self._registry.count(f"serve.requests.status.{status}")
            self._registry.count(f"serve.requests.route.{route}")
            self._registry.observe(
                "serve.request_seconds", seconds, buckets=LATENCY_BUCKETS
            )

    def job_submitted(self) -> None:
        with self._lock:
            self._registry.count("serve.jobs.submitted")

    def job_finished(self, state: str, seconds: float) -> None:
        with self._lock:
            self._registry.count(f"serve.jobs.{state}")
            self._registry.observe(
                "serve.job_seconds", seconds, buckets=JOB_LATENCY_BUCKETS
            )

    def queue_depth(self, depth: int) -> None:
        with self._lock:
            self._registry.gauge("serve.queue_depth", depth)

    def rejected(self, reason: str) -> None:
        with self._lock:
            self._registry.count(f"serve.rejected.{reason}")

    def snapshot(self) -> MetricsRegistry:
        """A consistent copy for the exporter (scrapes race updates)."""
        with self._lock:
            clone = MetricsRegistry()
            clone.merge(self._registry)
            return clone

    def as_dict(self) -> Dict[str, Any]:
        return self.snapshot().as_dict()
