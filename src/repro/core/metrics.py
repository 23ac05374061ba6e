"""Laxity-ratio metrics for critical-path selection and slack assignment.

The slicing algorithm (paper Figure 1) is parameterized by a metric ``R``:
the candidate path minimizing ``R`` is the critical path, and ``R`` then
prescribes each path member's relative deadline. Four metrics appear in the
paper:

* :class:`NormalizedLaxityRatio` (NORM, BST) — slack proportional to
  execution time: ``R = (D − Σc) / Σc``, ``d_i = c_i (1 + R)``;
* :class:`PureLaxityRatio` (PURE, BST) — equal slack share:
  ``R = (D − Σc) / n``, ``d_i = c_i + R``;
* :class:`ThresholdLaxityRatio` (THRES, AST) — PURE over *virtual*
  execution times ``c' = c (1 + Δ)`` for subtasks whose execution time
  reaches the threshold ``c_thres``;
* :class:`AdaptiveLaxityRatio` (ADAPT, AST) — THRES with the surplus
  factor replaced by ``ξ / N_proc`` (average graph parallelism over
  processor count), which adapts the extra slack to how much of the graph's
  parallelism the platform can actually exploit.

Virtual execution times apply to *computation* subtasks only; an estimated
communication cost is never inflated (the threshold concept targets
processor contention, which communication subtasks do not experience on
the paper's bus).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.core.expanded import ENode, ExpandedGraph
from repro.errors import ValidationError
from repro.graph import paths
from repro.graph.taskgraph import TaskGraph
from repro.types import Time

#: Paper default: threshold 25 % above the mean execution time.
DEFAULT_THRESHOLD_FACTOR = 1.25
#: Paper default surplus factor for THRES (Figure 5 uses Δ = 1).
DEFAULT_SURPLUS = 1.0


@dataclass(frozen=True)
class MetricContext:
    """Workload/platform facts a metric may consume.

    ``n_processors`` is known before task *assignment* (the platform is
    given, only the placement is relaxed), which is exactly what ADAPT
    exploits. ``total_capacity`` is the platform's speed sum (equal to
    ``n_processors`` on the paper's homogeneous unit-speed platform);
    the capacity-aware ADAPT variant consumes it on heterogeneous
    platforms.
    """

    graph: TaskGraph
    n_processors: Optional[int] = None
    total_capacity: Optional[float] = None

    @property
    def mean_execution_time(self) -> Time:
        return self.graph.mean_execution_time()

    @property
    def average_parallelism(self) -> float:
        return paths.average_parallelism(self.graph)


class SlicingMetric(ABC):
    """Interface between the slicing algorithm and a laxity-ratio metric.

    The contract that makes slicing correct: for any path with end-to-end
    deadline ``D``, ``sum(relative_deadline(v, R)) == D`` where
    ``R = ratio(D, ...)`` over the same path. Each concrete metric keeps
    that telescoping property (verified by the test suite).

    The critical-path search caches candidates between slices, so during
    one distribution ``ratio`` and ``virtual_cost`` must be pure functions
    of their arguments, and ``ratio`` must never return NaN.
    """

    #: Name used in experiment tables.
    name: str = "abstract"
    #: Whether ``ratio`` depends on the path's node count (PURE family).
    uses_count: bool = True

    def prepare(self, expanded: ExpandedGraph, context: MetricContext) -> None:
        """Hook called once per distribution run, before any path search."""

    def virtual_cost(self, node: ENode) -> Time:
        """The (possibly inflated) cost the metric attributes to ``node``."""
        return node.cost

    @abstractmethod
    def ratio(self, end_to_end: Time, total_virtual_cost: Time, count: int) -> float:
        """The metric value R of a path; smaller means more critical."""

    @abstractmethod
    def relative_deadline(self, node: ENode, ratio: float) -> Time:
        """The relative deadline assigned to a path member given R."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PureLaxityRatio(SlicingMetric):
    """PURE: equal share of the path slack for every path member."""

    name = "PURE"
    uses_count = True

    def ratio(self, end_to_end: Time, total_virtual_cost: Time, count: int) -> float:
        if count <= 0:
            raise ValidationError("PURE ratio of an empty path")
        return (end_to_end - total_virtual_cost) / count

    def relative_deadline(self, node: ENode, ratio: float) -> Time:
        return self.virtual_cost(node) + ratio


class NormalizedLaxityRatio(SlicingMetric):
    """NORM: slack proportional to execution time."""

    name = "NORM"
    uses_count = False

    def ratio(self, end_to_end: Time, total_virtual_cost: Time, count: int) -> float:
        if total_virtual_cost <= 0:
            raise ValidationError("NORM ratio of a zero-cost path")
        return (end_to_end - total_virtual_cost) / total_virtual_cost

    def relative_deadline(self, node: ENode, ratio: float) -> Time:
        return node.cost * (1.0 + ratio)


class ThresholdLaxityRatio(PureLaxityRatio):
    """THRES: PURE with virtual execution times above a threshold.

    ``c'_i = c_i`` when ``c_i < c_thres`` and ``c_i (1 + Δ)`` otherwise.
    The threshold defaults to ``threshold_factor × MET`` of the distributed
    graph (paper: 25 % above MET); an absolute ``threshold`` overrides it.
    """

    name = "THRES"

    def __init__(
        self,
        surplus: float = DEFAULT_SURPLUS,
        threshold: Optional[Time] = None,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
    ) -> None:
        if surplus < 0:
            raise ValidationError(f"surplus factor must be >= 0, got {surplus}")
        if threshold is not None and threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {threshold}")
        if threshold_factor <= 0:
            raise ValidationError(
                f"threshold_factor must be > 0, got {threshold_factor}"
            )
        self.surplus = surplus
        self.threshold = threshold
        self.threshold_factor = threshold_factor
        self._effective_threshold: Optional[Time] = threshold
        self._effective_surplus: float = surplus

    def prepare(self, expanded: ExpandedGraph, context: MetricContext) -> None:
        if self.threshold is None:
            self._effective_threshold = (
                self.threshold_factor * context.mean_execution_time
            )
        else:
            self._effective_threshold = self.threshold
        self._effective_surplus = self.surplus

    def virtual_cost(self, node: ENode) -> Time:
        if not node.is_task:
            return node.cost
        assert self._effective_threshold is not None, (
            "metric used before prepare(); the slicer always prepares"
        )
        if node.cost >= self._effective_threshold:
            return node.cost * (1.0 + self._effective_surplus)
        return node.cost

    @property
    def effective_surplus(self) -> float:
        """The Δ in effect after :meth:`prepare` (ADAPT: ξ / N_proc)."""
        return self._effective_surplus

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(surplus={self.surplus}, "
            f"threshold={self.threshold}, threshold_factor={self.threshold_factor})"
        )


class AdaptiveLaxityRatio(ThresholdLaxityRatio):
    """ADAPT: THRES whose surplus adapts to exploitable parallelism.

    ``Δ = ξ / N_proc`` with ξ the average task-graph parallelism (total
    workload / longest-path execution length). On small platforms relative
    to the graph's parallelism, long subtasks receive a large surplus;
    once ``N_proc`` exceeds ξ the surplus fades and ADAPT follows PURE.

    ``capacity_aware=True`` selects the heterogeneous-platform variant
    (beyond the paper; see the ext-heterogeneous experiment): the divisor
    becomes the platform's *speed sum* instead of its processor count, so
    a platform of few fast processors is not mistaken for a contended one.
    On the paper's homogeneous unit-speed platform both variants coincide.
    """

    name = "ADAPT"

    def __init__(
        self,
        threshold: Optional[Time] = None,
        threshold_factor: float = DEFAULT_THRESHOLD_FACTOR,
        capacity_aware: bool = False,
    ) -> None:
        super().__init__(
            surplus=0.0, threshold=threshold, threshold_factor=threshold_factor
        )
        self.capacity_aware = capacity_aware
        if capacity_aware:
            self.name = "ADAPT-C"

    def prepare(self, expanded: ExpandedGraph, context: MetricContext) -> None:
        super().prepare(expanded, context)
        if context.n_processors is None:
            raise ValidationError(
                "ADAPT needs the platform size: pass n_processors to "
                "DeadlineDistributor.distribute() or MetricContext"
            )
        if context.n_processors < 1:
            raise ValidationError(
                f"n_processors must be >= 1, got {context.n_processors}"
            )
        divisor: float = context.n_processors
        if self.capacity_aware:
            if context.total_capacity is not None:
                if context.total_capacity <= 0:
                    raise ValidationError(
                        f"total_capacity must be > 0, got "
                        f"{context.total_capacity}"
                    )
                divisor = context.total_capacity
            # Without capacity information fall back to the count — the
            # homogeneous unit-speed assumption, where both coincide.
        self._effective_surplus = context.average_parallelism / divisor


def make_metric(name: str, **kwargs) -> SlicingMetric:
    """Instantiate a metric by table name (``NORM``/``PURE``/``THRES``/``ADAPT``)."""
    table = {
        "NORM": NormalizedLaxityRatio,
        "PURE": PureLaxityRatio,
        "THRES": ThresholdLaxityRatio,
        "ADAPT": AdaptiveLaxityRatio,
    }
    try:
        cls = table[name.upper()]
    except KeyError:
        raise ValidationError(
            f"unknown metric {name!r}; expected one of {sorted(table)}"
        ) from None
    return cls(**kwargs)
