"""Core contribution: deadline distribution before task assignment."""

from repro.core.annotations import DeadlineAssignment, SliceRecord, Window
from repro.core.baselines import (
    BASELINES,
    BaselineDistributor,
    EffectiveDeadline,
    EqualFlexibility,
    EqualSlack,
    EvenFlexibility,
    UltimateDeadline,
    make_baseline,
)
from repro.core.commcost import (
    CCAA,
    CCNE,
    CommCostEstimator,
    Oracle,
    Scaled,
    make_estimator,
)
from repro.core.criticalpath import CriticalPath, find_critical_path
from repro.core.expanded import ENode, ExpandedGraph
from repro.core.metrics import (
    AdaptiveLaxityRatio,
    MetricContext,
    NormalizedLaxityRatio,
    PureLaxityRatio,
    SlicingMetric,
    ThresholdLaxityRatio,
    make_metric,
)
from repro.core.pinning import (
    pin_boundary_subtasks,
    pin_random_fraction,
    pin_subtasks,
    pinned_fraction,
    validate_pins,
)
from repro.core.sensitivity import (
    SubtaskMargin,
    critical_scaling_factor,
    per_subtask_margins,
    window_scaling_factor,
)
from repro.core.slicer import DeadlineDistributor, ast, bst
from repro.core.validation import ValidationReport, validate_assignment

__all__ = [
    "DeadlineAssignment",
    "BASELINES",
    "BaselineDistributor",
    "UltimateDeadline",
    "EffectiveDeadline",
    "EqualSlack",
    "EqualFlexibility",
    "EvenFlexibility",
    "make_baseline",
    "SliceRecord",
    "Window",
    "CommCostEstimator",
    "CCNE",
    "CCAA",
    "Scaled",
    "Oracle",
    "make_estimator",
    "CriticalPath",
    "find_critical_path",
    "ENode",
    "ExpandedGraph",
    "SlicingMetric",
    "MetricContext",
    "NormalizedLaxityRatio",
    "PureLaxityRatio",
    "ThresholdLaxityRatio",
    "AdaptiveLaxityRatio",
    "make_metric",
    "pin_subtasks",
    "pin_random_fraction",
    "pin_boundary_subtasks",
    "pinned_fraction",
    "validate_pins",
    "DeadlineDistributor",
    "bst",
    "ast",
    "SubtaskMargin",
    "critical_scaling_factor",
    "per_subtask_margins",
    "window_scaling_factor",
    "ValidationReport",
    "validate_assignment",
]
