"""Task assignment and scheduling substrate."""

from repro.sched.analysis import (
    ScheduleMetrics,
    ScheduleSummary,
    end_to_end_lateness,
    lateness_by_subtask,
    max_lateness,
    message_lateness,
    schedule_metrics,
    score,
    summarize_schedule,
)
from repro.sched.bus import LinkTimeline, LinkTimelines
from repro.sched.list_scheduler import ListScheduler
from repro.sched.policies import (
    POLICIES,
    EarliestDeadlineFirst,
    EarliestReleaseFirst,
    LeastLaxityFirst,
    LongestProcessingTimeFirst,
    RandomPolicy,
    SelectionPolicy,
    make_policy,
)
from repro.sched.diff import ScheduleDiff, TaskDelta, diff_schedules
from repro.sched.export import schedule_to_json, schedule_to_svg, trace_to_svg
from repro.sched.optimal import BranchAndBoundScheduler, OptimalResult
from repro.sched.schedulability import (
    DemandViolation,
    SchedulabilityReport,
    analyze_placement,
    analyze_platform,
    min_processors_needed,
)
from repro.sched.simulator import (
    ExecutionSegment,
    ExecutionTrace,
    JitterModel,
    Transfer,
    allocation_of,
    simulate_dynamic,
    simulate_fixed,
)
from repro.sched.schedule import (
    HopReservation,
    Schedule,
    ScheduledMessage,
    ScheduledTask,
)

__all__ = [
    "ScheduleMetrics",
    "lateness_by_subtask",
    "max_lateness",
    "message_lateness",
    "end_to_end_lateness",
    "schedule_metrics",
    "ScheduleSummary",
    "summarize_schedule",
    "score",
    "LinkTimeline",
    "LinkTimelines",
    "ListScheduler",
    "SelectionPolicy",
    "EarliestDeadlineFirst",
    "LeastLaxityFirst",
    "EarliestReleaseFirst",
    "LongestProcessingTimeFirst",
    "RandomPolicy",
    "POLICIES",
    "make_policy",
    "Schedule",
    "ScheduledTask",
    "ScheduledMessage",
    "HopReservation",
    "ExecutionSegment",
    "ExecutionTrace",
    "JitterModel",
    "Transfer",
    "allocation_of",
    "simulate_dynamic",
    "simulate_fixed",
    "BranchAndBoundScheduler",
    "OptimalResult",
    "DemandViolation",
    "SchedulabilityReport",
    "analyze_platform",
    "analyze_placement",
    "min_processors_needed",
    "ScheduleDiff",
    "TaskDelta",
    "diff_schedules",
    "schedule_to_svg",
    "schedule_to_json",
    "trace_to_svg",
]
