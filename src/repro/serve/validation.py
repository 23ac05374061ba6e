"""Eager edge validation of job documents: 400s with field paths.

The service's error contract is strict — hostile or malformed input
yields a structured 4xx naming the offending field, *never* a 500 and
never a hang. That means validation has to happen at the edge, before a
document is accepted into the durable queue, and it has to be exhaustive
enough that :func:`~repro.serve.jobs.compile_job` on a validated
document cannot fail for a reason the client caused.

Two layers:

* :func:`parse_json_strict` — bytes → JSON with the hostile inputs the
  stdlib parser accepts by default rejected: ``NaN``/``Infinity``
  tokens (which would poison lateness arithmetic downstream) and
  duplicate object keys (which silently drop data).
* :func:`validate_job` — shape checks with precise paths
  (``graphs[2].subtasks[0].wcet``), then the domain's own validators
  (graph decode + :meth:`~repro.graph.taskgraph.TaskGraph.validate`,
  :class:`~repro.feast.config.MethodSpec`,
  :class:`~repro.graph.generator.RandomGraphConfig`) so semantic rules
  like acyclicity and anchor coverage are enforced by the same code the
  batch engine trusts, not a parallel re-implementation.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError
from repro.feast.config import MethodSpec, SPEED_PROFILES
from repro.graph.generator import SCENARIOS, RandomGraphConfig
from repro.graph.serialization import graph_from_dict
from repro.machine.topology import TOPOLOGIES
from repro.sched.policies import POLICIES
from repro.serve import jobs

#: Keys accepted at each level; anything else is a 400 naming the key.
TOP_LEVEL_KEYS = {"format", "version", "name", "graphs", "workload", "platform", "methods"}
WORKLOAD_KEYS = {"scenarios", "n_graphs", "seed", "graph_config"}
PLATFORM_KEYS = {
    "system_sizes", "topology", "policy", "speed_profile", "respect_release_times",
}
METHOD_KEYS = {
    "label", "metric", "comm", "surplus", "threshold_factor",
    "cost_per_item", "baseline", "capacity_aware", "clamp_to_anchors",
}
GRAPH_CONFIG_KEYS = {
    "n_subtasks_range", "mean_execution_time", "execution_time_deviation",
    "depth_range", "degree_range", "overall_laxity_ratio", "olr_basis",
    "communication_to_computation_ratio", "message_size_deviation",
    "long_edge_probability", "integer_times",
}
_RANGE_KEYS = {"n_subtasks_range", "depth_range", "degree_range"}


class DocumentError(ReproError):
    """A rejected document: a list of ``(path, message)`` field errors."""

    def __init__(self, fields: List[Tuple[str, str]], title: str = "invalid job document") -> None:
        self.title = title
        self.fields = list(fields)
        first = "; ".join(f"{p or '$'}: {m}" for p, m in self.fields[:3])
        super().__init__(f"{title}: {first}")

    @classmethod
    def single(cls, path: str, message: str, title: str = "invalid job document") -> "DocumentError":
        return cls([(path, message)], title=title)

    def body(self) -> Dict[str, Any]:
        return {
            "title": self.title,
            "fields": [{"path": p, "message": m} for p, m in self.fields],
        }


def _reject_constant(token: str) -> Any:
    raise DocumentError.single(
        "", f"non-finite JSON token {token!r} is not accepted", title="invalid JSON"
    )


def _reject_duplicate_keys(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise DocumentError.single(
                "", f"duplicate object key {key!r}", title="invalid JSON"
            )
        obj[key] = value
    return obj


def parse_json_strict(raw: bytes) -> Any:
    """Decode a request body to JSON, rejecting what stdlib tolerates."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError.single("", f"body is not valid UTF-8: {exc}", title="invalid JSON")
    try:
        return json.loads(
            text,
            parse_constant=_reject_constant,
            object_pairs_hook=_reject_duplicate_keys,
        )
    except DocumentError:
        raise
    except json.JSONDecodeError as exc:
        raise DocumentError.single("", f"invalid JSON: {exc}", title="invalid JSON")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class _Collector:
    """Accumulates field errors so one response names every problem."""

    def __init__(self) -> None:
        self.fields: List[Tuple[str, str]] = []

    def add(self, path: str, message: str) -> None:
        self.fields.append((path, message))

    def raise_if_any(self) -> None:
        if self.fields:
            raise DocumentError(self.fields)


def _check_envelope(data: Any, errs: _Collector) -> None:
    if data.get("format") != jobs.JOB_FORMAT:
        errs.add("format", f"expected {jobs.JOB_FORMAT!r}, got {data.get('format')!r}")
    if data.get("version") != jobs.JOB_VERSION:
        errs.add("version", f"expected {jobs.JOB_VERSION}, got {data.get('version')!r}")
    for key in sorted(set(data) - TOP_LEVEL_KEYS):
        errs.add(key, "unknown field")
    name = data.get("name")
    if name is not None:
        if not isinstance(name, str) or not name.strip():
            errs.add("name", "must be a non-empty string")
        elif len(name) > 120:
            errs.add("name", f"too long ({len(name)} > 120 characters)")


def _check_graphs(graphs: Any, errs: _Collector) -> None:
    if not isinstance(graphs, list) or not graphs:
        errs.add("graphs", "must be a non-empty list of repro-taskgraph documents")
        return
    if len(graphs) > jobs.MAX_GRAPHS:
        errs.add("graphs", f"too many graphs ({len(graphs)} > {jobs.MAX_GRAPHS})")
        return
    for i, doc in enumerate(graphs):
        path = f"graphs[{i}]"
        if not isinstance(doc, dict):
            errs.add(path, "must be a repro-taskgraph object")
            continue
        for j, sub in enumerate(doc.get("subtasks") or []):
            if isinstance(sub, dict):
                wcet = sub.get("wcet")
                if wcet is not None and not _is_number(wcet):
                    errs.add(f"{path}.subtasks[{j}].wcet", "must be a number")
        try:
            graph = graph_from_dict(doc)
            graph.validate()
        except ReproError as exc:
            errs.add(path, str(exc))


def _check_workload(workload: Any, errs: _Collector) -> None:
    if not isinstance(workload, dict):
        errs.add("workload", "must be an object")
        return
    for key in sorted(set(workload) - WORKLOAD_KEYS):
        errs.add(f"workload.{key}", "unknown field")
    n_graphs = workload.get("n_graphs")
    if n_graphs is not None:
        if not _is_int(n_graphs) or n_graphs < 1:
            errs.add("workload.n_graphs", "must be an integer >= 1")
        elif n_graphs > jobs.MAX_N_GRAPHS:
            errs.add("workload.n_graphs", f"too large ({n_graphs} > {jobs.MAX_N_GRAPHS})")
    seed = workload.get("seed")
    if seed is not None and not _is_int(seed):
        errs.add("workload.seed", "must be an integer")
    scenarios = workload.get("scenarios")
    if scenarios is not None:
        if not isinstance(scenarios, list) or not scenarios:
            errs.add("workload.scenarios", "must be a non-empty list")
        else:
            for i, scenario in enumerate(scenarios):
                if scenario not in SCENARIOS:
                    errs.add(
                        f"workload.scenarios[{i}]",
                        f"unknown scenario {scenario!r}; expected one of {sorted(SCENARIOS)}",
                    )
            if len(set(scenarios)) != len(scenarios):
                errs.add("workload.scenarios", "duplicate scenarios")
    graph_config = workload.get("graph_config")
    if graph_config is not None:
        _check_graph_config(graph_config, errs)


def _check_graph_config(graph_config: Any, errs: _Collector) -> None:
    if not isinstance(graph_config, dict):
        errs.add("workload.graph_config", "must be an object")
        return
    for key in sorted(set(graph_config) - GRAPH_CONFIG_KEYS):
        errs.add(f"workload.graph_config.{key}", "unknown field")
    normalized = {}
    for key, value in graph_config.items():
        if key not in GRAPH_CONFIG_KEYS:
            continue
        if key in _RANGE_KEYS:
            if (
                not isinstance(value, list) or len(value) != 2
                or not all(_is_int(v) for v in value)
            ):
                errs.add(f"workload.graph_config.{key}", "must be a [lo, hi] integer pair")
                continue
            normalized[key] = tuple(value)
        elif key == "olr_basis":
            if not isinstance(value, str):
                errs.add(f"workload.graph_config.{key}", "must be a string")
                continue
            normalized[key] = value
        elif key == "integer_times":
            if not isinstance(value, bool):
                errs.add(f"workload.graph_config.{key}", "must be a boolean")
                continue
            normalized[key] = value
        else:
            if not _is_number(value):
                errs.add(f"workload.graph_config.{key}", "must be a number")
                continue
            normalized[key] = value
    if errs.fields:
        return
    try:
        config = RandomGraphConfig(**normalized)
    except ReproError as exc:
        errs.add("workload.graph_config", str(exc))
        return
    # The generator draws n and depth independently and needs
    # n >= depth for every draw; a config where some (n, depth) pair
    # violates that *will* eventually fail a trial. The CLI tolerates
    # it (fail-fast at run time); the service rejects it at submit,
    # because by then the client has long since disconnected. Note the
    # effective values matter — a too-small n_subtasks_range against
    # the *default* depth_range is the common way to trip this.
    if config.n_subtasks_range[0] < config.depth_range[1]:
        errs.add(
            "workload.graph_config",
            "unsatisfiable generator ranges: a drawn depth (depth_range="
            f"{list(config.depth_range)}) can exceed a drawn subtask count "
            f"(n_subtasks_range={list(config.n_subtasks_range)}); generation "
            "requires n_subtasks >= depth for every draw",
        )


def _check_platform(platform: Any, errs: _Collector) -> None:
    if not isinstance(platform, dict):
        errs.add("platform", "must be an object")
        return
    for key in sorted(set(platform) - PLATFORM_KEYS):
        errs.add(f"platform.{key}", "unknown field")
    sizes = platform.get("system_sizes")
    if sizes is not None:
        if not isinstance(sizes, list) or not sizes:
            errs.add("platform.system_sizes", "must be a non-empty list of integers")
        elif len(sizes) > jobs.MAX_SYSTEM_SIZES:
            errs.add(
                "platform.system_sizes",
                f"too many sizes ({len(sizes)} > {jobs.MAX_SYSTEM_SIZES})",
            )
        else:
            for i, size in enumerate(sizes):
                if not _is_int(size) or size < 1:
                    errs.add(f"platform.system_sizes[{i}]", "must be an integer >= 1")
            if len(set(sizes)) != len(sizes):
                errs.add("platform.system_sizes", "duplicate sizes")
    topology = platform.get("topology")
    if topology is not None and topology not in TOPOLOGIES:
        errs.add(
            "platform.topology",
            f"unknown topology {topology!r}; expected one of {sorted(TOPOLOGIES)}",
        )
    policy = platform.get("policy")
    if policy is not None and (
        not isinstance(policy, str) or policy.upper() not in POLICIES
    ):
        errs.add(
            "platform.policy",
            f"unknown policy {policy!r}; expected one of {sorted(POLICIES)}",
        )
    profile = platform.get("speed_profile")
    if profile is not None and profile not in SPEED_PROFILES:
        errs.add(
            "platform.speed_profile",
            f"unknown speed profile {profile!r}; expected one of {sorted(SPEED_PROFILES)}",
        )
    flag = platform.get("respect_release_times")
    if flag is not None and not isinstance(flag, bool):
        errs.add("platform.respect_release_times", "must be a boolean")


def _check_methods(methods: Any, errs: _Collector) -> None:
    if not isinstance(methods, list) or not methods:
        errs.add("methods", "must be a non-empty list of method specs")
        return
    labels = []
    for i, spec in enumerate(methods):
        path = f"methods[{i}]"
        if not isinstance(spec, dict):
            errs.add(path, "must be an object")
            continue
        for key in sorted(set(spec) - METHOD_KEYS):
            errs.add(f"{path}.{key}", "unknown field")
        label = spec.get("label")
        if not isinstance(label, str) or not label.strip():
            errs.add(f"{path}.label", "must be a non-empty string")
            continue
        labels.append(label)
        typed_ok = True
        for key, kind in (
            ("metric", str), ("comm", str), ("baseline", str),
            ("capacity_aware", bool), ("clamp_to_anchors", bool),
        ):
            value = spec.get(key)
            if value is not None and not isinstance(value, kind):
                errs.add(f"{path}.{key}", f"must be a {kind.__name__}")
                typed_ok = False
        for key in ("surplus", "threshold_factor", "cost_per_item"):
            value = spec.get(key)
            if value is not None and not _is_number(value):
                errs.add(f"{path}.{key}", "must be a number")
                typed_ok = False
        if not typed_ok or set(spec) - METHOD_KEYS:
            continue
        try:
            MethodSpec(**spec)
        except ReproError as exc:
            errs.add(path, str(exc))
        except TypeError as exc:
            errs.add(path, f"malformed method spec: {exc}")
    if len(set(labels)) != len(labels):
        errs.add("methods", f"duplicate method labels: {labels}")


def validate_job(data: Any) -> Dict[str, Any]:
    """Validate a parsed job document; returns it unchanged on success.

    Raises :class:`DocumentError` carrying *every* field error found —
    clients fix a rejected document in one round trip, not one field at
    a time. After this returns, :func:`~repro.serve.jobs.compile_job`
    is guaranteed not to fail for client-attributable reasons (the HTTP
    layer still guards it as a belt-and-braces 400).
    """
    if not isinstance(data, dict):
        raise DocumentError.single(
            "", f"job document must be a JSON object, got {type(data).__name__}"
        )
    errs = _Collector()
    _check_envelope(data, errs)

    graphs = data.get("graphs")
    workload = data.get("workload")
    if graphs is None and workload is None:
        errs.add("", "exactly one of 'graphs' or 'workload' is required")
    elif graphs is not None and workload is not None:
        errs.add("", "'graphs' and 'workload' are mutually exclusive")
    elif graphs is not None:
        _check_graphs(graphs, errs)
    else:
        _check_workload(workload, errs)

    if "platform" in data and data["platform"] is not None:
        _check_platform(data["platform"], errs)
    _check_methods(data.get("methods"), errs)
    errs.raise_if_any()
    return data
