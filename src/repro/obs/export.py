"""Trace export: the JSONL event log and the Chrome-trace converter.

The **event log** is one run's telemetry serialized as append-only JSON
Lines — the same shape as the checkpoint journal it sits next to: a
header line pinning format and version, then one self-describing event
object per line (``span``, ``metrics``, ``resource``, ``failure``,
``summary``). Spans are flattened parent-before-child with integer ids,
so a consumer can stream the file without reassembling trees, and
:func:`read_events` validates every line against the schema on the way
in.

The **Chrome-trace converter** (:func:`chrome_trace`) turns an event log
into the Trace Event Format that ``chrome://tracing`` and Perfetto load:
complete (``"ph": "X"``) slices per span on one track per process,
counter tracks for worker resource samples, and process-name metadata.
Timestamps are rebased to the run's first span so the viewer opens at
t=0.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, IO, List, Optional

from repro.errors import SerializationError
from repro.obs.runtime import Telemetry
from repro.obs.spans import Span

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1

#: Event kinds a log line may carry.
EVENT_KINDS = ("header", "span", "metrics", "resource", "failure", "summary")


def fsync_directory(directory: str) -> None:
    """Flush a directory's entries to disk, best-effort.

    ``fsync`` on a *file* persists its contents, not the directory entry
    naming it: after a crash, a freshly created (or renamed-into-place)
    file can vanish even though its bytes were synced. Syncing the
    parent directory closes that window. Platforms or filesystems that
    refuse ``open``/``fsync`` on directories are silently tolerated —
    this only ever *adds* durability.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + replace).

    Either the old content or the complete new content exists at ``path``
    at every instant; a crash mid-write leaves the destination untouched
    and no partial temp file behind; the parent directory is synced
    after the rename so the *name* survives a crash too. (Shared with
    :mod:`repro.feast.persistence`, which re-exports it.)
    """
    path = os.path.abspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(text)
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def make_run_id() -> str:
    """A short, filesystem-safe id distinguishing runs on one machine."""
    return f"{int(time.time() * 1000):x}-{os.getpid():x}"


# ----------------------------------------------------------------------
# Telemetry -> events
# ----------------------------------------------------------------------
def _flatten_spans(
    spans: List[Span], events: List[Dict[str, Any]], parent: Optional[int],
    next_id: List[int],
) -> None:
    for span in spans:
        span_id = next_id[0]
        next_id[0] += 1
        events.append({
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "ts": span.start,
            "dur": max(0.0, span.duration),
            "pid": span.pid,
            "attrs": dict(span.attrs),
        })
        _flatten_spans(span.children, events, span_id, next_id)


def events_from_telemetry(
    telemetry: Telemetry,
    experiment: str,
    summary: Optional[Dict[str, Any]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
    run_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Serialize one run's telemetry as event-log lines (header first)."""
    events: List[Dict[str, Any]] = [{
        "kind": "header",
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "experiment": experiment,
        "run_id": run_id if run_id is not None else make_run_id(),
        "created": time.time(),
    }]
    _flatten_spans(telemetry.spans.finished(), events, None, [0])
    for sample in telemetry.resources:
        events.append({"kind": "resource", **sample.as_dict()})
    for failure in failures or []:
        events.append({"kind": "failure", **failure})
    if telemetry.metrics:
        events.append({"kind": "metrics", **telemetry.metrics.as_dict()})
    if summary is not None:
        events.append({"kind": "summary", **summary})
    return events


class EventLog:
    """Append-only JSONL event log writer (one run per file).

    Mirrors the checkpoint journal's durability contract: the header is
    written on open, every :meth:`emit` is flushed, and :meth:`close`
    fsyncs, so a crashed run leaves at worst one truncated trailing line
    — which :func:`read_events` tolerates with ``allow_partial=True``.
    """

    def __init__(
        self,
        path: str,
        experiment: str,
        run_id: Optional[str] = None,
        created: Optional[float] = None,
    ) -> None:
        self.path = os.path.abspath(path)
        self.run_id = run_id if run_id is not None else make_run_id()
        directory = os.path.dirname(self.path) or "."
        if not os.path.isdir(directory):
            raise SerializationError(
                f"event-log directory does not exist: {directory!r}"
            )
        self._fp: Optional[IO[str]] = open(self.path, "w")
        self.emit({
            "kind": "header",
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "experiment": experiment,
            "run_id": self.run_id,
            "created": created if created is not None else time.time(),
        })

    def emit(self, event: Dict[str, Any]) -> None:
        """Append one event line (flushed)."""
        if self._fp is None:
            raise SerializationError(f"event log {self.path!r} is closed")
        self._fp.write(json.dumps(event, sort_keys=True) + "\n")
        self._fp.flush()

    def emit_all(self, events: List[Dict[str, Any]]) -> None:
        for event in events:
            self.emit(event)

    def close(self) -> None:
        if self._fp is not None:
            self._fp.flush()
            os.fsync(self._fp.fileno())
            self._fp.close()
            self._fp = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_events(
    path: str,
    telemetry: Telemetry,
    experiment: str,
    summary: Optional[Dict[str, Any]] = None,
    failures: Optional[List[Dict[str, Any]]] = None,
    run_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Write a finished run's telemetry to ``path`` as an event log."""
    events = events_from_telemetry(
        telemetry, experiment,
        summary=summary, failures=failures, run_id=run_id,
    )
    header = events[0]
    with EventLog(
        path, experiment,
        run_id=header["run_id"], created=header["created"],
    ) as log:
        log.emit_all(events[1:])
    return events


# ----------------------------------------------------------------------
# Validation and reading
# ----------------------------------------------------------------------
def _require(condition: bool, lineno: int, message: str) -> None:
    if not condition:
        raise SerializationError(
            f"invalid trace event on line {lineno}: {message}"
        )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_event(
    event: Dict[str, Any], lineno: int, seen_span_ids: set
) -> None:
    """Validate one event-log line against the schema; raises on error."""
    _require(isinstance(event, dict), lineno, "not an object")
    kind = event.get("kind")
    _require(kind in EVENT_KINDS, lineno, f"unknown kind {kind!r}")
    if kind == "header":
        _require(
            event.get("format") == TRACE_FORMAT, lineno,
            f"format is {event.get('format')!r}, not {TRACE_FORMAT!r}",
        )
        _require(
            event.get("version") == TRACE_VERSION, lineno,
            f"unsupported version {event.get('version')!r}",
        )
        _require(
            isinstance(event.get("experiment"), str), lineno,
            "header misses experiment name",
        )
    elif kind == "span":
        for key in ("id", "name", "ts", "dur", "pid", "attrs"):
            _require(key in event, lineno, f"span misses {key!r}")
        _require(
            isinstance(event["id"], int), lineno, "span id must be int"
        )
        _require(
            _is_number(event["ts"]) and _is_number(event["dur"]),
            lineno, "span ts/dur must be numbers",
        )
        _require(event["dur"] >= 0, lineno, "span dur must be >= 0")
        _require(
            isinstance(event["attrs"], dict), lineno,
            "span attrs must be an object",
        )
        parent = event.get("parent")
        _require(
            parent is None or parent in seen_span_ids, lineno,
            f"span parent {parent!r} not seen yet "
            "(spans must be parent-before-child)",
        )
        _require(
            event["id"] not in seen_span_ids, lineno,
            f"duplicate span id {event['id']}",
        )
        seen_span_ids.add(event["id"])
    elif kind == "metrics":
        for key in ("counters", "gauges", "histograms"):
            _require(
                isinstance(event.get(key), dict), lineno,
                f"metrics misses object {key!r}",
            )
        for name, value in {
            **event["counters"], **event["gauges"]
        }.items():
            _require(
                _is_number(value), lineno,
                f"metric {name!r} value must be a number",
            )
        for name, hist in event["histograms"].items():
            _require(
                isinstance(hist, dict)
                and isinstance(hist.get("buckets"), list)
                and isinstance(hist.get("counts"), list),
                lineno, f"histogram {name!r} malformed",
            )
            _require(
                len(hist["counts"]) == len(hist["buckets"]) + 1,
                lineno,
                f"histogram {name!r} needs len(buckets)+1 counts",
            )
            _require(
                sum(hist["counts"]) == hist.get("count"), lineno,
                f"histogram {name!r} counts do not sum to count",
            )
    elif kind == "resource":
        for key in ("ts", "rss_max_kb", "cpu_user_s", "cpu_system_s", "pid"):
            _require(
                _is_number(event.get(key)), lineno,
                f"resource misses numeric {key!r}",
            )
    # "failure" and "summary" carry engine-defined payloads; the kind tag
    # is the whole contract.


def validate_events(events: List[Dict[str, Any]]) -> None:
    """Validate a whole event sequence (header first, spans ordered)."""
    if not events:
        raise SerializationError("empty trace: no header event")
    if events[0].get("kind") != "header":
        raise SerializationError(
            "first trace event must be the header, got "
            f"{events[0].get('kind')!r}"
        )
    seen_span_ids: set = set()
    for lineno, event in enumerate(events, start=1):
        if lineno > 1 and event.get("kind") == "header":
            raise SerializationError(
                f"invalid trace event on line {lineno}: duplicate header"
            )
        validate_event(event, lineno, seen_span_ids)


def read_events(
    path: str, allow_partial: bool = False
) -> List[Dict[str, Any]]:
    """Read and validate an event log; returns the event dicts.

    ``allow_partial=True`` tolerates one truncated trailing line (a run
    that crashed mid-append); anything else malformed raises
    :class:`SerializationError`.
    """
    try:
        with open(path) as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        # UnicodeDecodeError covers binary garbage handed to `repro
        # report` (a .ckpt journal, a truncated pickle); surface it as
        # the same clean one-line error as an unreadable file.
        raise SerializationError(
            f"cannot read event log {path!r}: {exc}"
        ) from exc
    events: List[Dict[str, Any]] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if (
                allow_partial
                and lineno == len(lines)
                and not text.endswith("\n")
            ):
                break
            raise SerializationError(
                f"invalid JSON on line {lineno} of {path!r}: {exc}"
            ) from exc
    validate_events(events)
    return events


# ----------------------------------------------------------------------
# Chrome trace (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert an event log to Chrome Trace Event Format (JSON object).

    Spans become complete ``"X"`` slices (microsecond timestamps rebased
    to the earliest span), resource samples and ``supervision.*``
    counters become ``"C"`` counter tracks, and each process gets a
    ``process_name`` metadata record.
    The result loads directly in Perfetto or ``chrome://tracing``.
    """
    validate_events(events)
    header = events[0]
    spans = [e for e in events if e.get("kind") == "span"]
    resources = [e for e in events if e.get("kind") == "resource"]
    base = min(
        [e["ts"] for e in spans] + [e["ts"] for e in resources],
        default=0.0,
    )
    trace_events: List[Dict[str, Any]] = []
    pids = sorted(
        {e["pid"] for e in spans} | {e["pid"] for e in resources}
    )
    parent_pid = min(
        (e["pid"] for e in spans if e.get("parent") is None),
        default=pids[0] if pids else 0,
    )
    for pid in pids:
        name = "experiment" if pid == parent_pid else f"worker-{pid}"
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    for e in spans:
        trace_events.append({
            "ph": "X",
            "name": e["name"],
            "cat": "repro",
            "ts": (e["ts"] - base) * 1e6,
            "dur": e["dur"] * 1e6,
            "pid": e["pid"],
            "tid": 0,
            "args": dict(e["attrs"]),
        })
    for e in resources:
        ts = (e["ts"] - base) * 1e6
        trace_events.append({
            "ph": "C", "name": "rss_max_kb", "pid": e["pid"], "tid": 0,
            "ts": ts, "args": {"kb": e["rss_max_kb"]},
        })
        trace_events.append({
            "ph": "C", "name": "cpu_seconds", "pid": e["pid"], "tid": 0,
            "ts": ts,
            "args": {
                "user": e["cpu_user_s"], "system": e["cpu_system_s"],
            },
        })
    # Supervision counters are run totals (no timeline of their own), so
    # plot each as a counter track stamped at the end of the trace —
    # Perfetto then shows fault-tolerance incidents next to the spans.
    end = max(
        [(e["ts"] - base + e["dur"]) * 1e6 for e in spans], default=0.0
    )
    for e in events:
        if e.get("kind") != "metrics":
            continue
        for name, value in sorted((e.get("counters") or {}).items()):
            if not name.startswith("supervision."):
                continue
            trace_events.append({
                "ph": "C", "name": name, "pid": parent_pid, "tid": 0,
                "ts": end, "args": {"count": value},
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "format": TRACE_FORMAT,
            "experiment": header.get("experiment"),
            "run_id": header.get("run_id"),
        },
    }


def write_chrome_trace(path: str, events: List[Dict[str, Any]]) -> None:
    """Convert ``events`` and write the Chrome trace JSON atomically."""
    atomic_write_text(path, json.dumps(chrome_trace(events)))
