"""Trace exporters: JSONL event stream and Chrome ``trace_event``.

JSONL is the canonical on-disk form — one record per line, keys sorted,
append-only in emission order — consumed back by
:mod:`repro.telemetry.analysis` and the ``repro trace`` CLI.  The Chrome
format is a view for humans: load it in Perfetto or ``chrome://tracing``
to scrub through a run visually.

Simulated seconds map to trace microseconds (1 sim second = 1e6 µs);
tracks (Chrome ``tid``) are derived from span attributes — worker node
ids get their own track, control-tier spans share one — numbered in
order of first appearance, which is deterministic because the record
stream is.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable

from repro.common.atomic_io import parse_jsonl

#: Span/event attributes that select a Chrome track, in priority order.
_TRACK_ATTRS = ("node", "replica_id", "track")

_CONTROL_TRACK = "control-tier"


def to_jsonl(records: Iterable[dict]) -> str:
    """Serialize records as JSON Lines (sorted keys, one per line)."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def write_jsonl(records: Iterable[dict], path: str) -> int:
    """Write a JSONL trace file; returns the number of records."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count


class JsonlStreamSink:
    """Write-through telemetry sink: every record lands on disk as it is
    emitted, one JSONL line per record, instead of accumulating in
    memory.  This is what bounds a chaos campaign's footprint — hundreds
    of traced runs stream to files rather than growing the heap — and
    what preserves the trace prefix if a run dies mid-flight.

    The line format is byte-identical to :func:`write_jsonl` over the
    same records, so :func:`read_jsonl` and the trace analysis tools
    consume either interchangeably.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: IO[str] | None = open(path, "w")
        self.records_written = 0

    def handle(self, record: dict) -> None:
        if self._handle is None:
            return  # closed: late stragglers are dropped, not crashed on
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self.records_written += 1

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> int:
        """Flush, fsync and close; returns the total records written.

        Idempotent: a second close is a no-op returning the same count.
        The fsync makes the trace tail durable before the caller treats
        the run as finished — the same discipline the control-plane
        journal applies to its commit records.
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        return self.records_written


def read_jsonl(path_or_file: str | IO[str]) -> list[dict]:
    """Load a JSONL trace (skips blank lines)."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            lines = handle.readlines()
    else:
        lines = path_or_file.readlines()
    return [json.loads(line) for line in lines if line.strip()]


def read_jsonl_lenient(
    path_or_file: str | IO[str],
) -> tuple[list[dict], list[str]]:
    """Load a possibly-truncated streaming trace, best-effort.

    A run that died mid-flight leaves a :class:`JsonlStreamSink` file
    whose last line may be cut off and whose trailing metrics snapshot
    (``Telemetry.finalize()``) never landed.  Instead of crashing the
    analysis tools, return every parseable record plus human-readable
    warnings describing what is missing.  A parse error anywhere *other*
    than the tail still raises — that is a corrupt file, not a
    truncated one, and so is a line that is not a JSON object; both
    raise :class:`ValueError`.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            lines = handle.readlines()
    else:
        lines = path_or_file.readlines()
    records, torn = parse_jsonl(lines, ValueError, "trace")
    warnings: list[str] = []
    if torn is not None:
        index, _, exc = torn
        warnings.append(
            f"trace truncated: dropped unparseable final line "
            f"(record {index + 1}): {exc}"
        )
    if not records:
        warnings.append("trace is empty (no records)")
    elif not any(r.get("type") == "metric" for r in records):
        warnings.append(
            "trace has no metrics snapshot (run never reached finalize()); "
            "counter/gauge totals are reconstructed from the stream prefix"
        )
    return records, warnings


def _track_for(record: dict) -> str:
    attrs = record.get("attrs") or {}
    for key in _TRACK_ATTRS:
        value = attrs.get(key)
        if value is not None:
            return str(value)
    return _CONTROL_TRACK


def to_chrome_trace(records: Iterable[dict]) -> dict:
    """Convert a record stream to a Chrome ``trace_event`` document."""
    trace_events: list[dict] = []
    tids: dict[str, int] = {}

    def tid_for(record: dict) -> int:
        track = _track_for(record)
        if track not in tids:
            tids[track] = len(tids) + 1
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )
        return tids[track]

    for record in records:
        kind = record.get("type")
        if kind == "span":
            end = record.get("end")
            if end is None:
                continue  # span never closed (cancelled run drained late)
            trace_events.append(
                {
                    "ph": "X",
                    "name": record["name"],
                    "cat": record["name"].split(".")[0],
                    "ts": record["start"] * 1e6,
                    "dur": (end - record["start"]) * 1e6,
                    "pid": 1,
                    "tid": tid_for(record),
                    "args": dict(record.get("attrs") or {}, span_id=record["id"]),
                }
            )
        elif kind == "event":
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": record["name"],
                    "cat": record["name"].split(".")[0],
                    "ts": record["ts"] * 1e6,
                    "pid": 1,
                    "tid": tid_for(record),
                    "args": dict(record.get("attrs") or {}),
                }
            )
        elif kind == "sample":
            # Gauge time-series points render as Chrome counter tracks
            # (one track per name+labels), so Perfetto plots the series.
            labels = record.get("labels") or {}
            suffix = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            trace_events.append(
                {
                    "ph": "C",
                    "name": record["name"] + (f"{{{suffix}}}" if suffix else ""),
                    "ts": record.get("ts", 0.0) * 1e6,
                    "pid": 1,
                    "args": {"value": record["value"]},
                }
            )
        elif kind == "metric" and record.get("metric_kind") == "counter":
            trace_events.append(
                {
                    "ph": "C",
                    "name": record["name"],
                    "ts": record.get("ts", 0.0) * 1e6,
                    "pid": 1,
                    "args": {"value": record["value"]},
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated-seconds", "source": "repro.telemetry"},
    }


def write_chrome_trace(records: Iterable[dict], path: str) -> int:
    """Write a Chrome trace JSON file; returns the event count."""
    document = to_chrome_trace(records)
    with open(path, "w") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return len(document["traceEvents"])
