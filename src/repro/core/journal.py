"""Durable control-plane journal: an append-only write-ahead log.

The trusted control tier is the brain of every run (paper §4's
separation of duty) — and, until this module, its only copy of the
verification/commit state lived in memory.  The journal makes the
control tier restartable: before *acting on* any decision point the
controller appends one JSONL record describing the decision, so a
control-tier crash loses at most the work since the last settled
attempt boundary.  :mod:`repro.core.recovery` replays a journal into a
fresh controller and resumes the run.

Record stream layout (one JSON object per line, sorted keys)::

    {"kind": "header",  "seq": 0, "schema": "repro.journal/v1", ...}
    {"kind": "run_start", "seq": 1, ...}
    {"kind": "attempt_start", "seq": 2, ...}
    {"kind": "digest",  ...}          # one per verifiable replica completion
    {"kind": "verdict", ...}          # one per sid verdict
    {"kind": "fault" | "late_fault" | "analyzer", ...}
    {"kind": "eviction" | "quarantine", ...}
    {"kind": "reconfig", ...}         # fsync'd: region migration decision
    {"kind": "commit",  ...}          # fsync'd: committed output content
    {"kind": "checkpoint", ...}       # fsync'd: verdict-time commit (opt-in)
    {"kind": "attempt_end", ...}      # fsync'd: settled-boundary snapshot
    {"kind": "resume", ...}           # appended when a recovery reopens
    {"kind": "run_end", ...}          # fsync'd: final outputs + status

Durability policy: :data:`SYNC_KINDS` records are flushed *and
fsync'd* before the writer returns (these are the records recovery
depends on); everything else is flushed to the OS but not forced to
stable storage — a torn tail of marker records degrades crash-point
coverage, never correctness.  :class:`Journal` is the repo's one
durable-log primitive: the service ledger subclasses it.

The header is schema-versioned and tied to the run: it embeds the seed,
the full :class:`~repro.common.config.SystemConfig`, the script text
*and* its SHA-256, plus the staged input data-sets, so a journal is a
self-contained description of the run (recovery re-stages the inputs
and refuses a header whose script hash does not match its script).

Everything the journal does is host-side I/O: it never schedules event
loop work and never draws randomness, so a journaled run is
byte-identical (outputs, latency, trace) to an unjournaled one with the
same seed — the same invariant the telemetry layer keeps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import IO, Callable

from repro.common.atomic_io import (
    fsync_directory,
    parse_jsonl,
    truncate_torn_tail,
)
from repro.common.config import (
    ClusterBFTConfig,
    ClusterConfig,
    CostModelConfig,
    SystemConfig,
)
from repro.common.errors import ReproError
from repro.common.records import Record, encode_value

SCHEMA_VERSION = "repro.journal/v1"

HEADER = "header"
RUN_START = "run_start"
ATTEMPT_START = "attempt_start"
DIGEST = "digest"
VERDICT = "verdict"
FAULT = "fault"
LATE_FAULT = "late_fault"
ANALYZER = "analyzer"
EVICTION = "eviction"
QUARANTINE = "quarantine"
#: Online reconfiguration: a region's replica sets migrated out after
#: its aggregate suspicion crossed the threshold.  Fsync'd — recovery
#: must re-quarantine the region's nodes before re-entering the run, or
#: the resumed scheduler would migrate work *back into* the degraded
#: region.
RECONFIG = "reconfig"
COMMIT = "commit"
#: Verdict-time commit (``ClusterBFTConfig.checkpoints``): a verified,
#: output-covered sub-graph committed *inside* a running attempt, with
#: the winning content inline.  Fsync'd — a crash mid-attempt resumes
#: from the last checkpoint instead of rerunning the whole sub-graph.
CHECKPOINT = "checkpoint"
ATTEMPT_END = "attempt_end"
RESUME = "resume"
RUN_END = "run_end"

#: Record kinds whose loss would corrupt recovery — forced to stable
#: storage before the append returns.
SYNC_KINDS = frozenset(
    {HEADER, RECONFIG, COMMIT, CHECKPOINT, ATTEMPT_END, RESUME, RUN_END}
)


class JournalError(ReproError):
    """Malformed, mismatched or misused journal."""


class ControlTierCrash(RuntimeError):
    """Simulated control-tier crash, raised by a journal crash hook.

    Deliberately *not* a :class:`ReproError`: library error handling
    must never swallow a simulated crash — only the chaos harness (or a
    test) that installed the hook catches it.
    """


def crash_at(seq: int) -> Callable[[dict], None]:
    """A crash hook killing the control tier right after record ``seq``
    becomes durable (the record is written, the action it announces is
    not yet taken — the write-ahead window recovery must handle)."""

    def hook(record: dict) -> None:
        if record["seq"] == seq:
            raise ControlTierCrash(
                f"control tier crashed at journal record {seq} "
                f"({record['kind']})"
            )

    return hook


# ---------------------------------------------------------------------------
# JSON codec for record field values
# ---------------------------------------------------------------------------
#
# Record fields are scalars plus nested tuples and bags; JSON has no
# tuple/bag distinction, so containers are tagged: {"t": [...]} is a
# tuple, {"r": [...]} a nested Record (digest-equivalent to a tuple,
# but Record.__eq__ is type-strict, so the distinction must survive
# the round-trip), {"b": [...]} a bag (canonically ordered by encoded
# bytes, the same canonicalization the digest layer applies — bag
# order never carries meaning).


def value_to_json(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Record):
        return {"r": [value_to_json(v) for v in value.fields]}
    if isinstance(value, tuple):
        return {"t": [value_to_json(v) for v in value]}
    if isinstance(value, (list, frozenset)):
        ordered = sorted(value, key=encode_value)
        return {"b": [value_to_json(v) for v in ordered]}
    raise JournalError(f"unsupported field type: {type(value).__name__}")


def value_from_json(value):
    if isinstance(value, dict):
        if "t" in value:
            return tuple(value_from_json(v) for v in value["t"])
        if "r" in value:
            return Record(tuple(value_from_json(v) for v in value["r"]))
        if "b" in value:
            return [value_from_json(v) for v in value["b"]]
        raise JournalError(f"unknown value tag: {sorted(value)}")
    return value


def record_to_json(record: Record) -> list:
    return [value_to_json(v) for v in record.fields]


def record_from_json(fields: list) -> Record:
    return Record(tuple(value_from_json(v) for v in fields))


def records_to_json(records: list[Record]) -> list[list]:
    return [record_to_json(r) for r in records]


def records_from_json(rows: list[list]) -> list[Record]:
    return [record_from_json(row) for row in rows]


def script_sha256(script: str) -> str:
    return hashlib.sha256(script.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------


def config_to_json(config: SystemConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_json(data: dict) -> SystemConfig:
    try:
        return SystemConfig(
            cluster=ClusterConfig(**data["cluster"]),
            cost=CostModelConfig(**data["cost"]),
            bft=ClusterBFTConfig(**data["bft"]),
            seed=data["seed"],
        ).validate()
    except (KeyError, TypeError) as exc:
        raise JournalError(f"journal header config does not round-trip: {exc}")


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


class Journal:
    """Append-only JSONL write-ahead log — the one durable-log primitive.

    A journal describes one assured run.  The service ledger
    (:class:`repro.service.ledger.MultiplexedLedger`) is a journal whose
    records carry a ``run`` tag; it overrides the class constants below,
    its header and its resume, and shares everything else: the seq
    chain, the fsync policy, torn-tail repair and the reader.

    ``crash_hook`` — chaos seam: called with each record *after* it is
    durable; raising :class:`ControlTierCrash` (or sending SIGKILL)
    models the control tier dying at exactly that decision point.
    ``tracer`` — when bound (and enabled), every append also lands a
    :attr:`TRACE_EVENT` event in the telemetry trace.
    """

    #: Record kinds fsync'd before an append returns.
    SYNC_KINDS: frozenset[str] = SYNC_KINDS
    ERROR: type[ReproError] = JournalError
    #: What the log calls itself in error messages and warnings.
    NAME = "journal"
    TRACE_EVENT = "journal.append"

    def __init__(
        self,
        path: str,
        handle: IO[str],
        next_seq: int,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> None:
        self.path = path
        self._handle: IO[str] | None = handle
        self._seq = next_seq
        self.crash_hook = crash_hook
        self._tracer = None
        self.run_started = False
        #: Bytes of torn tail a reopen truncated before appending (0 for
        #: a fresh or clean log).  Callers surface this in the audit log
        #: — dropped crash damage is evidence, not noise.
        self.torn_bytes_truncated = 0

    # -- construction ---------------------------------------------------

    @classmethod
    def _start(cls, path: str, crash_hook, exists_hint: str):
        """Open a fresh log file, refusing an existing path — one log
        describes one execution, and silently truncating a prior one
        would destroy its recovery state.  The parent directory is
        fsync'd so the new file's entry survives a host crash too."""
        try:
            handle = open(path, "x")
        except FileExistsError:
            raise cls.ERROR(f"{cls.NAME} {path} already exists — {exists_hint}")
        fsync_directory(os.path.dirname(os.path.abspath(path)))
        return cls(path, handle, next_seq=0, crash_hook=crash_hook)

    @classmethod
    def create(
        cls,
        path: str,
        config: SystemConfig,
        script: str,
        inputs: dict[str, list[Record]],
        block_bytes: int = 1 << 20,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "Journal":
        """Start a fresh journal: writes (and fsyncs) the header."""
        journal = cls._start(
            path,
            crash_hook,
            "one WAL describes one run; resume it with `repro resume` or "
            "pass a fresh path",
        )
        journal.append(
            HEADER,
            schema=SCHEMA_VERSION,
            seed=config.seed,
            script=script,
            script_sha256=script_sha256(script),
            config=config_to_json(config),
            block_bytes=block_bytes,
            inputs={
                dfs_path: records_to_json(records)
                for dfs_path, records in sorted(inputs.items())
            },
        )
        return journal

    @classmethod
    def reopen(
        cls,
        path: str,
        next_seq: int,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "Journal":
        """Reopen an existing journal for appending (recovery path),
        truncating a torn final line first (see
        :func:`~repro.common.atomic_io.truncate_torn_tail`)."""
        torn_bytes = truncate_torn_tail(path)
        journal = cls(path, open(path, "a"), next_seq, crash_hook=crash_hook)
        journal.torn_bytes_truncated = torn_bytes
        return journal

    # -- plumbing -------------------------------------------------------

    def bind_tracer(self, tracer) -> None:
        self._tracer = tracer if getattr(tracer, "enabled", False) else None

    @property
    def closed(self) -> bool:
        return self._handle is None

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recently appended record."""
        return self._seq - 1

    def append(self, kind: str, **fields) -> dict:
        """Write one record; returns it (with ``seq`` stamped).

        Records of :attr:`SYNC_KINDS` are fsync'd before returning; all
        others are flushed to the OS only.  The crash hook fires after
        durability, i.e. the record survives the crash it triggers.
        """
        record = {"kind": kind, "seq": self._seq}
        record.update(fields)
        return self._write(record, json.dumps(record, sort_keys=True))

    def _write(self, record: dict, line: str, **trace_fields) -> dict:
        if self._handle is None:
            raise self.ERROR(f"{self.NAME} {self.path} is closed")
        self._seq += 1
        self._handle.write(line + "\n")
        self._handle.flush()
        if record["kind"] in self.SYNC_KINDS:
            os.fsync(self._handle.fileno())
        if self._tracer is not None:
            self._tracer.event(
                self.TRACE_EVENT,
                kind=record["kind"],
                seq=record["seq"],
                **trace_fields,
            )
        if self.crash_hook is not None:
            self.crash_hook(record)
        return record

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    # -- reader ---------------------------------------------------------

    @classmethod
    def read_log(cls, path: str) -> tuple[list[str], list[dict], tuple | None]:
        """Read a log back: its non-blank lines, the records they parse
        to, and the torn final line if any (see
        :func:`~repro.common.atomic_io.parse_jsonl`).

        Raises on an unreadable, empty or corrupt file and on a gap in
        the seq chain — lost durable records are corruption, not crash
        damage.  The header is the caller's to check.
        """
        try:
            with open(path) as handle:
                lines = [line for line in handle.read().splitlines() if line.strip()]
        except OSError as exc:
            raise cls.ERROR(f"cannot read {cls.NAME}: {exc}")
        records, torn = parse_jsonl(lines, cls.ERROR, cls.NAME)
        if not records:
            raise cls.ERROR(f"{cls.NAME} {path} is empty")
        for index, record in enumerate(records):
            if record.get("seq") != index:
                raise cls.ERROR(
                    f"{cls.NAME} seq gap at record {index}: expected {index}, "
                    f"got {record.get('seq')!r} ({record.get('kind')})"
                )
        return lines, records, torn


def read_journal(path: str) -> tuple[list[dict], list[str]]:
    """Read a journal back, tolerating a torn tail.

    Returns ``(records, warnings)``.  A run killed mid-append can leave
    a cut-off final line — that is expected crash damage, reported as a
    warning and dropped; anything else malformed raises.  The header
    (schema version, script hash) is validated before anything else is
    trusted.
    """
    _, records, torn = Journal.read_log(path)
    header = records[0]
    if header.get("kind") != HEADER:
        raise JournalError(f"journal {path} does not start with a header")
    if header.get("schema") != SCHEMA_VERSION:
        raise JournalError(
            f"unsupported journal schema {header.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    recorded = header.get("script_sha256")
    actual = script_sha256(header.get("script", ""))
    if recorded != actual:
        raise JournalError(
            f"journal header script hash mismatch: recorded {recorded}, "
            f"script hashes to {actual} — header tampered or corrupt"
        )
    warnings = []
    if torn is not None:
        index, _, exc = torn
        warnings.append(f"journal tail truncated: dropped record {index} ({exc})")
    return records, warnings


# ---------------------------------------------------------------------------
# resume hand-off
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ResumeState:
    """What the controller needs to continue a journaled run from its
    last settled attempt boundary.  Built by
    :func:`repro.core.recovery.resume_run`, which also re-stages the
    committed outputs into the fresh DFS before handing this over."""

    script_id: str
    start_attempt: int
    attempts_used: int
    replication: int
    timeout: float
    verified_jobs: set[int] = dataclasses.field(default_factory=set)
    verified_ok: set[int] = dataclasses.field(default_factory=set)
    verified_paths: dict[str, str] = dataclasses.field(default_factory=dict)
    reused: int = 0
