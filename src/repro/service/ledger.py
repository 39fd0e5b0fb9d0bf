"""Multiplexed service ledger: every run's journal, one durable file.

The single-run :class:`~repro.core.journal.Journal` is a one-WAL-one-
run contract.  The service multiplexes many concurrent runs, so their
journal streams interleave into one ledger — a journal with one
*global* sequence number whose run-scoped records carry a ``run`` tag,
and whose ``repro.ledger/v1`` header embeds the whole service trace.

Crash-resume is **deterministic replay with prefix verification**,
not state reconstruction: the whole service is a pure function of the
embedded trace (and seed), so a resume re-executes the trace from t=0
with the ledger in *verify* mode — every record the replay would
append is byte-compared against the durable prefix (after truncating
the torn tail, whose byte count is surfaced, never silently dropped),
and appending resumes past the prefix.  The resumed ledger is
byte-identical to the uninterrupted run's by construction — and the
verification is strictly stronger than trusting the prefix.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Callable

from repro.common.atomic_io import truncate_torn_tail
from repro.common.errors import ReproError
from repro.core import journal as wal

SCHEMA_VERSION = "repro.ledger/v1"

HEADER = "header"
ADMIT = "admit"
REJECT = "reject"
ENQUEUE = "enqueue"
DEQUEUE = "dequeue"
SERVICE_END = "service_end"

#: Records recovery depends on are forced to stable storage (the
#: journal's sync kinds plus the service-level terminal record).
SYNC_KINDS = frozenset(wal.SYNC_KINDS) | {HEADER, SERVICE_END}

#: Service-level record kinds covered by *uniform* replay: ledger
#: resume is deterministic re-execution with byte-prefix verification
#: (see module docstring), so no per-kind dispatch exists — every
#: replayed append, whatever its kind, is byte-compared against the
#: durable prefix in :meth:`MultiplexedLedger.append`.  The WAL
#: coverage lint (WAL001) reads this declaration; run-scoped kinds
#: multiplexed from the journal surface are accounted for on that
#: surface instead.
REPLAY_UNIFORM = frozenset({ADMIT, REJECT, ENQUEUE, DEQUEUE, SERVICE_END})


class LedgerError(ReproError):
    """Raised for ledger misuse or replay/prefix divergence."""


def _trace_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class LedgerStream:
    """Journal-compatible adapter for one run's slice of the ledger.

    The controller's assured-step generator writes through the journal
    interface (``append`` / ``run_started`` / ``close``); a stream
    forwards each append to the shared ledger tagged with its run id.
    Closing a stream ends the run's slice — the ledger file stays open
    for the other tenants.
    """

    __slots__ = ("ledger", "run_id", "run_started", "closed")

    def __init__(self, ledger: "MultiplexedLedger", run_id: str) -> None:
        self.ledger = ledger
        self.run_id = run_id
        self.run_started = False
        self.closed = False

    def append(self, kind: str, **fields) -> dict:
        if self.closed:
            raise LedgerError(
                f"stream for {self.run_id} is closed — one stream, one run"
            )
        return self.ledger.append(kind, run=self.run_id, **fields)

    def bind_tracer(self, tracer) -> None:
        self.ledger.bind_tracer(tracer)

    def close(self) -> None:
        self.closed = True


class MultiplexedLedger(wal.Journal):
    """Append-only, run-id-tagged, durable service ledger."""

    SYNC_KINDS = SYNC_KINDS
    ERROR = LedgerError
    NAME = "ledger"
    TRACE_EVENT = "ledger.append"

    def __init__(
        self,
        path: str,
        handle: IO[str],
        next_seq: int,
        crash_hook: Callable[[dict], None] | None = None,
        expected_lines: list[str] | None = None,
    ) -> None:
        super().__init__(path, handle, next_seq, crash_hook=crash_hook)
        #: Durable prefix a resume must reproduce byte-for-byte before
        #: any genuinely new record is appended (None = fresh ledger).
        self._expected_lines = expected_lines

    # -- construction ---------------------------------------------------

    @classmethod
    def create(  # type: ignore[override]  # built from a trace, not a run
        cls,
        path: str,
        trace_text: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Start a fresh ledger: write (and fsync) the header."""
        ledger = cls._start(
            path,
            crash_hook,
            "resume it with `repro serve --resume` or pass a fresh path",
        )
        ledger.append(
            HEADER,
            schema=SCHEMA_VERSION,
            trace=trace_text,
            trace_sha256=_trace_sha256(trace_text),
        )
        return ledger

    @classmethod
    def resume(
        cls,
        path: str,
        crash_hook: Callable[[dict], None] | None = None,
    ) -> "MultiplexedLedger":
        """Reopen a crashed service's ledger in verify-then-append mode.

        Truncates the torn tail (recording how many bytes were cut),
        validates what survived like :func:`read_ledger`, then arms the
        ledger with the surviving lines: replayed appends are verified
        against them in order, and writing resumes only past the
        durable prefix.
        """
        torn_bytes = truncate_torn_tail(path)
        lines, _, _ = _read_ledger(path)
        # The header is verified, so the replay is armed just past it:
        # the run's first re-append is compared against durable line 1.
        ledger = cls(
            path,
            open(path, "a"),
            next_seq=1,
            crash_hook=crash_hook,
            expected_lines=lines,
        )
        ledger.torn_bytes_truncated = torn_bytes
        return ledger

    # -- plumbing -------------------------------------------------------

    @property
    def verifying(self) -> bool:
        """True while replayed appends are still inside the durable
        prefix (nothing is being written yet)."""
        return (
            self._expected_lines is not None
            and self._seq < len(self._expected_lines)
        )

    @property
    def trace_text(self) -> str | None:
        """The embedded trace of a resumed ledger (None when fresh)."""
        if not self._expected_lines:
            return None
        return json.loads(self._expected_lines[0]).get("trace")

    def stream(self, run_id: str) -> LedgerStream:
        return LedgerStream(self, run_id)

    def append(self, kind: str, run: str | None = None, **fields) -> dict:
        record = {"kind": kind, "seq": self._seq}
        if run is not None:
            record["run"] = run
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        if self.verifying:
            expected = self._expected_lines[self._seq]
            if line != expected:
                raise LedgerError(
                    f"replay diverged from durable ledger at seq {self._seq}: "
                    f"expected {expected[:120]!r}, replayed {line[:120]!r} — "
                    "the trace, seed or code changed since the crash"
                )
            # Already durable: advance without rewriting (and without
            # re-firing the crash hook — the record is not a new append).
            self._seq += 1
            return record
        return self._write(record, line, run=run or "")

    def durable_prefix_len(self) -> int:
        """Records that survived the crash (the prefix a resume must
        reproduce before any new record is written; 0 when fresh)."""
        return len(self._expected_lines) if self._expected_lines else 0


def read_ledger(path: str) -> tuple[list[dict], list[str]]:
    """Read a ledger back, tolerating (and reporting) a torn tail.

    Returns ``(records, warnings)``; validates the header (schema,
    trace hash) and the global seq chain.
    """
    _, records, warnings = _read_ledger(path)
    return records, warnings


def _read_ledger(path: str) -> tuple[list[str], list[dict], list[str]]:
    lines, records, torn = MultiplexedLedger.read_log(path)
    header = records[0]
    if header.get("kind") != HEADER:
        raise LedgerError(f"ledger {path} does not start with a header")
    if header.get("schema") != SCHEMA_VERSION:
        raise LedgerError(
            f"unsupported ledger schema {header.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if header.get("trace_sha256") != _trace_sha256(header.get("trace", "")):
        raise LedgerError(
            f"ledger {path} header trace hash mismatch — the embedded "
            "trace was altered; refusing to replay it"
        )
    warnings = []
    if torn is not None:
        index, line, exc = torn
        warnings.append(
            f"ledger tail truncated: dropped record {index} "
            f"({len(line.encode())} byte(s): {exc})"
        )
    return lines, records, warnings
