"""File-level durability helpers: atomic artifact writes and JSONL logs.

Report artifacts (chaos campaign reports, BENCH payloads, rendered HTML
reports) are consumed by CI byte-comparisons and by humans after the
producing process is long gone.  A plain ``open(path, "w")`` that dies
mid-write leaves a torn artifact that *looks* complete; every artifact
writer routes through :func:`write_text` instead, so a path either
holds the previous content or the complete new content — never a
prefix.

The temp file lives in the destination directory (``os.replace`` must
not cross filesystems) and is fsync'd before the rename; the rename
itself is atomic on POSIX.

The append-only JSONL logs (the control-plane journal, the service
ledger, streaming telemetry traces) share the rest: a directory fsync
for new files, torn-tail repair before appending, and one parser that
tolerates a cut-off final line but nothing else.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Iterable


def write_text(path: str, text: str, fsync: bool = True) -> None:
    """Atomically replace ``path``'s content with ``text``.

    Writes to a sibling temp file, optionally fsyncs, then renames over
    the destination.  On any failure the temp file is removed and the
    destination is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{os.path.basename(path)}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write_json(path: str, payload, indent: int = 2, fsync: bool = True) -> None:
    """Atomically write ``payload`` as deterministic JSON (sorted keys,
    trailing newline) — the serialization every byte-compared artifact
    in this repo uses."""
    write_text(
        path, json.dumps(payload, indent=indent, sort_keys=True) + "\n", fsync=fsync
    )


def fsync_directory(path: str) -> None:
    """Force a directory entry to stable storage (no-op where the
    platform cannot fsync directories, e.g. Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def truncate_torn_tail(path: str) -> int:
    """Cut a log back to its last newline; returns the bytes cut.

    Records are newline-terminated, so whatever follows the last newline
    is a record torn by a crash mid-append.  It must go *before* the
    next append, or the new record would be concatenated onto it and
    expected crash damage would become mid-file corruption.
    """
    with open(path, "rb+") as raw:
        data = raw.read()
        keep = data.rfind(b"\n") + 1
        if keep == len(data):
            return 0
        raw.truncate(keep)
        raw.flush()
        os.fsync(raw.fileno())
    return len(data) - keep


def parse_jsonl(
    lines: Iterable[str], error: Callable[[str], Exception], name: str
) -> tuple[list[dict], tuple[int, str, ValueError] | None]:
    """Parse a JSONL log's lines into objects, tolerating a torn tail.

    Blank lines are skipped.  Returns ``(records, torn)``: ``torn`` is
    ``(index, line, exc)`` when the final line does not parse (a run
    killed mid-append; the caller words the warning), else ``None``.  An
    unparseable earlier line, or any line that is not a JSON object, is
    corruption and raises ``error``.
    """
    rows = [line for line in lines if line.strip()]
    records: list[dict] = []
    for index, line in enumerate(rows):
        try:
            record = json.loads(line)
        except ValueError as exc:
            if index == len(rows) - 1:
                return records, (index, line, exc)
            raise error(f"{name} corrupt at record {index} (not the tail): {exc}")
        if not isinstance(record, dict):
            raise error(
                f"{name} corrupt at record {index}: "
                f"expected a JSON object, got {type(record).__name__}"
            )
        records.append(record)
    return records, None
