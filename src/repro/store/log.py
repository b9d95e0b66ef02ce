"""Event-log backends: in-memory (default) and deterministic file-backed.

Both hold the typed records of :mod:`repro.store.records` themselves.  The
serialized (dict) form exists only in ``segment()`` / ``extend()`` — the
unit a mesh shard hands to its successor instead of draining in-flight
work — and in the file: one canonical JSON object per line (sorted keys,
no whitespace, ASCII), stable across runs under the virtual clock.

``append`` buffers; ``commit`` makes everything appended since the last
commit durable with one ``write`` + ``flush``, in order, and a crashed
process is rebuilt from the commits that reached the disk.  When to commit
is the store's decision (the commit rule in :mod:`repro.store.core`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.store.records import encode_line, record_from_dict


class MemoryEventLog:
    """The default backend: an append-only list of typed records."""

    torn_records = 0  #: lines the open found torn and dropped (file backend)

    def __init__(self) -> None:
        self._entries: List[Any] = []
        self._committed = 0  # how many of them a commit has covered

    def append(self, record: Any) -> int:
        """Buffer one typed record; returns its sequence number."""
        self._entries.append(record)
        return len(self._entries) - 1

    def commit(self) -> int:
        """Make the appends since the last commit durable; returns how many."""
        pending = len(self._entries) - self._committed
        self._committed = len(self._entries)
        return pending

    def records(self) -> List[Any]:
        """A snapshot of the whole log: safe to iterate while appending."""
        return list(self._entries)

    def segment(self, start: int = 0) -> List[Dict[str, Any]]:
        """Serialized records from ``start`` on — the handoff payload."""
        return [record.to_dict() for record in self._entries[start:]]

    def extend(self, entries: Iterable[Dict[str, Any]]) -> None:
        """Splice a serialized segment (e.g. a shard handoff) onto the log."""
        self._entries.extend(map(record_from_dict, entries))
        self.commit()

    def close(self) -> None:
        self.commit()

    def __len__(self) -> int:
        return len(self._entries)


class FileEventLog(MemoryEventLog):
    """JSON-lines log file: loads existing records on open, writes each
    commit at once.  A last line a crash inside a write left unterminated or
    not JSON is dropped on open (file truncated to the last good newline,
    ``torn_records`` counts it); any other bad line — JSON that is no record
    of this format, the last line included — raises, naming path and line."""

    def __init__(self, path):
        super().__init__()
        self.path = Path(path)
        self._handle = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        *lines, torn = data.split(b"\n")  # torn: whatever no newline ended
        good = 0
        for number, line in enumerate(lines, 1):
            try:
                if line.strip():
                    self._entries.append(record_from_dict(json.loads(line)))
            except (ValueError, TypeError) as exc:
                json_error = isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError))
                if torn or number < len(lines) or not json_error:
                    raise ValueError(
                        f"{self.path}:{number}: unparsable log record: {exc}"
                    ) from exc
                break  # a garbled last line is a torn write as well
            good += len(line) + 1
        self._committed = len(self._entries)
        if good < len(data):
            self.torn_records = 1
            os.truncate(self.path, good)

    def commit(self) -> int:
        pending = self._entries[self._committed :]
        if pending:
            if self._handle is None:
                self._handle = self.path.open("a", encoding="ascii")
            self._handle.write("".join(map(encode_line, pending)))
            self._handle.flush()
        return super().commit()

    def close(self) -> None:
        super().close()
        if self._handle is not None:
            self._handle.close()
            self._handle = None
