"""Append-only JSONL journal of sweep results: one compact store per sweep.

A journaled sweep writes every completed point — successes *and* structured
failures — as one JSON line to a single file, instead of one pickle per
spec.  That single file is the sweep's durable state: a killed run restarts
by loading the journal, skipping every point already recorded ``ok``, and
executing only what is missing (failed points are retried on resume, so a
transient worker crash heals itself).

Layout::

    {"kind": "header", "schema": 1, "sweep_id": ..., "total": N, "meta": {...}}
    {"kind": "point", "key": ..., "index": ..., "status": "ok", "result": ..., ...}
    {"kind": "point", "key": ..., "index": ..., "status": "error", "error": {...}, ...}

Crash tolerance is structural: a writer killed mid-line leaves a truncated
tail, which the reader drops (a partial line is a point that never finished)
and the appender truncates away before writing, so the file never
accumulates garbage between two valid lines.  The header's ``sweep_id`` pins
the journal to one exact sweep — same function, same source fingerprint,
same key set — and appending under a different identity is refused rather
than silently mixing two sweeps' points in one store.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import IO, Any, Dict, List, Optional

from ..errors import ConfigurationError

#: Bump when the journal line layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JournalPoint:
    """One journaled sweep point (the decoded ``kind: point`` line)."""

    key: str
    index: int
    status: str  # "ok" | "error"
    result: Any = None
    error: Optional[Dict[str, Any]] = None
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_line(self) -> str:
        payload: Dict[str, Any] = {
            "kind": "point",
            "key": self.key,
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.status == "ok":
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JournalPoint":
        return cls(
            key=str(payload["key"]),
            index=int(payload["index"]),
            status=str(payload["status"]),
            result=payload.get("result"),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )


@dataclass
class JournalState:
    """Everything a resuming sweep needs to know about an existing journal."""

    header: Dict[str, Any]
    points: Dict[str, JournalPoint] = field(default_factory=dict)  # last entry per key
    line_count: int = 0
    truncated_bytes: int = 0  # partial tail dropped by the reader
    valid_length: int = 0  # byte offset of the end of the last complete line

    @property
    def ok_points(self) -> Dict[str, JournalPoint]:
        return {key: point for key, point in self.points.items() if point.ok}

    @property
    def error_points(self) -> Dict[str, JournalPoint]:
        return {key: point for key, point in self.points.items() if not point.ok}


def _read_state(path: str) -> JournalState:
    """Parse a journal file, tolerating (and measuring) a truncated tail.

    A line is only trusted when it parses as JSON *and* is newline-terminated
    — a parseable line without its terminator may still be a partial write of
    a longer record, so it is dropped along with anything else past the last
    complete line.
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    state: Optional[JournalState] = None
    offset = 0
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break  # unterminated tail: a crashed writer's partial line
        line = raw[offset:newline]
        try:
            payload = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break  # garbage mid-file ends the trusted prefix
        if state is None:
            if not isinstance(payload, dict) or payload.get("kind") != "header":
                raise ConfigurationError(
                    f"{path} is not a sweep journal (first line is not a header)"
                )
            schema = int(payload.get("schema", -1))
            if schema != JOURNAL_SCHEMA_VERSION:
                raise ConfigurationError(
                    f"{path} has journal schema {schema}, "
                    f"expected {JOURNAL_SCHEMA_VERSION}"
                )
            state = JournalState(header=payload)
        elif isinstance(payload, dict) and payload.get("kind") == "point":
            point = JournalPoint.from_payload(payload)
            state.points[point.key] = point  # last write wins (retries)
            state.line_count += 1
        offset = newline + 1
        state.valid_length = offset
    if state is None:
        raise ConfigurationError(f"{path} is empty or has no complete header line")
    state.truncated_bytes = len(raw) - state.valid_length
    return state


class SweepJournal:
    """The append handle for one sweep's journal file.

    Use :meth:`open` to create-or-resume (it validates the header identity
    and repairs a truncated tail), :meth:`append` to record completed
    points, and :meth:`close` (or a ``with`` block) when done.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = None

    # -- lifecycle ----------------------------------------------------------------

    def open(
        self,
        *,
        sweep_id: str,
        total: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> JournalState:
        """Create the journal (writing its header) or resume an existing one.

        Resuming validates that the on-disk header carries the same
        ``sweep_id``: a journal recorded for a different function, source
        fingerprint or grid is refused, not silently appended to.  A
        truncated tail from a crashed writer is cut off before appending so
        the next line starts clean.
        """
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            state = _read_state(self.path)
            recorded = state.header.get("sweep_id")
            if recorded != sweep_id:
                raise ConfigurationError(
                    f"{self.path} was recorded for a different sweep "
                    f"(journal sweep_id {recorded!r}, this sweep {sweep_id!r}); "
                    "the function, package source or grid changed — delete the "
                    "journal or point the sweep at a fresh path"
                )
            if state.truncated_bytes:
                with open(self.path, "r+b") as handle:
                    handle.truncate(state.valid_length)
        else:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            header = {
                "kind": "header",
                "schema": JOURNAL_SCHEMA_VERSION,
                "sweep_id": sweep_id,
                "total": total,
                "meta": dict(meta or {}),
            }
            with open(self.path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
            state = JournalState(header=header, valid_length=os.path.getsize(self.path))
        self._handle = open(self.path, "a", encoding="utf-8")
        return state

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- writing ------------------------------------------------------------------

    def append(self, point: JournalPoint) -> None:
        """Append one completed point and flush it to disk immediately.

        Results must be JSON-serializable — the journal is the sweep's
        durable store, and an unserializable result would otherwise be
        discovered only when resuming.
        """
        if self._handle is None:
            raise ConfigurationError("journal is not open for appending")
        try:
            line = point.to_line()
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"journaled sweeps need JSON-serializable results; point "
                f"{point.key} produced {type(point.result).__qualname__}: {exc}"
            ) from exc
        self._handle.write(line + "\n")
        self._handle.flush()


# -- reading without an append handle -------------------------------------------------


def read_journal(path: str) -> JournalState:
    """Load a journal's state (header, last entry per key, truncation info)."""
    if not os.path.exists(path):
        raise ConfigurationError(f"no sweep journal at {path!r}")
    return _read_state(path)


def journal_status(path: str) -> Dict[str, Any]:
    """Summarise a journal for humans and machines (`repro sweep status`).

    ``missing`` is how many of the sweep's points have no entry at all;
    ``errors`` counts points whose *latest* attempt failed (they will be
    retried on resume).
    """
    state = read_journal(path)
    total = int(state.header.get("total", 0))
    ok = len(state.ok_points)
    errors: List[Dict[str, Any]] = []
    for key in sorted(state.error_points):
        point = state.error_points[key]
        record = dict(point.error or {})
        record["key"] = key
        record["attempts"] = point.attempts
        errors.append(record)
    elapsed = sum(point.elapsed_s for point in state.points.values())
    return {
        "path": path,
        "schema": int(state.header.get("schema", JOURNAL_SCHEMA_VERSION)),
        "sweep_id": state.header.get("sweep_id"),
        "meta": dict(state.header.get("meta", {})),
        "total": total,
        "ok": ok,
        "error_count": len(errors),
        "missing": max(0, total - ok - len(errors)),
        "complete": total > 0 and ok == total,
        "entries": state.line_count,
        "retries": max(0, state.line_count - len(state.points)),
        "elapsed_s": elapsed,
        "truncated_bytes": state.truncated_bytes,
        "errors": errors,
    }
