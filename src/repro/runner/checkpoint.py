"""Sweep checkpointing: a completed-task journal enabling resume.

A *sweep* is one ``SweepRunner.run_many`` batch.  While it runs work
(a batch served entirely from cache or journal opens no journal), every
completed (cacheable) task is appended to ``<sweep id>.log``, named by a
digest of the sweep's ordered content keys, so an interrupted run leaves
a record of exactly what finished; ``resume=True`` serves those entries
and executes only the rest, even with the result cache disabled.  The
journal is a :class:`~repro.runner.cache.RecordLog`: a header frame, then
the completed tasks' frames (the very bytes the cache just wrote), read
by the cache's scan rule, so a torn or damaged frame only means "not
completed".  A journal whose first valid frame is not this sweep's header
in this layout is ignored wholesale.  It is fsynced on the interrupt and
failure paths and deleted on clean completion.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..sim.metrics import SimulationSummary
from .cache import RecordLog, decode_summary, encode_frame, frame

__all__ = ["CheckpointJournal", "journal_status", "sweep_id"]

#: Bump when the journal header layout changes.
_FORMAT = 2
#: Key of the header frame (content keys are hex digests).
_HEADER_KEY = "sweep"


def sweep_id(keys: Sequence[Optional[str]]) -> str:
    """Stable identity of one sweep: a digest of its *ordered* content
    keys (uncacheable entries hash as empty strings), 16 hex chars."""
    blob = json.dumps([k if k is not None else "" for k in keys],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _read(path: Path) -> Tuple[Dict[str, object], List[Tuple[str, bytes]]]:
    """The header and ``(key, body)`` task frames of a journal; an empty
    header when its first valid frame is no header of this layout."""
    log = RecordLog(path)
    try:
        frames = [(key, body) for _, key, body in log.scan() if key is not None]
    finally:
        log.close()
    header = json.loads(frames[0][1]) if frames and \
        frames[0][0] == _HEADER_KEY else None
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        return {}, []
    return header, frames[1:]


class CheckpointJournal:
    """Append-only record log of one sweep's completed tasks."""

    def __init__(self, path: Path, sweep: str, label: str = "",
                 total: int = 0) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.label = label
        self.total = total
        self.recorded = 0
        self.is_open = False
        self._log = RecordLog(self.path)
        self._seen: Set[str] = set()

    def exists(self) -> bool:
        return self.path.is_file()

    def load(self) -> Dict[str, SimulationSummary]:
        """Completed entries from a prior (interrupted) run of this sweep;
        damaged, torn and schema-drifted frames count as not completed.
        Loaded keys count as journaled, so a late re-delivery of the same
        result is not appended twice."""
        header, frames = _read(self.path)
        out: Dict[str, SimulationSummary] = {}
        if header.get("sweep") != self.sweep:
            return out
        for key, body in frames:
            summary = decode_summary(body)
            if summary is not None:
                out.setdefault(key, summary)
        self._seen.update(out)
        return out

    def start(self, resume: bool) -> None:
        """Open for appending (``resume=True`` keeps prior entries) or
        start fresh with a header frame."""
        if not (resume and self.exists()):
            self._log.remove()
            self._log.append(frame(_HEADER_KEY, json.dumps({
                "format": _FORMAT, "sweep": self.sweep, "label": self.label,
                "total": self.total}).encode()))
        self.is_open = True

    def record(self, key: str, summary: SimulationSummary) -> None:
        """Append one completed task (no-op when the journal is closed).

        First write wins: a key already journaled is skipped, so
        at-least-once result delivery (the distributed backend) cannot
        bloat the journal or make resume ambiguous."""
        if not self.is_open or key in self._seen:
            return
        self._seen.add(key)
        self._log.append(encode_frame(key, summary))
        self.recorded += 1

    def sync(self) -> None:
        """Group commit: fsync every record so far."""
        self._log.sync()

    def close(self) -> None:
        self._log.close()
        self.is_open = False

    def delete(self) -> None:
        """Remove the journal (the sweep completed; nothing to resume)."""
        self._log.remove()
        self.is_open = False


def journal_status(path: Path) -> Optional[Dict[str, object]]:
    """Header fields + completed-task count of a journal, without decoding
    any summary (the ``repro sweep status`` reader); None without a
    readable header."""
    header, frames = _read(Path(path))
    return {**header, "done": len({k for k, _ in frames})} if header else None
