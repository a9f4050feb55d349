"""Persistent on-disk result cache: one append-only, checksummed record log.

Every result is one *frame* in ``<root>/results.log``::

    MAGIC | crc32 (8 hex) | key length (4 hex) | body length (8 hex) | key | body

keyed by the content key (:mod:`repro.runner.keys`), with the summary as
compact ASCII JSON body and a CRC over key and body.  ``MAGIC`` holds
bytes >= 0x80, which the hex header, key and body never contain, so a
frame can start only at a magic.  Checkpoint journals use the same frames.
The default root is ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``,
else ``~/.cache/repro``.

``put`` appends a frame with one ``O_APPEND`` write (no lock, nothing is
ever truncated); the runner's group commit is one ``log.sync()`` per
``run_many`` batch.  The index (key -> offset), built on first use, holds
the *first* valid frame of each key.  A complete frame failing its CRC,
or bytes that are no frame, are copied raw up to the next magic into
``quarantine/``; a frame running past EOF with no magic after it is not
written yet; a miss re-scans only the tail.  So a torn or mismatched
frame is never served.  Scan rule, durability contract and the old
layout (not migrated): ``docs/RUNNER.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim.metrics import SimulationSummary
from .faults import FaultPlan

__all__ = ["CacheStats", "RecordLog", "ResultCache", "default_cache_dir",
           "encode_frame", "summary_to_dict", "summary_from_dict"]

#: Frame start marker.  Bump it when the frame layout changes.
MAGIC = b"\xd2\xa7RL"
_HEADER = re.compile(re.escape(MAGIC) + rb"([0-9a-f]{8})([0-9a-f]{4})([0-9a-f]{8})")
_HEAD = len(MAGIC) + 20


def default_cache_dir() -> Path:
    """Resolve the default cache root (see module docstring)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    return Path.home() / ".cache" / "repro"


def summary_to_dict(summary: SimulationSummary) -> Dict[str, object]:
    """JSON-able dict of a summary (tuples become lists)."""
    out: Dict[str, object] = {}
    for f in dataclasses.fields(summary):
        value = getattr(summary, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _int_keys(data: Dict[Any, Any]) -> Dict[Any, Any]:
    """A JSON object's keys back to ints (an empty one is kept as is)."""
    return {int(k): v for k, v in data.items()} if data else data


#: How a summary field comes back from JSON: tuples and int dict keys.
_RESTORE: Dict[str, Callable[[Any], Any]] = {
    "delay_ci_us": tuple, "utilization_per_proc": tuple,
    "per_stream_mean_delay_us": _int_keys, "ooo_depth_counts": _int_keys,
    "per_stream_out_of_order": _int_keys, "per_stream_migrations": _int_keys,
}
#: ``(name, restore)`` per :class:`SimulationSummary` field, in order:
#: the decoder's positional arguments.
_SUMMARY_FIELDS = tuple((f.name, _RESTORE.get(f.name))
                        for f in dataclasses.fields(SimulationSummary))


def summary_from_dict(data: Dict[str, Any]) -> SimulationSummary:
    """Inverse of :func:`summary_to_dict` (restores tuples and int keys).

    Raises ``KeyError`` or ``TypeError`` unless ``data`` holds exactly the
    summary's fields."""
    if len(data) != len(_SUMMARY_FIELDS):
        raise TypeError(f"summary fields {sorted(data)} do not match")
    return SimulationSummary(*[
        data[name] if restore is None else restore(data[name])
        for name, restore in _SUMMARY_FIELDS
    ])


def frame(key: str, body: bytes) -> bytes:
    """One log frame (module docstring)."""
    raw = key.encode()
    crc = zlib.crc32(body, zlib.crc32(raw))
    return b"%s%08x%04x%08x%s%s" % (MAGIC, crc, len(raw), len(body), raw, body)


#: The last encoded ``[key, summary, frame]``: the journal appends the
#: very bytes the cache just wrote instead of encoding the result twice.
_last: List[Any] = [None, None, b""]


def encode_frame(key: str, summary: SimulationSummary) -> bytes:
    """The frame of one result (cached on the last key and summary)."""
    if _last[1] is not summary or _last[0] != key:
        body = json.dumps(summary_to_dict(summary), separators=(",", ":"))
        _last[:] = [key, summary, frame(key, body.encode())]
    return bytes(_last[2])


def decode_summary(body: bytes) -> Optional[SimulationSummary]:
    """The summary in a frame body, or None when it no longer decodes
    (schema drift or a foreign writer)."""
    try:
        return summary_from_dict(json.loads(body))
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


def _frame_at(buf: bytes, pos: int) -> Tuple[int, Optional[str], bytes]:
    """``(end, key, body)`` of the frame at ``pos``.  ``key`` is None when
    no valid frame is there; ``end`` is past ``len(buf)`` when the header
    is missing or the frame runs past EOF."""
    m = _HEADER.match(buf, pos)
    if m is None:
        return len(buf) + 1, None, b""
    split = pos + _HEAD + int(m[2], 16)
    end = split + int(m[3], 16)
    key, body = buf[pos + _HEAD:split], buf[split:end]
    if end > len(buf) or zlib.crc32(body, zlib.crc32(key)) != int(m[1], 16):
        return end, None, b""
    return end, key.decode(), body


class RecordLog:
    """One append-only file of frames: single-write appends, grouped
    ``fsync`` and an incremental scan (module docstring)."""

    def __init__(self, path: "os.PathLike[str]") -> None:
        self.path = Path(path)
        #: Offset up to which :meth:`scan` has consumed the file.
        self.scanned = 0
        self._writer: Optional[IO[bytes]] = None
        self._reader: Optional[IO[bytes]] = None
        self._dirty = False

    def append(self, blob: bytes) -> None:
        """Append one frame with one ``O_APPEND`` write (not yet synced)."""
        if self._writer is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._writer = open(self.path, "ab", buffering=0)
        self._writer.write(blob)
        self._dirty = True

    def sync(self) -> None:
        """Group commit: one ``fsync`` covering every append so far."""
        if self._dirty and self._writer is not None:
            os.fsync(self._writer.fileno())
        self._dirty = False

    def read(self, offset: int, size: int) -> bytes:
        if self._reader is None:
            self._reader = open(self.path, "rb", buffering=0)
        self._reader.seek(offset)
        return self._reader.read(size)

    def scan(self) -> List[Tuple[int, Optional[str], bytes]]:
        """Frames appended since the last scan, by the scan rule:
        ``(offset, key, body)``, or ``(offset, None, raw)`` per damaged
        span."""
        try:
            buf = self.read(self.scanned, -1)
        except FileNotFoundError:
            return []
        frames: List[Tuple[int, Optional[str], bytes]] = []
        pos, n = 0, len(buf)
        while pos < n:
            end, key, body = _frame_at(buf, pos)
            if key is not None:
                frames.append((self.scanned + pos, key, body))
                pos = end
                continue
            resync = buf.find(MAGIC, pos + 1)
            if resync < 0:
                if end > n:
                    break  # not written yet: re-read from here next time
                resync = end
            frames.append((self.scanned + pos, None, buf[pos:resync]))
            pos = resync
        self.scanned += pos
        return frames

    def close(self) -> None:
        """Release the file handles (no ``fsync``: call :meth:`sync`)."""
        for fh in (self._writer, self._reader):
            if fh is not None:
                fh.close()
        self._writer = self._reader = None

    def remove(self) -> None:
        """Close and delete the file; the next scan starts from scratch."""
        self.close()
        self.scanned = 0
        self.path.unlink(missing_ok=True)


@dataclass
class CacheStats:
    """Per-instance accounting of one cache's activity."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Frames that existed but could not be read/validated.
    errors: int = 0
    #: Unreadable frames copied to ``quarantine/``.
    quarantined: int = 0


class ResultCache:
    """Content-addressed store of :class:`SimulationSummary` objects."""

    def __init__(self, root: Optional["os.PathLike[str]"] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.fault_plan = fault_plan
        self.stats = CacheStats()
        self.log = RecordLog(self.root / "results.log")
        self._index: Dict[str, Tuple[int, int]] = {}

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _refresh(self) -> None:
        """Index the frames appended since the last scan."""
        for offset, key, body in self.log.scan():
            if key is None:
                self._quarantine(offset, body)
            else:
                self._index.setdefault(key, (offset, _HEAD + len(key) + len(body)))

    def get(self, key: str) -> Optional[SimulationSummary]:
        """Look up a summary; a miss first re-scans the log's tail."""
        if key not in self._index:
            self._refresh()
        where = self._index.get(key)
        summary = None
        if where is not None:
            blob = self.log.read(*where)
            _, found, body = _frame_at(blob, 0)
            summary = decode_summary(body) if found == key else None
            if summary is None:
                del self._index[key]
                self._quarantine(where[0], blob)
        if summary is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return summary

    def _quarantine(self, offset: int, raw: bytes) -> None:
        """Copy one unreadable span into ``quarantine/``, named by its log
        offset so a later scan of the same damage reuses the file."""
        self.stats.errors += 1
        target = self.quarantine_dir / f"{self.log.path.stem}-{offset}.frame"
        try:
            if not target.exists():
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(raw)
            self.stats.quarantined += 1
        except OSError:
            pass  # evidence only; the frame stays skipped either way

    def put(self, key: str, summary: SimulationSummary) -> None:
        """Append a summary under ``key``; durable after ``log.sync()``."""
        blob = encode_frame(key, summary)
        if self.fault_plan is not None and \
                self.fault_plan.decide("corrupt", key):
            i = len(blob) - 2  # injected damage: one body bit flipped
            blob = blob[:i] + bytes([blob[i] ^ 1]) + blob[i + 1:]
        self.log.append(blob)
        self.stats.puts += 1

    # -- maintenance -------------------------------------------------
    def __len__(self) -> int:
        self._refresh()
        return len(self._index)

    def legacy_entries(self) -> Iterator[Path]:
        """Entry files of the old one-file-per-key layout (ignored)."""
        if self.root.is_dir():
            for sub in sorted(self.root.iterdir()):
                if sub.is_dir() and len(sub.name) == 2:
                    yield from sorted(sub.glob("*.json"))

    def quarantined_entries(self) -> int:
        """Number of files currently parked in ``quarantine/``."""
        qdir = self.quarantine_dir
        return sum(1 for _ in qdir.iterdir()) if qdir.is_dir() else 0

    def prune(self) -> int:
        """Delete every entry, old-layout shards included; returns the
        number removed."""
        removed = len(self) + sum(1 for _ in self.legacy_entries())
        self.log.remove()
        self._index.clear()
        for path in {p.parent for p in self.legacy_entries()}:
            shutil.rmtree(path, ignore_errors=True)
        return removed

    def clear_quarantine(self) -> int:
        """Delete every quarantined file; returns the number removed."""
        removed = self.quarantined_entries()
        shutil.rmtree(self.quarantine_dir, ignore_errors=True)
        return removed
