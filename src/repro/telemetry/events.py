"""JSONL event sink, reader, deterministic merge and aggregation.

Record schema (one JSON object per line)::

    {"kind": "span"|"event"|"count",
     "name": "...",            # dotted metric/region name
     "ts":   <unix seconds>,   # wall-clock stamp of the record
     "pid":  <os pid>,         # writing process
     "seq":  <int>,            # per-process monotonic sequence number
     ...kind-specific fields:
        span  -> "dur_s", "path", "depth", "attrs"
        event -> "attrs"
        count -> "n", "attrs"}

Every process writes its own ``events-<pid>.jsonl`` (append-only,
line-buffered), so concurrent workers never interleave partial lines.
:func:`merge_events` collates all per-process files into one
``events.jsonl`` under a total order — ``(ts, pid, seq, line)`` — that
is deterministic for any fixed set of records regardless of which
process finished first.
"""

from __future__ import annotations

import json
import os
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

#: The record kinds a consumer may encounter.
EVENT_KINDS = ("span", "event", "count")


class EventLog:
    """Thread- and fork-safe append-only JSONL writer.

    One :class:`EventLog` serves a whole process tree: the first write
    from a given pid (lazily, including right after a ``fork``) opens
    that process's own ``events-<pid>.jsonl`` and emits a
    ``process.start`` lifecycle event, so worker lifetimes appear in the
    stream without the pool having to announce them.
    """

    def __init__(self, directory: Union[str, os.PathLike]):
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._pid: Optional[int] = None
        self._handle = None
        self._seq = 0

    def _ensure_handle(self, first_ts: Optional[float] = None) -> None:
        pid = os.getpid()
        if pid == self._pid and self._handle is not None:
            return
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = open(
            self.directory / f"events-{pid}.jsonl", "a", buffering=1
        )
        self._pid = pid
        self._seq = 0
        # Stamp the lifecycle event with the triggering record's ts (the
        # record was stamped *before* reaching the log, and the merged
        # stream must show a process starting before its first record).
        self._emit("event", "process.start",
                   ts=first_ts if first_ts is not None else time.time(),
                   attrs={"ppid": str(os.getppid())})

    def _emit(self, kind: str, name: str, **payload) -> None:
        record = {"kind": kind, "name": name, "pid": self._pid, "seq": self._seq}
        record.update(payload)
        self._seq += 1
        self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")

    def write(self, kind: str, name: str, **payload) -> None:
        """Append one record (thread-safe, reopens per-pid after fork)."""
        with self._lock:
            self._ensure_handle(first_ts=payload.get("ts"))
            self._emit(kind, name, **payload)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None
                    self._pid = None


def _iter_records(path: Path) -> Iterable[Dict]:
    """Yield records of one JSONL file, skipping truncated lines.

    A worker killed mid-write can leave a torn final line; that must not
    take the whole run's telemetry down, so undecodable lines are
    skipped with a warning.
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                warnings.warn(
                    f"{path.name}:{lineno}: skipping truncated/corrupt "
                    "telemetry record",
                    RuntimeWarning,
                    stacklevel=2,
                )


def _sort_key(record: Dict):
    return (
        float(record.get("ts", 0.0)),
        int(record.get("pid", 0) or 0),
        int(record.get("seq", 0)),
        json.dumps(record, sort_keys=True, default=str),
    )


MERGED_NAME = "events.jsonl"


def merge_events(directory: Union[str, os.PathLike]) -> Path:
    """Collate all per-process logs of a run into ``events.jsonl``.

    The merge is deterministic: records sort under the total order
    ``(ts, pid, seq, serialized record)``, so any fixed set of
    per-process files produces byte-identical output no matter the file
    system enumeration order or worker completion order.  Atomic
    (tempfile + ``os.replace``) and idempotent — re-merging after more
    events arrived simply extends the collation.
    """
    directory = Path(directory)
    records: List[Dict] = []
    for path in sorted(directory.glob("events-*.jsonl")):
        records.extend(_iter_records(path))
    records.sort(key=_sort_key)
    target = directory / MERGED_NAME
    tmp = directory / (MERGED_NAME + ".tmp")
    with open(tmp, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
    os.replace(tmp, target)
    return target


def read_events(directory: Union[str, os.PathLike]) -> List[Dict]:
    """All records of a run, in merge order.

    Prefers the merged ``events.jsonl`` *only* when it is complete;
    otherwise (or when per-process files carry records the merge missed)
    the per-process files are collated in memory.
    """
    directory = Path(directory)
    per_process: List[Dict] = []
    for path in sorted(directory.glob("events-*.jsonl")):
        per_process.extend(_iter_records(path))
    per_process.sort(key=_sort_key)
    merged_path = directory / MERGED_NAME
    if merged_path.exists():
        merged = list(_iter_records(merged_path))
        if len(merged) >= len(per_process):
            return merged
    return per_process


def summarize_events(events: Iterable[Dict]) -> Dict[str, Dict]:
    """Aggregate a record stream into counters, span stats and event stats.

    Returns
    -------
    dict
        ``{"counters": {name: total},
        "spans": {name: {"count", "total_s", "max_s", "mean_s"}},
        "events": {name: occurrences},
        "attrs": {event name: {attribute: {"sum", "max"}}}}`` — ``attrs``
        aggregates every numeric attribute of the events of each name.
        Booleans are flags, not quantities, and are left out; emitters
        record identifiers (process ids, seeds, lanes) as strings.
    """
    counters: Dict[str, float] = {}
    spans: Dict[str, Dict[str, float]] = {}
    event_counts: Dict[str, int] = {}
    event_attrs: Dict[str, Dict[str, Dict[str, float]]] = {}
    for record in events:
        kind, name = record.get("kind"), record.get("name")
        if kind == "count":
            counters[name] = counters.get(name, 0) + record.get("n", 1)
        elif kind == "span":
            stat = spans.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
            )
            dur = float(record.get("dur_s", 0.0))
            stat["count"] += 1
            stat["total_s"] += dur
            stat["max_s"] = max(stat["max_s"], dur)
        elif kind == "event":
            event_counts[name] = event_counts.get(name, 0) + 1
            stats = event_attrs.setdefault(name, {})
            for attr, value in (record.get("attrs") or {}).items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    stat = stats.setdefault(attr, {"sum": 0, "max": value})
                    stat["sum"] += value
                    stat["max"] = max(stat["max"], value)
    for stat in spans.values():
        stat["mean_s"] = stat["total_s"] / stat["count"] if stat["count"] else 0.0
    return {
        "counters": counters,
        "spans": spans,
        "events": event_counts,
        "attrs": event_attrs,
    }
