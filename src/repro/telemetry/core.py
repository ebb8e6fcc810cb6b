"""Telemetry front end: spans, counters, events and the active sink.

The module keeps one process-global active :class:`Telemetry` (or the
shared :data:`NULL` no-op).  Instrumented code always goes through
:func:`get`::

    tel = telemetry.get()
    with tel.span("job.execute", dataset=key.dataset, seed=key.seed):
        ...
    if tel.enabled:
        tel.count("cache.hit")

When no sink is installed ``get()`` returns :data:`NULL`, whose methods
are empty and whose ``span`` hands back one preallocated no-op context
manager — the disabled overhead is an attribute load and a truthiness
check, never an allocation or a syscall.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Union

from repro.telemetry.events import EventLog
from repro.telemetry.manifest import write_manifest

#: Environment variable carrying the telemetry directory into worker
#: processes (set by :func:`enable`, honoured lazily by :func:`get`).
TELEMETRY_ENV = "REPRO_TELEMETRY_DIR"


class _NullSpan:
    """Reusable, state-less no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The do-nothing sink :func:`get` returns when telemetry is off."""

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def count(self, name: str, n: Union[int, float] = 1, **attrs) -> None:
        return None

    def merge(self) -> None:
        return None


class _Span:
    """One timed region; writes a ``span`` record when it exits.

    Nesting is tracked per thread: the record carries the slash-joined
    ``path`` of enclosing span names and its ``depth``, so consumers can
    reconstruct the tree without matching start/stop pairs.
    """

    __slots__ = ("_tel", "name", "attrs", "_t0", "_path", "_depth", "_ts")

    def __init__(self, tel: "Telemetry", name: str, attrs: Dict):
        self._tel = tel
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self._tel._span_stack()
        self._depth = len(stack)
        self._path = "/".join(stack + [self.name]) if stack else self.name
        stack.append(self.name)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self._t0
        stack = self._tel._span_stack()
        if stack and stack[-1] == self.name:
            stack.pop()
        self._tel._write(
            "span",
            self.name,
            ts=self._ts,
            dur_s=dur,
            path=self._path,
            depth=self._depth,
            attrs=self.attrs,
        )


class Telemetry:
    """An enabled telemetry sink writing to ``directory``.

    Parameters
    ----------
    directory:
        Destination of the per-process ``events-<pid>.jsonl`` files and
        of ``manifest.json`` / merged ``events.jsonl``.

    Notes
    -----
    All write paths are thread-safe (the :class:`EventLog` serializes
    appends) and fork-safe (the log reopens a fresh per-pid file the
    first time a new process writes, emitting a ``process.start``
    lifecycle event so worker lifetimes are visible in the stream).
    """

    enabled = True

    def __init__(self, directory: Union[str, os.PathLike]):
        self._log = EventLog(directory)
        self._local = threading.local()

    @property
    def directory(self):
        return self._log.directory

    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _write(self, kind: str, name: str, **payload) -> None:
        self._log.write(kind, name, **payload)

    # ----------------------------------------------------------------- #
    # public recording API                                              #
    # ----------------------------------------------------------------- #

    def span(self, name: str, **attrs) -> _Span:
        """Time a region: ``with tel.span("train.epoch", epoch=3): ...``"""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record one rich event (arbitrary JSON-serializable fields)."""
        self._write("event", name, ts=time.time(), attrs=attrs)

    def count(self, name: str, n: Union[int, float] = 1, **attrs) -> None:
        """Increment counter ``name`` by ``n`` (aggregated at read time)."""
        self._write("count", name, ts=time.time(), n=n, attrs=attrs)

    # ----------------------------------------------------------------- #
    # lifecycle                                                         #
    # ----------------------------------------------------------------- #

    def write_manifest(self, **fields) -> None:
        """Write/refresh this run's ``manifest.json`` (git SHA, env, …)."""
        write_manifest(self.directory, **fields)

    def merge(self):
        """Collate every per-process log into ``events.jsonl`` (sorted)."""
        from repro.telemetry.events import merge_events

        return merge_events(self.directory)

    def close(self) -> None:
        self._log.close()


#: The process-global active sink (``None`` → consult the environment).
_active: Optional[Telemetry] = None
_active_lock = threading.Lock()

NULL = NullTelemetry()


def enable(directory: Union[str, os.PathLike], manifest: Optional[Dict] = None) -> Telemetry:
    """Install a :class:`Telemetry` writing to ``directory`` and return it.

    ``manifest`` fields (profile, seeds, argv, …) are merged into the run
    manifest.  The directory is also exported as :data:`TELEMETRY_ENV` so
    worker processes — forked *or* spawned — pick the same destination up
    lazily via :func:`get`.
    """
    global _active
    with _active_lock:
        tel = Telemetry(directory)
        tel.write_manifest(**(manifest or {}))
        os.environ[TELEMETRY_ENV] = str(tel.directory)
        _active = tel
    return tel


def disable() -> None:
    """Remove the active sink (and the exported environment variable)."""
    global _active
    with _active_lock:
        if _active is not None:
            _active.close()
        _active = None
        os.environ.pop(TELEMETRY_ENV, None)


def get() -> Union[Telemetry, NullTelemetry]:
    """The active sink, or the shared no-op when telemetry is off.

    Resolution order: an explicitly :func:`enable`-ed sink, then the
    :data:`TELEMETRY_ENV` environment variable (how pool workers join a
    parent's run), then :data:`NULL`.
    """
    global _active
    tel = _active
    if tel is not None:
        return tel
    env = os.environ.get(TELEMETRY_ENV)
    if env:
        with _active_lock:
            if _active is None:
                _active = Telemetry(env)
            return _active
    return NULL
