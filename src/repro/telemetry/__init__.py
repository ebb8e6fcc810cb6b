"""Structured runtime telemetry for the reproduction stack.

The engines built so far (parallel Table-II runner, autograd-free
training kernels, batched SPICE) are fast but opaque: Newton convergence,
cache hit ratios, per-epoch timings and surrogate-build drop accounting
were either printed ad hoc or invisible.  This package makes
them observable without touching the numbers:

- :meth:`Telemetry.span` — context manager recording monotonic wall
  time (and nesting) of a code region;
- :meth:`Telemetry.count` / :meth:`Telemetry.event` — counters and rich
  events;
- :class:`EventLog` — an append-only JSONL sink, one file per OS
  process (``events-<pid>.jsonl``), so forked ``ProcessPoolExecutor``
  workers log without locks or cross-process interleaving;
- :func:`merge_events` — deterministic collation of all per-process
  logs into one ``events.jsonl`` stream;
- a run ``manifest.json`` (git SHA, profile, seeds, environment).

**Off by default, and free when off.**  :func:`get` returns a shared
:class:`NullTelemetry` unless a sink was installed with :func:`enable`
(or the ``REPRO_TELEMETRY_DIR`` environment variable is set, which is
how forked/spawned workers inherit the destination).  Instrumented code
guards any non-trivial bookkeeping behind ``tel.enabled``, so the
disabled cost is a single attribute check.  Telemetry only *reads*
numerical state — results are bit-identical with telemetry on or off,
and the tests assert exactly that for a Table-II run and for a recorded
surrogate-dataset build.
"""

from repro.telemetry.core import (
    NullTelemetry,
    Telemetry,
    disable,
    enable,
    get,
)
from repro.telemetry.events import (
    EVENT_KINDS,
    EventLog,
    merge_events,
    read_events,
    summarize_events,
)
from repro.telemetry.manifest import read_manifest, write_manifest

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "enable",
    "disable",
    "get",
    "EventLog",
    "EVENT_KINDS",
    "merge_events",
    "read_events",
    "summarize_events",
    "write_manifest",
    "read_manifest",
]
