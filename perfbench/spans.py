"""In-memory span recording for the benchmark's traced runs.

A span is one call into a layer: ``(name, start, end, parent, contact)``.
Spans are appended to flat lists while the run executes and written out
once, when the run ends (:meth:`SpanRecorder.write`).  Every span is
recorded from the benchmark's own files: :meth:`SpanRecorder.wrap`
replaces a public function or method with a timing wrapper, and the
simulator's ``dispatch_hook`` adds one span per dispatched callback.

Times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC``; spans recorded in the gateway process and in the
load generator therefore share one time base and can be matched.

Self time is a span's duration minus the durations of its direct
children.  Summed over every span this telescopes to the summed
duration of the top-level spans, so per-layer self times plus the
untraced remainder add up to the traced wall time exactly.
"""

from __future__ import annotations

import json
import time
import typing as _t

#: Parent index of a top-level span.
ROOT = -1


class SpanRecorder:
    """Spans kept in parallel lists; one open-span stack per process."""

    def __init__(self) -> None:
        """An empty recorder."""
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.contacts: list[str | None] = []
        self._stack: list[int] = []
        #: Identifier stamped on every span opened while it is set; the
        #: gateway launcher sets it per request from a request header.
        self.contact: str | None = None

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.contacts.append(self.contact)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End span *idx* (the innermost open span)."""
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def closed(self, name: str, start: float, end: float) -> int:
        """Record an already finished span under the innermost open one."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self._stack[-1] if self._stack else ROOT)
        self.contacts.append(self.contact)
        return idx

    def wrap(self, name: str, fn: _t.Callable[..., _t.Any],
             after: _t.Callable[..., None] | None = None
             ) -> _t.Callable[..., _t.Any]:
        """*fn* inside a span named *name*.

        *after*, when given, is called as ``after(result, *args)`` once
        the span is closed, so a counter can look at the call's result
        without its cost landing in the span.
        """
        def wrapper(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, *args)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def rows(self) -> _t.Iterator[dict]:
        """Every span as a JSON-ready dict."""
        for i, name in enumerate(self.names):
            yield {"id": i, "name": name, "start": self.starts[i],
                   "end": self.ends[i], "parent": self.parents[i],
                   "contact": self.contacts[i]}

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")


def load_spans(path: str) -> SpanRecorder:
    """Read a file written by :meth:`SpanRecorder.write`."""
    rec = SpanRecorder()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            rec.names.append(row["name"])
            rec.starts.append(row["start"])
            rec.ends.append(row["end"])
            rec.parents.append(row["parent"])
            rec.contacts.append(row["contact"])
    return rec


def self_times(rec: SpanRecorder, window: tuple[float, float] | None = None
               ) -> tuple[dict[str, float], float]:
    """Per-name self seconds and the summed top-level duration.

    With *window*, only spans whose top-level ancestor starts inside the
    window count, so a phase of a long-lived process can be isolated.
    """
    n = len(rec.names)
    child_sum = [0.0] * n
    for i in range(n):
        p = rec.parents[i]
        if p != ROOT:
            child_sum[p] += rec.ends[i] - rec.starts[i]
    # A callback span is recorded after its children (the dispatch hook
    # fires when the callback returns), so parents may follow children.
    top = [-1] * n
    for i in range(n):
        chain = []
        j = i
        while top[j] < 0 and rec.parents[j] != ROOT:
            chain.append(j)
            j = rec.parents[j]
        root = top[j] if top[j] >= 0 else j
        top[j] = root
        for k in chain:
            top[k] = root
    out: dict[str, float] = {}
    covered = 0.0
    for i in range(n):
        t = top[i]
        if window is not None and not window[0] <= rec.starts[t] < window[1]:
            continue
        dur = rec.ends[i] - rec.starts[i]
        out[rec.names[i]] = out.get(rec.names[i], 0.0) + dur - child_sum[i]
        if t == i:
            covered += dur
    return out, covered


def durations(rec: SpanRecorder, name: str,
              window: tuple[float, float] | None = None) -> list[float]:
    """Durations (seconds) of every span called *name*."""
    return [rec.ends[i] - rec.starts[i] for i, nm in enumerate(rec.names)
            if nm == name and (window is None
                               or window[0] <= rec.starts[i] < window[1])]
