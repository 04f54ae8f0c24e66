"""In-memory span recording for the benchmark's traced run.

A :class:`Tracer` replaces functions with timing wrappers and records one
span per call: name, start, end, parent span and the id of the CLI
command that every span of one command shares.  ``uninstall`` puts every
original back.  Self time is a span's duration minus the part of its
interval covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "parent", "cmd", "start", "end", "attrs")

    def __init__(self, id, name, parent, cmd, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.cmd = cmd
        self.start = start
        self.end = start
        self.attrs = None


class Tracer:
    """Records spans of wrapped calls; not thread-safe (one client thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._cmd = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._cmd, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextlib.contextmanager
    def command(self, cmd_id: int, name: str = "cli"):
        """Root span of one CLI command; every span inside carries ``cmd_id``."""
        self._cmd = cmd_id
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)
            self._cmd = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        Only calls made while a :meth:`command` is open are recorded; calls
        outside one (the benchmark's own output checks) run untraced.
        ``name`` is a span name or a function of the call's arguments that
        returns one; ``attrs(args, kwargs, result)`` returns a dict stored
        on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if tracer._cmd is None:
                return original(*args, **kwargs)
            span = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "cmd": s.cmd,
                            "start": s.start,
                            "end": s.end,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s``."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for s in spans:
        row = table[s.name]
        row["calls"] += 1
        row["s"] += s.end - s.start
        row["self_s"] += own[s.id]
    return dict(table)
