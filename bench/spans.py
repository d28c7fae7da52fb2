"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public names that lsvkit's modules imported from
one another, so spans sit at module boundaries without any change to
the package itself.  A span is (name, start, end, parent, op, thread,
work); `work` is an exact count computed from the call's arguments and
result after the span has closed, so computing it costs no span time.

Worker threads of the harness's ThreadPoolExecutor open spans on an
empty per-thread stack; those take as parent the innermost span that
is open on the op's root thread, which is blocked waiting for them.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    work: int = 0

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "thread": self.thread, "work": self.work}


class Recorder:
    """Collects spans; `patch` installs wrappers and `restore` removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[Span] | None = None
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            root = self._root_stack
            parent = root[-1].id if root else None
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent,
                        self._op, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def root(self, op: int, name: str = "cli.main"):
        """The root span of op `op`, open on the calling thread."""
        self._op = op
        span = self.open(name)
        self._root_stack = self._stack()
        try:
            yield span
        finally:
            self.close(span)
            self._root_stack = None

    def wrap(self, fn, name: str, work=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if work is not None:
                span.work = int(work(args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Rebind owner.attr (a module global or a class method) to a traced wrapper."""
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, work))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children may run on other threads and overlap each other; their
    intervals are merged before subtraction, so two workers busy over
    the same second remove one second, not two.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}
