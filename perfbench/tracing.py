"""In-memory span recorder for the traced benchmark run.

Spans are taken from the benchmark's side: it wraps public functions and
methods of the package for the length of a traced run and restores them
afterwards, so nothing inside the program changes and the logical trace of
a simulation stays byte-identical. Each span has a name, start, end, parent
and a key: the order id or request id it belongs to, inherited from the
parent when the call itself does not name one.

Self time is a span's duration minus the part of it covered by its children.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable


class Span:
    __slots__ = ("id", "parent", "name", "key", "start", "end", "thread")

    def __init__(self, span_id, parent, name, key, start, end=0.0, thread=0):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.key = key
        self.start = start
        self.end = end
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans and counters; thread-safe for concurrent callers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if key is None and parent is not None:
            key = parent.key
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            key,
            0.0,
            thread=threading.get_ident(),
        )
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        key_of: Callable | None = None,
        on_result: Callable | None = None,
    ) -> Callable:
        """`fn` recording one span per call; `key_of(args, kwargs)` names the
        call's key, `on_result(args, result)` updates counters afterwards."""

        def traced(*args, **kwargs):
            with self.span(name, key_of(args, kwargs) if key_of else None):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def dump(self, path) -> None:
        """Write spans as JSON lines, once the run has ended."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


@contextmanager
def patched(targets: Iterable[tuple[object, str, Callable]]):
    """Replace `owner.attr` with `make(original)` for each target; restore
    every original on exit, in reverse order."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result

