"""Span recorder wrapped around the program's boundary functions.

The benchmark owns the tracing: nothing under ``src/`` is edited.  A
:class:`Recorder` keeps spans in memory (name, thread, parent, start,
end, counts); :class:`Patches` swaps a boundary function for a recording
wrapper and puts the original back afterwards.  A span's *self time* is
its duration minus the time its direct children cover; parents are taken
from a per-thread stack, so spans of concurrent threads never nest into
one another.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: ``annotate(args, kwargs, result)`` returns the counts a span carries;
#: a ``"tag"`` entry (a string) splits the span's totals by that value.
Annotate = Callable[[tuple, dict, Any], Dict[str, Any]]


class Span:
    """One recorded call.  ``child_s`` accumulates as children finish."""

    __slots__ = ("name", "thread", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name: str, thread: int, parent: Optional["Span"], start: float):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), stack[-1] if stack else None, self.clock())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """A span the benchmark opens itself (the root of a pass)."""
        span = self._open(name)
        span.attrs = attrs
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn: Callable, name: str, annotate: Optional[Annotate] = None) -> Callable:
        """``fn`` with a span recorded around every call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return wrapper

    def drain(self) -> List[Span]:
        """Hand over the finished spans and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


@dataclass(frozen=True)
class Boundary:
    """A function of the program to record: ``module`` + dotted ``qualname``."""

    name: str
    module: str
    qualname: str
    annotate: Optional[Annotate] = None


class Patches:
    """Recording wrappers installed on the program; ``restore`` undoes them."""

    def __init__(self, recorder: Recorder, package: str = "repro"):
        self.recorder = recorder
        self.package = package
        self.absent: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self, boundaries: Iterable[Boundary]) -> "Patches":
        for b in boundaries:
            try:
                owner: Any = importlib.import_module(b.module)
                *path, attr = b.qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                # removed by a later change: its metric reads as absent
                self.absent.append(b.name)
                continue
            if isinstance(owner, type):
                self._patch_method(owner, attr, raw, b)
            else:
                self._patch_function(raw, b)
        return self

    def _patch_method(self, cls: type, attr: str, raw: Any, b: Boundary) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self.recorder.wrap(raw.__func__, b.name, b.annotate))
        else:
            wrapped = self.recorder.wrap(raw, b.name, b.annotate)
        self._set(cls, attr, raw, wrapped)

    def _patch_function(self, fn: Callable, b: Boundary) -> None:
        # `from x import f` copies the reference, so every namespace of
        # the package that holds the original gets the wrapper
        wrapped = self.recorder.wrap(fn, b.name, b.annotate)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, fn, wrapped)

    def _set(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


@dataclass
class Totals:
    """What the spans sharing one name (and tag) add up to."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))


def summarise(spans: Iterable[Span]) -> Dict[str, Totals]:
    """Totals per span name, and per ``name[tag]`` for tagged spans."""
    out: Dict[str, Totals] = defaultdict(Totals)
    for span in spans:
        keys = [span.name]
        tag = span.attrs.get("tag")
        if tag is not None:
            keys.append(f"{span.name}[{tag}]")
        for key in keys:
            tot = out[key]
            tot.calls += 1
            tot.self_s += span.self_s
            tot.total_s += span.duration
            for k, v in span.attrs.items():
                if k != "tag":
                    tot.counts[k] += v
    return out


def write_trace(spans: List[Span], path: Path) -> None:
    """Spans as JSON: id, name, layer, thread, parent id, start, end, counts."""
    ids = {id(span): i for i, span in enumerate(spans)}
    rows = [
        {
            "id": i,
            "name": s.name,
            "layer": s.layer,
            "thread": s.thread,
            "parent": ids.get(id(s.parent)) if s.parent is not None else None,
            "start": s.start,
            "end": s.end,
            "self_s": s.self_s,
            "attrs": s.attrs,
        }
        for i, s in enumerate(spans)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"schema": "bench_e2e.trace/1", "spans": rows}, fh)
