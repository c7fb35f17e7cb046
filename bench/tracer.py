"""In-memory span recorder that wraps ratpo's public functions from outside.

The benchmark never edits the program.  Instead, a traced run replaces
public functions and methods with wrappers that record one span per call:
name, start, end, thread, parent span and an optional measured value.  The
parent is carried in a context variable; thread-pool submissions copy the
submitting context, so work a pool runs on behalf of a span (swarm and
oracle evaluations, sweep cells) is attributed to it.  Spans stay in memory
until :meth:`Tracer.write` saves them at the end of the run.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    thread: int
    parent: int
    value: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class _Target:
    fn: Callable
    name: str
    owner: Optional[type]
    attr: str
    pre: Optional[Callable]
    post: Optional[Callable]


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar("bench_span", default=0)
        self._patches: list[tuple[Any, str, Any]] = []
        self._targets: list[_Target] = []

    # -- recording ----------------------------------------------------------

    def _record(self, fn: Callable, name: str, args, kwargs, pre, post):
        state = pre(args, kwargs) if pre is not None else None
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, t0, t1, threading.get_ident(), parent, "raised"))
            raise
        t1 = time.perf_counter()
        self._current.reset(token)
        value = post(args, kwargs, result, state) if post is not None else None
        self.spans.append(Span(sid, name, t0, t1, threading.get_ident(), parent, value))
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, t0, t1, threading.get_ident(), parent))

    # -- wrapping -------------------------------------------------------------

    def function(self, fn: Callable, name: str, pre: Optional[Callable] = None,
                 post: Optional[Callable] = None) -> None:
        """Trace a module-level function under every ratpo name bound to it.

        ``pre(args, kwargs)`` runs before the call; ``post(args, kwargs,
        result, pre_state)`` after it, and its return value is stored as the
        span's value.
        """
        self._targets.append(_Target(fn, name, None, "", pre, post))

    def method(self, cls: type, attr: str, name: str, pre: Optional[Callable] = None,
               post: Optional[Callable] = None) -> None:
        """Trace a method defined on ``cls``; hooks as in :meth:`function`."""
        self._targets.append(_Target(cls.__dict__[attr], name, cls, attr, pre, post))

    def install(self) -> None:
        """Swap every registered callable for its recording wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in self._targets:
            wrapper = self._make_wrapper(t.fn, t.name, t.pre, t.post)
            if t.owner is not None:
                self._patch(t.owner, t.attr, wrapper)
                continue
            # ``from .x import f`` makes extra bindings; each one must be swapped.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "ratpo" and not mod_name.startswith("ratpo."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is t.fn:
                        self._patch(mod, attr, wrapper)

        original_submit = ThreadPoolExecutor.submit

        def submit(pool, fn, /, *args, **kwargs):
            return original_submit(pool, contextvars.copy_context().run, fn, *args, **kwargs)

        self._patch(ThreadPoolExecutor, "submit", submit)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _make_wrapper(self, fn: Callable, name: str, pre, post) -> Callable:
        record = self._record

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(fn, name, args, kwargs, pre, post)

        return wrapper

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "thread", "parent", "value"])
            for s in self.spans:
                writer.writerow([s.sid, s.name, repr(s.start), repr(s.end), s.thread, s.parent,
                                 "" if s.value is None else json.dumps(s.value)])
