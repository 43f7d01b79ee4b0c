"""Span recorder that wraps a program's module attributes from outside.

A hook replaces one attribute (a function on a module, or a method on a
class) with a wrapper that, while recording is on, keeps a span: name, start,
end, parent span and thread. Callers that look the attribute up at call time
go through the wrapper, so wrapping ``ddopkit.cli.synth_pulse`` times exactly
the synthesis calls the CLI makes.

A span opened on a thread that has no open span of its own takes as parent
the innermost open span of the thread that created the tracer. Pool workers
started inside ``run_sweep`` therefore attach to its span.

A hook whose owner or attribute does not exist (the program was refactored)
is skipped and listed in ``unmeasured``; tracing carries on without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap.

    owner is a dotted path resolved by importing its longest module prefix
    and walking the rest as attributes ("ddopkit.experiments.SweepReport").
    observe(tracer, args, kwargs, result) runs after the call returns, outside
    the span; only while recording unless always is set.
    """

    owner: str
    attr: str
    span: str
    observe: Callable[..., None] | None = None
    always: bool = False

    @property
    def target(self) -> str:
        return f"{self.owner}.{self.attr}"


def _resolve(dotted: str) -> Any:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


class Tracer:
    def __init__(self) -> None:
        self.recording = False
        self.spans: list[Span] = []
        self.notes: dict[str, list] = defaultdict(list)
        self.unmeasured: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._local.stack = self._home_stack
        self._patches: list[tuple[Any, str, Any]] = []
        self._notes_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note(self, key: str, value) -> None:
        """Record a value observed inside an op, from any thread."""
        with self._notes_lock:
            self.notes[key].append(value)

    def reset(self) -> None:
        self.spans = []
        self.notes = defaultdict(list)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the caller's own block (the op root)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            try:
                owner = _resolve(hook.owner)
                original = getattr(owner, hook.attr)
            except (ImportError, AttributeError):
                self.unmeasured.append(hook.target)
                continue
            if not callable(original):
                self.unmeasured.append(hook.target)
                continue
            setattr(owner, hook.attr, self._wrap(original, hook))
            self._patches.append((owner, hook.attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                result = original(*args, **kwargs)
                if hook.always and hook.observe is not None:
                    hook.observe(tracer, args, kwargs, result)
                return result
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._home_stack[-1] if tracer._home_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, hook.span, start, end, parent, threading.get_ident()))
            if hook.observe is not None:
                hook.observe(tracer, args, kwargs, result)
            return result

        return wrapper


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass(frozen=True)
class OpProfile:
    """Per-op digest of one traced op's spans.

    self_s maps span name to the summed self time of its spans. thread_s is
    the op's thread time: the root's wall, with the part of it spent waiting
    on other threads replaced by those threads' span time. coverage is the
    summed self time of every span below the root over thread_s.
    pool[name] = (busy seconds on other threads, distinct threads, span wall)
    for spans whose children ran on other threads.
    """

    self_s: dict[str, float]
    thread_s: float
    coverage: float
    pool: dict[str, tuple[float, int, float]]


def profile(spans: list[Span], root_sid: int) -> OpProfile:
    by_sid = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    self_s: dict[str, float] = defaultdict(float)
    covered = 0.0
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
        own = s.duration - union_length(kids)
        if s.sid != root_sid:
            self_s[s.name] += own
            covered += own

    root = by_sid[root_sid]
    foreign = [s for s in spans
               if s.parent in by_sid and by_sid[s.parent].thread != s.thread]
    thread_s = (root.duration
                - union_length([(s.start, s.end) for s in foreign])
                + sum(s.duration for s in foreign))

    pool: dict[str, tuple[float, int, float]] = {}
    for s in spans:
        away = [c for c in children[s.sid] if c.thread != s.thread]
        if away:
            busy, threads, wall = pool.get(s.name, (0.0, 0, 0.0))
            pool[s.name] = (busy + sum(c.duration for c in away),
                            max(threads, len({c.thread for c in away})),
                            wall + s.duration)
    return OpProfile(dict(self_s), thread_s, covered / thread_s if thread_s > 0 else 0.0, pool)
