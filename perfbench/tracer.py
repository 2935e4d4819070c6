"""Outside-in tracer for the pdqkd layers.

The tracer never edits the program.  It replaces a traced function, in every
loaded ``pdqkd`` module that binds it, by a wrapper that records one span per
call: name, start, end, parent span, thread, the benchmark op the call
belongs to, and the work counts the call carries (values drawn, pulses, rows,
bytes).  Every binding is replaced because the program resolves names such as
``key_rate`` or ``uniform_stream`` through the importing module's globals at
call time; patching only the defining module would miss those calls.

Spans stay in memory and are read once, when the run ends.  A wrapper records
nothing while no op is open (``Tracer.op < 0``), so the benchmark's own
output checks, which call the same functions, leave no spans.

Time accounting, per span:

- ``busy`` is the span's duration, except that the time its thread spent
  waiting on spans it caused on other threads (worker batches) is replaced by
  those spans' own busy time.  With two workers, busy time is summed over
  threads and can exceed the wall time.
- ``self`` is busy time minus the busy time of the layer spans below it,
  computed within each thread.  A transparent span (a private batch helper,
  traced only so that worker threads link back to the call that started
  them) is not a layer: its own time belongs to its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function to trace, named by its defining module."""

    module: str
    name: str
    counts: Callable | None = None  # (bound arguments, result) -> dict of counts
    layer: bool = True

    @property
    def label(self) -> str:
        return f"{self.module.removeprefix('pdqkd.')}.{self.name}"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    t0: float
    t1: float
    parent: int | None
    thread: int
    op: int
    counts: dict
    layer: bool

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Patches the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._home_thread = None
        self._home_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        self._home_thread = threading.get_ident()
        self._home_stack = self._stack()
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                module = None
            fn = getattr(module, target.name, None)
            if not callable(fn):
                # a later version may remove or rename the function
                self.absent.append(target.label)
                continue
            wrapper = self._wrap(fn, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pdqkd" or mod_name.startswith("pdqkd.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, fn, target: Target):
        tracer = self
        label = target.label
        signature = inspect.signature(fn) if target.counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._home_thread:
                # a worker thread: the call was caused by the home thread's open span
                try:
                    parent = tracer._home_stack[-1]
                except IndexError:
                    parent = None
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            returned = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = time.perf_counter()
                stack.pop()
                # a call that raises is still a span, one without work counts
                counts = {}
                if returned and signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    counts = target.counts(bound.arguments, result)
                tracer.spans.append(Span(sid, label, t0, t1, parent, threading.get_ident(),
                                         op, counts, target.layer))
            return result

        return traced


def _union_length(intervals) -> float:
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def busy_and_self(spans) -> tuple[dict[int, float], dict[int, float]]:
    """Busy and self seconds of every span, keyed by span id."""
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent in by_id:
            children[s.parent].append(s)
    busy: dict[int, float] = {}
    below: dict[int, float] = {}  # busy time of the nearest layer spans underneath
    # a child always ends before its parent, on its own thread or another
    for s in sorted(spans, key=lambda s: s.t1):
        kids = children.get(s.sid, ())
        remote = [c for c in kids if c.thread != s.thread]
        # waiting on other threads becomes their busy time, at every level
        extra = sum(busy[c.sid] - c.dur for c in kids if c.thread == s.thread)
        busy[s.sid] = (s.dur + extra - _union_length((c.t0, c.t1) for c in remote)
                       + sum(busy[c.sid] for c in remote))
        below[s.sid] = sum(busy[c.sid] if c.layer else below[c.sid] for c in kids)
    self_time = {sid: busy[sid] - below[sid] for sid in busy}
    return busy, self_time
