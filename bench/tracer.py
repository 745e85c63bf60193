"""Call tracing for the benchmark's traced run, installed from outside the library.

The tracer replaces functions by timing wrappers in the modules that bind
them and puts the originals back afterwards; the library's code is never
edited. Every wrapped call is timed on one stack, so a call's self time is
its duration minus the time its wrapped children cover. Counts and times
are kept per (function, parent) pair; calls whose label is marked as a
span (verify sections, harness calls, the command line) are also kept one
by one as spans.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import time
from collections import Counter
from typing import Callable, Iterator

ROOT = "<bench>"


@dataclasses.dataclass
class _Frame:
    label: str
    start: float
    span: int | None = None
    covered: float = 0.0


@dataclasses.dataclass
class Span:
    label: str
    parent: int | None  # index of the enclosing span, None at top level
    start: float
    end: float
    self_s: float


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0  # inclusive time
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[tuple[str, str], Stat] = {}
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()  # counters fed by hooks
        self._stack = [_Frame(ROOT, clock())]
        self._patches: list[tuple[object, str, object]] = []

    # -- timing -----------------------------------------------------------

    def _push(self, label: str, span: bool) -> _Frame:
        frame = _Frame(label, 0.0)
        if span:
            frame.span = len(self.spans)
            parent = next((f.span for f in reversed(self._stack) if f.span is not None), None)
            self.spans.append(Span(label, parent, 0.0, 0.0, 0.0))
        self._stack.append(frame)
        frame.start = self.clock()
        return frame

    def _pop(self, frame: _Frame) -> None:
        end = self.clock()
        if self._stack[-1] is not frame:
            raise RuntimeError(f"trace stack out of order at {frame.label}")
        self._stack.pop()
        duration = end - frame.start
        self_s = duration - frame.covered
        parent = self._stack[-1]
        parent.covered += duration
        stat = self.stats.get((frame.label, parent.label))
        if stat is None:
            stat = self.stats[(frame.label, parent.label)] = Stat()
        stat.calls += 1
        stat.total_s += duration
        stat.self_s += self_s
        if frame.span is not None:
            record = self.spans[frame.span]
            record.start, record.end, record.self_s = frame.start, end, self_s

    @contextlib.contextmanager
    def span(self, label: str) -> Iterator[None]:
        frame = self._push(label, True)
        try:
            yield
        finally:
            self._pop(frame)

    # -- wrappers ---------------------------------------------------------

    def wrap(
        self,
        label: str,
        fn: Callable,
        span: bool = False,
        relabel: Callable[[tuple, dict], str] | None = None,
        on_return: Callable[[object], None] | None = None,
    ) -> Callable:
        """A timing wrapper; generator functions are timed per next()."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(label, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._push(label if relabel is None else relabel(args, kwargs), span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__bench_wrapper__ = True
        return wrapper

    def _wrap_generator(self, label: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = self._push(label, False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._pop(frame)
                    self.counts[label + ".items"] += 1
                    yield item
            finally:
                inner.close()

        wrapper.__bench_wrapper__ = True
        return wrapper

    def count_items(self, label: str, fn: Callable) -> Callable:
        """Wrap an iterator factory so that the items it yields are counted, untimed."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[label] += 1
                yield item

        wrapper.__bench_wrapper__ = True
        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules, original: object, replacement: object) -> None:
        """Rebind every module-level name that holds `original`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def by_label(self) -> dict[str, Stat]:
        """
        Per-label totals. Calls made from inside the same label (recursion)
        are left out of `calls` and `total_s`, which the outer call already
        covers; self time adds up over every call.
        """
        out: dict[str, Stat] = {}
        for (label, parent), stat in self.stats.items():
            total = out.setdefault(label, Stat())
            total.self_s += stat.self_s
            if parent != label:
                total.calls += stat.calls
                total.total_s += stat.total_s
        return out

