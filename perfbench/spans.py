"""Spans around the package's public functions, recorded from outside.

The tracer replaces each listed function at every ``epscap`` module
attribute that binds it (``epscap.cli`` imports names directly, and the
package re-exports them), so calls made through any of those names open a
span. Spans stay in memory until the caller writes them out.

A span records its name, start, end, parent span, pass id and thread.
Counts taken from a call's arguments and return value travel on the span,
so per-pass counts are sums over that pass's spans. Counting happens after
the span's end time is taken, so it never inflates a layer's time.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    pass_id: int
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "pass": self.pass_id,
            "thread": self.thread,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of the intervals its children cover.

    Children are clipped to the parent's interval, and children running in
    parallel threads count once where they overlap.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record.

    ``targets`` is a list of (module name, function name, count hook). A
    hook takes the bound arguments and the return value and returns a dict
    of counts for the span. A target the package no longer defines is
    skipped, so its metrics read zero. ``root`` names the span that spans
    opened in other threads take as parent while it is open.
    """

    def __init__(self, targets, root: str = "epscap.cli.main"):
        self.targets = targets
        self.root = root
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_root: Span | None = None
        self._patches: list[tuple] = []
        self.wrapped: list[str] = []  # module attributes replaced at install

    # --- recording ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func, hook):
        signature = inspect.signature(func)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                # a worker thread opened by the CLI: its spans hang off the
                # CLI call that started it
                parent = tracer._open_root.id if tracer._open_root is not None else None
            span = Span(
                id=next(tracer._ids),
                name=name,
                parent=parent,
                pass_id=tracer.pass_id,
                thread=threading.get_ident(),
                start=time.perf_counter(),
            )
            is_root = name == tracer.root and not stack
            if is_root:
                tracer._open_root = span
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._open_root = None
                tracer.spans.append(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = hook(bound.arguments, result)
            return result

        traced.__wrapped__ = func
        return traced

    # --- installation ---

    def install(self) -> None:
        if self._patches:
            return
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "epscap" or n.startswith("epscap."))
        ]
        for module_name, func_name, hook in self.targets:
            owner = sys.modules.get(module_name)
            func = getattr(owner, func_name, None)
            if func is None:
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", func, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._patches.append((module, attr, func))
                        setattr(module, attr, wrapper)
        self.wrapped = sorted(f"{m.__name__}.{a}" for m, a, _ in self._patches)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patches):
            setattr(module, attr, func)
        self._patches.clear()
