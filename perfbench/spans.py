"""In-memory span recording for the traced benchmark run.

A traced run replaces module attributes at the seams through which feir's
layers call each other (for example ``feir.optim._inferiority_loss_grad``)
with wrappers that record a span per call. Nothing in ``src/`` changes: the
wrappers are installed for the traced iterations and removed afterwards.

A span holds its name, start and end (``time.perf_counter`` seconds), the
index of its parent span, the id of the run unit it belongs to, and optional
attributes such as a step count. A span's self time is its duration minus
the time covered by its direct children, so the self times of all spans under
one root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict | None = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass(frozen=True)
class Hook:
    """One seam to wrap: ``module.attr`` is timed as span ``span``.

    ``call(original, args, kwargs) -> (result, attrs)`` replaces the plain
    call when the wrapper must change how the original is invoked or read
    something off its result.
    """

    module: str
    attr: str
    span: str
    call: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = "-"
        self.untraced: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int, **attrs) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if attrs:
            span.attrs = attrs
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, original, hook: Hook):
        def traced(*args, **kwargs):
            idx = self.begin(hook.span)
            attrs = {}
            try:
                if hook.call is None:
                    result = original(*args, **kwargs)
                else:
                    result, attrs = hook.call(original, args, kwargs)
            finally:
                self.end(idx, **attrs)
            return result

        return traced

    def install(self, hooks) -> None:
        """Wrap every hook that resolves; a seam that no longer exists is
        listed in ``untraced`` instead of failing the run."""
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                name = f"{hook.module}.{hook.attr}"
                if name not in self.untraced:
                    self.untraced.append(name)
                continue
            setattr(module, hook.attr, self._wrap(original, hook))
            self._patches.append((module, hook.attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_jsonl_gz(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run_id": s.run_id, "self_s": s.self_s,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced iterations: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()
