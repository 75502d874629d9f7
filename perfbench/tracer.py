"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded from outside the package: ``install`` replaces a public
function with a timing wrapper under the attribute name its caller looks
up (``advreject.bench.train`` is what ``run_protocol`` calls), and
``uninstall`` puts the original back. Nothing under ``src/`` changes.

A span records its name, start, end, parent span and the benchmark pass it
belongs to (the request identifier), plus optional attributes such as the
number of rows. Self time is a span's duration minus the time its direct
children cover; children never overlap because there is one caller and no
threads.
"""

from __future__ import annotations

import time
from collections import Counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "attrs", "child_s")

    def __init__(self, name: str, parent: int, pass_id: int):
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.parent = parent
        self.pass_id = pass_id
        self.attrs: dict = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "pass": self.pass_id, "self_s": self.self_s, **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()  # layer -> exceptions raised in its spans
        self._last_error: BaseException | None = None
        self.pass_id = -1  # -1 while no benchmark pass is open (set-up)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, fn, name: str, describe=None):
        """``fn`` timed as span ``name``; ``describe(args, kwargs, result)``
        returns attributes stored on the span."""
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_error:  # count it once, where it was raised
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                self.close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` (a module function or a classmethod) with
        a traced wrapper."""
        raw = vars(owner)[attr]
        traced = self.wrap(getattr(owner, attr), name, describe)
        setattr(owner, attr, staticmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
