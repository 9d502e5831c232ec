"""In-memory spans recorded around calls into the package's layers.

The benchmark never edits the package. It times a layer by replacing,
for the duration of a traced pass, the module attribute through which
the caller reaches it (for example ``mapf_collapse.pipeline.build_model``,
which ``optimize_schedule`` looks up at call time) with a wrapper that
records a span. Spans are kept in memory and written out once, when the
run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: str
    pass_no: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; safe to use from several worker threads at once.

    Each thread keeps its own stack of open spans (the parent of a new
    span is the innermost open one on that thread) and its own current
    instance id, so spans of concurrently optimized instances never mix.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_no = -1  # -1 marks corpus set-up
        self._t0 = time.perf_counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.instance = ""
        return local

    @contextmanager
    def instance(self, instance_id: str):
        """Attribute every span opened inside to one corpus instance."""
        local = self._state()
        previous = local.instance
        local.instance = instance_id
        try:
            yield
        finally:
            local.instance = previous

    def current_instance(self) -> str:
        return self._state().instance

    def call(self, name: str, fn, *args, note=None, **kwargs):
        """Run fn inside a span; note(result) may attach counts to it."""
        local = self._state()
        with self._lock:
            span_id = next(self._ids)
        parent = local.stack[-1] if local.stack else None
        local.stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            local.stack.pop()
            span = Span(
                span_id, name, start - self._t0, end - self._t0, parent, local.instance, self.pass_no
            )
            with self._lock:
                self.spans.append(span)
        if note is not None:
            span.attrs.update(note(result))
        return result

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, note=note, **kwargs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(asdict(span), sort_keys=True))
                fh.write("\n")


@contextmanager
def patched(replacements):
    """Temporarily set module attributes: replacements is [(module, name, value)]."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
    return {span.id: span.duration - covered.get(span.id, 0.0) for span in spans}
