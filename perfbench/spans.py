"""In-memory spans around the engine's public functions, patched from outside.

A function is traced by replacing the module attribute its callers look it
up through (``indexforge.pca.eigen_symmetric`` for calls inside ``pca``,
``indexforge.cli.compute_pca`` for the CLI's imported binding). A name that
a later version of the package no longer has is recorded as missing instead
of raising, so the traced run keeps working while the engine is refactored.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same request
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every patched function, for one request.

    Use as a context manager: patches are applied by ``patch`` and undone
    on exit, so the engine is untouched outside the traced call.
    """

    def __init__(self, request: int):
        self.request = request
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def patch(self, module_name: str, attr: str, attrs=None) -> None:
        """Trace calls that look ``attr`` up in ``module_name``.

        The span is named ``<defining module>.<function>`` without the
        package prefix; ``attrs(args, result)`` may add span attributes.
        """
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{module_name}.{attr}")
            return
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        setattr(module, attr, self._wrap(name, fn, attrs))
        self._patches.append((module, attr, fn))

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                try:
                    span.attrs = attrs(args, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    span.attrs = {"attrs_error": repr(exc)}
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def total(spans: list[Span], name: str) -> float:
    """Inclusive time of the spans with this name."""
    return sum(s.duration for s in spans if s.name == name)


def count(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the time its direct children cover."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s.name] = out.get(s.name, 0.0) + t
    return out

