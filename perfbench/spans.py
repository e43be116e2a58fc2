"""In-memory spans and counters for the benchmark's traced passes.

A span records (name, start, end, parent, job).  The benchmark opens spans
around every public call it makes, and `probes` add spans and counters inside
the package by temporarily replacing module attributes the package calls
through.  Nothing under src/ is edited.  A span's self time is its duration
minus the time its child spans cover.

The same Tracer also times the untraced passes: with record=False a span only
measures its duration, so both kinds of pass are timed by the same code.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters while record is True."""

    def __init__(self, record: bool, origin: float):
        self.record = record
        self.origin = origin
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.job: str | None = None

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter())
        if not self.record:
            try:
                yield sp
            finally:
                sp.end = time.perf_counter()
            return
        sp.parent = self._stack[-1] if self._stack else None
        sp.job = self.job
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = time.perf_counter()

    def add(self, name: str, amount: float = 1) -> None:
        if self.record:
            self.counts[name] += amount

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        out: dict[str, float] = defaultdict(float)
        for sp, covered in zip(self.spans, child):
            out[sp.name] += sp.duration - covered
        return dict(out)

    def dump(self) -> list[dict]:
        return [
            {
                "name": sp.name,
                "start": sp.start - self.origin,
                "end": sp.end - self.origin,
                "parent": sp.parent,
                "job": sp.job,
            }
            for sp in self.spans
        ]


class Probes:
    """Temporary wrappers around module attributes the package calls through.

    Each probe is (target, wrapper factory), the target written as
    "package.module.attribute".  A target that does not exist is kept in
    `absent`, so a refactor that removes one only makes the metrics that need
    it missing.
    """

    def __init__(self, probes):
        self.probes = []
        self.absent: set[str] = set()
        for target, factory in probes:
            modname, attr = target.rsplit(".", 1)
            try:
                mod = importlib.import_module(modname)
            except ModuleNotFoundError:
                mod = None
            if mod is None or not hasattr(mod, attr):
                self.absent.add(target)
            else:
                self.probes.append((mod, attr, factory))

    @contextmanager
    def installed(self, tracer: Tracer):
        saved = []
        try:
            for mod, attr, factory in self.probes:
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, factory(tracer, orig))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)


def spanned(name: str, only_under: str | None = None, after=None):
    """Probe factory: a span around the call, then an optional counter hook.

    only_under limits the span to calls made while that span is innermost;
    other calls pass straight through.
    """

    def factory(tracer: Tracer, orig):
        def wrapped(*args, **kwargs):
            if only_under is not None and tracer.current != only_under:
                return orig(*args, **kwargs)
            with tracer.span(name):
                result = orig(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapped

    return factory


def counted(hook):
    """Probe factory: call through, then let hook(tracer, args, kwargs, result) count."""

    def factory(tracer: Tracer, orig):
        def wrapped(*args, **kwargs):
            result = orig(*args, **kwargs)
            hook(tracer, args, kwargs, result)
            return result

        return wrapped

    return factory
