"""In-memory spans for the benchmark's traced pass.

A span is (name, start, end, parent). Spans are recorded only from the
benchmark's own files: around calls into each layer, and by wrappers that
:func:`patched` installs over the substrate functions (LZ77, Huffman, bit
packing, bitshuffle) for the duration of one pass. A layer's self time is
its span durations minus the time its direct children cover.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: int | None = None  # index into Tracer.spans
    children_ns: int = 0  # time covered by direct children

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.children_ns


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        s = Span(name, time.perf_counter_ns(), parent=parent)
        self.spans.append(s)
        self._stack.append(idx)
        try:
            yield
        finally:
            s.end_ns = time.perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_ns += s.dur_ns

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_s(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + s.self_ns / 1e9
        return out

    def check_nesting(self) -> None:
        """Raise unless every span ends inside its parent and has self time >= 0."""
        for i, s in enumerate(self.spans):
            if s.end_ns < s.start_ns or s.self_ns < 0:
                raise AssertionError(f"span {i} {s.name!r} has negative duration")
            if s.parent is not None:
                p = self.spans[s.parent]
                if not (p.start_ns <= s.start_ns and s.end_ns <= p.end_ns):
                    raise AssertionError(f"span {i} {s.name!r} escapes parent {p.name!r}")


@dataclass(frozen=True)
class Target:
    """One substrate callable to wrap: ``owner.attr`` recorded as ``span``.

    ``owner`` is a module or a class. ``nbytes`` names the counter that
    receives ``len`` of the first argument of a module function, if any.
    """

    owner: object
    attr: str
    span: str
    nbytes: str | None = None


def _wrap(tracer: Tracer, fn: Callable, t: Target) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(t.span):
            out = fn(*args, **kwargs)
        if t.nbytes is not None:
            tracer.count(t.nbytes, len(args[0]))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def binding_sites(fn: Callable, prefix: str = "repro.") -> list[tuple[object, str]]:
    """Every ``(module, name)`` under ``prefix`` bound to ``fn``.

    Codec modules import substrate functions by name, so a wrapper must be
    installed in each importing module, not only in the defining one.
    """
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith(prefix):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                sites.append((mod, attr))
    return sites


@contextmanager
def patched(tracer: Tracer, targets: list[Target]) -> Iterator[list[tuple[object, str]]]:
    """Install span wrappers over ``targets`` and restore the originals on exit.

    Yields the list of patched ``(owner, attr)`` sites.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for t in targets:
            orig = vars(t.owner)[t.attr]
            wrapped = _wrap(tracer, orig, t)
            sites = [(t.owner, t.attr)]
            if not isinstance(t.owner, type):
                sites = binding_sites(orig)
            for owner, attr in sites:
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
        yield [(o, a) for o, a, _ in saved]
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
