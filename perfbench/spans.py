"""In-memory spans for the traced run, and the arithmetic over them.

A span is one call into an isokit layer: its name (``layer.stage``), start
and end on ``time.perf_counter``, the index of the enclosing span (-1 for
none) and the job it belongs to.  Spans are kept in a list and summarised
when the run ends; self time is a span's duration minus the time its
direct children cover.

The untraced runs use ``Untraced``, whose ``call`` adds one Python call
per library call made by the job code and nothing inside the library.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Set


class Untraced:
    """Tracer interface with every hook a no-op."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass

    def begin_job(self, job_id: int) -> None:
        pass

    def end_job(self) -> None:
        pass


class Tracer(Untraced):
    """Records spans and counters in memory."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.distinct: Dict[str, Set] = {}
        self._stack: List[int] = []
        self.job = -1

    def call(self, name: Optional[str], fn: Callable, *args, **kwargs):
        """Run fn inside a span; name None takes the enclosing span's name."""
        parent = self._stack[-1] if self._stack else -1
        if name is None:
            name = self.spans[parent][0] if parent >= 0 else "untracked"
        idx = len(self.spans)
        span = [name, perf_counter(), 0.0, parent, self.job]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            # count the error once, in the innermost layer it passed through
            if not getattr(exc, "_perfbench_counted", False):
                self.counts[name.split(".")[0] + ".errors"] += 1
                exc._perfbench_counted = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(["job", perf_counter(), 0.0, -1, job_id])
        self._stack.append(idx)

    def end_job(self) -> None:
        idx = self._stack.pop()
        self.spans[idx][2] = perf_counter()
        self.job = -1


def self_times(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per span name.

    Children of one span never overlap (the run is single-threaded), so
    the part of a span its children cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - covered[i]
    return out


def install(tracer: Tracer, modules: Sequence, targets: Dict[str, tuple]) -> Callable[[], None]:
    """Wrap library functions in every module namespace that binds them.

    targets maps a function name to (span name, counter hook or None); a
    span name of None keeps the caller's span name.  The hook receives the
    tracer, the call's arguments and its result.  Only
    bindings that are the function defined in the library are replaced,
    so calls between layers are attributed to the layer that owns the
    function.  Returns a function that restores the originals.
    """
    originals = {}
    for mod in modules:
        for fname, (span, hook) in targets.items():
            fn = getattr(mod, fname, None)
            if fn is None or getattr(fn, "__module__", "").split(".")[0] != "isokit":
                continue
            wrapped = _wrap(tracer, span, hook, fn)
            originals[(mod, fname)] = fn
            setattr(mod, fname, wrapped)

    def restore() -> None:
        for (mod, fname), fn in originals.items():
            setattr(mod, fname, fn)

    return restore


def _wrap(tracer: Tracer, span: str, hook, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper
