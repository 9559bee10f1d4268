"""Spans, import-profile parsing and order statistics for the benchmark.

Stdlib only: ``run.py`` imports nothing from numpy or hyperfit.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the enclosing span, None for an op's root
    op: int                # operation the span belongs to


class Tracer:
    """In-memory span recorder fed by wrappers around hyperfit's functions.

    Wrappers are installed only inside :meth:`patched`, so untraced calls in
    the same process run the program's own functions untouched.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._targets: list[tuple[object, str, str]] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its index."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def target(self, owner: object, attr: str, name: str) -> None:
        """Register ``owner.attr`` to be wrapped in a span called ``name``."""
        self._targets.append((owner, attr, name))

    def _wrap(self, original, name):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._targets]
        for (owner, attr, original), (_, _, name) in zip(originals, self._targets):
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def duration(self, idx: int) -> float:
        return self.spans[idx].end - self.spans[idx].start

    def durations(self, name: str) -> list[float]:
        return [self.duration(i) for i, s in enumerate(self.spans) if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another (single thread), so
        their durations add up without overlap.
        """
        covered = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                covered[s.parent] += self.duration(i)
        return [self.duration(i) - covered[i] for i in range(len(self.spans))]

    def records(self) -> list[dict]:
        return [dict(vars(s), self=own) for s, own in zip(self.spans, self.self_times())]


def tail(values: list[float]) -> tuple[float, float]:
    """Tail latency: p99, or the highest percentile below it that still has
    at least ten samples above it.

    Returns (value, percentile).  Beyond p99 a run of thousands of
    millisecond ops reads scheduler hiccups rather than the program.  With
    ten samples or fewer no such percentile exists and the maximum is
    returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = min(n - 11, math.ceil(0.99 * n) - 1)   # index of the order statistic
    return ordered[k], 100.0 * (k + 1) / n


def parse_importtime(text: str) -> dict[str, float]:
    """Read ``python -X importtime`` output into the ``import.*`` metrics.

    Each line is ``import time: self_us | cumulative_us | <indent>name`` and
    children are listed before their parent.  A package's time is the
    cumulative time of its entries imported directly by hyperfit (or at top
    level).  That counts only what was first imported under it: scipy.stats
    excludes the parts of scipy that scipy.optimize loaded.  Summing entries
    also covers a package whose own line is missing because it was loaded
    through a lazy attribute, as ``from scipy import stats`` is.  A package
    that hyperfit does not import reads 0.
    """
    entries = []   # (self_us, cumulative_us, depth, name), parents after children
    for line in text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        entries.append((int(self_us), int(cum_us), (len(raw) - len(raw.lstrip()) - 1) // 2, name))

    def direct_us(package: str) -> int:
        total = 0
        stack: list[tuple[int, str]] = []   # (depth, name) of the ancestors
        for _, cum_us, depth, name in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else "hyperfit"
            if (name == package or name.startswith(package + ".")) and _is_hyperfit(parent):
                total += cum_us
            stack.append((depth, name))
        return total

    return {
        "import.total_s": sum(cum for _, cum, depth, _ in entries if depth == 0) / 1e6,
        "import.numpy_s": direct_us("numpy") / 1e6,
        "import.scipy_optimize_s": direct_us("scipy.optimize") / 1e6,
        "import.scipy_stats_s": direct_us("scipy.stats") / 1e6,
        "import.hyperfit_self_s": sum(own for own, _, _, name in entries
                                      if _is_hyperfit(name)) / 1e6,
    }


def _is_hyperfit(module: str) -> bool:
    return module.split(".")[0] == "hyperfit"
