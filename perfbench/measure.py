"""Measurement helpers for the sparseip benchmark: the tail-percentile rule,
span recording with self-time subtraction, name patching for the traced run,
and a draw-counting random source. Standard library only."""

from __future__ import annotations

import contextlib
import random
from collections import Counter
from time import perf_counter
from typing import Callable, Iterator, Sequence

# The tail is the highest percentile that still has this many calls above it.
TAIL_CALLS_ABOVE = 10


def tail_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_CALLS_ABOVE samples strictly above its rank.

    With N sorted samples the k-th smallest has N - k samples above it, so
    k = N - TAIL_CALLS_ABOVE and the percentile is 100 k / N.
    """
    n = len(samples)
    k = n - TAIL_CALLS_ABOVE
    if k < 1:
        raise ValueError(f"need more than {TAIL_CALLS_ABOVE} samples, got {n}")
    return 100.0 * k / n, sorted(samples)[k - 1]


class CountingRandom(random.Random):
    """random.Random that counts randrange calls. It overrides nothing that
    draws, so it yields exactly the draws of random.Random for the same seed."""

    draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


class Tracer:
    """Records one span per wrapped call, in memory, as [name, start, end,
    parent index]. A span whose parent is None is the root of one request;
    every span under it belongs to that request. counts holds tallies that
    wrappers add at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_spans.pop()

        return traced


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the durations of its direct children.
    Spans are sequential within one thread, so children never overlap and
    their summed durations are the part of the parent they cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


@contextlib.contextmanager
def patched(module, wrappers: dict[str, Callable[[Callable], Callable]]) -> Iterator[None]:
    """Replace each named module attribute by wrappers[name](original) and
    restore the originals on exit. A missing name is an error: a refactor
    that moves a call must fail loudly, not silently zero a layer."""
    missing = [name for name in wrappers if not hasattr(module, name)]
    if missing:
        raise AttributeError(f"{module.__name__} no longer has {', '.join(missing)}")
    originals: dict[str, Callable] = {}
    try:
        for name, make in wrappers.items():
            originals[name] = getattr(module, name)
            setattr(module, name, make(originals[name]))
        yield
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)

