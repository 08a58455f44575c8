"""Unit tests for the benchmark's own helpers (perfbench/measure.py).

    python3 -m pytest -q perfbench
"""

import random
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402


def test_tail_percentile_keeps_ten_samples_above():
    samples = [float(x) for x in range(1, 32)]  # 31 samples, shuffled below
    random.Random(3).shuffle(samples)
    pct, value = measure.tail_percentile(samples)
    assert value == 21.0
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 21 / 31)


def test_tail_percentile_smallest_sample_counts():
    pct, value = measure.tail_percentile([5.0, 1.0] + [9.0] * 9)
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        measure.tail_percentile([1.0] * 10)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 4.0, 0],
        ["grandchild", 2.0, 3.0, 1],
        ["child", 5.0, 9.0, 0],
        ["root", 20.0, 21.0, None],
    ]
    assert measure.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_tracer_nests_spans_and_closes_them_on_error():
    tracer = measure.Tracer()

    def boom():
        raise RuntimeError

    inner = tracer.wrap("inner", lambda: None)
    failing = tracer.wrap("boom", boom)

    def body():
        inner()
        with pytest.raises(RuntimeError):
            failing()
        inner()

    tracer.wrap("outer", body)()
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["outer", "inner", "boom", "inner"]
    assert parents == [None, 0, 0, 0]
    assert all(span[1] <= span[2] for span in tracer.spans)
    assert min(measure.self_times(tracer.spans)) >= 0


def test_counting_random_draws_match_random():
    plain, counting = random.Random("seed:7"), measure.CountingRandom("seed:7")
    for k in range(200):
        assert counting.randrange(1, 2**37 + k) == plain.randrange(1, 2**37 + k)
        assert counting.random() == plain.random()
    assert counting.sample(range(1000), 20) == plain.sample(range(1000), 20)
    assert counting.draws == 200


def test_patched_restores_and_rejects_missing_names():
    module = types.ModuleType("fake")
    module.f = lambda: 1
    original = module.f
    with measure.patched(module, {"f": lambda fn: (lambda: fn() + 1)}):
        assert module.f() == 2
    assert module.f is original
    with pytest.raises(AttributeError):
        with measure.patched(module, {"f": lambda fn: fn, "gone": lambda fn: fn}):
            pass
    assert module.f is original
