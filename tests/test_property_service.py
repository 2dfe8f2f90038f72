"""Property-based tests for the service result cache.

A model-based hypothesis test drives :class:`ResultCache` through
arbitrary interleavings of put / get / clear (eviction happens
implicitly whenever a put overflows capacity) against a reference LRU
model, checking after *every* operation that

* ``hits + misses == lookups`` (the stats never lose an event),
* the cache never exceeds its capacity,
* every get returns exactly what the reference model predicts,
* the eviction counter matches the model's evictions,
* the observer stream agrees with the counters.

The counters are the route's metric families, fed by the cache's
observer and read through the ``/stats`` view.  A threaded smoke test
then checks the same stats invariants survive genuinely concurrent
interleavings.
"""

import threading
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import MISSING, ResultCache, ServiceMetrics


def observed_cache(capacity, events=None):
    """A cache reporting into a fresh route's metric families."""
    route = ServiceMetrics().for_route("r")

    def observer(event):
        route.cache_event(event)
        if events is not None:
            events.append(event)

    return ResultCache(capacity, observer=observer), route

KEYS = st.sampled_from(["a", "b", "c", "d", "e", "f"])
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, st.integers(0, 9) | st.none()),
        st.tuples(st.just("get"), KEYS),
        st.tuples(st.just("clear")),
    ),
    max_size=80,
)


class LruModel:
    """Reference implementation mirroring ResultCache's contract."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, key, value):
        if self.capacity == 0:
            return
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
            self.evictions += 1

    def get(self, key):
        if key not in self.entries:
            self.misses += 1
            return MISSING
        self.entries.move_to_end(key)
        self.hits += 1
        return self.entries[key]

    def clear(self):
        self.entries.clear()


@settings(deadline=None, max_examples=150)
@given(capacity=st.integers(0, 4), ops=OPS)
def test_cache_matches_lru_model_under_any_interleaving(capacity, ops):
    events = []
    cache, route = observed_cache(capacity, events)
    model = LruModel(capacity)
    for op in ops:
        if op[0] == "put":
            _, key, value = op
            cache.put(key, value)
            model.put(key, value)
        elif op[0] == "get":
            _, key = op
            outcome = cache.get(key)
            expected = model.get(key)
            # A cached None is distinct from MISSING — the model and
            # the cache must agree on which one this lookup is.
            assert outcome is MISSING if expected is MISSING else (
                outcome == expected
            )
        else:
            cache.clear()
            model.clear()
        stats = route.stats()["cache"]
        # Invariants hold after EVERY operation, whatever the order.
        assert stats["hits"] + stats["misses"] == (
            model.hits + model.misses
        ), "stats lost a lookup"
        assert stats["hits"] == model.hits
        assert stats["misses"] == model.misses
        assert stats["evictions"] == model.evictions
        assert len(cache) == len(model.entries)
        assert len(cache) <= capacity
        lookups = stats["hits"] + stats["misses"]
        if lookups:
            assert stats["hit_rate"] == stats["hits"] / lookups
        else:
            assert stats["hit_rate"] is None
    # The observer saw exactly the events the counters counted.
    assert events.count("hit") == model.hits
    assert events.count("miss") == model.misses
    assert events.count("eviction") == model.evictions


@settings(deadline=None, max_examples=25)
@given(capacity=st.integers(1, 3))
def test_cache_lru_order_matches_model(capacity):
    """Get refreshes recency: the model's eviction victim is the cache's."""
    cache = ResultCache(capacity)
    model = LruModel(capacity)
    keys = ["a", "b", "c", "d"]
    for key in keys:
        cache.put(key, key.upper())
        model.put(key, key.upper())
    cache.get(keys[0])
    model.get(keys[0])
    cache.put("z", "Z")
    model.put("z", "Z")
    for key in keys + ["z"]:
        expected = model.get(key)
        outcome = cache.get(key)
        assert outcome is MISSING if expected is MISSING else (
            outcome == expected
        )


def test_cache_stats_invariants_under_real_concurrency():
    """Threads hammering put/get: counters never lose or double-count."""
    cache, route = observed_cache(capacity=8)
    per_thread_gets = 400
    num_threads = 8
    errors = []

    def worker(seed):
        try:
            for step in range(per_thread_gets):
                key = (seed * 7 + step) % 16
                if step % 3 == 0:
                    cache.put(key, (seed, step))
                cache.get(key)
        except Exception as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [
        threading.Thread(target=worker, args=(seed,))
        for seed in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    stats = route.stats()["cache"]
    assert stats["hits"] + stats["misses"] == num_threads * per_thread_gets
    assert len(cache) <= 8
    # Everything ever inserted either still fits or was counted out.
    assert stats["evictions"] >= len(cache)
