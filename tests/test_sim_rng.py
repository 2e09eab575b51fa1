"""Unit tests for the named random-stream factory."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.rng import _BLOCK, RandomStreams, Stream


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).stream("x")
        b = RandomStreams(7).stream("x")
        assert [a.exponential(1) for _ in range(5)] == [
            b.exponential(1) for _ in range(5)
        ]

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        xs = [streams.stream("x").exponential(1) for _ in range(5)]
        ys = [streams.stream("y").exponential(1) for _ in range(5)]
        assert xs != ys

    def test_stream_is_cached(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(3)
        s1.stream("a")
        x1 = s1.stream("b").exponential(1)

        s2 = RandomStreams(3)
        x2 = s2.stream("b").exponential(1)  # no "a" created first
        assert x1 == x2

    def test_bulk_streams(self):
        streams = RandomStreams(0).streams(["a", "b"])
        assert set(streams) == {"a", "b"}
        assert all(isinstance(s, Stream) for s in streams.values())


class TestStreamDraws:
    def test_exponential_mean(self):
        stream = RandomStreams(42).stream("exp")
        draws = [stream.exponential(3.0) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(3.0, rel=0.05)

    def test_exponential_zero_mean_is_zero(self):
        stream = RandomStreams(0).stream("z")
        assert stream.exponential(0) == 0.0

    def test_exponential_negative_mean_rejected(self):
        stream = RandomStreams(0).stream("n")
        with pytest.raises(ValueError):
            stream.exponential(-1)

    def test_uniform_bounds(self):
        stream = RandomStreams(1).stream("u")
        draws = [stream.uniform(2, 5) for _ in range(1000)]
        assert all(2 <= d < 5 for d in draws)

    def test_integer_bounds(self):
        stream = RandomStreams(1).stream("i")
        draws = [stream.integer(0, 3) for _ in range(300)]
        assert set(draws) == {0, 1, 2}

    def test_choice_uniformity(self):
        stream = RandomStreams(9).stream("c")
        counts = {"a": 0, "b": 0, "c": 0}
        for _ in range(3000):
            counts[stream.choice(["a", "b", "c"])] += 1
        for v in counts.values():
            assert v == pytest.approx(1000, rel=0.15)

    def test_choice_empty_rejected(self):
        stream = RandomStreams(0).stream("e")
        with pytest.raises(ValueError):
            stream.choice([])

    def test_geometric_at_least_one_floor(self):
        stream = RandomStreams(5).stream("g")
        draws = [stream.geometric_at_least_one(0.01) for _ in range(100)]
        assert all(d >= 1 for d in draws)

    def test_geometric_at_least_one_mean_preserved(self):
        stream = RandomStreams(5).stream("g2")
        draws = [stream.geometric_at_least_one(8.0) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(8.0, rel=0.05)

    def test_shuffle_permutes_in_place(self):
        stream = RandomStreams(11).stream("s")
        items = list(range(20))
        original = list(items)
        stream.shuffle(items)
        assert sorted(items) == original
        assert items != original  # vanishingly unlikely to be identity


#: One draw on a Stream and the same draw made directly on numpy.
DRAWS = {
    "exponential": (
        lambda s, mean: s.exponential(mean),
        lambda g, mean: _numpy_exponential(g, mean),
    ),
    "geometric_at_least_one": (
        lambda s, mean: s.geometric_at_least_one(mean),
        lambda g, mean: max(1, int(round(_numpy_exponential(g, mean)))),
    ),
    "uniform": (
        lambda s, high: s.uniform(0.0, high),
        lambda g, high: float(g.uniform(0.0, high)),
    ),
    "integer": (
        lambda s, high: s.integer(0, high),
        lambda g, high: int(g.integers(0, high)),
    ),
    "choice": (
        lambda s, size: s.choice(range(size)),
        lambda g, size: range(size)[int(g.integers(0, size))],
    ),
    "shuffle": (
        lambda s, size: _shuffled(s.shuffle, size),
        lambda g, size: _shuffled(g.shuffle, size),
    ),
    "poisson_count": (
        lambda s, mean: s.poisson_count(mean),
        lambda g, mean: int(g.poisson(mean)),
    ),
}

EXPONENTIAL = st.tuples(
    st.sampled_from(["exponential", "geometric_at_least_one"]),
    st.sampled_from([0, 0.5, 1, 30]),
)
OTHER = st.tuples(
    st.sampled_from(["uniform", "integer", "choice", "shuffle", "poisson_count"]),
    st.integers(min_value=1, max_value=9),
)


def _numpy_exponential(generator, mean):
    # A zero mean is 0.0 by definition and consumes nothing.
    return 0.0 if mean == 0 else float(generator.exponential(mean))


def _shuffled(shuffle, size):
    items = list(range(size))
    shuffle(items)
    return items


class TestPrefetchExactness:
    """Block-prefetched exponentials are the scalar numpy draws, exactly."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        lead=st.integers(min_value=0, max_value=2 * _BLOCK + 90),
        ops=st.lists(st.one_of(EXPONENTIAL, OTHER), max_size=30),
    )
    # An exponential-only run past two refills; a foreign draw landing
    # mid-block, on a block boundary, and before any exponential.
    @example(seed=7, lead=2 * _BLOCK + 90, ops=[])
    @example(seed=7, lead=_BLOCK + 100, ops=[("choice", 3), ("exponential", 1)])
    @example(seed=7, lead=_BLOCK, ops=[("uniform", 1), ("exponential", 30)])
    @example(seed=7, lead=0, ops=[("integer", 5), ("exponential", 0.5)])
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving_equals_direct_numpy_draws(self, seed, lead, ops):
        stream = RandomStreams(seed).stream("prop")
        reference = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(b"prop")])
        )
        means = (1, 30, 0.5, 0)
        sequence = [("exponential", means[i % 4]) for i in range(lead)] + ops
        for position, (kind, argument) in enumerate(sequence):
            on_stream, on_numpy = DRAWS[kind]
            assert on_stream(stream, argument) == on_numpy(
                reference, argument
            ), (position, kind, argument)
        # The generators end in the same place: later draws agree too.
        assert stream.uniform() == float(reference.uniform(0.0, 1.0))
