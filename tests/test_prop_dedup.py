"""Property-based tests for the live wire's duplicate detector."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.live import wire
from repro.runtime.live.wire import DedupIndex


class SortingDedupIndex:
    """``DedupIndex`` as it was before the per-peer heap: the window is
    trimmed by sorting it.  Kept as the reference for every decision."""

    def __init__(self, window=4096):
        self.window = window
        self._floor = {}
        self._recent = {}
        self.duplicates = 0

    def seen(self, msg_id):
        peer, seq = msg_id
        floor = self._floor.get(peer, 0)
        if seq <= floor:
            self.duplicates += 1
            return True
        recent = self._recent.setdefault(peer, set())
        if seq in recent:
            self.duplicates += 1
            return True
        recent.add(seq)
        while floor + 1 in recent:
            floor += 1
            recent.discard(floor)
        self._floor[peer] = floor
        if len(recent) > self.window:
            for stale in sorted(recent)[: len(recent) - self.window]:
                recent.discard(stale)
                self._floor[peer] = max(self._floor[peer], stale)
        return False


#: Id streams with gaps, duplicates and reordering: small ranges make
#: replays and contiguous runs likely, small windows make overflow so.
streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=60),
    ),
    max_size=300,
)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=8), streams)
def test_every_decision_matches_the_sorting_reference(window, stream):
    index = DedupIndex(window=window)
    reference = SortingDedupIndex(window=window)
    for msg_id in stream:
        assert index.seen(msg_id) == reference.seen(msg_id), msg_id
        assert index.duplicates == reference.duplicates
    assert index._floor == reference._floor
    assert index._recent == reference._recent
    for peer, recent in index._recent.items():
        assert len(recent) <= window
        assert sorted(index._oldest[peer]) == sorted(recent)


def test_gap_ridden_stream_trims_without_sorting(monkeypatch):
    """A sender shares one id counter among its destinations, so every
    receiver sees gaps and its floor stalls at the first one."""
    pops = []
    heappop = wire.heappop

    def counting_heappop(heap):
        pops.append(len(heap))
        return heappop(heap)

    def no_sorting(*args, **kwargs):
        raise AssertionError("DedupIndex sorted its window")

    monkeypatch.setattr(wire, "heappop", counting_heappop)
    monkeypatch.setattr(wire, "sorted", no_sorting, raising=False)
    index = DedupIndex()
    frames = 0
    last = 0
    for seq in range(1, 66_667):
        if seq % 4 == 0:
            continue  # went to another destination
        frames += 1
        last = seq
        assert index.seen((1, seq)) is False
    assert frames == 50_000
    assert len(index._recent[1]) <= index.window
    # Every id leaves the heap at most once: the trim is one pop per
    # frame in steady state, never a pass over the window.
    assert len(pops) <= frames
    # The window slid: old ids collapsed into the floor, recent ones are
    # remembered one by one, and a late id from a recent gap is new.
    assert index._floor[1] > 3
    assert index.seen((1, 5)) is True
    assert index.seen((1, last)) is True
    assert index.seen((1, last - last % 4)) is False
