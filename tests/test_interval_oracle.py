"""The array-built interval tree against the object-built one it replaced.

``IntervalTree._build`` builds a level of nodes per set of array passes.  The
builder below is the recursive one it replaced, kept verbatim as the oracle:
one Python sort and three list filters per node.  The two must produce the
same tree — the same centre, the same two interval lists in the same order at
every node — so every ``query`` returns the same list in the same order, and
the restore path (:meth:`IntervalTree.from_arrays`) must agree with both.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import Interval, IntervalTree


class _OracleNode:
    __slots__ = ("center", "by_low", "by_high", "left", "right")

    def __init__(self, center, intervals):
        self.center = center
        self.by_low = sorted(intervals, key=lambda iv: iv.low)
        self.by_high = sorted(intervals, key=lambda iv: iv.high, reverse=True)
        self.left = None
        self.right = None


def oracle_build(intervals):
    """The object builder the array ``_build`` replaced."""
    if not intervals:
        return None
    endpoints = sorted({iv.low for iv in intervals} | {iv.high for iv in intervals})
    center = endpoints[len(endpoints) // 2]
    here = [iv for iv in intervals if iv.low <= center <= iv.high]
    left = [iv for iv in intervals if iv.high < center]
    right = [iv for iv in intervals if iv.low > center]
    node = _OracleNode(center, here)
    node.left = oracle_build(left)
    node.right = oracle_build(right)
    return node


class OracleTree(IntervalTree):
    """An :class:`IntervalTree` whose every build — the first one and each
    compaction — is :func:`oracle_build` (adds, removes, queries unchanged)."""

    @staticmethod
    def _build(items, lows, highs):
        return oracle_build(list(items))


def assert_same_nodes(node, expected):
    if expected is None:
        assert node is None
        return
    assert node.center == expected.center
    assert node.by_low == expected.by_low
    assert node.by_high == expected.by_high
    assert_same_nodes(node.left, expected.left)
    assert_same_nodes(node.right, expected.right)


def windows(rng, intervals, count=40):
    """Stabbing windows over and around the intervals' span, plus points."""
    ends = [v for iv in intervals for v in (iv.low, iv.high)]
    finite = [v for v in ends if math.isfinite(v) and abs(v) < 1e6] or [0.0]
    lo, hi = min(finite) - 5.0, max(finite) + 5.0
    out = [(lo, hi), (hi + 1.0, hi + 2.0), (lo - 2.0, lo - 1.0), (-math.inf, math.inf)]
    for _ in range(count):
        a, b = rng.uniform(lo, hi, size=2)
        out.append((float(a), float(b)))  # unordered on purpose: query swaps
    out.extend((v, v) for v in ends[:10])
    return out


# Few distinct values, so ties (equal lows, equal highs, shared endpoints,
# zero-width intervals, -0.0 beside 0.0) are common.
_value = st.sampled_from([-3.0, -1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 7.0, 1e9, -math.inf, math.inf])


@st.composite
def interval_lists(draw, max_size=60):
    rows = draw(
        st.lists(
            st.tuples(
                st.one_of(_value, st.floats(-50, 50, allow_nan=False)),
                st.one_of(_value, st.floats(0, 30, allow_nan=False)),
                st.integers(0, 9),
            ),
            max_size=max_size,
        )
    )
    out = []
    for index, (low, width, table) in enumerate(rows):
        high = low + abs(width) if math.isfinite(low) else low
        if math.isnan(high):
            high = low
        out.append(Interval(low, max(low, high), f"t{table}", f"c{index}"))
    return out


@settings(max_examples=150, deadline=None)
@given(interval_lists(), st.integers(0, 2**16))
def test_array_build_is_the_object_build(intervals, seed):
    tree = IntervalTree(intervals)
    assert_same_nodes(tree._root, oracle_build(list(intervals)))
    oracle = OracleTree(intervals)
    for low, high in windows(np.random.default_rng(seed), intervals):
        assert tree.query(low, high) == oracle.query(low, high)


@settings(max_examples=60, deadline=None)
@given(interval_lists())
def test_restore_from_arrays_is_the_same_tree(intervals):
    bounds = np.array([(iv.low, iv.high) for iv in intervals], dtype=np.float64)
    bounds = bounds.reshape(len(intervals), 2)
    restored = IntervalTree.from_arrays(
        bounds[:, 0],
        bounds[:, 1],
        [iv.table_id for iv in intervals],
        [iv.column_name for iv in intervals],
    )
    assert restored.intervals == intervals
    assert all(type(iv) is Interval for iv in restored.intervals)
    assert_same_nodes(restored._root, oracle_build(list(intervals)))


def test_deep_tree_of_disjoint_intervals():
    """Disjoint intervals make a tree about as deep as log2(n) levels."""
    intervals = [Interval(float(i), i + 0.5, f"t{i}", "c") for i in range(2000)]
    tree = IntervalTree(intervals)
    assert_same_nodes(tree._root, oracle_build(intervals))
    assert [iv.table_id for iv in tree.query(10.2, 12.1)] == ["t11", "t10", "t12"]


def test_compaction_and_incremental_state_match_the_oracle():
    """Adds, removes and re-adds (tombstones, pending buffer, automatic
    compaction) answer like an oracle tree over the live intervals."""
    rng = np.random.default_rng(3)
    tree = IntervalTree()
    live = []
    for step in range(400):
        if rng.random() < 0.6 or not live:
            low = float(rng.integers(-20, 20))
            table = f"t{int(rng.integers(0, 40))}"
            interval = Interval(low, low + float(rng.integers(0, 6)), table, f"c{step}")
            tree.add(interval)
            live.append(interval)
        else:
            victim = live[int(rng.integers(len(live)))].table_id
            tree.remove_table(victim)
            live = [iv for iv in live if iv.table_id != victim]
        if step % 25 == 0:
            for low, high in windows(rng, live, count=10):
                assert sorted(tree.query(low, high)) == sorted(
                    iv for iv in live if iv.overlaps(min(low, high), max(low, high))
                )
    tree.build()
    oracle = OracleTree(live)
    for low, high in windows(rng, live):
        assert tree.query(low, high) == oracle.query(low, high)


def test_interval_is_an_immutable_value():
    interval = Interval(0.0, 1.0, "t", "c")
    assert interval == Interval(low=0.0, high=1.0, table_id="t", column_name="c")
    assert len({interval, Interval(0.0, 1.0, "t", "c")}) == 1
    with pytest.raises(AttributeError):
        interval.low = 2.0
    with pytest.raises(ValueError, match="must be >= low"):
        Interval(1.0, 0.0, "t", "c")
