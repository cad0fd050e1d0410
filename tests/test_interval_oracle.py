"""The interval index against a brute-force scan of its live intervals.

:class:`IntervalTree` keeps its intervals as row arrays and answers a query
with one overlap test over every row.  The oracle here is the plain list of
live intervals — appended on every add, filtered on every remove — scanned
with :meth:`Interval.overlaps`.  After any interleaving of construction,
``add``, ``add_table``, ``add_rows``, ``remove_tables`` (several ids in one
pass, re-adding removed ids included) and a restore through
:meth:`IntervalTree.from_arrays`, every
query must return exactly the oracle's intervals, in insertion order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import Column, Table
from repro.index import Interval, IntervalTree, build_interval_index
from repro.index.interval_tree import table_bounds


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


def table_intervals(table):
    """One interval per column of ``table``, from the oracle
    ``Column.index_interval``, in column order."""
    return [Interval(*column.index_interval(), table.table_id, column.name) for column in table.columns]


def brute_force(intervals, low, high):
    """The live intervals overlapping ``[low, high]``, in insertion order."""
    low, high = min(low, high), max(low, high)
    return [iv for iv in intervals if iv.overlaps(low, high)]


def assert_answers_like_brute_force(tree, live, rng, count=40):
    assert len(tree) == len(live)
    for low, high in windows(rng, live, count):
        expected = brute_force(live, low, high)
        # The first read after a write sees the staged adds: ids first.
        assert tree.query_table_ids(low, high) == {iv.table_id for iv in expected}
        assert tree.query(low, high) == expected
    assert tree.intervals == live


def restored(tree):
    """``tree`` saved as parallel bound columns and restored from them."""
    live = tree.intervals
    bounds = np.array([iv[:2] for iv in live], dtype=np.float64).reshape(len(live), 2)
    return IntervalTree.from_arrays(
        bounds[:, 0],
        bounds[:, 1],
        [iv.table_id for iv in live],
        [iv.column_name for iv in live],
    )


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


# Column values: small and tied, or large enough that a sum overflows to ±inf.
_cell = st.one_of(
    st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.0, 1e308, -1e308]),
    st.floats(-50, 50, allow_nan=False),
)


@st.composite
def tables(draw):
    table_id = f"t{draw(st.integers(0, 9))}"
    num_rows = draw(st.integers(1, 4))
    num_columns = draw(st.integers(1, 3))
    columns = [
        Column(f"c{index}", draw(st.lists(_cell, min_size=num_rows, max_size=num_rows)))
        for index in range(num_columns)
    ]
    return Table(table_id, columns)


_writes = st.lists(
    st.one_of(
        st.tuples(st.just("add"), interval_lists(max_size=3)),
        st.tuples(st.just("add_table"), tables()),
        st.tuples(st.just("add_rows"), tables()),
        st.tuples(
            st.just("remove_tables"), st.lists(st.integers(0, 9).map("t{}".format), max_size=3)
        ),
        st.tuples(st.just("from_arrays"), st.none()),
    ),
    max_size=25,
)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=150, deadline=None)
@given(interval_lists(), _writes, st.integers(0, 2**16))
def test_every_write_sequence_answers_like_brute_force(initial, writes, seed):
    rng = np.random.default_rng(seed)
    tree = IntervalTree(initial)
    live = list(initial)
    assert_answers_like_brute_force(tree, live, rng)
    for op, arg in writes:
        if op == "add":
            for interval in arg:
                tree.add(interval)
            live.extend(arg)
        elif op == "add_table":
            tree.add_table(arg)
            live.extend(table_intervals(arg))
        elif op == "add_rows":
            tree.add_rows(*table_bounds([arg]))
            live.extend(table_intervals(arg))
        elif op == "remove_tables":
            expected_removed = sum(iv.table_id in arg for iv in live)
            assert tree.remove_tables(arg) == expected_removed
            live = [iv for iv in live if iv.table_id not in arg]
        else:
            tree = restored(tree)
        if rng.random() < 0.5:  # otherwise the next write lands on staged adds
            assert_answers_like_brute_force(tree, live, rng, count=8)
    tree.build()
    assert_answers_like_brute_force(tree, live, rng)


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


# Signed-zero ties (a column of zeros whose sum is +0.0 beside a -0.0
# minimum) and sums overflowing to +-inf or cancelling to NaN.
_tied_cell = st.sampled_from([-0.0, 0.0, -0.0, 1.0, -2.0, 1e308, -1e308, 1.7e308])


@st.composite
def bound_tables(draw):
    """A repository of tables with mixed row counts, several per length."""
    out = []
    for index in range(draw(st.integers(1, 6))):
        num_rows = draw(st.integers(1, 16))
        columns = [
            Column(f"c{c}", draw(st.lists(st.one_of(_tied_cell, _cell), min_size=num_rows, max_size=num_rows)))
            for c in range(draw(st.integers(1, 3)))
        ]
        out.append(Table(f"t{index}", columns))
    return out


# Eight rows or more sum pairwise: +inf and -inf partial sums meet as NaN.
_NAN_SUM = Table("nan", [Column("c", ([1.7e308, -1.7e308] + [0.0] * 6) * 2)])
_ZERO_TIES = Table("zeros", [Column("a", [0.0, -0.0, 0.0]), Column("b", [-0.0, 0.0, -0.0])])


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@settings(max_examples=200, deadline=None)
@given(bound_tables())
@example([_NAN_SUM, _ZERO_TIES])
def test_one_pass_bounds_are_the_columns_own_to_the_bit(tables):
    """``table_bounds`` (one row pass per column length) against
    ``Column.index_interval`` column by column: equal bits, so the sign of
    a zero and an infinite sum included; ``build_interval_index`` and
    ``add_table`` hold those intervals, in order."""
    oracle = [iv for table in tables for iv in table_intervals(table)]
    lows, highs, table_ids, names = table_bounds(tables)
    assert _bits(lows) == _bits([iv.low for iv in oracle])
    assert _bits(highs) == _bits([iv.high for iv in oracle])
    assert table_ids == [iv.table_id for iv in oracle]
    assert names == [iv.column_name for iv in oracle]
    built, added = build_interval_index(tables), IntervalTree()
    for table in tables:
        added.add_table(table)
    for tree in (built, added):
        assert tree.intervals == oracle
        assert _bits([iv.low for iv in tree.intervals]) == _bits(lows)
        assert _bits([iv.high for iv in tree.intervals]) == _bits(highs)


@settings(max_examples=60, deadline=None)
@given(interval_lists())
def test_from_arrays_round_trips_the_intervals(intervals):
    tree = restored(IntervalTree(intervals))
    assert tree.intervals == intervals
    assert all(type(iv) is Interval for iv in tree.intervals)
    assert [math.copysign(1.0, iv.low) for iv in tree.intervals] == [
        math.copysign(1.0, iv.low) for iv in intervals
    ]
    assert restored(tree).intervals == intervals


def test_interval_is_an_immutable_value():
    interval = Interval(0.0, 1.0, "t", "c")
    assert interval == Interval(low=0.0, high=1.0, table_id="t", column_name="c")
    assert len({interval, Interval(0.0, 1.0, "t", "c")}) == 1
    with pytest.raises(AttributeError):
        interval.low = 2.0
    with pytest.raises(ValueError, match="must be >= low"):
        Interval(1.0, 0.0, "t", "c")
