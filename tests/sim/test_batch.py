"""Tests for the struct-of-arrays batch store."""

from __future__ import annotations

import pytest

from repro.sim.batch import BatchStore, resolve_engine


class TestResolveEngine:
    def test_always_batched(self):
        assert resolve_engine() == "batched"


class TestColumns:
    def test_add_row_defaults_and_order(self):
        store = BatchStore("clock", "phase", "state")
        assert store.column_names == ("clock", "phase", "state")
        row = store.add_row(clock=7, state=-1)
        assert row == 0
        assert store.size == 1
        assert store.row(0) == {"clock": 7, "phase": 0, "state": -1}

    def test_rows_get_consecutive_indices(self):
        store = BatchStore("x")
        assert [store.add_row(x=i) for i in range(5)] == [0, 1, 2, 3, 4]
        assert store.size == 5

    def test_column_is_live(self):
        store = BatchStore("x")
        store.add_row(x=1)
        column = store.column("x")
        column[0] = 42
        assert store.row(0) == {"x": 42}

    def test_view_is_readonly_buffer(self):
        store = BatchStore("x")
        store.add_row(x=9)
        view = store.view("x")
        assert view[0] == 9
        with pytest.raises(TypeError):
            view[0] = 1

    def test_unknown_column_rejected(self):
        store = BatchStore("x")
        with pytest.raises(KeyError):
            store.add_row(y=1)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            BatchStore("x", "x")

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            BatchStore()

    def test_row_bounds_checked(self):
        store = BatchStore("x")
        with pytest.raises(IndexError):
            store.row(0)

    def test_columns_hold_64_bit_values(self):
        store = BatchStore("x")
        store.add_row(x=(1 << 62) + 3)
        assert store.row(0) == {"x": (1 << 62) + 3}


class TestDueIndex:
    def test_first_push_opens_bucket(self):
        store = BatchStore("x")
        assert store.push_due(100, 0) is True
        assert store.push_due(100, 1) is False
        assert store.due_count(100) == 2
        assert store.pending_ticks == 1

    def test_advance_returns_fifo_order(self):
        store = BatchStore("x")
        store.push_due(100, 3)
        store.push_due(100, 1)
        store.push_due(100, 2)
        assert list(store.advance(100)) == [3, 1, 2]

    def test_advance_clears_bucket(self):
        store = BatchStore("x")
        store.push_due(100, 0)
        store.advance(100)
        assert store.due_count(100) == 0
        assert store.pending_ticks == 0
        assert list(store.advance(100)) == []

    def test_advance_on_empty_tick(self):
        store = BatchStore("x")
        assert list(store.advance(55)) == []

    def test_same_tick_push_during_processing_opens_fresh_bucket(self):
        # The mechanism behind same-tick continuations: pushes made
        # while a bucket is processed must re-signal.
        store = BatchStore("x")
        store.push_due(100, 0)
        store.advance(100)
        assert store.push_due(100, 1) is True
        assert list(store.advance(100)) == [1]

    def test_distinct_ticks_are_independent(self):
        store = BatchStore("x")
        store.push_due(10, 0)
        store.push_due(20, 1)
        assert store.pending_ticks == 2
        assert list(store.advance(20)) == [1]
        assert list(store.advance(10)) == [0]
