"""The shared columnar-snapshot layer (core/snapshot.py).

Contract of the extraction: a frozen-column snapshot over a bounded
:class:`OpJournal` refreshes *incrementally* while the pending-op count
fits the budget and the journal window, falls back to a full rebuild
otherwise (budget exceeded, journal trimmed, subclass bail-out,
``force_full``), raises an actionable :class:`StaleSnapshotError` when
queried stale without ``auto_refresh``, and books every consumed op in
exactly one refresh-stats bucket.
"""

import numpy as np
import pytest

from repro.core.snapshot import (
    ColumnarSnapshot,
    OpJournal,
    SnapshotRefreshStats,
    StaleSnapshotError,
)


class ListSnapshot(ColumnarSnapshot):
    """Minimal concrete snapshot: one sorted column over a Python list.

    Ops are ``("insert", value, idx)`` / ``("remove", value, idx)``
    against the already-mutated ``source`` list.
    """

    def __init__(self, source, journal, **kwargs):
        self._source = source
        self.rebuild_calls = 0
        self.patch_calls = 0
        super().__init__(journal=journal, **kwargs)

    def _rebuild(self):
        self.rebuild_calls += 1
        self.vals = np.asarray(sorted(self._source), dtype=np.float64)

    def _patch(self, pending):
        self.patch_calls += 1
        for kind, value, idx in pending:
            if kind == "insert":
                self.vals = np.insert(self.vals, idx, value)
            else:
                self.vals = np.delete(self.vals, idx)
        return True

    @property
    def n_rows(self):
        return len(self.vals)


class NoPatchSnapshot(ListSnapshot):
    """A subclass without a patch rule (inherits the bail-out default)."""

    def _patch(self, pending):
        self.patch_calls += 1
        return False


def make(cls=ListSnapshot, values=(0.5, 0.25), cap=8192, **kwargs):
    journal = OpJournal(cap=cap)
    source = list(values)
    snap = cls(source, journal, **kwargs)
    return source, journal, snap


def insert(source, journal, value):
    source.append(value)
    idx = sorted(source).index(value)
    journal.append(("insert", value, idx))


def remove(source, journal, value):
    idx = sorted(source).index(value)
    source.remove(value)
    journal.append(("remove", value, idx))


class TestOpJournal:
    def test_append_bumps_version(self):
        j = OpJournal()
        assert j.version == 0
        assert j.append(("op", 1)) == 1
        assert j.append(("op", 2)) == 2
        assert j.ops_since(0) == [("op", 1), ("op", 2)]
        assert j.ops_since(1) == [("op", 2)]
        assert j.ops_since(2) == []

    def test_window_eviction_returns_none(self):
        j = OpJournal(cap=4)
        for i in range(10):
            j.append(("op", i))
        # versions 0..5 fell out of the 4-entry window
        assert j.ops_since(5) is None
        assert j.ops_since(6) == [("op", i) for i in range(6, 10)]
        assert j.ops_since(10) == []

    @pytest.mark.parametrize("cap", [0, 1, 4, 100])
    def test_extend_equals_one_append_per_op(self, cap):
        batch, single = OpJournal(cap=cap), OpJournal(cap=cap)
        ops = iter(("op", i) for i in range(100))
        for size in [3, 0, 7, 1, 40, 2]:
            chunk = [next(ops) for _ in range(size)]
            for op in chunk:
                single.append(op)
            assert batch.extend(chunk) == single.version
            assert (batch._head, batch._ops) == (single._head, single._ops)
            for v in range(single.version + 1):
                assert batch.ops_since(v) == single.ops_since(v)

    def test_future_version_rejected(self):
        j = OpJournal()
        j.append(("op",))
        with pytest.raises(ValueError):
            j.ops_since(2)


class TestBuildAndPatch:
    def test_initial_build_matches_source(self):
        _, journal, snap = make(values=(0.5, 0.25, 0.75))
        assert snap.version == journal.version == 0
        assert not snap.is_stale
        np.testing.assert_array_equal(snap.vals, [0.25, 0.5, 0.75])

    def test_incremental_patch_within_budget(self):
        source, journal, snap = make()
        insert(source, journal, 0.125)
        remove(source, journal, 0.5)
        assert snap.is_stale
        snap.refresh()
        np.testing.assert_array_equal(snap.vals, sorted(source))
        assert snap.version == journal.version
        assert snap.rebuild_calls == 1  # only the constructor
        st = snap.refresh_stats
        assert (st.refreshes, st.incremental, st.full_rebuilds) == (1, 1, 0)
        assert (st.ops_replayed, st.ops_absorbed) == (2, 0)

    def test_budget_triggers_full_rebuild(self):
        source, journal, snap = make(budget=3)
        for i in range(5):
            insert(source, journal, 0.01 * (i + 1))
        snap.refresh()
        np.testing.assert_array_equal(snap.vals, sorted(source))
        assert snap.rebuild_calls == 2
        assert snap.patch_calls == 0  # never attempted beyond budget
        st = snap.refresh_stats
        assert (st.incremental, st.full_rebuilds) == (0, 1)
        assert (st.ops_replayed, st.ops_absorbed) == (0, 5)

    def test_negative_budget_rejected_zero_always_rebuilds(self):
        with pytest.raises(ValueError,
                           match="churn_budget must be an int >= 0, got -1"):
            make(budget=-1)
        source, journal, snap = make(budget=0)
        insert(source, journal, 0.1)
        snap.refresh()
        assert (snap.patch_calls, snap.refresh_stats.full_rebuilds) == (0, 1)

    def test_journal_window_eviction_triggers_full_rebuild(self):
        source, journal, snap = make(cap=4, budget=1000)
        for i in range(6):  # > cap: the suffix since v0 is gone
            insert(source, journal, 0.01 * (i + 1))
        snap.refresh()
        np.testing.assert_array_equal(snap.vals, sorted(source))
        assert snap.rebuild_calls == 2
        assert snap.refresh_stats.full_rebuilds == 1
        assert snap.refresh_stats.ops_absorbed == 6

    def test_subclass_bailout_falls_back(self):
        source, journal, snap = make(cls=NoPatchSnapshot)
        insert(source, journal, 0.1)
        snap.refresh()
        np.testing.assert_array_equal(snap.vals, sorted(source))
        assert snap.patch_calls == 1  # attempted, bailed
        assert snap.rebuild_calls == 2
        assert snap.refresh_stats.full_rebuilds == 1

    def test_force_full_rebuilds_even_when_fresh(self):
        _, _, snap = make()
        snap.refresh(force_full=True)
        assert snap.rebuild_calls == 2
        st = snap.refresh_stats
        assert (st.refreshes, st.full_rebuilds, st.ops_absorbed) == (1, 1, 0)

    def test_refresh_noop_when_fresh(self):
        _, _, snap = make()
        assert snap.refresh() is snap
        assert snap.refresh_stats.refreshes == 0

    def test_every_op_in_exactly_one_bucket(self):
        source, journal, snap = make(budget=2)
        insert(source, journal, 0.1)
        snap.refresh()  # 1 op incremental
        for i in range(4):
            insert(source, journal, 0.2 + 0.01 * i)
        snap.refresh()  # 4 ops over budget -> absorbed
        st = snap.refresh_stats
        assert st.ops_synced() == journal.version == 5
        assert (st.ops_replayed, st.ops_absorbed) == (1, 4)
        assert st.seconds >= 0.0
        assert st.seconds_per_op() == st.seconds / 5


class TestStaleness:
    def test_stale_query_raises_without_auto_refresh(self):
        source, journal, snap = make(stale_error="custom stale message")
        insert(source, journal, 0.9)
        with pytest.raises(StaleSnapshotError, match="custom stale message"):
            snap.ensure_fresh()

    def test_stale_error_is_a_runtime_error(self):
        source, journal, snap = make()
        insert(source, journal, 0.9)
        with pytest.raises(RuntimeError):
            snap.ensure_fresh()

    def test_auto_refresh_syncs_on_query(self):
        source, journal, snap = make(auto_refresh=True)
        insert(source, journal, 0.9)
        snap.ensure_fresh()
        assert not snap.is_stale
        np.testing.assert_array_equal(snap.vals, sorted(source))


class TestStatsDataclass:
    def test_zero_ops_rate_is_zero(self):
        st = SnapshotRefreshStats()
        assert st.ops_synced() == 0
        assert st.seconds_per_op() == 0.0
