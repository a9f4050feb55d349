"""Unit tests for the lease table (distributed backend bookkeeping).

Everything here drives time through a fake clock — which is the point of
the RPR013 clock seam: lease expiry is pure arithmetic over injected
timestamps, so none of these tests sleeps.
"""

import pytest

from repro.runner.backends.lease import Lease, LeaseTable


class FakeClock:
    """A settable monotonic clock."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _tasks(*indices):
    return tuple((i, 1) for i in indices)


class TestLeaseTable:
    def test_grant_and_complete_retires(self):
        clock = FakeClock()
        table = LeaseTable(5.0, clock)
        lease = table.grant(1, "w0", _tasks(0, 1))
        assert table.active() == 1
        got, was_active = table.complete(1)
        assert got is lease and was_active
        assert table.active() == 0

    def test_duplicate_lease_id_rejected(self):
        table = LeaseTable(5.0, FakeClock())
        table.grant(1, "w0", _tasks(0))
        with pytest.raises(ValueError):
            table.grant(1, "w1", _tasks(1))
        table.complete(1)
        with pytest.raises(ValueError):  # retired ids stay burned too
            table.grant(1, "w1", _tasks(1))

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(0.0, FakeClock())

    def test_expiry_is_clock_driven(self):
        clock = FakeClock()
        table = LeaseTable(2.0, clock)
        lease = table.grant(1, "w0", _tasks(0))
        clock.advance(1.9)
        assert table.expired() == []
        clock.advance(0.2)  # 2.1s since the grant's implicit first beat
        assert table.expired() == [lease]
        assert table.active() == 0

    def test_heartbeat_extends_the_lease(self):
        clock = FakeClock()
        table = LeaseTable(2.0, clock)
        table.grant(1, "w0", _tasks(0))
        for _ in range(5):
            clock.advance(1.5)
            assert table.heartbeat(1)
            assert table.expired() == []
        clock.advance(2.5)
        assert len(table.expired()) == 1

    def test_heartbeat_refreshes_every_lease_of_its_worker(self):
        # The worker spoke, so all it holds is alive; others are not.
        clock = FakeClock()
        table = LeaseTable(2.0, clock)
        table.grant(1, "w0", _tasks(0))
        table.grant(2, "w0", _tasks(1))
        other = table.grant(3, "w1", _tasks(2))
        clock.advance(1.5)
        assert table.heartbeat(2)
        clock.advance(1.0)
        assert table.expired() == [other]
        assert table.held("w0") == 2

    def test_no_budget_never_expires(self):
        clock = FakeClock()
        table = LeaseTable(None, clock)
        table.grant(1, "w0", _tasks(0))
        clock.advance(1e9)
        assert table.expired() == []
        assert table.active() == 1

    def test_heartbeat_after_expiry_reports_stale(self):
        clock = FakeClock()
        table = LeaseTable(1.0, clock)
        table.grant(1, "w0", _tasks(0))
        clock.advance(2.0)
        table.expired()
        assert table.heartbeat(1) is False

    def test_stale_completion_still_addressable(self):
        # The whole reason retired leases are kept: a late result must be
        # matched to its tasks so it can flow through the commit gate.
        clock = FakeClock()
        table = LeaseTable(1.0, clock)
        granted = table.grant(1, "w0", _tasks(3, 4))
        clock.advance(5.0)
        table.expired()
        lease, was_active = table.complete(1)
        assert lease is granted and not was_active
        assert [index for index, _ in lease.tasks] == [3, 4]

    def test_unknown_lease_id_returns_none(self):
        table = LeaseTable(1.0, FakeClock())
        assert table.complete(99) == (None, False)

    def test_release_worker_pops_only_that_workers_leases(self):
        table = LeaseTable(5.0, FakeClock())
        table.grant(1, "w0", _tasks(0))
        table.grant(2, "w1", _tasks(1))
        table.grant(3, "w0", _tasks(2))
        released = table.release_worker("w0")
        assert sorted(lease.lease_id for lease in released) == [1, 3]
        assert table.active() == 1
        assert table.held("w1") == 1
        assert table.held("w0") == 0

    def test_release_all_empties_the_table(self):
        table = LeaseTable(5.0, FakeClock())
        table.grant(1, "w0", _tasks(0))
        table.grant(2, "w1", _tasks(1))
        assert len(table.release_all()) == 2
        assert table.active() == 0
        # ... but both are still addressable for stale deliveries.
        assert table.complete(2)[0] is not None

    def test_snapshot_reports_ages_from_the_injected_clock(self):
        clock = FakeClock()
        table = LeaseTable(60.0, clock)
        table.grant(7, "w1", _tasks(2, 5))
        clock.advance(3.0)
        table.heartbeat(7)
        clock.advance(1.0)
        (entry,) = table.snapshot()
        assert entry["lease"] == 7
        assert entry["worker"] == "w1"
        assert entry["tasks"] == [2, 5]
        assert entry["age_s"] == pytest.approx(4.0)
        assert entry["beat_age_s"] == pytest.approx(1.0)

    def test_lease_is_plain_data(self):
        lease = Lease(1, "w0", _tasks(0), 0.0, 0.0)
        assert lease.worker_id == "w0"
        assert lease.granted_at_s == 0.0
