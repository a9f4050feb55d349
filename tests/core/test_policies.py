"""Unit tests for scheduling policies against a scripted SchedulerView."""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.core.policies import (
    IPS_POLICIES,
    LOCKING_POLICIES,
    FCFSPolicy,
    FlowSteerPolicy,
    GroupedAffinityPolicy,
    HybridPolicy,
    IPSMRUPolicy,
    IPSWiredPolicy,
    MRUPolicy,
    PerProcessorPoolsPolicy,
    SchedulerView,
    StreamMRUPolicy,
    WiredStreamsPolicy,
    WorkStealingPolicy,
    make_ips_policy,
    make_locking_policy,
)


@dataclass
class FakePacket:
    stream_id: int
    packet_id: int = 0


class FakeView(SchedulerView):
    """Deterministic, fully scriptable scheduler view."""

    def __init__(self, n: int = 4):
        self._n = n
        self.idle: List[int] = list(range(n))
        self.last_end: Dict[int, float] = {p: -math.inf for p in range(n)}
        self.stream_last: Dict[int, int] = {}
        self.choices: List[int] = []  # recorded random picks

    @property
    def n_processors(self) -> int:
        return self._n

    def idle_processors(self) -> List[int]:
        return list(self.idle)

    def last_protocol_end(self, proc_id: int) -> float:
        return self.last_end[proc_id]

    def stream_last_processor(self, stream_id: int) -> Optional[int]:
        return self.stream_last.get(stream_id)

    def random_choice(self, items: List[int]) -> int:
        self.choices.append(items[0])
        return items[0]  # deterministic: first item


def attach(policy, view=None):
    view = view or FakeView()
    policy.attach(view)
    return policy, view


class TestFCFS:
    def test_fifo_order(self):
        pol, view = attach(FCFSPolicy())
        pol.on_arrival(FakePacket(1, packet_id=1))
        pol.on_arrival(FakePacket(2, packet_id=2))
        _, p1 = pol.next_dispatch()
        _, p2 = pol.next_dispatch()
        assert (p1.packet_id, p2.packet_id) == (1, 2)

    def test_uses_random_choice(self):
        pol, view = attach(FCFSPolicy())
        pol.on_arrival(FakePacket(0))
        pol.next_dispatch()
        assert view.choices  # consulted the RNG

    def test_none_when_empty_or_no_idle(self):
        pol, view = attach(FCFSPolicy())
        assert pol.next_dispatch() is None
        pol.on_arrival(FakePacket(0))
        view.idle = []
        assert pol.next_dispatch() is None
        assert pol.queued() == 1


class TestMRU:
    def test_picks_most_recent_processor(self):
        pol, view = attach(MRUPolicy())
        view.last_end = {0: 5.0, 1: 100.0, 2: 50.0, 3: -math.inf}
        pol.on_arrival(FakePacket(0))
        proc, _ = pol.next_dispatch()
        assert proc == 1

    def test_only_considers_idle(self):
        pol, view = attach(MRUPolicy())
        view.last_end = {0: 5.0, 1: 100.0, 2: 50.0, 3: -math.inf}
        view.idle = [0, 2]
        pol.on_arrival(FakePacket(0))
        proc, _ = pol.next_dispatch()
        assert proc == 2

    def test_ties_break_via_rng(self):
        pol, view = attach(MRUPolicy())
        pol.on_arrival(FakePacket(0))
        pol.next_dispatch()  # all at -inf -> random among all
        assert view.choices


class TestStreamMRU:
    def test_prefers_stream_last_processor(self):
        pol, view = attach(StreamMRUPolicy())
        view.stream_last[7] = 3
        view.last_end = {0: 99.0, 1: 0.0, 2: 0.0, 3: -math.inf}
        pol.on_arrival(FakePacket(7))
        proc, _ = pol.next_dispatch()
        assert proc == 3  # stream affinity wins over MRU

    def test_falls_back_to_mru_when_stream_proc_busy(self):
        pol, view = attach(StreamMRUPolicy())
        view.stream_last[7] = 3
        view.idle = [0, 1]
        view.last_end = {0: 99.0, 1: 1.0, 2: 0.0, 3: 1000.0}
        pol.on_arrival(FakePacket(7))
        proc, _ = pol.next_dispatch()
        assert proc == 0


class TestPerProcessorPools:
    def test_joins_stream_last_pool(self):
        pol, view = attach(PerProcessorPoolsPolicy())
        view.stream_last[5] = 2
        pol.on_arrival(FakePacket(5))
        proc, _ = pol.next_dispatch()
        assert proc == 2

    def test_unknown_stream_uses_wired_default(self):
        pol, view = attach(PerProcessorPoolsPolicy())
        pol.on_arrival(FakePacket(6))  # 6 % 4 == 2
        proc, _ = pol.next_dispatch()
        assert proc == 2

    def test_spills_to_shortest_when_imbalanced(self):
        pol, view = attach(PerProcessorPoolsPolicy(balance_threshold=1))
        view.idle = []  # queue up without dispatching
        view.stream_last[5] = 0
        for _ in range(3):
            pol.on_arrival(FakePacket(5))
        # Pool 0 now exceeds shortest (0) by > threshold; next spills.
        pol.on_arrival(FakePacket(5))
        view.idle = [1, 2, 3]
        proc, _ = pol.next_dispatch()
        assert proc != 0  # spilled packet served elsewhere

    def test_threads_are_processor_bound(self):
        assert PerProcessorPoolsPolicy().per_processor_threads is True

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            PerProcessorPoolsPolicy(balance_threshold=-1)


class TestWiredStreams:
    def test_static_binding(self):
        pol, view = attach(WiredStreamsPolicy())
        pol.on_arrival(FakePacket(6))  # 6 % 4 == 2
        proc, _ = pol.next_dispatch()
        assert proc == 2

    def test_waits_for_wired_processor(self):
        pol, view = attach(WiredStreamsPolicy())
        pol.on_arrival(FakePacket(6))
        view.idle = [0, 1, 3]  # wired processor 2 busy
        assert pol.next_dispatch() is None
        assert pol.queued() == 1

    def test_queued_counts_all_pools(self):
        pol, view = attach(WiredStreamsPolicy())
        view.idle = []
        for sid in range(6):
            pol.on_arrival(FakePacket(sid))
        assert pol.queued() == 6


class TestHybrid:
    def test_behaves_wired_below_threshold(self):
        pol, view = attach(HybridPolicy(overflow_threshold=2))
        pol.on_arrival(FakePacket(6))
        view.idle = [0, 1, 3]
        assert pol.next_dispatch() is None  # no stealing below threshold

    def test_steals_from_overloaded_queue(self):
        pol, view = attach(HybridPolicy(overflow_threshold=2))
        view.idle = []
        for _ in range(4):
            pol.on_arrival(FakePacket(6))  # all wired to proc 2
        view.idle = [0, 1, 3]
        view.last_end = {0: 10.0, 1: 99.0, 2: 0.0, 3: 0.0}
        proc, _ = pol.next_dispatch()
        assert proc == 1  # MRU idle thief

    def test_steals_head_and_counts(self):
        pol, view = attach(HybridPolicy(overflow_threshold=2))
        view.idle = []
        for i in range(4):
            pol.on_arrival(FakePacket(6, packet_id=i))
        view.idle = [0]
        proc, pkt = pol.next_dispatch()
        # The head (oldest) packet, unlike work-steal's newest.
        assert (proc, pkt.packet_id, pol.steals) == (0, 0, 1)
        assert view.choices == []  # the first longest victim: no draw

    def test_own_queue_served_first(self):
        pol, view = attach(HybridPolicy(overflow_threshold=1))
        view.idle = []
        for _ in range(3):
            pol.on_arrival(FakePacket(6))
        view.idle = [2, 0]
        proc, _ = pol.next_dispatch()
        assert proc == 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            HybridPolicy(overflow_threshold=0)


class TestIPSPolicies:
    def test_wired_binding(self):
        view = FakeView()
        pol = IPSWiredPolicy()
        assert pol.select_processor(6, view, None) == 2  # 6 % 4

    def test_wired_returns_none_when_busy(self):
        view = FakeView()
        view.idle = [0, 1, 3]
        assert IPSWiredPolicy().select_processor(6, view, None) is None

    def test_mru_prefers_stack_last(self):
        view = FakeView()
        view.last_end = {0: 100.0, 1: 0.0, 2: 0.0, 3: 0.0}
        assert IPSMRUPolicy().select_processor(0, view, 3) == 3

    def test_mru_falls_back_to_mru_idle(self):
        view = FakeView()
        view.idle = [0, 1]
        view.last_end = {0: 5.0, 1: 80.0, 2: 0.0, 3: 0.0}
        assert IPSMRUPolicy().select_processor(0, view, 3) == 1

    def test_mru_none_when_no_idle(self):
        view = FakeView()
        view.idle = []
        assert IPSMRUPolicy().select_processor(0, view, None) is None


class TestFlowSteer:
    def test_hash_default_steering(self):
        pol, view = attach(FlowSteerPolicy())
        pol.on_arrival(FakePacket(6, packet_id=1))  # 6 % 4 -> proc 2
        proc, pkt = pol.next_dispatch()
        assert proc == 2 and pkt.packet_id == 1
        assert pol.target_processor(6) == 2

    def test_rebalance_moves_stream_and_counts(self):
        pol, view = attach(FlowSteerPolicy(rebalance_threshold=1))
        # Load proc 1 (stream 1's hash target) past the threshold.
        for i in range(3):
            pol._queues[1].append(FakePacket(1, packet_id=i))
        view.idle = []
        pol.on_arrival(FakePacket(1, packet_id=99))
        # 3 > 0 (shortest) + 1 -> re-steered to the shortest queue (0).
        assert pol.resteers == 1
        assert pol.target_processor(1) == 0
        assert pol._queues[0][0].packet_id == 99
        # Old packets stay put: the reordering mechanism.
        assert [p.packet_id for p in pol._queues[1]] == [0, 1, 2]

    def test_consults_no_rng(self):
        pol, view = attach(FlowSteerPolicy(rebalance_threshold=0))
        for i in range(8):
            pol.on_arrival(FakePacket(i, packet_id=i))
            pol.next_dispatch()
        assert view.choices == []

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="rebalance_threshold"):
            FlowSteerPolicy(rebalance_threshold=-1)


class TestWorkStealing:
    def test_serves_own_queue_before_stealing(self):
        pol, view = attach(WorkStealingPolicy())
        view.stream_last[5] = 1
        pol.on_arrival(FakePacket(5, packet_id=1))
        proc, pkt = pol.next_dispatch()
        assert proc == 1 and pkt.packet_id == 1
        assert pol.steals == 0

    def test_steals_newest_from_longest_queue(self):
        pol, view = attach(WorkStealingPolicy(steal_threshold=1))
        view.idle = [0, 1]
        for i in range(3):  # stream 2 hashes home to busy proc 2
            pol.on_arrival(FakePacket(2, packet_id=i))
        proc, pkt = pol.next_dispatch()
        assert pkt.packet_id == 2  # LIFO: newest end
        assert pol.steals == 1
        # The owner's in-order end is intact.
        assert [p.packet_id for p in pol._queues[2]] == [0, 1]

    def test_victim_draw_precedes_thief_draw(self):
        class RecordingView(FakeView):
            def __init__(self, n=4):
                super().__init__(n)
                self.draws = []

            def random_choice(self, items):
                self.draws.append(list(items))
                return items[0]

        view = RecordingView()
        pol, view = attach(WorkStealingPolicy(steal_threshold=1), view)
        view.idle = [0, 1]
        for i in range(2):
            pol.on_arrival(FakePacket(2, packet_id=i))  # home: proc 2
            pol.on_arrival(FakePacket(3, packet_id=i))  # home: proc 3
        pol.next_dispatch()
        # Victims 2 and 3 tie at length 2; thieves 0 and 1 tie at -inf.
        # The draw-order contract fixes victim-first.
        assert view.draws == [[2, 3], [0, 1]]

    def test_no_steal_below_threshold(self):
        pol, view = attach(WorkStealingPolicy(steal_threshold=2))
        view.idle = [0]
        pol.on_arrival(FakePacket(1, packet_id=1))
        pol.on_arrival(FakePacket(1, packet_id=2))
        assert pol.next_dispatch() is None  # 2 queued, not > 2
        assert pol.queued() == 2

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="steal_threshold"):
            WorkStealingPolicy(steal_threshold=0)


class TestGroupedAffinity:
    def test_streams_hash_to_groups(self):
        pol, view = attach(GroupedAffinityPolicy(n_groups=2))
        pol.on_arrival(FakePacket(3, packet_id=1))  # group 1
        proc, pkt = pol.next_dispatch()
        assert proc % 2 == 1 and pkt.packet_id == 1

    def test_mru_within_group(self):
        pol, view = attach(GroupedAffinityPolicy(n_groups=2))
        view.last_end = {0: 1.0, 1: 5.0, 2: 9.0, 3: 7.0}
        pol.on_arrival(FakePacket(0))  # group 0: members 0 and 2
        proc, _ = pol.next_dispatch()
        assert proc == 2  # MRU of {0, 2}

    def test_waits_for_group_member(self):
        pol, view = attach(GroupedAffinityPolicy(n_groups=2))
        view.idle = [0, 2]  # only group-0 processors idle
        pol.on_arrival(FakePacket(1))  # group 1
        assert pol.next_dispatch() is None
        assert pol.queued() == 1

    def test_group_count_clamped_to_processors(self):
        pol, view = attach(GroupedAffinityPolicy(n_groups=64))
        assert pol.effective_groups == view.n_processors
        assert pol.group_of(9) == 9 % view.n_processors

    def test_n_groups_equal_processors_is_wired(self):
        pol, view = attach(GroupedAffinityPolicy(n_groups=4))
        wired, wview = attach(WiredStreamsPolicy())
        for sid in (0, 5, 10, 7):
            pol.on_arrival(FakePacket(sid))
            wired.on_arrival(FakePacket(sid))
            assert pol.next_dispatch()[0] == wired.next_dispatch()[0]

    def test_rejects_bad_group_count(self):
        with pytest.raises(ValueError, match="n_groups"):
            GroupedAffinityPolicy(n_groups=0)


class TestRegistries:
    def test_all_locking_policies_constructible(self):
        for name in LOCKING_POLICIES:
            pol = make_locking_policy(name)
            assert pol.name == name

    def test_all_ips_policies_constructible(self):
        for name in IPS_POLICIES:
            pol = make_ips_policy(name)
            assert pol.name == name

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown Locking"):
            make_locking_policy("nope")
        with pytest.raises(ValueError, match="unknown IPS"):
            make_ips_policy("nope")

    def test_kwargs_forwarded(self):
        pol = make_locking_policy("hybrid", overflow_threshold=5)
        assert pol.overflow_threshold == 5
