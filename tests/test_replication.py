"""repro.replication acceptance battery.

Three layers under test, bottom-up:

* :meth:`HashRing.replicas` — the ownership maths: r distinct shards,
  primary first, prefix-stable as r grows, balanced across 64 vnodes,
  and join-bounded (a new shard only ever *inserts itself* into a
  replica set, which is what bounds rebalancing volume).
* :class:`ReplicationManager` — write-through fan-out with quorum acks,
  leased fences over stale copies, repair-by-invalidation, the
  write-path self-heal for replicas that missed an open, and batch
  split/re-merge that survives a dark shard.
* The cluster acceptance criteria from the replication issue: a mid
  workload crash loses no acked write AND the post-failover hit ratio
  stays within 10% of pre-failover (warm failover, not a cold refetch);
  ``add_shard``/``remove_shard`` migrate at most 1.5x the ideal 1/N
  share of stored bytes and leave every path warm under the new ring.

The fault-plan helpers of :mod:`repro.faults.replicas` are covered here
too (with a stub ring: the helpers are duck-typed on purpose, so the
one-way faults -> cluster dependency rule stays intact).
"""

import asyncio

import pytest

from conftest import rendezvous
from repro.cluster import (
    ClusterClient,
    ClusterSupervisor,
    HashRing,
    ReplicationError,
    ReplicationManager,
    replication,
)
from repro.disk.params import BLOCK_SIZE
from repro.faults.plan import BlockFault, FaultPlan
from repro.faults.replicas import merge_plans, replica_fault_plans, replica_sids
from repro.server.client import RequestTimeout, RetryPolicy, ServerError


def run(coro, timeout=60.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


#: fault-tolerant client policy: redial through crash windows (the
#: default policy deliberately does not retry; see repro.server.client)
RETRY = RetryPolicy(timeout_s=0.5, max_retries=10, backoff_base_s=0.005, backoff_max_s=0.05)

KEYS = [f"/replicated/file-{i:04d}.dat" for i in range(900)]


# ---------------------------------------------------------------------------
# ring ownership maths
# ---------------------------------------------------------------------------


class TestRingReplicas:
    def test_r_distinct_owners_primary_first(self):
        ring = HashRing([f"shard-{i}" for i in range(5)], vnodes=64)
        for key in KEYS[:200]:
            for r in (1, 2, 3, 4):
                owners = ring.replicas(key, r)
                assert len(owners) == r
                assert len(set(owners)) == r
                assert owners[0] == ring.shard_for(key)

    def test_growing_r_only_appends(self):
        """replicas(k, r) is a prefix of replicas(k, r+1): the stability
        that bounds key movement when the degree changes."""
        ring = HashRing([f"shard-{i}" for i in range(5)], vnodes=64)
        for key in KEYS[:200]:
            sets = [ring.replicas(key, r) for r in (1, 2, 3, 4)]
            for smaller, larger in zip(sets, sets[1:]):
                assert larger[: len(smaller)] == smaller

    def test_r_clamped_to_ring_size_and_validated(self):
        ring = HashRing(["shard-0", "shard-1"], vnodes=16)
        owners = ring.replicas("/any.dat", 3)
        assert sorted(owners) == ["shard-0", "shard-1"]
        with pytest.raises(ValueError):
            ring.replicas("/any.dat", 0)

    def test_membership_balanced_across_64_vnodes(self):
        """Acceptance: replica membership balanced within +-20% of the
        mean for 64 vnodes (r=2, 3 shards, 900 keys)."""
        ring = HashRing(["shard-0", "shard-1", "shard-2"], vnodes=64)
        counts = {sid: 0 for sid in ring.shards}
        for key in KEYS:
            for sid in ring.replicas(key, 2):
                counts[sid] += 1
        mean = 2 * len(KEYS) / len(ring.shards)
        for sid, count in counts.items():
            assert 0.8 * mean <= count <= 1.2 * mean, (sid, count, mean)

    def test_join_only_inserts_the_new_shard(self):
        """Adding a shard may insert itself into a replica set (evicting
        the last rank) but never reshuffles the other members — the
        property that confines migration to the joiner's span."""
        old = HashRing([f"shard-{i}" for i in range(4)], vnodes=64)
        new = HashRing([f"shard-{i}" for i in range(5)], vnodes=64)
        changed = 0
        for key in KEYS:
            old_set = old.replicas(key, 2)
            new_set = new.replicas(key, 2)
            gained = set(new_set) - set(old_set)
            assert gained <= {"shard-4"}
            survivors = [sid for sid in new_set if sid in old_set]
            assert survivors == [sid for sid in old_set if sid in new_set]
            if gained:
                changed += 1
        # the joiner picks up about 2/5 of the sets (rank-1 or rank-2
        # slots); it must not have grabbed wildly more than its share
        assert changed <= 1.5 * (2 * len(KEYS) / 5)

    def test_insertion_order_does_not_matter(self):
        a = HashRing(["shard-0", "shard-1", "shard-2"], vnodes=32)
        b = HashRing(["shard-2", "shard-0", "shard-1"], vnodes=32)
        for key in KEYS[:100]:
            assert a.replicas(key, 2) == b.replicas(key, 2)

    def test_replica_sets_helper_matches_ring(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"], vnodes=32)
        paths = KEYS[:20]
        sets = replication.replica_sets(ring, paths, 2)
        assert set(sets) == set(paths)
        for path in paths:
            assert sets[path] == ring.replicas(path, 2)


# ---------------------------------------------------------------------------
# replica-targeted fault plans (duck-typed: no cluster import in faults)
# ---------------------------------------------------------------------------


class _StubRing:
    """Any object with replicas(path, r) satisfies the faults contract."""

    def __init__(self, sets):
        self._sets = sets

    def replicas(self, path, r):
        return list(self._sets[path])[:r]


class TestReplicaFaultHelpers:
    def test_replica_sids_roles(self):
        ring = _StubRing({"/a": ["s0", "s1", "s2"]})
        assert replica_sids(ring, "/a", 3, "primary") == ["s0"]
        assert replica_sids(ring, "/a", 3, "secondaries") == ["s1", "s2"]
        assert replica_sids(ring, "/a", 3, "all") == ["s0", "s1", "s2"]
        with pytest.raises(ValueError):
            replica_sids(ring, "/a", 3, "bystanders")

    def test_merge_plans_takes_the_worse_regime(self):
        a = FaultPlan(
            seed=7,
            disk_error_rate=0.2,
            block_faults=(BlockFault("disk0", 1),),
            revoke_pids=(3,),
        )
        b = FaultPlan(
            seed=9,
            disk_error_rate=0.1,
            drop_frame_rate=0.5,
            block_faults=(BlockFault("disk0", 2),),
            revoke_pids=(3, 4),
        )
        merged = merge_plans(a, b)
        assert merged.seed == 7  # first plan's seed wins
        assert merged.disk_error_rate == 0.2
        assert merged.drop_frame_rate == 0.5
        assert merged.block_faults == (BlockFault("disk0", 1), BlockFault("disk0", 2))
        assert merged.revoke_pids == (3, 4)

    def test_replica_fault_plans_targets_roles_and_merges(self):
        ring = _StubRing({"/a": ["s0", "s1"], "/b": ["s1", "s2"]})
        plan = FaultPlan(disk_error_rate=0.5)
        assert set(replica_fault_plans(ring, ["/a", "/b"], 2, plan)) == {"s0", "s1"}
        secondaries = replica_fault_plans(ring, ["/a", "/b"], 2, plan, role="secondaries")
        assert set(secondaries) == {"s1", "s2"}
        everyone = replica_fault_plans(ring, ["/a", "/b"], 2, plan, role="all")
        assert set(everyone) == {"s0", "s1", "s2"}
        # s1 was selected via both paths: same plan merged with itself
        assert everyone["s1"] == plan
        base = {"s9": FaultPlan(drop_frame_rate=0.25)}
        stacked = replica_fault_plans(ring, "/a", 2, plan, role="all", base=base)
        assert stacked["s9"] == base["s9"]
        assert set(stacked) == {"s0", "s1", "s9"}


# ---------------------------------------------------------------------------
# the replicated service (in-process clusters)
# ---------------------------------------------------------------------------


async def _cluster(shards=3, replicas=2, cache_mb=1, **kw):
    sup = ClusterSupervisor(shards=shards, cache_mb=cache_mb, replicas=replicas, **kw)
    await sup.start()
    cc = await ClusterClient.connect(sup, name="repl-test", retry=RETRY)
    return sup, cc


class TestReplicatedService:
    def test_degree_is_a_cluster_property(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLICAS", raising=False)
        assert replication.default_replicas() == 1
        monkeypatch.setenv("REPRO_REPLICAS", "2")
        assert replication.default_replicas() == 2

        async def go():
            sup, cc = await _cluster(shards=2, replicas=2)
            try:
                assert sup.replicas == 2
                # the client inherits the supervisor's degree: routing and
                # rebalancing must agree on every path's replica set
                assert cc.replication.replicas == 2
                with pytest.raises(ValueError):
                    ReplicationManager(cc, replicas=0)
                with pytest.raises(ValueError):
                    ReplicationManager(cc, replicas=2, write_quorum=3)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_write_fans_out_to_every_replica(self):
        async def go():
            sup, cc = await _cluster()
            try:
                path = "/fan/out.dat"
                await cc.open(path, size_blocks=4)
                sids = cc.replication.replica_sids(path)
                assert len(sids) == 2
                for blockno in range(4):
                    await cc.write(path, blockno)
                # bypass routing: each replica must hold a warm copy
                for sid in sids:
                    for blockno in range(4):
                        assert await cc.clients[sid].read(path, blockno)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_write_fan_out_is_concurrent(self):
        """Each replica's write waits until the other replica's write has
        started, so a fan-out that awaited replicas one after another
        would time out."""

        async def go():
            sup, cc = await _cluster(shards=2, replicas=2)
            try:
                path = "/fan/concurrent.dat"
                await cc.open(path, size_blocks=1)
                sids = cc.replication.replica_sids(path)
                assert len(sids) == 2
                rendezvous([cc.clients[sid] for sid in sids], "write")
                assert await asyncio.wait_for(cc.write(path, 0), 5.0) is False
                for sid in sids:
                    assert await cc.clients[sid].read(path, 0)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_read_falls_over_to_surviving_replica(self):
        async def go():
            sup, cc = await _cluster()
            try:
                path = "/warm/failover.dat"
                await cc.open(path, size_blocks=4)
                for blockno in range(4):
                    await cc.write(path, blockno)
                primary = cc.replication.replica_sids(path)[0]
                await sup.kill(primary)
                for blockno in range(4):
                    assert await cc.read(path, blockno)  # warm, not refetched
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_write_with_down_replica_fences_then_repairs(self):
        async def go():
            sup, cc = await _cluster()
            try:
                path = "/fence/me.dat"
                await cc.open(path, size_blocks=2)
                await cc.write(path, 0)
                secondary = cc.replication.replica_sids(path)[1]
                await sup.kill(secondary)
                assert await cc.write(path, 0)  # quorum 1: still acked
                assert (secondary, path, 0) in cc.replication.fences
                assert cc.replication._fenced(secondary, path, 0)
                # repair against a still-dark shard fails gracefully and
                # re-arms the fence for the next lease period
                assert await cc.replication.repair(force=True) == 0
                assert (secondary, path, 0) in cc.replication.fences
                await sup.restart(secondary)
                assert await cc.replication.repair(force=True) == 1
                assert not cc.replication.fences
                assert await cc.read(path, 0)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_unmet_write_quorum_raises(self):
        async def go():
            sup, cc = await _cluster()
            try:
                path = "/quorum/two.dat"
                await cc.open(path, size_blocks=1)
                cc.replication = ReplicationManager(cc, replicas=2, write_quorum=2)
                victim = cc.replication.replica_sids(path)[1]
                await sup.kill(victim)
                with pytest.raises(ReplicationError):
                    await cc.write(path, 0)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_write_heals_a_replica_that_missed_the_open(self):
        async def go():
            sup, cc = await _cluster()
            try:
                path = "/heal/late-joiner.dat"
                secondary = cc.replication.replica_sids(path)[1]
                await sup.kill(secondary)
                await cc.open(path, size_blocks=2)  # secondary misses the create
                await sup.restart(secondary)
                # the replica refuses with FS (it never saw the create);
                # the fan-out heals it with open+retry instead of fencing
                await cc.write(path, 0)
                assert await cc.clients[secondary].read(path, 0)
                assert not cc.replication.fences
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_invalidate_and_bundles_fan_out(self):
        async def go():
            sup, cc = await _cluster()
            try:
                paths = ["/bundle/a.dat", "/bundle/b.dat"]
                for path in paths:
                    await cc.open(path, size_blocks=2)
                    for blockno in range(2):
                        await cc.write(path, blockno)
                # both replicas drop their copies: 2 blocks x 2 shards
                assert await cc.invalidate(paths[0]) == 4
                for sid in cc.replication.replica_sids(paths[0]):
                    assert not await cc.clients[sid].read(paths[0], 0)
                summary = await cc.declare_bundle("hot-set", paths, action="fetch")
                assert summary["bundle"] == "hot-set"
                assert summary["shards"] >= 2
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_batches_split_remerge_and_survive_a_dark_shard(self):
        async def go():
            sup, cc = await _cluster()
            try:
                paths = [f"/batch/{i}.dat" for i in range(6)]
                for path in paths:
                    await cc.open(path, size_blocks=4)
                ops = [(path, blockno) for path in paths for blockno in range(4)]
                for reply in await cc.writev(ops):
                    assert "error" not in reply
                victim = cc.shard_of(paths[0])
                await sup.kill(victim)
                # a read past EOF pins caller order: the error record must
                # come back at exactly the index it was issued at
                ops_with_error = ops[:7] + [(paths[0], 99)] + ops[7:]
                results = await cc.readv(ops_with_error)
                assert len(results) == len(ops_with_error)
                assert results[7].get("code") == "FS"
                for i, reply in enumerate(results):
                    if i != 7:
                        assert reply.get("hit"), (i, reply)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())


# ---------------------------------------------------------------------------
# acceptance battery: warm failover + bounded migration
# ---------------------------------------------------------------------------


class TestFailoverBattery:
    def test_acked_writes_survive_and_hits_stay_warm(self):
        """Acceptance criteria for R=2: a mid-workload crash loses no
        acked write, and the post-failover hit ratio stays within 10% of
        the pre-failover ratio — the surviving replica serves warm."""

        async def go():
            sup, cc = await _cluster(shards=3, replicas=2, trace=True)
            try:
                paths = [f"/battery/{i}.dat" for i in range(12)]
                for path in paths:
                    await cc.open(path, size_blocks=4)
                # warm-up round with every shard up: pre-failover ratio
                for path in paths:
                    for blockno in range(4):
                        await cc.write(path, blockno)
                total = len(paths) * 4
                pre_hits = 0
                for path in paths:
                    for blockno in range(4):
                        pre_hits += bool(await cc.read(path, blockno))
                pre_ratio = pre_hits / total

                victim = cc.shard_of(paths[0])
                acked = set()

                async def writer(worker_paths):
                    for path in worker_paths:
                        for blockno in range(4):
                            while True:
                                try:
                                    await cc.write(path, blockno)
                                except (ConnectionError, RequestTimeout, ServerError):
                                    await asyncio.sleep(0.01)
                                    continue
                                acked.add((path, blockno))
                                break
                            await asyncio.sleep(0.002)

                async def assassin():
                    await asyncio.sleep(0.01)  # land the kill mid-stream
                    await sup.kill(victim)

                await asyncio.gather(
                    writer(paths[0::2]), writer(paths[1::2]), assassin()
                )
                assert len(acked) == total  # R=2 kept the write path available

                # the victim is still dark: every acked write reads back
                # from the surviving replica, warm
                post_hits = 0
                for path, blockno in sorted(acked):
                    post_hits += bool(await cc.read(path, blockno))
                post_ratio = post_hits / len(acked)
                assert post_ratio == 1.0  # no acked write was lost
                assert post_ratio >= pre_ratio - 0.10

                # restore and drain the fences the crash window accrued
                await sup.restart(victim)
                await cc.replication.repair(force=True)
                assert not cc.replication.fences
                # the restored primary serves again: its invalidated
                # copies miss once on refetch, then stay warm
                for path, blockno in sorted(acked):
                    await cc.read(path, blockno)
                for path, blockno in sorted(acked):
                    assert await cc.read(path, blockno)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_add_shard_migration_is_bounded_and_warm(self):
        """Acceptance criterion: growing the cluster moves at most 1.5x
        the ideal 1/N share of stored bytes, and the new ring serves
        every path warm the moment routing flips."""

        async def go():
            sup, cc = await _cluster(shards=3, replicas=2)
            try:
                paths = [f"/grow/{i}.dat" for i in range(30)]
                for path in paths:
                    await cc.open(path, size_blocks=4)
                    for blockno in range(4):
                        await cc.write(path, blockno)
                stored_copies = 2 * len(paths) * 4  # replicas x blocks
                summary = await sup.add_shard()
                assert summary["sid"] == "shard-3"
                ideal_share = stored_copies / len(sup.shards)  # 1/N, N=4
                assert 0 < summary["moved_blocks"] <= 1.5 * ideal_share
                moved_bytes = summary["moved_blocks"] * BLOCK_SIZE
                assert moved_bytes <= 1.5 * ideal_share * BLOCK_SIZE
                await cc.sync()
                for path in paths:
                    for blockno in range(4):
                        assert await cc.read(path, blockno)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_remove_shard_migration_is_bounded_and_warm(self):
        async def go():
            sup, cc = await _cluster(shards=4, replicas=2)
            try:
                paths = [f"/shrink/{i}.dat" for i in range(30)]
                for path in paths:
                    await cc.open(path, size_blocks=4)
                    for blockno in range(4):
                        await cc.write(path, blockno)
                stored_copies = 2 * len(paths) * 4
                ideal_share = stored_copies / len(sup.shards)  # leaver's share
                summary = await sup.remove_shard("shard-3")
                assert summary["sid"] == "shard-3"
                assert 0 < summary["moved_blocks"] <= 1.5 * ideal_share
                await cc.sync()
                assert "shard-3" not in cc.clients
                for path in paths:
                    for blockno in range(4):
                        assert await cc.read(path, blockno)
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())
