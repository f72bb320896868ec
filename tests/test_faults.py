"""The fault-injection subsystem: plans, injector, recovery at every layer.

The tentpole of this PR.  Coverage map:

* plan/injector unit behaviour — seeded determinism, rate gating by the
  retry budget, scheduled bad sectors, JSON round-trips;
* disk model — errors/stalls/torn writes consume drive time and route to
  ``on_error``;
* syncer — failed writebacks requeue the dirty block (nothing silently
  lost), settle-time failures retry the raw request;
* kernel (System) — demand reads retry then raise a *typed*
  :class:`InjectedIOError`; whole runs under fault rates finish with the
  sanitizer clean and every surviving dirty block flushed;
* BUF/ACM boundary — misbehaving managers fall back to global LRU and are
  revoked past the tolerance; revoked pids get defined errors from every
  directive (the regression of this PR's bug-fix satellite);
* client/daemon — per-request timeouts, idempotent-only retries,
  reconnect with session resume;
* the acceptance scenario — a 4-client server run under ≥1 % disk error
  rate plus one scripted manager revocation completes, flushes all
  surviving dirty blocks, and reports the faults in ``stats``.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.check.invariants import InvariantChecker
from repro.core.acm import ACM, RevokedError
from repro.core.buffercache import BufferCache
from repro.core.interface import FBehaviorOp, FBehaviorRevokedError, fbehavior
from repro.core.upcall import LRUHandler, UpcallACM
from repro.faults import (
    BlockFault,
    FaultInjector,
    FaultPlan,
    InjectedIOError,
)
from repro.kernel.system import MachineConfig, System
from repro.server import CacheClient, CacheDaemon, ServerError, build_config
from repro.server.client import RequestTimeout, RetryPolicy
from repro.sim.ops import BlockRead, BlockWrite, Control

from conftest import touch


def run(coro):
    return asyncio.run(coro)


def small_config(**kwargs):
    kwargs.setdefault("cache_mb", 0.5)
    kwargs.setdefault("sanitize", True)
    return MachineConfig(**kwargs)


# -- plan + injector units -------------------------------------------------


class TestFaultPlan:
    def test_defaults_inject_nothing(self):
        plan = FaultPlan()
        assert not plan.wants_disk_faults
        assert not plan.wants_manager_faults
        assert not plan.wants_transport_faults
        inj = FaultInjector(plan)
        assert all(inj.disk_fault("hda", lba, False) is None for lba in range(200))
        assert all(inj.frame_fault() is None for _ in range(200))

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(disk_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_frame_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(manager_fault_limit=0)

    def test_block_fault_validated(self):
        with pytest.raises(ValueError):
            BlockFault("hda", 4, kind="melt")
        with pytest.raises(ValueError):
            BlockFault("hda", 4, count=0)
        with pytest.raises(ValueError):
            BlockFault("hda", 4, kind="torn", write=False)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            disk_error_rate=0.02,
            torn_write_rate=0.01,
            block_faults=(BlockFault("RZ56", 100, kind="torn", count=2, write=True),),
            revoke_pids=(3,),
            drop_frame_rate=0.05,
        )
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.as_dict())))
        assert clone == plan

    def test_from_spec_inline_and_unknown_field(self):
        plan = FaultPlan.from_spec('{"seed": 5, "disk_error_rate": 0.1}')
        assert plan.seed == 5 and plan.disk_error_rate == 0.1
        with pytest.raises(ValueError):
            FaultPlan.from_spec('{"disk_eror_rate": 0.1}')
        with pytest.raises(ValueError):
            FaultPlan.from_spec('{"seed": }')  # malformed JSON
        with pytest.raises(OSError):
            FaultPlan.from_spec("/no/such/plan.json")  # non-{ spec = a path


class TestInjector:
    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(seed=42, disk_error_rate=0.3, disk_stall_rate=0.2)

        def fates():
            inj = FaultInjector(plan)
            return [
                (f.kind if f else None)
                for f in (inj.disk_fault("hda", i, i % 2 == 0) for i in range(300))
            ]

        first = fates()
        assert first == fates()
        assert "error" in first and "stall" in first and None in first

    def test_rate_faults_respect_retry_budget(self):
        inj = FaultInjector(FaultPlan(disk_error_rate=1.0, max_disk_retries=3))
        assert inj.disk_fault("hda", 0, True, attempt=3) is not None
        assert inj.disk_fault("hda", 0, True, attempt=4) is None  # gate open

    def test_scheduled_bad_sector_never_heals(self):
        inj = FaultInjector(FaultPlan(block_faults=(BlockFault("hda", 9, count=-1),)))
        for attempt in range(1, 50):
            fault = inj.disk_fault("hda", 9, True, attempt=attempt)
            assert fault is not None and fault.kind == "error"
        assert inj.disk_fault("hda", 10, True) is None  # only that sector

    def test_scheduled_fault_count_decrements(self):
        inj = FaultInjector(FaultPlan(block_faults=(BlockFault("hda", 5, count=2),)))
        assert inj.disk_fault("hda", 5, False) is not None
        assert inj.disk_fault("hda", 5, False) is not None
        assert inj.disk_fault("hda", 5, False) is None

    def test_torn_on_read_degrades_to_error(self):
        inj = FaultInjector(FaultPlan(block_faults=(BlockFault("hda", 5, kind="torn", count=-1),)))
        fault = inj.disk_fault("hda", 5, False)
        assert fault.kind == "error"
        assert inj.stats.disk_errors == 1 and inj.stats.torn_writes == 0

    def test_forced_revocation_fires_once_at_nth_consult(self):
        inj = FaultInjector(FaultPlan(revoke_pids=(4,), revoke_after_consults=3))
        assert [inj.manager_fault(4) for _ in range(5)] == [None, None, "forced", None, None]
        assert inj.manager_fault(5) is None
        assert inj.stats.manager_forced_revocations == 1

    def test_snapshot_counts_everything(self):
        inj = FaultInjector(FaultPlan(disk_error_rate=1.0))
        inj.disk_fault("hda", 0, True)
        inj.note_disk_retry()
        inj.note_writeback_requeue()
        snap = inj.snapshot()
        assert snap["enabled"] is True
        assert snap["disk_errors"] == 1
        assert snap["disk_retries"] == 1
        assert snap["writeback_requeues"] == 1
        assert snap["injected_total"] == 1


# -- typed errors + lint contract -----------------------------------------


class TestTypedErrors:
    def test_injected_io_error_carries_context(self):
        exc = InjectedIOError("RZ56", 812, write=True, kind="torn")
        assert (exc.disk, exc.lba, exc.write, exc.kind) == ("RZ56", 812, True, "torn")
        assert not isinstance(exc, OSError)  # simulated, not a host error


# -- the simulated kernel under faults ------------------------------------


class TestSystemUnderFaults:
    def test_demand_read_retries_then_succeeds(self):
        # Two scheduled failures on the data block, then it heals.
        config = small_config(
            faults=FaultPlan(block_faults=(BlockFault("RZ56", 0, kind="error", count=2, write=False),))
        )
        system = System(config)
        system.add_file("data", nblocks=4, disk="RZ56")

        def prog():
            yield BlockRead("data", 0)

        system.spawn("p", prog())
        result = system.run()
        assert result.faults["disk_errors"] == 2
        assert result.faults["disk_retries"] == 2
        assert result.proc("p").stats.misses == 1

    def test_persistently_bad_sector_raises_typed_error(self):
        config = small_config(
            faults=FaultPlan(block_faults=(BlockFault("RZ56", 0, kind="error", count=-1, write=False),))
        )
        system = System(config)
        system.add_file("data", nblocks=4, disk="RZ56")

        def prog():
            yield BlockRead("data", 0)

        system.spawn("p", prog())
        with pytest.raises(InjectedIOError) as info:
            system.run()
        assert info.value.disk == "RZ56" and info.value.write is False

    def test_failed_writeback_requeues_dirty_block(self):
        # The flush write fails twice; the block must still reach disk by
        # the end of the run rather than being silently dropped.
        system = System(small_config(sync_interval_s=0.5, sync_age_s=0.0))
        system.add_file("out", nblocks=4, disk="RZ56")
        lba = system.fs.lookup("out").lba_of(0)
        config = small_config(
            sync_interval_s=0.5,
            sync_age_s=0.0,
            faults=FaultPlan(
                block_faults=(BlockFault("RZ56", lba, kind="error", count=2, write=True),)
            ),
        )
        system = System(config)
        system.add_file("out", nblocks=4, disk="RZ56")

        def prog():
            yield BlockWrite("out", 0)

        system.spawn("p", prog())
        result = system.run()
        assert result.faults["disk_errors"] + result.faults["torn_writes"] == 2
        assert result.faults["writeback_requeues"] + result.faults["disk_retries"] >= 1
        assert result.faults["lost_writes"] == 0
        assert len(system.cache.dirty_blocks()) == 0

    # ``on_done`` and ``on_error`` of one request share its ``args``, so a
    # submitter whose error hook disagrees with its completion hook fails
    # only when a fault fires.  The demand read and the syncer's flush are
    # the tests above; these drive the other two submitters in System.

    @staticmethod
    def _lba_of(path, nblocks, blockno):
        probe = System(small_config())
        probe.add_file(path, nblocks=nblocks, disk="RZ56")
        return probe.fs.lookup(path).lba_of(blockno)

    @pytest.mark.parametrize("count, retries, aborted", [(1, 1, 0), (-1, 8, 1)])
    def test_prefetch_fault_retries_then_releases_the_frame(self, count, retries, aborted):
        # Reading 0 then 1 is sequential, so block 2 is read ahead; the
        # process then asks for it and parks on the in-flight prefetch.
        lba = self._lba_of("data", 8, 2)
        config = small_config(
            faults=FaultPlan(block_faults=(BlockFault("RZ56", lba, kind="error", count=count, write=False),))
        )
        system = System(config)
        system.add_file("data", nblocks=8, disk="RZ56")

        def prog():
            for b in range(3):
                yield BlockRead("data", b)

        system.spawn("p", prog())
        result = system.run()
        assert result.faults["disk_retries"] == retries
        assert result.faults["aborted_reads"] == aborted
        assert result.proc("p").stats.accesses == 3
        # the frame holds the block only if the data ever arrived
        cached = system.cache.peek(system.fs.lookup("data").file_id, 2)
        assert (cached is None) == bool(aborted)

    @pytest.mark.parametrize("count, retries, lost", [(1, 1, 0), (-1, 8, 1)])
    def test_eviction_writeback_fault_retries_then_counts_the_loss(self, count, retries, lost):
        # 0.5 MB is 64 frames: writing 80 fresh blocks pushes the first
        # dirty ones out through _async_write long before the syncer runs.
        lba = self._lba_of("out", 80, 0)
        config = small_config(
            faults=FaultPlan(block_faults=(BlockFault("RZ56", lba, kind="error", count=count, write=True),))
        )
        system = System(config)
        system.add_file("out", nblocks=80, disk="RZ56")

        def prog():
            for b in range(80):
                yield BlockWrite("out", b, whole=True)

        system.spawn("p", prog())
        result = system.run()
        assert result.faults["disk_retries"] == retries
        assert result.faults["lost_writes"] == lost
        assert len(system.cache.dirty_blocks()) == 0

    def test_chaos_run_completes_with_sanitizer_clean(self):
        """Rates on every disk axis; the run ends, I1–I6 hold throughout."""
        config = small_config(
            faults=FaultPlan(
                seed=7,
                disk_error_rate=0.02,
                disk_stall_rate=0.01,
                torn_write_rate=0.01,
            )
        )
        system = System(config)
        system.add_file("data", nblocks=48)
        system.add_file("scratch", nblocks=48)

        def reader(name):
            def prog():
                yield Control(FBehaviorOp.SET_PRIORITY, ("data", 1))
                for i in range(120):
                    yield BlockRead("data", (i * 7) % 48)
                    yield BlockWrite("scratch", i % 48)
            return prog

        system.spawn("a", reader("a")())
        system.spawn("b", reader("b")())
        result = system.run()
        assert result.faults is not None
        assert result.faults["injected_total"] > 0
        assert result.faults["lost_writes"] == 0
        assert len(system.cache.dirty_blocks()) == 0
        checker = system.cache.sanitizer
        assert checker is not None and checker.sweeps > 0
        checker.check_now("final")
        # drive-level accounting saw the consumed attempts
        assert sum(d["faults"] for d in result.disk_stats.values()) > 0

    def test_faultless_run_reports_no_fault_section(self):
        system = System(small_config())
        system.add_file("data", nblocks=4)

        def prog():
            yield BlockRead("data", 0)

        system.spawn("p", prog())
        assert system.run().faults is None


# -- the BUF/ACM boundary under manager faults -----------------------------


def _fill(acm_cache, pid, nblocks):
    for i in range(nblocks):
        touch(acm_cache, pid, 1, i)


class TestManagerMisbehaviour:
    def _managed_cache(self, plan):
        acm = ACM()
        acm.injector = FaultInjector(plan)
        cache = BufferCache(4, acm=acm)
        if cache.sanitizer is None:
            InvariantChecker(cache)
        acm.set_priority(1, 1, 1)  # register pid 1 as a manager
        return cache, acm

    def test_fault_limit_revokes_to_global_lru(self):
        cache, acm = self._managed_cache(
            FaultPlan(manager_bad_reply_rate=1.0, manager_fault_limit=2)
        )
        _fill(cache, 1, 6)  # forces consultations past the limit
        m = acm.managers[1]
        assert m.revoked
        assert acm.revocations == 1
        assert acm.injector.stats.managers_revoked == 1
        assert acm.injector.stats.manager_bad_replies >= 2
        # Revoked manager's blocks went back to plain global LRU...
        assert all(b.pool_prio is None for b in cache.blocks_owned_by(1))
        # ... and replacement still works (candidate goes, no consult).
        _fill(cache, 1, 8)
        cache.check_invariants()

    def test_forced_revocation_at_nth_consult(self):
        cache, acm = self._managed_cache(FaultPlan(revoke_pids=(1,), revoke_after_consults=2))
        _fill(cache, 1, 7)
        assert acm.managers[1].revoked
        assert acm.injector.stats.manager_forced_revocations == 1

    def test_single_fault_under_limit_only_falls_back(self):
        cache, acm = self._managed_cache(
            FaultPlan(seed=3, manager_timeout_rate=1.0, manager_fault_limit=10**6)
        )
        _fill(cache, 1, 6)
        m = acm.managers[1]
        assert not m.revoked  # tolerated: fell back to the candidate only
        assert acm.injector.stats.manager_timeouts >= 1


class TestRevokedDirectives:
    """Satellite fix: directives for a revoked pid return a *defined* error
    instead of silently re-registering the manager."""

    def _revoked(self):
        acm = ACM()
        cache = BufferCache(4, acm=acm)
        acm.set_priority(1, 1, 2)
        acm.managers[1].revoke()
        acm.revocations += 1
        return acm, cache

    def test_register_refused(self):
        acm, _ = self._revoked()
        with pytest.raises(RevokedError):
            acm.register(1)
        assert acm.managers[1].revoked  # still revoked, not re-granted

    def test_set_and_get_directives_raise(self):
        acm, _ = self._revoked()
        with pytest.raises(RevokedError):
            acm.set_priority(1, 1, 3)
        with pytest.raises(RevokedError):
            acm.get_priority(1, 1)
        with pytest.raises(RevokedError):
            acm.set_policy(1, 0, "mru")
        with pytest.raises(RevokedError):
            acm.get_policy(1, 0)
        with pytest.raises(RevokedError):
            acm.set_temppri(1, 1, 0, 3, -1)

    def test_absent_manager_still_gets_defaults(self):
        acm, _ = self._revoked()
        assert acm.get_priority(2, 1) == 0  # never registered: default, no error
        assert acm.get_policy(2, 0).value == "lru"

    def test_fbehavior_maps_to_typed_error(self):
        acm, _ = self._revoked()
        with pytest.raises(FBehaviorRevokedError):
            fbehavior(acm, None, 1, FBehaviorOp.GET_PRIORITY, (1,))

    def test_upcall_registration_refused(self):
        acm = UpcallACM()  # an ACM with the upcall interface
        acm.set_priority(1, 1, 1)
        acm.managers[1].revoke()
        with pytest.raises(RevokedError):
            acm.register_handler(1, LRUHandler())

    def test_wire_code_is_revoked(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon, name="doomed")
            await client.open("f", size_blocks=4)
            await client.set_priority("f", 1)
            daemon.service.acm.managers[client.pid].revoke()
            with pytest.raises(ServerError) as info:
                await client.get_priority("f")
            assert info.value.code == "REVOKED"
            with pytest.raises(ServerError) as info:
                await client.set_policy(0, "mru")
            assert info.value.code == "REVOKED"
            stats = await client.stats()
            entry = next(s for s in stats["sessions"] if s["pid"] == client.pid)
            assert entry["revoked"] is True
            await client.aclose()
            await daemon.aclose()

        run(go())


# -- client resilience -----------------------------------------------------


class TestClientResilience:
    def test_timeout_raises_request_timeout(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon, name="impatient", retry=RetryPolicy(timeout_s=0.05, max_retries=0)
            )
            await client.open("f", size_blocks=2)
            daemon.pause()  # requests queue but are never applied
            with pytest.raises(RequestTimeout):
                await client.read("f", 0)
            assert client.timeouts == 1
            daemon.resume()
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_idempotent_retry_survives_paused_server(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon,
                name="patient",
                retry=RetryPolicy(timeout_s=0.1, max_retries=5, backoff_base_s=0.01),
            )
            await client.open("f", size_blocks=2)
            daemon.pause()
            asyncio.get_running_loop().call_later(0.15, daemon.resume)
            # The first send is applied when the daemon resumes, so the
            # retried duplicate sees a hit — duplicate reads are harmless,
            # which is exactly why ``read`` is on the idempotent list.
            assert await client.read("f", 0) in (False, True)
            assert client.retries >= 1
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_write_is_never_auto_retried(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon,
                name="writer",
                retry=RetryPolicy(timeout_s=0.05, max_retries=5, backoff_base_s=0.01),
            )
            await client.open("f", size_blocks=2)
            daemon.pause()
            with pytest.raises(RequestTimeout):
                await client.write("f", 0)
            assert client.retries == 0  # non-idempotent: no silent duplicate
            daemon.resume()
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_reconnect_resumes_same_kernel_pid(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(
                daemon,
                name="phoenix",
                retry=RetryPolicy(timeout_s=1.0, max_retries=3, backoff_base_s=0.01),
            )
            await client.open("f", size_blocks=4)
            await client.set_priority("f", 2)
            pid = client.pid
            # Sever the transport out from under the client.
            client._transport.close()
            await asyncio.sleep(0)
            assert await client.get_priority("f") == 2  # reconnect + resume
            assert client.pid == pid
            assert client.reconnects == 1
            stats = await client.stats()
            assert [s["pid"] for s in stats["sessions"]].count(pid) == 1
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_resume_with_wrong_token_is_refused(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon, name="a")
            await client.aclose()  # session closed: pid is resumable...
            thief = await CacheClient.connect_inproc(daemon, name="thief")
            with pytest.raises(ServerError) as info:
                await thief.call("hello", resume=client.pid, token="tok-forged")
            assert info.value.code == "BAD_REQUEST"
            await thief.aclose()
            await daemon.aclose()

        run(go())


# -- the acceptance scenario -----------------------------------------------


ACCEPTANCE_PLAN = FaultPlan(
    seed=11,
    disk_error_rate=0.02,  # ≥ 1 % as the issue demands
    disk_stall_rate=0.01,
    torn_write_rate=0.01,
    drop_frame_rate=0.01,
    garble_frame_rate=0.005,
    slow_loris_rate=0.01,
    slow_loris_s=0.001,
    revoke_pids=(1,),
    revoke_after_consults=5,
)


class TestAcceptanceScenario:
    def test_four_client_run_survives_the_plan(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5, sanitize=True, faults=ACCEPTANCE_PLAN))
            retry = RetryPolicy(timeout_s=2.0, max_retries=8, backoff_base_s=0.005)
            clients = [
                await CacheClient.connect_inproc(daemon, name=f"c{i}", retry=retry)
                for i in range(1, 5)
            ]

            async def retrying(thunk):
                # The documented caller pattern for non-idempotent verbs:
                # the client never auto-retries them (a dropped *reply*
                # would double-apply), but whole-block writes and absolute
                # set_* directives are idempotent at the application level.
                for _ in range(10):
                    try:
                        return await thunk()
                    except (RequestTimeout, ConnectionError):
                        await asyncio.sleep(0.01)
                raise AssertionError("request never made it through")

            # Directives first, sequentially: the fault plan revokes pid 1
            # at its Nth consultation, and consultations only start once
            # replacement traffic flows below.
            for idx, client in enumerate(clients, start=1):
                path = f"file{idx}"
                await client.open(path, size_blocks=24)
                await retrying(lambda c=client, p=path, i=idx: c.set_priority(p, i % 3))
                if idx % 2:
                    await retrying(lambda c=client, i=idx: c.set_policy(i % 3, "mru"))

            async def workload(idx, client):
                path = f"file{idx}"
                for i in range(120):
                    if i % 3 == 0:
                        await retrying(lambda c=client, b=i % 24: c.write(path, b, whole=True))
                    else:
                        await client.read(path, (i * 5) % 24)

            await asyncio.gather(*(workload(i, c) for i, c in enumerate(clients, start=1)))

            stats = await clients[0].stats()
            faults = stats["faults"]
            assert faults["enabled"] is True
            assert faults["injected_total"] > 0
            assert faults["disk_errors"] > 0
            # The scripted revocation fired and is visible end to end.
            assert faults["manager_forced_revocations"] == 1
            assert faults["revocations"] >= 1
            assert any(s["revoked"] for s in stats["sessions"])

            for client in clients:
                await client.aclose()
            summary = await daemon.aclose()
            service = daemon.service
            # Every surviving dirty block was flushed at shutdown.
            assert len(service.cache.dirty_blocks()) == 0
            assert summary["flushed_blocks"] + service.lost_writes > 0
            # The sanitizer observed the whole run and is still clean.
            checker = service.cache.sanitizer
            assert checker is not None and checker.sweeps > 0
            checker.check_now("acceptance-final")
            assert daemon.errors == []

        run(go())

    def test_acceptance_plan_round_trips_through_cli_spec(self):
        spec = json.dumps(ACCEPTANCE_PLAN.as_dict())
        assert FaultPlan.from_spec(spec) == ACCEPTANCE_PLAN
