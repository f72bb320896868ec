"""repro.harness.load: the cluster load driver and its report, plus the
fan-out regression it exposed.

The regression class pins the defect found while scaling the driver to
thousands of sessions: a :class:`CacheClient` pending-map entry stranded
by any non-reader exit path (timeout, cancelled waiter, failed send).
The mega-batch regression it also exposed lives in ``test_cluster.py``.
"""

import asyncio
import contextlib

import pytest

from repro.cluster import ClusterClient, ClusterSupervisor
from repro.faults import FaultPlan
from repro.harness.load import (
    LOAD_LATENCY_BUCKETS,
    REPORT_SCHEMA,
    LoadDriver,
    load_main,
    render_report,
    validate_report,
)
from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.client import RetryPolicy
from repro.workloads.production import (
    PoissonArrivals,
    TrafficOp,
    hotspot_profile,
    uniform_profile,
)


def run(coro):
    return asyncio.run(coro)


def small_driver(**overrides):
    """An inproc driver sized for the test suite, closed-loop."""
    kwargs = dict(
        profile=hotspot_profile(paths=48, blocks_per_file=4),
        shards=2,
        sessions=8,
        ops=240,
        seed=11,
        spawn="inproc",
        depth=2,
        cache_mb=0.5,
    )
    kwargs.update(overrides)
    return LoadDriver(**kwargs)


class TestLoadDriver:
    def test_inproc_run_produces_valid_report(self):
        report = run(small_driver().run())
        validate_report(report)  # raises on any schema problem
        assert report["schema"] == REPORT_SCHEMA
        ops = report["ops"]
        assert ops["offered"] == 240
        assert ops["completed"] + ops["failed"] + ops["unissued"] == 240
        assert ops["failed"] == 0 and ops["unissued"] == 0
        assert ops["reads"] + ops["writes"] == ops["completed"]
        assert report["throughput"]["ops_per_sec"] > 0
        latency = report["latency"]
        assert latency["count"] == ops["completed"]
        assert 0 < latency["p50_s"] <= LOAD_LATENCY_BUCKETS[-1]
        assert latency["p50_s"] <= latency["p99_s"]
        assert 0.0 <= report["hit_ratio"]["overall"] <= 1.0
        # client-observed hits and the merged server stats must agree
        assert report["hit_ratio"]["server"] == pytest.approx(
            report["hit_ratio"]["overall"], abs=0.01
        )
        assert report["cluster"]["shard_count"] == 2

    def test_same_seed_same_offered_stream(self):
        a = small_driver().stream()
        b = small_driver().stream()
        assert a == b

    def test_trace_replay_run(self):
        trace = [
            TrafficOp(f"replay/{i % 6}.dat", "r" if i % 3 else "w", i % 4)
            for i in range(120)
        ]
        driver = LoadDriver(
            trace_ops=trace,
            shards=2,
            sessions=4,
            ops=120,
            spawn="inproc",
            cache_mb=0.5,
            blocks_per_file=4,
        )
        assert not driver.open_loop
        report = run(driver.run())
        assert report["ops"]["completed"] == 120
        assert report["profile"] == "trace"

    def test_open_loop_arrivals_are_honoured(self):
        # 240 ops at 2000/s must take at least ~100ms of offered time
        driver = small_driver(
            profile=uniform_profile(
                paths=32, blocks_per_file=4, arrivals=PoissonArrivals(2000.0)
            )
        )
        assert driver.open_loop
        report = run(driver.run())
        assert report["open_loop"] is True
        assert report["ops"]["completed"] == 240
        assert report["throughput"]["elapsed_s"] > 0.1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            LoadDriver()
        with pytest.raises(ValueError, match="exactly one"):
            LoadDriver(profile=uniform_profile(paths=8), trace_ops=[])
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), shards=0)
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), sessions=0)
        with pytest.raises(ValueError):
            LoadDriver(profile=uniform_profile(paths=8), depth=0)

    def test_validate_report_rejects_mutations(self):
        report = run(small_driver(ops=40, sessions=2).run())
        bad = dict(report, schema="repro.load/99")
        with pytest.raises(ValueError, match="schema"):
            validate_report(bad)
        bad = dict(report, ops=dict(report["ops"], completed=-1))
        with pytest.raises(ValueError, match="completed"):
            validate_report(bad)
        bad = dict(report, hit_ratio=dict(report["hit_ratio"], overall=1.5))
        with pytest.raises(ValueError, match="overall"):
            validate_report(bad)
        bad = dict(report)
        del bad["latency"]
        with pytest.raises(ValueError, match="latency"):
            validate_report(bad)

    def test_render_report_is_operator_readable(self):
        report = run(small_driver(ops=40, sessions=2).run())
        text = render_report(report)
        assert "ops/s" in text
        assert "p50" in text and "p99" in text
        assert "hit ratio" in text

    def test_cli_smoke(self, capsys):
        status = load_main(
            [
                "--profile", "uniform",
                "--paths", "32",
                "--blocks-per-file", "4",
                "--shards", "2",
                "--sessions", "4",
                "--ops", "80",
                "--closed-loop",
                "--spawn", "inproc",
                "--cache-mb", "0.5",
                "--json",
                "--quiet",
            ]
        )
        assert status == 0
        payload = capsys.readouterr().out
        assert REPORT_SCHEMA in payload

    def test_cli_bad_trace_exits_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a/f,frob,0\n")
        status = load_main(["--trace", str(path), "--spawn", "inproc"])
        assert status == 2
        err = capsys.readouterr().err
        assert f"{path}:1" in err and "unknown op" in err


# -- CacheClient pending-map regression ------------------------------------


def slow_daemon(delay_s):
    """A daemon whose inbound frames are all delayed by ``delay_s``."""
    return CacheDaemon(
        build_config(
            cache_mb=0.5,
            faults=FaultPlan(seed=1, slow_loris_rate=1.0, slow_loris_s=delay_s),
        )
    )


class TestPendingMapRegression:
    def test_timeout_unregisters_pending_entry(self):
        async def go():
            daemon = slow_daemon(0.5)
            client = await CacheClient.connect_inproc(daemon, name="t")
            for _ in range(5):
                with pytest.raises(asyncio.TimeoutError):
                    await client._call_once("ping", {}, 0.02)
            # Pre-fix, every timed-out request stranded its future here
            # forever — the map grew without bound under load.
            assert client._pending == {}
            assert client.timeouts == 5
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_cancelled_waiter_unregisters_pending_entry(self):
        async def go():
            daemon = slow_daemon(0.5)
            client = await CacheClient.connect_inproc(daemon, name="t")
            task = asyncio.ensure_future(client.ping())
            await asyncio.sleep(0.05)
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
            assert client._pending == {}
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_failed_send_unregisters_pending_entry(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=0.5))
            client = await CacheClient.connect_inproc(daemon, name="t")

            real_send = client._transport.send

            async def broken_send(message):
                raise RuntimeError("wire torn mid-send")

            client._transport.send = broken_send
            with pytest.raises(RuntimeError, match="wire torn"):
                await client._call_once("ping", {}, None)
            assert client._pending == {}
            client._transport.send = real_send
            await client.aclose()
            await daemon.aclose()

        run(go())

    def test_stalled_shard_leaves_no_pending_residue(self):
        # The ISSUE scenario: one shard of the cluster stalls (slow-loris
        # frame delivery) while sessions keep issuing; once the burst
        # completes every connection's pending map must drain to empty.
        async def go():
            sup = ClusterSupervisor(
                shards=3,
                cache_mb=0.5,
                replicas=1,
                shard_faults={
                    "shard-0": FaultPlan(
                        seed=7, slow_loris_rate=1.0, slow_loris_s=0.01
                    )
                },
            )
            await sup.start()
            cc = await ClusterClient.connect(
                sup, name="t", retry=RetryPolicy(timeout_s=10.0, max_retries=0)
            )
            paths = [f"/stall{i}.bin" for i in range(24)]
            for path in paths:
                await cc.open(path, size_blocks=2)
            await asyncio.gather(
                *(cc.read(path, 0) for path in paths for _ in range(4))
            )
            for client in cc.clients.values():
                assert client._pending == {}
            await cc.aclose()
            await sup.aclose()

        run(go())
