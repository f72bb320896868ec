"""repro.cluster: ring, supervisor, routing, aggregation, equivalence.

The load-bearing test is :class:`TestClusterEquivalence`: a 3-shard
cluster must do exactly the block I/O that three independent single
daemons do when handed the same ring-partitioned trace — sharding adds
routing, never cache behaviour.
"""

import asyncio
import contextlib
import io
import random

import pytest

from conftest import rendezvous
from repro.cluster import (
    ClusterClient,
    ClusterSupervisor,
    HashRing,
    HealthMonitor,
    merge_prometheus,
    stable_hash,
)
from repro.cluster.aggregate import merge_snapshots, merge_stats
from repro.harness.cli import metrics_main
from repro.server import CacheClient, CacheDaemon, build_config
from repro.server.client import ServerError
from repro.server.protocol import MAX_BATCH_OPS


def run(coro):
    return asyncio.run(coro)


# -- the ring --------------------------------------------------------------


class TestHashRing:
    def test_stable_hash_is_process_stable(self):
        # Pinned values: a changed hash function would silently re-partition
        # every deployed cluster.
        assert stable_hash("/data/a.bin") == stable_hash("/data/a.bin")
        assert stable_hash("shard-0#0") != stable_hash("shard-0#1")

    def test_same_shards_same_ring(self):
        a = HashRing(["s0", "s1", "s2"], vnodes=32)
        b = HashRing(["s0", "s1", "s2"], vnodes=32)
        for i in range(200):
            key = f"/f{i}.bin"
            assert a.shard_for(key) == b.shard_for(key)

    def test_all_shards_get_keys(self):
        ring = HashRing(["s0", "s1", "s2"], vnodes=64)
        groups = ring.partition(f"/f{i}.bin" for i in range(300))
        assert set(groups) == {"s0", "s1", "s2"}
        assert all(groups.values())
        assert sum(len(v) for v in groups.values()) == 300

    def test_exclude_remaps_to_live_shard(self):
        ring = HashRing(["s0", "s1", "s2"], vnodes=16)
        key = "/victim.bin"
        owner = ring.shard_for(key)
        fallback = ring.shard_for(key, exclude=frozenset({owner}))
        assert fallback != owner
        with pytest.raises(LookupError):
            ring.shard_for(key, exclude=frozenset({"s0", "s1", "s2"}))

    def test_remove_shard_only_moves_its_keys(self):
        ring = HashRing(["s0", "s1", "s2"], vnodes=32)
        keys = [f"/f{i}.bin" for i in range(200)]
        before = {k: ring.shard_for(k) for k in keys}
        ring.remove_shard("s1")
        for key, owner in before.items():
            if owner != "s1":
                assert ring.shard_for(key) == owner

    def test_spans_sum_to_one(self):
        ring = HashRing(["s0", "s1", "s2", "s3"], vnodes=64)
        spans = ring.spans()
        assert abs(sum(spans.values()) - 1.0) < 1e-9
        assert all(width > 0 for width in spans.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([], vnodes=8)
        with pytest.raises(ValueError):
            HashRing(["s0"], vnodes=0)
        ring = HashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add_shard("s0")
        with pytest.raises(ValueError):
            ring.remove_shard("nope")


# -- aggregation (pure functions) ------------------------------------------


PROM_A = """# HELP repro_x_total Things.
# TYPE repro_x_total counter
repro_x_total 3
# HELP repro_y Y.
# TYPE repro_y gauge
repro_y{kind="a"} 1
"""

PROM_B = """# HELP repro_x_total Things.
# TYPE repro_x_total counter
repro_x_total 4
"""


class TestMergePrometheus:
    def test_headers_deduplicated_and_samples_labelled(self):
        merged = merge_prometheus({"shard-0": PROM_A, "shard-1": PROM_B})
        assert merged.count("# HELP repro_x_total") == 1
        assert merged.count("# TYPE repro_x_total") == 1
        assert 'repro_x_total{shard="shard-0"} 3' in merged
        assert 'repro_x_total{shard="shard-1"} 4' in merged
        # existing labels keep their place after the shard label
        assert 'repro_y{shard="shard-0",kind="a"} 1' in merged

    def test_samples_grouped_under_their_family(self):
        merged = merge_prometheus({"shard-0": PROM_A, "shard-1": PROM_B})
        lines = merged.splitlines()
        x_header = lines.index("# TYPE repro_x_total counter")
        y_header = lines.index("# TYPE repro_y gauge")
        both = [i for i, line in enumerate(lines) if line.startswith("repro_x_total{")]
        assert all(x_header < i < y_header for i in both)

    def test_merge_snapshots_adds_shard_label(self):
        snap = {"repro_x_total": {"type": "counter", "help": "X.",
                                  "samples": [{"labels": {"pid": "1"}, "value": 2}]}}
        merged = merge_snapshots({"shard-0": snap, "shard-1": snap})
        samples = merged["repro_x_total"]["samples"]
        assert {s["labels"]["shard"] for s in samples} == {"shard-0", "shard-1"}
        assert all(s["labels"]["pid"] == "1" for s in samples)


# -- supervisor + client ---------------------------------------------------


class TestClusterBasics:
    def test_routed_ops_land_on_the_owning_shard(self):
        async def go():
            sup = ClusterSupervisor(shards=3, cache_mb=1, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            paths = [f"/f{i}.bin" for i in range(30)]
            for path in paths:
                await cc.open(path, size_blocks=2)
                await cc.read(path, 0)
            groups = sup.ring.partition(paths)
            for sid, owned in groups.items():
                stats = await cc.clients[sid].stats()
                (entry,) = stats["sessions"]
                # exactly the opens/reads for this shard's paths, no more
                assert entry["opens"] == len(owned)
                assert entry["accesses"] == len(owned)
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_ops_for_different_shards_are_not_serialised(self):
        """Two concurrent reads whose paths live on different shards: each
        shard's read waits until the other's has started, so a client that
        ran ops bound for different shards one at a time would time out."""

        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            try:
                paths = {}
                for i in range(100):
                    paths.setdefault(cc.shard_of(f"/c{i}.bin"), f"/c{i}.bin")
                assert len(paths) == 2
                for path in paths.values():
                    await cc.open(path, size_blocks=1)
                rendezvous([cc.clients[sid] for sid in paths], "read")
                reads = asyncio.gather(*(cc.read(p, 0) for p in paths.values()))
                assert await asyncio.wait_for(reads, 5.0) == [False, False]
            finally:
                await cc.aclose()
                await sup.aclose()

        run(go())

    def test_fanout_stats_flush_and_policy(self):
        async def go():
            sup = ClusterSupervisor(shards=3, cache_mb=1, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            for i in range(12):
                path = f"/w{i}.bin"
                await cc.open(path, size_blocks=2)
                await cc.write(path, 0)
            stats = await cc.stats()
            assert stats["shard_count"] == 3
            assert stats["totals"]["accesses"] == 12
            assert set(stats["shards"]) == set(sup.ring.shards)
            flushed = await cc.flush()
            assert flushed == 12  # every written block was dirty
            await cc.set_policy(0, "mru")
            assert await cc.get_policy(0) == "mru"
            for sid in sup.ring.shards:  # fanned out to every shard
                assert await cc.clients[sid].get_policy(0) == "mru"
            pongs = await cc.ping()
            assert all(v.get("pong") for v in pongs.values())
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_cluster_metrics_have_shard_labels_everywhere(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            await cc.open("/m.bin", size_blocks=2)
            await cc.read("/m.bin", 0)
            reply = await cc.metrics(format="prometheus")
            text = reply["text"]
            assert text.count("# TYPE repro_cache_frames gauge") == 1
            for line in text.splitlines():
                if line.startswith("#") or not line.strip():
                    continue
                assert 'shard="' in line, f"unlabelled sample: {line}"
            # the cluster's own families ride along, already shard-labelled
            assert 'repro_cluster_requests_total{shard="shard-' in text
            snap = await cc.metrics(format="json")
            fam = snap["telemetry"]["metrics"]["repro_cache_frames"]
            shards = {s["labels"]["shard"] for s in fam["samples"]}
            assert shards == {"shard-0", "shard-1"}
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_route_spans_and_request_counters(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1, trace=True, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            await cc.open("/s.bin", size_blocks=2)
            await cc.read("/s.bin", 0)
            records = sup.telemetry.tracer.records()
            # R=1 block ops take the replication path, like R=N ones
            names = [r["name"] for r in records]
            assert names.count("replication.open") == 1
            assert names.count("replication.read") == 1
            assert "cluster.route" not in names
            sid = cc.shard_of("/s.bin")
            (read,) = [r for r in records if r["name"] == "replication.read"]
            assert read["attrs"]["layer"] == "replication"
            assert read["attrs"]["shard"] == sid
            assert sup.telemetry.registry.value(
                "repro_cluster_requests_total", shard=sid
            ) == 2.0
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_generic_call_routes_by_verb_table(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            # a fan-out verb reaches every shard, not just the first
            await cc.call("set_policy", prio=1, policy="mru")
            for client in cc.clients.values():
                assert await client.get_policy(1) == "mru"
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_generic_block_calls_take_the_replication_path(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1, replicas=2)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="t")
            assert (await cc.call("open", path="/g.bin", size_blocks=4))["path"] == "/g.bin"
            assert await cc.call("write", path="/g.bin", blockno=1) == {"hit": False}
            # both replicas applied the write, so each holds the block warm
            for client in cc.clients.values():
                assert await client.read("/g.bin", 1) is True
            reply = await cc.call("readv", ops=[{"path": "/g.bin", "blockno": 1}])
            assert reply == {"results": [{"hit": True}]}
            reply = await cc.call("writev", ops=[{"path": "/g.bin", "blockno": 2}])
            assert reply == {"results": [{"hit": False}]}
            assert await cc.call("invalidate", path="/g.bin") == {"dropped": 4}
            # a malformed request still gets the protocol's own error reply
            with pytest.raises(ServerError) as info:
                await cc.call("read", path="/g.bin")
            assert info.value.code == "BAD_REQUEST"
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_kill_marks_down_and_refuses_connections(self):
        async def go():
            sup = ClusterSupervisor(shards=2, cache_mb=1)
            await sup.start()
            await sup.kill("shard-0")
            assert sup.statuses()["shard-0"] == "down"
            with pytest.raises(ConnectionError):
                await sup.daemon_of("shard-0").connect_inproc()
            assert sup.telemetry.registry.value(
                "repro_cluster_shard_up", shard="shard-0"
            ) == 0.0
            await sup.restart("shard-0")
            assert sup.statuses()["shard-0"] == "up"
            client = await CacheClient.connect(sup.endpoints("shard-0"), name="late")
            assert (await client.ping())["pong"] is True
            await client.aclose()
            await sup.aclose()

        run(go())

    def test_cluster_snapshot_shape(self):
        async def go():
            sup = ClusterSupervisor(shards=2, vnodes=8, cache_mb=1)
            await sup.start()
            snap = sup.cluster_snapshot()
            assert set(snap["shards"]) == {"shard-0", "shard-1"}
            assert snap["vnodes"] == 8
            assert abs(sum(snap["spans"].values()) - 1.0) < 1e-9
            await sup.aclose()

        run(go())


# -- batches above MAX_BATCH_OPS, at R=1 and R=2 ----------------------------


@pytest.mark.parametrize("replicas", [1, 2])
class TestBatchSplitRegression:
    """A caller-sized batch travels as several frames of at most
    ``MAX_BATCH_OPS`` ops per shard, whatever the replica count."""

    async def _cluster(self, replicas, paths):
        sup = ClusterSupervisor(shards=2, cache_mb=2, replicas=replicas)
        await sup.start()
        cc = await ClusterClient.connect(sup, name="t")
        for path in paths:
            await cc.open(path, size_blocks=4)
        return sup, cc

    def test_readv_above_max_batch_ops_is_chunked(self, replicas):
        async def go():
            paths = [f"/big{i}.bin" for i in range(8)]
            sup, cc = await self._cluster(replicas, paths)
            ops = [(paths[i % len(paths)], i % 4) for i in range(MAX_BATCH_OPS + 300)]
            results = await cc.readv(ops)
            assert len(results) == len(ops)
            assert all("hit" in r and "error" not in r for r in results)
            # re-merge must preserve op order across the chunk boundary
            warm = await cc.readv(ops[:8])
            assert [r["hit"] for r in warm] == [True] * 8
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_single_path_readv_above_max_batch_ops(self, replicas):
        async def go():
            sup, cc = await self._cluster(replicas, ["/one.bin"])
            ops = [("/one.bin", i % 4) for i in range(MAX_BATCH_OPS + 1)]
            results = await cc.readv(ops)
            # the first touch of each block misses, every later one hits
            assert [r["hit"] for r in results] == [i >= 4 for i in range(len(ops))]
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_writev_above_max_batch_ops_is_chunked(self, replicas):
        async def go():
            paths = [f"/wb{i}.bin" for i in range(4)]
            sup, cc = await self._cluster(replicas, paths)
            ops = [(f"/wb{i % 4}.bin", i % 4, True) for i in range(MAX_BATCH_OPS + 50)]
            results = await cc.writev(ops)
            assert len(results) == len(ops)
            assert all("hit" in r and "error" not in r for r in results)
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_writev_raises_when_every_shard_raised(self, replicas, monkeypatch):
        async def go():
            paths = [f"/down{i}.bin" for i in range(4)]
            sup, cc = await self._cluster(replicas, paths)

            async def refuse(self, ops):
                raise ServerError("SHUTTING_DOWN", "daemon is draining")

            monkeypatch.setattr(CacheClient, "writev", refuse)
            with pytest.raises(ServerError) as info:
                await cc.writev([(path, 0) for path in paths])
            assert info.value.code == "SHUTTING_DOWN"
            await cc.aclose()
            await sup.aclose()

        run(go())

    def test_writev_keeps_a_refusing_shards_error(self, replicas):
        async def go():
            paths = [f"/part{i}.bin" for i in range(8)]
            sup, cc = await self._cluster(replicas, paths)

            async def refuse(ops):
                raise ServerError("BUSY", "over the pending limit")

            cc.clients["shard-0"].writev = refuse
            results = await cc.writev([(path, 0) for path in paths])
            # an op with no replica but the refusing shard keeps its error
            for path, result in zip(paths, results):
                if cc.replication.replica_sids(path) == ["shard-0"]:
                    assert result == {"code": "BUSY", "error": "over the pending limit"}
                else:
                    assert "hit" in result
            if replicas == 1:
                assert any("code" in result for result in results)
            await cc.aclose()
            await sup.aclose()

        run(go())


# -- the equivalence check -------------------------------------------------


def _trace(paths, blocks_per_file, ops):
    """A deterministic mixed read/write op list over ``paths``."""
    rng = random.Random(0x5EED)
    script = [("open", p) for p in paths]
    for _ in range(ops):
        path = rng.choice(paths)
        blockno = rng.randrange(blocks_per_file)
        kind = "write" if rng.random() < 0.3 else "read"
        script.append((kind, path, blockno))
    return script


async def _apply(client, op):
    if op[0] == "open":
        await client.open(op[1], size_blocks=4)
    elif op[0] == "read":
        await client.read(op[1], op[2])
    else:
        await client.write(op[1], op[2])


_COUNTERS = ("opens", "accesses", "hits", "misses", "disk_reads", "disk_writes", "block_ios")


class TestClusterEquivalence:
    def test_three_shards_match_three_single_daemons_exactly(self):
        """Acceptance criterion: per-shard block I/O counts match three
        independent single-daemon runs of the ring-partitioned trace."""

        async def go():
            paths = [f"/eq{i}.dat" for i in range(18)]
            script = _trace(paths, blocks_per_file=4, ops=160)
            # small cache -> real eviction pressure on every shard
            sup = ClusterSupervisor(shards=3, cache_mb=0.25, replicas=1)
            await sup.start()
            cc = await ClusterClient.connect(sup, name="eq")
            for op in script:
                await _apply(cc, op)
            await cc.flush()
            cluster_counts = {}
            for sid in sup.ring.shards:
                stats = await cc.clients[sid].stats()
                (entry,) = stats["sessions"]
                cluster_counts[sid] = {k: entry[k] for k in _COUNTERS}
            groups = sup.ring.partition(paths)
            await cc.aclose()
            await sup.aclose()

            for sid in groups:
                daemon = CacheDaemon(build_config(cache_mb=0.25))
                client = await CacheClient.connect_inproc(daemon, name="solo")
                owned = set(groups[sid])
                for op in script:
                    if op[1] in owned:
                        await _apply(client, op)
                await client.flush()
                stats = await client.stats()
                (entry,) = stats["sessions"]
                solo = {k: entry[k] for k in _COUNTERS}
                assert solo == cluster_counts[sid], f"{sid} diverged"
                await client.aclose()
                await daemon.aclose()

        run(go())


# -- multi-endpoint metrics CLI --------------------------------------------


async def _scrape_cli(argv):
    """Run ``metrics_main`` (which owns its own event loop) off-loop,
    with stdout captured; returns (exit_code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = await asyncio.to_thread(metrics_main, argv)
    return rc, out.getvalue()


async def _seeded_daemon():
    daemon = CacheDaemon(build_config(cache_mb=1))
    host, port = await daemon.start_tcp("127.0.0.1", 0)
    client = await CacheClient.connect_tcp(host, port, name="seed")
    await client.open("/seed.bin", size_blocks=2)
    await client.read("/seed.bin", 0)
    await client.aclose()
    return daemon, host, port


class TestMetricsCLIMultiEndpoint:
    def test_repeated_connect_merges_without_duplicate_headers(self):
        async def go():
            d0, h0, p0 = await _seeded_daemon()
            d1, h1, p1 = await _seeded_daemon()
            try:
                rc, text = await _scrape_cli(
                    ["--format", "prometheus",
                     "--connect", f"{h0}:{p0}", "--connect", f"{h1}:{p1}"]
                )
                assert rc == 0
                assert text.count("# TYPE repro_cache_frames gauge") == 1
                assert f'shard="{h0}:{p0}"' in text
                assert f'shard="{h1}:{p1}"' in text
                sample_lines = [
                    line for line in text.splitlines()
                    if line.strip() and not line.startswith("#")
                ]
                assert all('shard="' in line for line in sample_lines)
            finally:
                await d0.aclose()
                await d1.aclose()

        run(go())

    def test_all_shards_scrapes_consecutive_ports(self):
        """--all-shards N walks --port..--port+N-1 on --host."""

        async def go():
            daemons = []
            base = None
            # Find two free consecutive ports by binding shard 0 ephemerally
            # and then asking for port+1 (retry a few times if taken).
            for _ in range(10):
                d0 = CacheDaemon(build_config(cache_mb=1))
                host, port = await d0.start_tcp("127.0.0.1", 0)
                d1 = CacheDaemon(build_config(cache_mb=1))
                try:
                    await d1.start_tcp("127.0.0.1", port + 1)
                except OSError:
                    await d0.aclose()
                    await d1.aclose()
                    continue
                daemons = [d0, d1]
                base = port
                break
            assert daemons, "could not find consecutive free ports"
            try:
                rc, text = await _scrape_cli(
                    ["--port", str(base), "--all-shards", "2", "--format", "prometheus"]
                )
                assert rc == 0
                assert f'shard="127.0.0.1:{base}"' in text
                assert f'shard="127.0.0.1:{base + 1}"' in text
                assert text.count("# TYPE repro_cache_frames gauge") == 1
            finally:
                for daemon in daemons:
                    await daemon.aclose()

        run(go())

    def test_single_endpoint_output_is_unchanged(self):
        async def go():
            daemon = CacheDaemon(build_config(cache_mb=1))
            host, port = await daemon.start_tcp("127.0.0.1", 0)
            try:
                rc, text = await _scrape_cli(
                    ["--host", host, "--port", str(port), "--format", "prometheus"]
                )
                assert rc == 0
                assert "# TYPE" in text
                assert 'shard="' not in text  # classic single-daemon scrape
            finally:
                await daemon.aclose()

        run(go())

    def test_json_multi_endpoint_keyed_by_endpoint(self):
        async def go():
            d0, h0, p0 = await _seeded_daemon()
            d1, h1, p1 = await _seeded_daemon()
            try:
                rc, text = await _scrape_cli(
                    ["--format", "json",
                     "--connect", f"{h0}:{p0}", "--connect", f"{h1}:{p1}"]
                )
                assert rc == 0
                import json

                payload = json.loads(text)
                assert set(payload) == {f"{h0}:{p0}", f"{h1}:{p1}"}
            finally:
                await d0.aclose()
                await d1.aclose()

        run(go())

    def test_missing_endpoint_arguments_rejected(self):
        with pytest.raises(SystemExit):
            metrics_main(["--format", "json"])
        with pytest.raises(SystemExit):
            metrics_main(["--all-shards", "2"])  # needs --port
        with pytest.raises(SystemExit):
            metrics_main(["--connect", "not-an-endpoint"])


# -- merge_stats shape -----------------------------------------------------


class TestMergeStats:
    def test_totals_and_ratio(self):
        reply = {
            "server": {"sessions": 1, "requests_served": 10},
            "cache": {"resident": 5, "frames": 8},
            "sessions": [
                {"opens": 2, "accesses": 8, "hits": 6, "misses": 2,
                 "disk_reads": 2, "disk_writes": 1, "block_ios": 3,
                 "directives": 0, "busy_rejections": 0}
            ],
        }
        merged = merge_stats({"shard-0": reply, "shard-1": reply})
        assert merged["shard_count"] == 2
        assert merged["sessions"] == 2
        assert merged["requests_served"] == 20
        assert merged["totals"]["accesses"] == 16
        assert merged["hit_ratio"] == pytest.approx(12 / 16)
        assert merged["resident"] == 10 and merged["frames"] == 16
