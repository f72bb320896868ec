"""Seeded request streams for the three serving workloads.

The program sees only generated ops: a stream is a pure function of the
workload's spec and ``--seed``, drawn from ``repro.workloads.production``.
One generation serves both phases of a run.  The closed loop ignores the
arrival stamps; the open loop issues each request at its stamp.  The kit
salts the arrival RNG separately, so the key stream is the same whatever
the arrival process is (``check_determinism`` asserts that on every run).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.cluster.ring import stable_hash
from repro.workloads.production import (
    ClosedLoop,
    PoissonArrivals,
    TrafficOp,
    TrafficProfile,
    format_trace,
    reference_stream,
)
from repro.workloads.registry import make_profile

#: one request a generator worker issues and waits for:
#: ``(due_s, reads, writes, logical_ops)`` with reads/writes as
#: ``(path, blockno)`` tuples — one block is a ``read``/``write`` call,
#: several are one ``readv``/``writev`` frame
Request = Tuple[float, Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...], int]

#: keep paths × blocks_per_file ≤ 80,000 per shard: the simulated RZ56
#: holds 85,120 blocks and ``open`` fails with FS beyond that
PATHS = 16_000
BLOCKS_PER_FILE = 4
SMOKE_SHRINK = 8


@dataclass(frozen=True)
class ServingSpec:
    """The fixed parameters of one serving workload."""

    name: str
    profile: str  # preset in repro.workloads.registry.PROFILES
    shards: int
    replicas: int
    connections: int  # CacheClients, or 1 for one ClusterClient
    inflight: int  # closed-loop requests outstanding per connection
    group: int  # consecutive logical ops carried by one request
    rate: float  # offered logical ops/s in the open-loop phase
    stream_ops: int  # length of the generated stream (lapped when exhausted)
    prefix_ops: int  # counted prefix: fixed-count, so counts compare across commits
    segment_ops: int  # the closed loop is measured in segments this long
    paths: int = PATHS

    def smoke(self) -> "ServingSpec":
        return replace(
            self,
            stream_ops=self.stream_ops // SMOKE_SHRINK,
            prefix_ops=self.prefix_ops // SMOKE_SHRINK,
            segment_ops=self.segment_ops // SMOKE_SHRINK,
            paths=self.paths // SMOKE_SHRINK,
        )


SERVING = {
    spec.name: spec
    for spec in (
        ServingSpec("single_ops", "etc", 1, 1, 2, 16, 1, 8_000.0, 120_000, 40_000, 10_000),
        # same topology, seed and key stream as single_ops, 64 ops a request
        ServingSpec("batched_ops", "etc", 1, 1, 2, 4, 64, 32_000.0, 120_000, 120_000, 32_000),
        ServingSpec("cluster_rw", "rtdata", 2, 2, 1, 32, 1, 1_000.0, 120_000, 30_000, 4_000),
    )
}


def make_traffic(spec: ServingSpec, open_loop: bool = True) -> TrafficProfile:
    arrivals = PoissonArrivals(spec.rate) if open_loop else ClosedLoop()
    return make_profile(
        spec.profile, paths=spec.paths, blocks_per_file=BLOCKS_PER_FILE, arrivals=arrivals
    )


@dataclass
class Stream:
    """A materialised stream, split by generator connection."""

    digest: str  # sha256 of the canonical reference_stream form
    span_s: float  # arrival stamp of the last op: one lap of the open loop
    opens: List[List[str]]  # every path of the keyspace, by connection
    requests: List[List[Request]]  # the whole stream, by connection
    prefix: List[List[Request]]  # the counted prefix of each connection


def build_stream(spec: ServingSpec, seed: int) -> Stream:
    profile = make_traffic(spec)
    ops: List[TrafficOp] = list(profile.ops(seed, spec.stream_ops))
    conns = spec.connections
    opens: List[List[str]] = [[] for _ in range(conns)]
    for key in range(profile.paths):
        path = profile.path_of(key)
        opens[stable_hash(path) % conns].append(path)
    split: List[List[TrafficOp]] = [[] for _ in range(conns)]
    for op in ops:
        split[stable_hash(op.path) % conns].append(op)
    requests: List[List[Request]] = []
    for sub in split:
        reqs: List[Request] = []
        for start in range(0, len(sub) - spec.group + 1, spec.group):
            chunk = sub[start : start + spec.group]
            reads = tuple((o.path, b) for o in chunk if o.op == "r" for b in o.blocks())
            writes = tuple((o.path, b) for o in chunk if o.op == "w" for b in o.blocks())
            reqs.append((chunk[-1].ts, reads, writes, spec.group))
        requests.append(reqs)
    prefix = [reqs[: len(reqs) * spec.prefix_ops // spec.stream_ops] for reqs in requests]
    digest = hashlib.sha256(format_trace(ops).encode()).hexdigest()
    return Stream(digest, ops[-1].ts, opens, requests, prefix)


def check_determinism(spec: ServingSpec, seed: int, count: int = 2_000) -> List[str]:
    """Same seed, same bytes; another seed, other bytes; keys ignore arrivals."""
    problems = []
    timed, untimed = make_traffic(spec), make_traffic(spec, open_loop=False)
    first = reference_stream(timed, seed, count)
    if first != reference_stream(make_traffic(spec), seed, count):
        problems.append("the same seed gave two different streams")
    if first == reference_stream(timed, seed + 1, count):
        problems.append("another seed gave the same stream")
    keys = [(o.path, o.op, o.blockno, o.size) for o in timed.ops(seed, count)]
    if keys != [(o.path, o.op, o.blockno, o.size) for o in untimed.ops(seed, count)]:
        problems.append("the key stream depends on the arrival process")
    return problems
