"""Collect-on-scrape bridges from existing counter structures.

The simulator already keeps authoritative totals — ``CacheStats`` on the
buffer cache, ``DiskStats`` per drive, ``FaultStats`` on the injector,
per-manager pool sizes on the ACM.  These collectors copy those totals
into registry families *at export time*, so attaching full cache/disk
metrics to a machine adds zero work to the access path.

Everything here is duck-typed on purpose: the collectors only read public
attributes, so :mod:`repro.telemetry` never imports the layers it
observes (and the layers only see an opaque ``telemetry`` attribute).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.telemetry.metrics import MetricFamily, MetricsRegistry

__all__ = [
    "cache_collector",
    "acm_collector",
    "disk_collector",
    "fault_collector",
    "attach_standard_collectors",
]

_CACHE_TOTALS = (
    "accesses",
    "hits",
    "misses",
    "evictions",
    "dirty_evictions",
    "consultations",
    "overrules",
    "swaps",
    "prefetches",
)

_DISK_TOTALS = ("reads", "writes", "blocks_read", "blocks_written", "faults")

_FAULT_TOTALS = (
    "disk_errors",
    "disk_stalls",
    "torn_writes",
    "manager_bad_replies",
    "manager_timeouts",
    "manager_exceptions",
    "manager_forced_revocations",
    "frames_dropped",
    "frames_garbled",
    "frames_delayed",
    "disk_retries",
    "writeback_requeues",
    "flush_retries",
    "managers_revoked",
    "aborted_reads",
)


def _zero_children(family: MetricFamily) -> None:
    """Reset a scrape-time gauge family whose label set is dynamic, so
    children for departed pids/pools do not linger with stale values."""
    for _, child in family.children():
        child.set(0)  # type: ignore[union-attr]


def cache_collector(cache: Any) -> Callable[[MetricsRegistry], None]:
    """Metrics from a :class:`~repro.core.buffercache.BufferCache`."""

    def collect(reg: MetricsRegistry) -> None:
        stats = cache.stats
        for field in _CACHE_TOTALS:
            reg.counter(
                f"repro_cache_{field}_total", f"Cache-wide {field.replace('_', ' ')}."
            ).unlabelled.set_total(getattr(stats, field))
        reg.gauge("repro_cache_frames", "Configured cache frames.").set(cache.nframes)
        reg.gauge("repro_cache_resident_frames", "Frames currently in use.").set(
            cache.resident
        )
        reg.gauge("repro_cache_dirty_blocks", "Resident dirty blocks.").set(
            sum(1 for b in cache._blocks.values() if b.dirty)
        )
        ph = cache.placeholders
        reg.counter(
            "repro_placeholders_created_total", "Placeholders built on overrules."
        ).unlabelled.set_total(ph.created)
        reg.counter(
            "repro_placeholders_used_total",
            "Placeholders consumed by a miss (manager mistakes).",
        ).unlabelled.set_total(ph.consumed)
        reg.gauge("repro_placeholders_live", "Placeholders currently held.").set(len(ph))
        for name in ("accesses", "hits", "misses"):
            family = reg.counter(
                f"repro_cache_pid_{name}_total",
                f"Per-process {name}.",
                labels=("pid",),
            )
            for pid, counters in cache.per_pid.items():
                family.labels(pid=pid).set_total(getattr(counters, name))

    return collect


def acm_collector(acm: Any) -> Callable[[MetricsRegistry], None]:
    """Metrics from an :class:`~repro.core.acm.ACM` (or UpcallACM)."""

    def collect(reg: MetricsRegistry) -> None:
        reg.gauge("repro_acm_managers", "Registered managers (incl. revoked).").set(
            len(acm.managers)
        )
        reg.counter(
            "repro_acm_revocations_total", "Managers stripped of cache control."
        ).unlabelled.set_total(acm.revocations)
        reg.counter(
            "repro_acm_upcalls_total", "Upcalls issued to user-level handlers."
        ).unlabelled.set_total(acm.upcalls)
        pools = reg.gauge(
            "repro_acm_pool_blocks",
            "Blocks per manager priority pool.",
            labels=("pid", "prio"),
        )
        _zero_children(pools)
        decisions = reg.counter(
            "repro_acm_manager_decisions_total",
            "Replacement overrules issued per manager.",
            labels=("pid",),
        )
        mistakes = reg.counter(
            "repro_acm_manager_mistakes_total",
            "Placeholders that fired per manager.",
            labels=("pid",),
        )
        for pid, manager in acm.managers.items():
            decisions.labels(pid=pid).set_total(manager.decisions)
            mistakes.labels(pid=pid).set_total(manager.mistakes)
            for prio, pool in manager.pools.items():
                pools.labels(pid=pid, prio=prio).set(len(pool))

    return collect


def disk_collector(
    drives: Iterable[Tuple[str, Any]]
) -> Callable[[MetricsRegistry], None]:
    """Metrics from ``(name, DiskDrive)`` pairs."""
    pairs = list(drives)

    def collect(reg: MetricsRegistry) -> None:
        for field in _DISK_TOTALS:
            family = reg.counter(
                f"repro_disk_{field}_total",
                f"Per-drive {field.replace('_', ' ')}.",
                labels=("disk",),
            )
            for name, drive in pairs:
                family.labels(disk=name).set_total(getattr(drive.stats, field))
        busy = reg.counter(
            "repro_disk_busy_seconds_total",
            "Simulated seconds the drive spent servicing.",
            labels=("disk",),
        )
        wait = reg.counter(
            "repro_disk_wait_seconds_total",
            "Simulated seconds requests spent queued.",
            labels=("disk",),
        )
        depth = reg.gauge(
            "repro_disk_queue_depth", "Requests currently queued.", labels=("disk",)
        )
        picks = reg.counter(
            "repro_disk_sched_picks_total",
            "Scheduler decisions made.",
            labels=("disk", "sched"),
        )
        max_depth = reg.gauge(
            "repro_disk_sched_max_depth",
            "Deepest queue seen at a scheduling decision.",
            labels=("disk", "sched"),
        )
        for name, drive in pairs:
            busy.labels(disk=name).set_total(drive.stats.busy_time)
            wait.labels(disk=name).set_total(drive.stats.wait_time)
            depth.labels(disk=name).set(drive.queue_length)
            sched = drive.scheduler
            picks.labels(disk=name, sched=sched.name).set_total(
                getattr(sched, "picks", 0)
            )
            max_depth.labels(disk=name, sched=sched.name).set(
                getattr(sched, "max_depth", 0)
            )

    return collect


def fault_collector(injector: Any) -> Callable[[MetricsRegistry], None]:
    """Metrics from a :class:`~repro.faults.injector.FaultInjector`."""

    def collect(reg: MetricsRegistry) -> None:
        stats = injector.stats
        for field in _FAULT_TOTALS:
            reg.counter(
                f"repro_faults_{field}_total",
                f"Fault layer: {field.replace('_', ' ')}.",
            ).unlabelled.set_total(getattr(stats, field))

    return collect


def attach_standard_collectors(
    telemetry: Any,
    cache: Optional[Any] = None,
    acm: Optional[Any] = None,
    drives: Optional[Dict[str, Any]] = None,
    injector: Optional[Any] = None,
) -> None:
    """Register the collectors for whichever layers one machine has."""
    reg = telemetry.registry
    if cache is not None:
        reg.register_collector(cache_collector(cache))
    if acm is not None:
        reg.register_collector(acm_collector(acm))
    if drives:
        reg.register_collector(disk_collector(drives.items()))
    if injector is not None:
        reg.register_collector(fault_collector(injector))
