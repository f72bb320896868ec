"""Per-session counters and the ``stats`` snapshot shape.

The service layer keeps one :class:`SessionCounters` per connection pid;
the daemon merges them with queue state into the reply of the ``stats``
verb.  They are the per-pid counts of the engine the service and trace
replay share (:class:`repro.kernel.untimed.UntimedKernel`), which bumps
the block-level fields by the simulated kernel's rule, so service-side
numbers are directly comparable to simulation results.  (This module
itself is protocol-only: it never touches the kernel; see lint rule
R006.)

:func:`session_collector` copies the counters into the server's
:class:`~repro.telemetry.metrics.MetricsRegistry` at scrape time, as
``repro_session_<field>_total{pid=...}``, so the ``stats`` verb and the
``metrics`` verb read the same storage and cannot drift apart.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.telemetry.metrics import MetricsRegistry

#: the per-session counter fields, in wire order
SESSION_FIELDS = (
    "opens",
    "accesses",
    "hits",
    "misses",
    "disk_reads",
    "disk_writes",
    "directives",
    "busy_rejections",
)

_HELP = {
    "opens": "File opens performed for the session.",
    "accesses": "Block accesses (reads + writes) issued by the session.",
    "hits": "Accesses satisfied from the cache.",
    "misses": "Accesses that missed the cache.",
    "disk_reads": "Demand reads performed on the session's behalf.",
    "disk_writes": "Write-backs charged to the session (it owned the block).",
    "directives": "fbehavior directives applied.",
    "busy_rejections": "Requests bounced with BUSY by the global limit.",
}


class SessionCounters:
    """Cache-visible work done on behalf of one session, one integer
    attribute per field of :data:`SESSION_FIELDS`."""

    __slots__ = SESSION_FIELDS

    def __init__(self) -> None:
        for field in SESSION_FIELDS:
            setattr(self, field, 0)

    def inc(self, field: str, amount: int = 1) -> None:
        """Bump one counter."""
        setattr(self, field, getattr(self, field) + amount)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def block_ios(self) -> int:
        """The paper's headline metric: 8 KB transfers for this session."""
        return self.disk_reads + self.disk_writes

    def as_dict(self) -> Dict[str, Any]:
        return {
            "opens": self.opens,
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "disk_reads": self.disk_reads,
            "disk_writes": self.disk_writes,
            "block_ios": self.block_ios,
            "directives": self.directives,
            "busy_rejections": self.busy_rejections,
        }


def session_collector(
    counters: Dict[int, SessionCounters]
) -> Callable[[MetricsRegistry], None]:
    """A scrape-time collector exporting ``counters`` (pid -> counters)."""

    def collect(registry: MetricsRegistry) -> None:
        if not counters:
            return
        for field in SESSION_FIELDS:
            family = registry.counter(
                f"repro_session_{field}_total", _HELP[field], labels=("pid",)
            )
            for pid, session in counters.items():
                family.labels(pid=pid).set_total(getattr(session, field))

    return collect


def render_stats(snapshot: Dict[str, Any]) -> str:
    """A human-readable rendering of one ``stats`` reply (demo/CLI)."""
    server = snapshot.get("server", {})
    cache = snapshot.get("cache", {})
    lines = [
        "cache service: policy={policy} frames={frames} resident={resident}".format(
            policy=cache.get("policy", "?"),
            frames=cache.get("frames", "?"),
            resident=cache.get("resident", "?"),
        ),
        "requests served={served} pending={pending} busy-rejections={busy}".format(
            served=server.get("requests_served", 0),
            pending=server.get("pending_total", 0),
            busy=server.get("busy_rejections", 0),
        ),
        f"{'session':>12} {'pid':>4} {'acc':>7} {'hit%':>6} {'reads':>6} "
        f"{'writes':>6} {'dirs':>5} {'frames':>6} {'queue':>5}",
    ]
    for sess in snapshot.get("sessions", []):
        lines.append(
            f"{sess.get('name', '?'):>12} {sess.get('pid', 0):>4} "
            f"{sess.get('accesses', 0):>7} {100.0 * sess.get('hit_ratio', 0.0):>5.1f}% "
            f"{sess.get('disk_reads', 0):>6} {sess.get('disk_writes', 0):>6} "
            f"{sess.get('directives', 0):>5} {sess.get('frames', 0):>6} "
            f"{sess.get('queue_depth', 0):>5}"
        )
    return "\n".join(lines)
