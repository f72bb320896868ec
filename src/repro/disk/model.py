"""Analytic disk service-time model.

A request's service time has two phases:

* **positioning** — seek plus rotational latency, spent on the drive alone;
* **transfer**    — moving the data, spent on the (possibly shared) SCSI bus.

Seek time follows the classic square-root curve ``seek(d) = a + b*sqrt(d)``
for a seek of ``d`` cylinders, calibrated so that ``seek(1)`` equals the
drive's single-track seek and ``seek(cylinders/3)`` (the mean random seek
distance) equals the datasheet average.  Rotational latency uses its
expected value — half a revolution — rather than a random draw, keeping the
whole simulation deterministic.  A request that starts exactly where the
previous one ended skips both and pays only a small sequential gap, which is
what gives sequential scans their large advantage over random I/O, the
effect behind the paper's elapsed-time results.
"""

from __future__ import annotations

import math

from repro.disk.params import DiskParams


class ServiceTimeModel:
    """Computes positioning and transfer times for a :class:`DiskParams`."""

    def __init__(self, params: DiskParams) -> None:
        self.params = params
        self._seq_gap = params.seq_gap_ms / 1e3
        self._rotation = params.avg_rot_ms / 1e3
        mean_distance = max(1.0, params.cylinders / 3.0)
        span = math.sqrt(mean_distance) - 1.0
        if span <= 0:
            # Degenerate geometry: constant seek.
            self._b = 0.0
            self._a = params.avg_seek_ms / 1e3
        else:
            self._b = ((params.avg_seek_ms - params.min_seek_ms) / 1e3) / span
            self._a = params.min_seek_ms / 1e3 - self._b

    def seek_time(self, distance: int) -> float:
        """Seconds to seek ``distance`` cylinders (0 → no seek)."""
        if distance <= 0:
            return 0.0
        return self._a + self._b * math.sqrt(distance)

    def rotational_latency(self) -> float:
        """Expected rotational delay (half a revolution), seconds."""
        return self._rotation

    def transfer_time(self, nblocks: int) -> float:
        """Seconds on the bus/media for ``nblocks`` blocks."""
        return self.params.transfer_time(nblocks)

    def positioning_time(self, head_lba: int, target_lba: int) -> float:
        """Seconds of drive-private time before the transfer can start.

        ``head_lba`` is where the previous request left the head (one past
        its last block); ``target_lba`` is the first block of this request.
        """
        if target_lba == head_lba:
            return self._seq_gap
        cylinder_of = self.params.cylinder_of
        from_cyl = cylinder_of(max(0, head_lba))
        to_cyl = cylinder_of(target_lba)
        if from_cyl == to_cyl:
            # Same cylinder, non-contiguous: pay a partial rotation.
            return 0.5 * self._rotation
        return self.seek_time(abs(to_cyl - from_cyl)) + self._rotation

    def service_time(self, head_lba: int, target_lba: int, nblocks: int = 1) -> float:
        """Total service time (positioning + transfer), seconds."""
        return self.positioning_time(head_lba, target_lba) + self.transfer_time(nblocks)
