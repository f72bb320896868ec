"""Drive parameters.

Timing numbers for the two presets come straight from Section 5.2 of the
paper; geometry (cylinder counts) comes from the DEC drive datasheets and
only shapes the seek-distance curve, not the averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BLOCK_SIZE = 8192
"""The Ultrix buffer-cache block size the whole system uses (bytes)."""


@dataclass(frozen=True)
class DiskParams:
    """Static description of a disk drive.

    Attributes:
        name: model name, e.g. ``"RZ56"``.
        capacity_mb: formatted capacity in megabytes.
        avg_seek_ms: average (random) seek time, milliseconds.
        min_seek_ms: single-cylinder seek time, milliseconds.
        avg_rot_ms: average rotational latency (half a revolution), ms.
        transfer_mb_s: peak media transfer rate, MB/s.
        cylinders: number of cylinders (shapes the seek curve).
        seq_gap_ms: fixed per-request overhead when the request continues
            exactly where the previous one ended (head switch / controller
            turnaround) — sequential streams pay this instead of seek+rotate.
        total_blocks: capacity in 8 KB blocks (derived).
        blocks_per_cylinder: blocks per cylinder, uniform zoning assumed
            (derived).
    """

    name: str
    capacity_mb: float
    avg_seek_ms: float
    min_seek_ms: float
    avg_rot_ms: float
    transfer_mb_s: float
    cylinders: int
    seq_gap_ms: float = 0.5
    total_blocks: int = field(init=False, repr=False, compare=False)
    blocks_per_cylinder: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity_mb <= 0:
            raise ValueError("capacity must be positive")
        if self.min_seek_ms > self.avg_seek_ms:
            raise ValueError("min seek cannot exceed average seek")
        if self.transfer_mb_s <= 0:
            raise ValueError("transfer rate must be positive")
        if self.cylinders < 2:
            raise ValueError("need at least two cylinders")
        # Derived once: cylinder_of() runs twice per positioning decision.
        total = int(self.capacity_mb * 1024 * 1024) // BLOCK_SIZE
        object.__setattr__(self, "total_blocks", total)
        object.__setattr__(self, "blocks_per_cylinder", max(1, total // self.cylinders))

    def cylinder_of(self, lba: int) -> int:
        """Cylinder holding logical block ``lba``."""
        return min(self.cylinders - 1, lba // self.blocks_per_cylinder)

    def transfer_time(self, nblocks: int = 1) -> float:
        """Seconds to move ``nblocks`` 8 KB blocks over the media."""
        return (nblocks * BLOCK_SIZE) / (self.transfer_mb_s * 1e6)


RZ56 = DiskParams(
    name="RZ56",
    capacity_mb=665.0,
    avg_seek_ms=16.0,
    min_seek_ms=2.5,
    avg_rot_ms=8.3,
    transfer_mb_s=1.875,
    cylinders=1632,
    seq_gap_ms=2.4,
)
"""The 665 MB SCSI disk from the paper (cscope, dinero, glimpse, ld data)."""

RZ26 = DiskParams(
    name="RZ26",
    capacity_mb=1050.0,
    avg_seek_ms=10.5,
    min_seek_ms=1.5,
    avg_rot_ms=5.54,
    transfer_mb_s=3.3,
    cylinders=2570,
    seq_gap_ms=2.0,
)
"""The 1.05 GB SCSI disk from the paper (postgres, sort data)."""
