"""Simulated filesystem: files, extents and on-disk layout.

Files live on exactly one disk and own a list of contiguous extents.  The
allocator hands out space bump-pointer style per disk; a file created with a
``size_hint`` reserves one contiguous extent up front, and a file that grows
past its reservation gets additional extents wherever the allocator is,
which mimics how a real FFS-era filesystem fragments growing files.

File identity is an integer ``file_id`` (an inode number); the buffer cache
keys blocks by ``(file_id, blockno)`` just as Ultrix keyed buffers by
``(vnode, logical block)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.disk.params import BLOCK_SIZE


class FsError(Exception):
    """Filesystem operation failure (missing file, bad path, out of space)."""


@dataclass
class Extent:
    """A contiguous run of blocks on disk."""

    start_lba: int
    nblocks: int

    def __post_init__(self) -> None:
        if self.start_lba < 0 or self.nblocks <= 0:
            raise ValueError(f"bad extent ({self.start_lba}, {self.nblocks})")


#: the extent index of every file with no or one extent (never mutated)
_ONE_EXTENT = [0]


@dataclass
class File:
    """A file: identity, placement and size (in blocks)."""

    file_id: int
    path: str
    disk: str
    nblocks: int = 0
    extents: List[Extent] = field(default_factory=list)
    _starts: Optional[List[int]] = field(default=None, init=False, repr=False, compare=False)

    @property
    def size_bytes(self) -> int:
        return self.nblocks * BLOCK_SIZE

    def _index(self) -> List[int]:
        """First logical block of each extent, extended lazily.

        A file with at most one extent shares one constant
        index and stores none.  Otherwise the index is valid while
        ``extents`` is only appended to or its last extent grows, which is
        all :class:`SimFilesystem` does.  A list found shorter than the
        index rebuilds it; resizing or replacing extents in place is not
        supported.
        """
        extents = self.extents
        if len(extents) < 2:
            return _ONE_EXTENT
        starts = self._starts
        if starts is None or len(starts) > len(extents):
            starts = self._starts = [0]
        while len(starts) < len(extents):
            starts.append(starts[-1] + extents[len(starts) - 1].nblocks)
        return starts

    def capacity(self) -> int:
        """Blocks covered by allocated extents."""
        return self._index()[-1] + self.extents[-1].nblocks if self.extents else 0

    def lba_of(self, blockno: int) -> int:
        """Disk address of logical block ``blockno``."""
        extents = self.extents
        if len(extents) == 1 and 0 <= blockno < extents[0].nblocks:
            return extents[0].start_lba + blockno
        starts = self._index()
        i = bisect_right(starts, blockno) - 1
        if i >= 0 and extents:
            extent = extents[i]
            offset = blockno - starts[i]
            if offset < extent.nblocks:
                return extent.start_lba + offset
        raise FsError(f"{self.path}: block {blockno} outside allocated {self.capacity()} blocks")


class SimFilesystem:
    """All files across all disks, plus the per-disk block allocator."""

    def __init__(self, disk_capacities: Dict[str, int]) -> None:
        """``disk_capacities`` maps disk name to capacity in blocks."""
        if not disk_capacities:
            raise ValueError("need at least one disk")
        self._capacity = dict(disk_capacities)
        self._next_free: Dict[str, int] = {name: 0 for name in disk_capacities}
        self._by_path: Dict[str, File] = {}
        self._by_id: Dict[int, File] = {}
        self._next_file_id = 1
        self.default_disk = next(iter(disk_capacities))

    # -- queries ----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._by_path

    def lookup(self, path: str) -> File:
        """Resolve a path; raises :class:`FsError` if absent."""
        try:
            return self._by_path[path]
        except KeyError:
            raise FsError(f"no such file: {path!r}") from None

    def by_id(self, file_id: int) -> File:
        """Resolve a file id; raises :class:`FsError` if absent."""
        try:
            return self._by_id[file_id]
        except KeyError:
            raise FsError(f"no such file id: {file_id!r}") from None

    def files(self) -> List[File]:
        """All live files, in creation order."""
        return list(self._by_id.values())

    def free_blocks(self, disk: str) -> int:
        """Unallocated blocks remaining on ``disk`` (bump allocator: space
        from deleted files is not reclaimed, matching a short-lived run)."""
        return self._capacity[disk] - self._next_free[disk]

    # -- mutations ---------------------------------------------------------

    def create(self, path: str, size_blocks: int = 0, disk: Optional[str] = None) -> File:
        """Create ``path`` with ``size_blocks`` preallocated contiguously."""
        if path in self._by_path:
            raise FsError(f"file exists: {path!r}")
        disk = disk or self.default_disk
        if disk not in self._capacity:
            raise FsError(f"no such disk: {disk!r}")
        f = File(file_id=self._next_file_id, path=path, disk=disk)
        self._next_file_id += 1
        if size_blocks > 0:
            f.extents.append(self._allocate(disk, size_blocks))
            f.nblocks = size_blocks
        self._by_path[path] = f
        self._by_id[f.file_id] = f
        return f

    def ensure_block(self, f: File, blockno: int) -> int:
        """Grow ``f`` so logical block ``blockno`` exists; return its LBA.

        Growth beyond the current extents allocates a new extent sized to
        cover the gap (plus modest slack so sequential appends stay mostly
        contiguous).
        """
        if 0 <= blockno < f.nblocks:
            return f.lba_of(blockno)
        if blockno < 0:
            raise FsError(f"negative block number {blockno}")
        capacity = f.capacity()
        if blockno >= capacity:
            needed = blockno - capacity + 1
            # Round appends up to 64 blocks (512 KB) of slack to keep
            # sequentially-written files in few extents.
            grant = max(needed, 64)
            grant = min(grant, self.free_blocks(f.disk))
            if grant < needed:
                raise FsError(f"disk {f.disk} full while growing {f.path}")
            self._append_extent(f, grant)
        if blockno >= f.nblocks:
            f.nblocks = blockno + 1
        return f.lba_of(blockno)

    def create_interleaved(
        self,
        specs: List[tuple],
        disk: Optional[str] = None,
        chunk: int = 4,
    ) -> List[File]:
        """Create many files whose blocks interleave on disk.

        ``specs`` is a list of ``(path, nblocks)``.  Space is dealt out
        round-robin in ``chunk``-block pieces, the way an aged FFS scatters
        a source tree across cylinder groups: reading one file sequentially
        pays a repositioning delay every ``chunk`` blocks.  This is how the
        reproduction lays out cscope's source sets and glimpse's article
        partitions, whose per-block read cost in the paper is ~2× the
        contiguous rate.
        """
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        disk = disk or self.default_disk
        files = []
        for path, nblocks in specs:
            if nblocks < 1:
                raise FsError(f"file {path!r} needs at least one block")
            f = self.create(path, size_blocks=0, disk=disk)
            files.append((f, nblocks))
        remaining = {f.path: n for f, n in files}
        while any(remaining.values()):
            for f, _ in files:
                todo = remaining[f.path]
                if todo <= 0:
                    continue
                take = min(chunk, todo)
                f.extents.append(self._allocate(disk, take))
                remaining[f.path] -= take
        for f, nblocks in files:
            f.nblocks = nblocks
        return [f for f, _ in files]

    def unlink(self, path: str) -> File:
        """Remove ``path``.  The caller (kernel) invalidates cached blocks."""
        f = self.lookup(path)
        del self._by_path[path]
        del self._by_id[f.file_id]
        return f

    # -- internals ----------------------------------------------------------

    def _allocate(self, disk: str, nblocks: int) -> Extent:
        free = self.free_blocks(disk)
        if nblocks > free:
            raise FsError(f"disk {disk} full: wanted {nblocks} blocks, {free} free")
        start = self._next_free[disk]
        self._next_free[disk] += nblocks
        return Extent(start, nblocks)

    def _append_extent(self, f: File, nblocks: int) -> None:
        extent = self._allocate(f.disk, nblocks)
        last = f.extents[-1] if f.extents else None
        if last is not None and last.start_lba + last.nblocks == extent.start_lba:
            last.nblocks += extent.nblocks
        else:
            f.extents.append(extent)


# Re-exported for convenience: everything in the system shares one size.
__all__ = ["SimFilesystem", "File", "Extent", "FsError", "BLOCK_SIZE"]
