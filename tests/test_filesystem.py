"""The simulated filesystem: creation, growth, layout, interleaving."""

import pytest

from repro.fs.filesystem import BLOCK_SIZE, Extent, File, FsError, SimFilesystem


@pytest.fixture
def fs():
    return SimFilesystem({"d0": 10000, "d1": 5000})


class TestCreate:
    def test_create_and_lookup(self, fs):
        f = fs.create("a", size_blocks=10)
        assert fs.lookup("a") is f
        assert fs.by_id(f.file_id) is f
        assert f.nblocks == 10
        assert f.size_bytes == 10 * BLOCK_SIZE

    def test_default_disk_is_first(self, fs):
        assert fs.create("a", 1).disk == "d0"

    def test_explicit_disk(self, fs):
        assert fs.create("a", 1, disk="d1").disk == "d1"

    def test_unknown_disk(self, fs):
        with pytest.raises(FsError):
            fs.create("a", 1, disk="d9")

    def test_duplicate_path(self, fs):
        fs.create("a", 1)
        with pytest.raises(FsError):
            fs.create("a", 1)

    def test_file_ids_unique_and_increasing(self, fs):
        ids = [fs.create(f"f{i}", 1).file_id for i in range(5)]
        assert ids == sorted(set(ids))

    def test_contiguous_allocation(self, fs):
        a = fs.create("a", 10)
        b = fs.create("b", 10)
        assert a.extents[0].start_lba + 10 == b.extents[0].start_lba

    def test_lookup_missing(self, fs):
        with pytest.raises(FsError):
            fs.lookup("nope")
        with pytest.raises(FsError):
            fs.by_id(999)

    def test_exists(self, fs):
        fs.create("a", 1)
        assert fs.exists("a")
        assert not fs.exists("b")

    def test_disk_full(self):
        fs = SimFilesystem({"tiny": 5})
        with pytest.raises(FsError):
            fs.create("big", 10)

    def test_free_blocks(self, fs):
        fs.create("a", 100)
        assert fs.free_blocks("d0") == 9900

    def test_needs_a_disk(self):
        with pytest.raises(ValueError):
            SimFilesystem({})


class TestAddressing:
    """``File.lba_of`` is on every block access of the simulated kernel *and*
    of the serving path (``CacheService.read``/``prefetch`` call it too)."""

    def test_lba_of(self, fs):
        f = fs.create("a", 10)
        base = f.extents[0].start_lba
        assert f.lba_of(0) == base
        assert f.lba_of(9) == base + 9

    def test_lba_out_of_range(self, fs):
        f = fs.create("a", 10)
        with pytest.raises(FsError):
            f.lba_of(10)
        with pytest.raises(FsError):
            f.lba_of(-1)

    def test_lba_across_extents(self):
        f = File(1, "x", "d0", nblocks=4, extents=[Extent(0, 2), Extent(100, 2)])
        assert [f.lba_of(i) for i in range(4)] == [0, 1, 100, 101]

    def test_multi_extent_boundaries(self):
        """First and last block of every extent, and both sides of the file."""
        f = File(1, "x", "d0", nblocks=9, extents=[Extent(10, 3), Extent(100, 1), Extent(50, 5)])
        assert f.capacity() == 9
        assert [f.lba_of(b) for b in (0, 2)] == [10, 12]
        assert f.lba_of(3) == 100
        assert [f.lba_of(b) for b in (4, 8)] == [50, 54]
        for outside in (9, 10, -1, -9):
            with pytest.raises(FsError, match="outside allocated 9 blocks"):
                f.lba_of(outside)

    def test_file_without_extents_has_no_blocks(self):
        f = File(1, "x", "d0")
        assert f.capacity() == 0
        with pytest.raises(FsError):
            f.lba_of(0)

    def test_addresses_follow_growth(self, fs):
        """Looking blocks up between growths must not pin a stale layout:
        the last extent may grow in place, and new extents may follow it."""
        a = fs.create("a", 0)
        first = fs.ensure_block(a, 0)  # 64-block extent
        assert a.lba_of(63) == first + 63
        with pytest.raises(FsError):
            a.lba_of(64)
        fs.ensure_block(a, 64)  # contiguous: the extent grows in place
        assert len(a.extents) == 1
        assert a.lba_of(64) == first + 64
        fs.create("wedge", 10)
        lba = fs.ensure_block(a, 128)  # no longer contiguous: a second extent
        assert len(a.extents) == 2
        assert lba == a.extents[1].start_lba == a.lba_of(128)
        assert a.lba_of(127) == first + 127
        assert a.capacity() == 128 + 64
        with pytest.raises(FsError):
            a.lba_of(a.capacity())

    def test_dropping_extents_rebuilds_the_index(self):
        """``extents`` is a public list: shrinking it after a lookup must
        not leave the cached extent index answering for the old layout."""
        f = File(1, "x", "d0", nblocks=6, extents=[Extent(10, 2), Extent(100, 2), Extent(50, 2)])
        assert f.lba_of(5) == 51
        del f.extents[1:]
        assert f.capacity() == 2
        with pytest.raises(FsError, match="outside allocated 2 blocks"):
            f.lba_of(2)
        f.extents.append(Extent(70, 3))
        assert [f.lba_of(b) for b in (1, 2, 4)] == [11, 70, 72]

    def test_interleaved_files_address_every_block(self, fs):
        files = fs.create_interleaved([("a", 5), ("b", 3)], chunk=2)
        lbas = sorted(f.lba_of(b) for f in files for b in range(f.nblocks))
        assert lbas == list(range(lbas[0], lbas[0] + 8))

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            Extent(-1, 5)
        with pytest.raises(ValueError):
            Extent(0, 0)


class TestGrowth:
    def test_ensure_block_grows(self, fs):
        f = fs.create("a", 0)
        lba = fs.ensure_block(f, 0)
        assert f.nblocks == 1
        assert lba == f.lba_of(0)

    def test_sequential_growth_stays_contiguous(self, fs):
        f = fs.create("a", 0)
        lbas = [fs.ensure_block(f, b) for b in range(100)]
        assert lbas == list(range(lbas[0], lbas[0] + 100))
        assert len(f.extents) <= 2

    def test_growth_interleaved_with_other_files_fragments(self, fs):
        a = fs.create("a", 0)
        fs.ensure_block(a, 0)
        fs.create("wedge", 100)
        fs.ensure_block(a, 70)  # past the 64-block slack
        assert len(a.extents) == 2

    def test_ensure_existing_block_is_stable(self, fs):
        f = fs.create("a", 5)
        before = f.lba_of(3)
        assert fs.ensure_block(f, 3) == before

    def test_negative_block(self, fs):
        f = fs.create("a", 1)
        with pytest.raises(FsError):
            fs.ensure_block(f, -1)

    def test_growth_hits_disk_full(self):
        fs = SimFilesystem({"tiny": 10})
        f = fs.create("a", 0)
        with pytest.raises(FsError):
            fs.ensure_block(f, 50)


class TestUnlink:
    def test_unlink_removes(self, fs):
        fs.create("a", 1)
        fs.unlink("a")
        assert not fs.exists("a")

    def test_unlink_missing(self, fs):
        with pytest.raises(FsError):
            fs.unlink("a")

    def test_path_reusable_after_unlink(self, fs):
        f1 = fs.create("a", 1)
        fs.unlink("a")
        f2 = fs.create("a", 1)
        assert f2.file_id != f1.file_id


class TestInterleaved:
    def test_sizes_honoured(self, fs):
        files = fs.create_interleaved([("a", 5), ("b", 9)], chunk=2)
        assert [f.nblocks for f in files] == [5, 9]
        assert fs.lookup("a").capacity() >= 5

    def test_blocks_actually_interleave(self, fs):
        a, b = fs.create_interleaved([("a", 4), ("b", 4)], chunk=2)
        # a's second chunk comes after b's first chunk on disk.
        assert a.lba_of(2) > b.lba_of(0)

    def test_chunk_one_strides(self, fs):
        a, b, c = fs.create_interleaved([("a", 3), ("b", 3), ("c", 3)], chunk=1)
        assert a.lba_of(1) - a.lba_of(0) == 3  # stride = number of files

    def test_uneven_sizes(self, fs):
        a, b = fs.create_interleaved([("a", 1), ("b", 10)], chunk=4)
        assert b.capacity() >= 10
        assert a.lba_of(0) >= 0

    def test_bad_chunk(self, fs):
        with pytest.raises(ValueError):
            fs.create_interleaved([("a", 1)], chunk=0)

    def test_zero_size_rejected(self, fs):
        with pytest.raises(FsError):
            fs.create_interleaved([("a", 0)])
