"""repro.workloads.production: generator statistics, traces, registry.

The statistical tests pin the *distributions* the pattern kit promises —
Zipf frequency-rank slope, hotspot access shares, Poisson inter-arrival
mean/CV, flash-crowd ramp shape — under fixed seeds with tolerances wide
enough to be deterministic.  Determinism itself is pinned byte-for-byte:
the same seed must reproduce the identical reference stream, because two
``bench`` runs or two load-driver reports are only comparable if the
offered traffic is.
"""

import math
import random
from collections import Counter

import pytest

from repro.workloads import make_profile, make_workload
from repro.workloads.production import (
    ClosedLoop,
    FlashCrowdPattern,
    HotspotPattern,
    OnOffArrivals,
    PoissonArrivals,
    ProductionTraffic,
    TraceError,
    TrafficOp,
    TrafficProfile,
    UniformPattern,
    ZipfianPattern,
    etc_profile,
    format_trace,
    parse_trace,
    reference_stream,
    rtdata_profile,
)
from repro.workloads.registry import PATTERNS, PROFILES
from repro.workloads.synthetic import ZipfHotCold


# -- key patterns ----------------------------------------------------------


class TestPatterns:
    def test_uniform_covers_keyspace(self):
        pattern = UniformPattern(100)
        rng = random.Random(1)
        seen = {pattern.sample(rng) for _ in range(5000)}
        assert min(seen) == 0 and max(seen) == 99
        assert len(seen) > 95

    def test_zipf_rank_slope_matches_skew(self):
        # Frequency of rank k should fall as (k+1)^-s: the log-log slope
        # of the head ranks must sit near -s.
        skew = 0.99
        pattern = ZipfianPattern(1_000_000, skew=skew)
        rng = random.Random(7)
        counts = Counter(pattern.sample(rng) for _ in range(120_000))
        points = [
            (math.log(rank + 1), math.log(counts[rank]))
            for rank in (0, 1, 3, 9, 31, 99)
            if counts[rank] >= 40
        ]
        assert len(points) >= 5
        n = len(points)
        mean_x = sum(x for x, _ in points) / n
        mean_y = sum(y for _, y in points) / n
        slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
            (x - mean_x) ** 2 for x, _ in points
        )
        assert slope == pytest.approx(-skew, abs=0.1)

    def test_zipf_s_equal_one_works(self):
        pattern = ZipfianPattern(1000, skew=1.0)
        rng = random.Random(3)
        counts = Counter(pattern.sample(rng) for _ in range(20_000))
        # rank 0 should be ~ln(n)-fold more frequent than rank 9's 1/10
        assert counts[0] > counts[9] > counts[99]

    def test_zipf_stays_in_range(self):
        pattern = ZipfianPattern(10, skew=2.5)
        rng = random.Random(5)
        assert all(0 <= pattern.sample(rng) < 10 for _ in range(2000))

    def test_hotspot_share(self):
        pattern = HotspotPattern(10_000, hot_fraction=0.01, hot_weight=0.9)
        rng = random.Random(11)
        hot = sum(pattern.sample(rng) < pattern.hot for _ in range(20_000))
        assert hot / 20_000 == pytest.approx(0.9, abs=0.02)

    def test_flash_crowd_ramp_shape(self):
        pattern = FlashCrowdPattern(
            1000, crowd=10, base_weight=0.05, peak_weight=0.8,
            ramp_start=0.25, peak=0.5, ramp_end=0.75,
        )
        # the analytic ramp: flat, climb, peak, decay, flat
        assert pattern.crowd_weight(0.0) == pytest.approx(0.05)
        assert pattern.crowd_weight(0.375) == pytest.approx(0.425)
        assert pattern.crowd_weight(0.5) == pytest.approx(0.8)
        assert pattern.crowd_weight(0.625) == pytest.approx(0.425)
        assert pattern.crowd_weight(1.0) == pytest.approx(0.05)
        # and the sampled crowd share follows it
        rng = random.Random(2)
        at_peak = sum(
            pattern.sample(rng, progress=0.5) < 10 for _ in range(4000)
        )
        off_peak = sum(
            pattern.sample(rng, progress=0.0) < 10 for _ in range(4000)
        )
        assert at_peak / 4000 == pytest.approx(0.8, abs=0.03)
        assert off_peak / 4000 == pytest.approx(0.05 + 0.01 * 990 / 1000, abs=0.03)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            UniformPattern(0)
        with pytest.raises(ValueError):
            ZipfianPattern(10, skew=0.0)
        with pytest.raises(ValueError):
            HotspotPattern(10, hot_weight=1.5)
        with pytest.raises(ValueError):
            FlashCrowdPattern(10, crowd=11)
        with pytest.raises(ValueError):
            FlashCrowdPattern(10, ramp_start=0.5, peak=0.4, ramp_end=0.8)


# -- arrival processes -----------------------------------------------------


class TestArrivals:
    def test_poisson_mean_and_cv(self):
        rate = 500.0
        gaps = []
        times = PoissonArrivals(rate).times(random.Random(13))
        prev = 0.0
        for _ in range(20_000):
            t = next(times)
            gaps.append(t - prev)
            prev = t
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        cv = math.sqrt(var) / mean
        # exponential inter-arrivals: mean 1/rate, CV 1
        assert mean == pytest.approx(1.0 / rate, rel=0.05)
        assert cv == pytest.approx(1.0, abs=0.05)

    def test_poisson_monotone(self):
        times = PoissonArrivals(50.0).times(random.Random(1))
        samples = [next(times) for _ in range(500)]
        assert samples == sorted(samples)
        assert all(t > 0 for t in samples)

    def test_on_off_gaps(self):
        proc = OnOffArrivals(1000.0, on_s=0.1, off_s=0.4)
        times = proc.times(random.Random(9))
        samples = [next(times) for _ in range(600)]
        assert samples == sorted(samples)
        # every arrival lands inside an on-window of the 0.5s cycle
        assert all((t % 0.5) <= 0.1 for t in samples)
        # silence gaps of ~off_s appear between bursts
        gaps = [b - a for a, b in zip(samples, samples[1:])]
        assert max(gaps) > 0.3

    def test_closed_loop_is_marked(self):
        assert not ClosedLoop().open_loop
        assert PoissonArrivals(1.0).open_loop
        assert OnOffArrivals(1.0).open_loop

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            OnOffArrivals(10.0, on_s=0.0)


# -- profiles and the reference stream -------------------------------------


class TestTrafficProfile:
    def test_same_seed_identical_stream(self):
        a = reference_stream(etc_profile(paths=5000), seed=42, count=2000)
        b = reference_stream(etc_profile(paths=5000), seed=42, count=2000)
        assert a == b

    def test_different_seed_different_stream(self):
        a = reference_stream(etc_profile(paths=5000), seed=1, count=500)
        b = reference_stream(etc_profile(paths=5000), seed=2, count=500)
        assert a != b

    def test_arrival_choice_leaves_key_stream_alone(self):
        # timestamps come from a derived RNG: swapping the arrival process
        # must not disturb which keys are accessed
        open_ops = list(
            TrafficProfile(
                "x", ZipfianPattern(1000), arrivals=PoissonArrivals(100.0)
            ).ops(7, 300)
        )
        closed_ops = list(
            TrafficProfile("x", ZipfianPattern(1000)).ops(7, 300)
        )
        assert [o.path for o in open_ops] == [o.path for o in closed_ops]
        assert all(o.ts is not None for o in open_ops)
        assert all(o.ts is None for o in closed_ops)

    def test_read_fraction_respected(self):
        profile = TrafficProfile(
            "x", UniformPattern(100), read_fraction=0.75
        )
        ops = list(profile.ops(3, 4000))
        reads = sum(op.op == "r" for op in ops)
        assert reads / 4000 == pytest.approx(0.75, abs=0.03)

    def test_value_blocks_range(self):
        profile = TrafficProfile(
            "x", UniformPattern(10), value_blocks=(2, 4), blocks_per_file=8
        )
        ops = list(profile.ops(5, 500))
        assert {op.size for op in ops} == {2, 3, 4}
        # a multi-block op never runs off the end of the file
        assert all(op.blockno + op.size <= 8 for op in ops)

    def test_phase_shift_migrates_hot_set(self):
        profile = TrafficProfile(
            "x",
            HotspotPattern(1000, hot=10, hot_weight=0.95),
            phase_shift=0.5,
        )
        ops = list(profile.ops(9, 4000))
        early = {op.path for op in ops[:200]}
        late = {op.path for op in ops[-200:]}
        # the busiest paths at the end differ from the start
        assert early != late

    def test_presets_have_expected_shapes(self):
        etc = etc_profile()
        assert etc.read_fraction > 0.9
        assert isinstance(etc.arrivals, PoissonArrivals)
        rt = rtdata_profile()
        assert rt.read_fraction < etc.read_fraction
        assert isinstance(rt.arrivals, OnOffArrivals)
        assert rt.value_hi > 1

    def test_path_of_is_sharded_and_stable(self):
        profile = etc_profile(paths=1_000_000)
        assert profile.path_of(0) == "prod/00000/000.dat"
        assert profile.path_of(4096) == "prod/00001/000.dat"
        assert len({profile.path_of(k) for k in range(10_000)}) == 10_000

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            TrafficProfile("x", UniformPattern(10), read_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficProfile(
                "x", UniformPattern(10), value_blocks=(1, 99), blocks_per_file=8
            )
        with pytest.raises(ValueError):
            TrafficProfile("x", UniformPattern(10), phase_shift=2.0)


# -- the CSV trace format --------------------------------------------------


class TestTraceFormat:
    def test_valid_corpus(self):
        ops = parse_trace(
            "a/f,r,0\n"
            "a/f,w,1,2\n"
            "b/g,read,3,1,0.5\n"
        )
        assert ops == [
            TrafficOp("a/f", "r", 0),
            TrafficOp("a/f", "w", 1, 2),
            TrafficOp("b/g", "r", 3, 1, 0.5),
        ]

    def test_sloppy_but_accepted(self):
        # blank lines, comments, stray whitespace, op aliases in any
        # case, empty optional columns, extra columns
        text = (
            "\n"
            "# a comment\n"
            "  a/f , GET , 4 \n"
            "a/f,Put,5,,\n"
            "a/f,write,6,2,1.5,ignored-extra\n"
            "   \n"
        )
        ops = parse_trace(text)
        assert [op.op for op in ops] == ["r", "w", "w"]
        assert ops[1].size == 1 and ops[1].ts is None
        assert ops[2].size == 2 and ops[2].ts == 1.5

    @pytest.mark.parametrize(
        "text,line_no,fragment",
        [
            ("a/f,r,0\nnot-a-csv-line\n", 2, "expected path"),
            ("a/f,frob,0\n", 1, "unknown op"),
            ("a/f,r,xyz\n", 1, "block"),
            ("# ok\n\n,r,0\n", 3, "empty path"),
            ("a/f,r,0,0\n", 1, "size"),
            ("a/f,r,0,1,huh\n", 1, "ts"),
            ("a/f,r,0,1,-3\n", 1, "ts"),
        ],
    )
    def test_rejected_with_line_number(self, text, line_no, fragment):
        with pytest.raises(TraceError) as excinfo:
            parse_trace(text)
        assert excinfo.value.line_no == line_no
        assert fragment in str(excinfo.value)

    def test_round_trip(self):
        profile = rtdata_profile(paths=200, rate=50.0)
        text = reference_stream(profile, seed=3, count=300)
        assert format_trace(parse_trace(text)) == text

    def test_source_named_in_error(self, tmp_path):
        from repro.workloads.production import load_trace

        path = tmp_path / "t.csv"
        path.write_text("a,r,0\nbad\n")
        with pytest.raises(TraceError) as excinfo:
            load_trace(str(path))
        assert str(path) in str(excinfo.value)
        assert excinfo.value.line_no == 2


# -- registry + simulator wrapper ------------------------------------------


class TestRegistryIntegration:
    def test_every_pattern_and_profile_registered(self):
        assert set(PATTERNS) == {"uniform", "zipf", "hotspot", "flashcrowd"}
        for name in ("etc", "rtdata", "uniform", "zipf", "hotspot", "flashcrowd"):
            assert callable(PROFILES[name])

    def test_make_profile(self):
        profile = make_profile("hotspot", paths=500)
        assert profile.paths == 500
        with pytest.raises(ValueError, match="unknown profile"):
            make_profile("nope")

    def test_make_workload_production(self):
        wl = make_workload("etc", paths=32, accesses=200, seed=5)
        ops = list(wl.program())
        assert len(ops) > 200  # accesses + hint prologue + compute pacing
        specs = wl.file_specs()
        assert len(specs) == 32
        assert all(spec.path.startswith("etc/") for spec in specs)

    def test_production_wrapper_deterministic(self):
        a = [
            (type(op).__name__, getattr(op, "path", None), getattr(op, "blockno", None))
            for op in make_workload("rtdata", paths=16, accesses=100, seed=4).program()
        ]
        b = [
            (type(op).__name__, getattr(op, "path", None), getattr(op, "blockno", None))
            for op in make_workload("rtdata", paths=16, accesses=100, seed=4).program()
        ]
        assert a == b

    def test_wrapper_caps_simulator_keyspace(self):
        with pytest.raises(ValueError, match="caps paths"):
            ProductionTraffic(paths=1_000_000)

    def test_oblivious_variant_issues_no_directives(self):
        wl = make_workload("etc", smart=False, paths=8, accesses=50)
        from repro.sim.ops import Control

        assert not any(isinstance(op, Control) for op in wl.program())

    def test_runs_on_the_simulator(self):
        from repro.kernel.system import MachineConfig, System

        system = System(MachineConfig(cache_mb=0.5))
        wl = make_workload("production", paths=12, accesses=150, seed=2)
        wl.spawn(system)
        system.run()
        stats = system.cache.stats
        assert stats.accesses >= 150


class TestZipfHotColdUnification:
    def test_delegates_to_hotspot_pattern(self):
        wl = ZipfHotCold(hot_blocks=10, cold_blocks=90)
        assert isinstance(wl._pattern, HotspotPattern)
        assert wl._pattern.hot == 10

    def test_synthetic_reexports_shared_samplers(self):
        import repro.workloads.production as production
        import repro.workloads.synthetic as synthetic

        assert synthetic.HotspotPattern is production.HotspotPattern
        assert synthetic.ZipfianPattern is production.ZipfianPattern
