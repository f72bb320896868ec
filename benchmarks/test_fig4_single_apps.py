"""Figure 4: single applications, original kernel vs LRU-SP.

Reproduces the normalized elapsed-time and block-I/O curves for all eight
applications at the paper's four cache sizes, and asserts the headline
shapes:

* block-I/O reductions between ~10 % and ~80 % where the paper has them;
* ratios returning to 1.0 once an application's dataset fits in cache;
* elapsed time improving whenever I/Os do (never the reverse).
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import fig4_single_apps
from repro.harness.paperdata import APP_ORDER, CACHE_SIZES_MB


@pytest.fixture(scope="module")
def fig4():
    return fig4_single_apps(APP_ORDER, CACHE_SIZES_MB)


def test_fig4_benchmark(benchmark, save_table):
    data = run_once(benchmark, fig4_single_apps, APP_ORDER, CACHE_SIZES_MB)
    save_table("fig4", report.render_fig4(data), data=data)
    # Core shapes, asserted here too so --benchmark-only runs still verify
    # (the TestShapes class below is skipped in that mode):
    assert data["din"][6.4].io_ratio < 0.45
    assert data["din"][8.0].io_ratio == pytest.approx(1.0, abs=0.03)
    assert data["cs1"][12.0].io_ratio == pytest.approx(1.0, abs=0.03)
    for app in APP_ORDER:
        for mb in CACHE_SIZES_MB:
            assert data[app][mb].io_ratio <= 1.05, (app, mb)
            assert data[app][mb].elapsed_ratio <= 1.05, (app, mb)
    best_io = min(data[a][mb].io_ratio for a in APP_ORDER for mb in CACHE_SIZES_MB)
    assert best_io < 0.35


class TestShapes:
    def test_din_mru_wins_big_at_small_cache(self, fig4):
        assert fig4["din"][6.4].io_ratio < 0.45          # paper: 0.29

    def test_din_parity_once_trace_fits(self, fig4):
        for mb in (8.0, 12.0, 16.0):
            assert fig4["din"][mb].io_ratio == pytest.approx(1.0, abs=0.03)

    def test_cs1_band(self, fig4):
        assert fig4["cs1"][6.4].io_ratio < 0.5           # paper: 0.36
        assert fig4["cs1"][8.0].io_ratio < 0.35          # paper: 0.19
        assert fig4["cs1"][12.0].io_ratio == pytest.approx(1.0, abs=0.03)

    def test_cs2_improves_with_cache(self, fig4):
        ratios = [fig4["cs2"][mb].io_ratio for mb in CACHE_SIZES_MB]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))  # monotone down
        assert ratios[-1] < 0.6                           # paper: 0.48 at 16MB

    def test_cs3_parity_at_16mb(self, fig4):
        assert fig4["cs3"][16.0].io_ratio == pytest.approx(1.0, abs=0.03)
        assert fig4["cs3"][6.4].io_ratio < 0.8            # paper: 0.67

    def test_gli_moderate_band(self, fig4):
        for mb in CACHE_SIZES_MB:
            assert 0.6 < fig4["gli"][mb].io_ratio < 0.95  # paper: 0.73-0.85

    def test_ldk_savings_grow_with_cache(self, fig4):
        assert fig4["ldk"][6.4].io_ratio > 0.9            # paper: 0.93
        assert fig4["ldk"][16.0].io_ratio < 0.85          # paper: 0.72

    def test_pjn_band(self, fig4):
        assert fig4["pjn"][6.4].io_ratio < 0.9            # paper: 0.81
        assert fig4["pjn"][16.0].io_ratio > 0.9           # paper: 0.95

    def test_sort_band(self, fig4):
        assert fig4["sort"][6.4].io_ratio < 0.95          # paper: 0.85
        assert fig4["sort"][16.0].io_ratio < 0.75         # paper: 0.65

    def test_never_worse_anywhere(self, fig4):
        for app in APP_ORDER:
            for mb in CACHE_SIZES_MB:
                assert fig4[app][mb].io_ratio <= 1.05
                assert fig4[app][mb].elapsed_ratio <= 1.05

    def test_elapsed_tracks_io_direction(self, fig4):
        for app in APP_ORDER:
            for mb in CACHE_SIZES_MB:
                cell = fig4[app][mb]
                if cell.io_ratio < 0.7:
                    assert cell.elapsed_ratio < 1.0

    def test_headline_claims(self, fig4):
        """Up to 80 % fewer block I/Os, up to 45 % less elapsed time."""
        best_io = min(fig4[a][mb].io_ratio for a in APP_ORDER for mb in CACHE_SIZES_MB)
        best_t = min(fig4[a][mb].elapsed_ratio for a in APP_ORDER for mb in CACHE_SIZES_MB)
        assert best_io < 0.35
        assert best_t < 0.6
