"""Table 5 (appendix): raw elapsed seconds for the single-app runs.

Shares Figure 4's memoised data; asserts the within-kernel trends the
paper's raw numbers show (e.g. the original kernel's din collapses from
117 s to 99 s once the trace fits; ldk is flat under the original kernel).
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import fig4_single_apps
from repro.harness.paperdata import APP_ORDER, CACHE_SIZES_MB


@pytest.fixture(scope="module")
def data():
    return fig4_single_apps(APP_ORDER, CACHE_SIZES_MB)


def test_table5_benchmark(benchmark, save_table, data):
    table = run_once(benchmark, fig4_single_apps, APP_ORDER, CACHE_SIZES_MB)
    save_table("table5", "Table 5: elapsed time (s)\n" + report.render_table56(table, "elapsed"), data=table)


class TestElapsedTrends:
    def test_din_original_drops_when_fitting(self, data):
        assert data["din"][6.4].orig_elapsed > data["din"][8.0].orig_elapsed * 1.05

    def test_cs1_original_halves_at_12mb(self, data):
        assert data["cs1"][12.0].orig_elapsed < data["cs1"][8.0].orig_elapsed * 0.6

    def test_ldk_original_roughly_flat(self, data):
        times = [data["ldk"][mb].orig_elapsed for mb in CACHE_SIZES_MB]
        assert max(times) < min(times) * 1.25

    def test_sort_original_roughly_flat(self, data):
        times = [data["sort"][mb].orig_elapsed for mb in CACHE_SIZES_MB]
        assert max(times) < min(times) * 1.25

    def test_lru_sp_monotone_or_flat_with_cache(self, data):
        for app in APP_ORDER:
            times = [data[app][mb].sp_elapsed for mb in CACHE_SIZES_MB]
            assert times[-1] <= times[0] * 1.05

    def test_absolute_scale_sane(self, data):
        """Every run lands between 10 s and 600 s, like the paper's table."""
        for app in APP_ORDER:
            for mb in CACHE_SIZES_MB:
                assert 10 < data[app][mb].orig_elapsed < 600
                assert 10 < data[app][mb].sp_elapsed < 600
