"""Table 6 (appendix): raw block-I/O counts for the single-app runs.

The generators are sized so that the *absolute* counts land near the
paper's (compulsory misses come from dataset sizes, which we copied), so
this table asserts tighter bands than the ratio checks in fig4.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import fig4_single_apps
from repro.harness.paperdata import APP_ORDER, CACHE_SIZES_MB, PAPER_BLOCK_IOS


@pytest.fixture(scope="module")
def data():
    return fig4_single_apps(APP_ORDER, CACHE_SIZES_MB)


def test_table6_benchmark(benchmark, save_table, data):
    table = run_once(benchmark, fig4_single_apps, APP_ORDER, CACHE_SIZES_MB)
    save_table("table6", "Table 6: block I/Os\n" + report.render_table56(table, "ios"), data=table)


class TestAbsoluteCounts:
    def test_original_kernel_counts_within_20pct(self, data):
        """Original-kernel I/O counts track the paper's appendix closely
        (cs3's 12 MB cell is the known deviation, see EXPERIMENTS.md)."""
        for app in APP_ORDER:
            for i, mb in enumerate(CACHE_SIZES_MB):
                if app == "cs3" and mb == 12.0:
                    continue
                paper = PAPER_BLOCK_IOS[app]["original"][i]
                ours = data[app][mb].orig_ios
                assert ours == pytest.approx(paper, rel=0.20), (app, mb)

    def test_lru_sp_counts_within_35pct(self, data):
        for app in APP_ORDER:
            for i, mb in enumerate(CACHE_SIZES_MB):
                if app == "cs3" and mb == 12.0:
                    continue
                paper = PAPER_BLOCK_IOS[app]["lru-sp"][i]
                ours = data[app][mb].sp_ios
                assert ours == pytest.approx(paper, rel=0.35), (app, mb)

    def test_compulsory_floor(self, data):
        """No run can do fewer I/Os than its dataset's compulsory misses."""
        assert data["din"][16.0].sp_ios >= 998
        assert data["cs1"][16.0].sp_ios >= 1141

    def test_din_exact_when_fitting(self, data):
        assert data["din"][8.0].orig_ios == data["din"][8.0].sp_ios == 998
