"""Figure 5: concurrent application mixes, LRU-SP vs the original kernel.

The paper's claim: "LRU-SP indeed improves the performance of the whole
system.  The improvement becomes more significant as the file cache size
increases" — total elapsed-time reductions up to ~30 %.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import fig5_multi_apps
from repro.harness.paperdata import CACHE_SIZES_MB, FIG5_MIXES


@pytest.fixture(scope="module")
def fig5():
    return fig5_multi_apps(FIG5_MIXES, CACHE_SIZES_MB)


def test_fig5_benchmark(benchmark, save_table):
    data = run_once(benchmark, fig5_multi_apps, FIG5_MIXES, CACHE_SIZES_MB)
    save_table("fig5", report.render_mixes(data, "Figure 5"), data=data)
    for mix in FIG5_MIXES:
        for mb in CACHE_SIZES_MB:
            assert data[mix][mb].io_ratio < 1.0, (mix, mb)
            assert data[mix][mb].elapsed_ratio < 1.0, (mix, mb)
    best = min(data[m][16.0].elapsed_ratio for m in FIG5_MIXES)
    assert best < 0.8


class TestShapes:
    def test_every_mix_improves(self, fig5):
        for mix in FIG5_MIXES:
            for mb in CACHE_SIZES_MB:
                assert fig5[mix][mb].io_ratio < 1.0, (mix, mb)
                assert fig5[mix][mb].elapsed_ratio < 1.0, (mix, mb)

    def test_improvement_grows_with_cache(self, fig5):
        """At 16 MB the time ratio is lower than at 6.4 MB — for every mix
        except pjn+ldk, whose pjn half individually *loses* improvement
        with cache size in the paper's own Figure 4 (0.88 -> 0.93)."""
        for mix in FIG5_MIXES:
            if mix == "pjn+ldk":
                continue
            assert fig5[mix][16.0].elapsed_ratio <= fig5[mix][6.4].elapsed_ratio + 0.02, mix
        assert abs(fig5["pjn+ldk"][16.0].elapsed_ratio - fig5["pjn+ldk"][6.4].elapsed_ratio) < 0.05

    def test_reductions_reach_about_30pct(self, fig5):
        best = min(fig5[m][16.0].elapsed_ratio for m in FIG5_MIXES)
        assert best < 0.8

    def test_no_mix_catastrophically_good(self, fig5):
        """Sanity: improvements stay within physically plausible bounds."""
        for mix in FIG5_MIXES:
            for mb in CACHE_SIZES_MB:
                assert fig5[mix][mb].elapsed_ratio > 0.4

    def test_four_way_mix_improves(self, fig5):
        cell = fig5["din+cs3+gli+ldk"][16.0]
        assert cell.io_ratio < 0.9
