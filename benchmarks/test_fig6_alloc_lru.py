"""Figure 6: ALLOC-LRU vs LRU-SP on the five smart mixes.

The paper: "In most cases ALLOC-LRU performs worse ... These results show
that swapping positions of candidate and alternative blocks is necessary."
Ratios are ALLOC-LRU normalized to LRU-SP, so >1 means LRU-SP wins.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import fig6_alloc_lru
from repro.harness.paperdata import CACHE_SIZES_MB, FIG6_MIXES


@pytest.fixture(scope="module")
def fig6():
    return fig6_alloc_lru(FIG6_MIXES, CACHE_SIZES_MB)


def test_fig6_benchmark(benchmark, save_table):
    data = run_once(benchmark, fig6_alloc_lru, FIG6_MIXES, CACHE_SIZES_MB)
    save_table("fig6", report.render_mixes(data, "Figure 6"), data=data)
    for mix in FIG6_MIXES:
        assert data[mix][6.4].io_ratio > 1.0, mix


class TestShapes:
    def test_alloc_lru_worse_in_most_cases(self, fig6):
        cells = [
            fig6[mix][mb].io_ratio
            for mix in FIG6_MIXES
            for mb in CACHE_SIZES_MB
        ]
        worse = sum(1 for r in cells if r > 1.0)
        assert worse >= len(cells) * 0.5

    def test_alloc_lru_worse_at_default_cache(self, fig6):
        """At the 6.4 MB default every mix pays for the missing swap."""
        for mix in FIG6_MIXES:
            assert fig6[mix][6.4].io_ratio > 1.0, mix
            assert fig6[mix][6.4].elapsed_ratio > 1.0, mix

    def test_penalty_magnitude_meaningful(self, fig6):
        worst = max(fig6[m][6.4].io_ratio for m in FIG6_MIXES)
        assert worst > 1.05
