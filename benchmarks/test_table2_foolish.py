"""Table 2: do foolish processes hurt other (smart) processes?

din/cs2/gli/ldk, each with its smart policy, run beside a Read300 that is
either oblivious or foolish, on one disk.  The paper found degradations in
elapsed time far exceeding the small I/O-count changes — the damage is
disk contention, not stolen cache frames.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import table2_foolish
from repro.harness.paperdata import TABLE2_APPS


@pytest.fixture(scope="module")
def table2():
    return table2_foolish(TABLE2_APPS, 6.4)


def test_table2_benchmark(benchmark, save_table):
    data = run_once(benchmark, table2_foolish, TABLE2_APPS, 6.4)
    save_table("table2", "Table 2: effect of a foolish process\n" + report.render_table2(data), data=data)
    for app in TABLE2_APPS:
        assert data["foolish"][app].elapsed > data["oblivious"][app].elapsed * 1.05, app
        assert data["foolish"][app].block_ios <= data["oblivious"][app].block_ios * 1.15, app


class TestShapes:
    def test_every_app_slows_down(self, table2):
        for app in TABLE2_APPS:
            quiet = table2["oblivious"][app].elapsed
            noisy = table2["foolish"][app].elapsed
            assert noisy > quiet * 1.1, app

    def test_io_counts_barely_move(self, table2):
        """Placeholders protect the frames; only the disk queue suffers."""
        for app in TABLE2_APPS:
            quiet = table2["oblivious"][app].block_ios
            noisy = table2["foolish"][app].block_ios
            assert noisy <= quiet * 1.15, app

    def test_slowdown_magnitude_like_paper(self, table2):
        """The paper saw 14-86 % elapsed-time inflation across the four."""
        slowdowns = [
            table2["foolish"][app].elapsed / table2["oblivious"][app].elapsed
            for app in TABLE2_APPS
        ]
        assert max(slowdowns) > 1.25
        assert all(s < 3.0 for s in slowdowns)
