"""Table 4: Read300 on its own disk (RZ26) beside each application.

Separating the disks removes the contention channel: the paper's elapsed
times collapse to 17-20 s with no oblivious/smart difference, proving the
Table 3 variation was disk interference, not cache stealing.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import table4_smart_two_disks
from repro.harness.paperdata import PAPER_TABLE4, TABLE2_APPS


@pytest.fixture(scope="module")
def table4():
    return table4_smart_two_disks(TABLE2_APPS, 6.4)


def test_table4_benchmark(benchmark, save_table):
    data = run_once(benchmark, table4_smart_two_disks, TABLE2_APPS, 6.4)
    save_table(
        "table4",
        "Table 4: Read300 on its own disk\n" + report.render_table34(data, PAPER_TABLE4),
        data=data,
    )
    for mode in ("oblivious", "smart"):
        for app in TABLE2_APPS:
            assert data[mode][app].read300_elapsed < 35, (mode, app)


class TestShapes:
    def test_fast_everywhere(self, table4):
        """Own disk, own pace: an order of magnitude below Table 3's worst."""
        for mode in ("oblivious", "smart"):
            for app in TABLE2_APPS:
                assert table4[mode][app].read300_elapsed < 35, (mode, app)

    def test_smart_oblivious_difference_negligible(self, table4):
        for app in TABLE2_APPS:
            a = table4["oblivious"][app].read300_elapsed
            b = table4["smart"][app].read300_elapsed
            assert abs(a - b) <= 0.15 * max(a, b), app

    def test_io_counts_still_compulsory(self, table4):
        for mode in ("oblivious", "smart"):
            for app in TABLE2_APPS:
                assert 1310 <= table4[mode][app].read300_ios <= 1450
