"""Table 3: do smart processes hurt oblivious ones?  (one disk)

An oblivious Read300 beside each application in oblivious and smart form,
everything on the RZ56.  The paper: "In most cases smart processes do not
hurt but rather help oblivious processes" — fewer I/Os from the smart app
means a shorter disk queue for everyone.
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import table3_smart_one_disk
from repro.harness.paperdata import PAPER_TABLE3, TABLE2_APPS


@pytest.fixture(scope="module")
def table3():
    return table3_smart_one_disk(TABLE2_APPS, 6.4)


def test_table3_benchmark(benchmark, save_table):
    data = run_once(benchmark, table3_smart_one_disk, TABLE2_APPS, 6.4)
    save_table(
        "table3",
        "Table 3: Read300 next to oblivious/smart apps (one disk)\n"
        + report.render_table34(data, PAPER_TABLE3),
        data=data,
    )
    for app in TABLE2_APPS:
        assert data["smart"][app].read300_elapsed <= data["oblivious"][app].read300_elapsed * 1.1


class TestShapes:
    def test_read300_ios_are_compulsory_in_all_cases(self, table3):
        """The paper: 'Read300's numbers of block I/Os are the same in all
        cases (about 1310) as they are all compulsory misses.'"""
        for mode in ("oblivious", "smart"):
            for app in TABLE2_APPS:
                ios = table3[mode][app].read300_ios
                assert 1310 <= ios <= 1310 * 1.12, (mode, app)

    def test_smart_neighbours_never_hurt_much(self, table3):
        for app in TABLE2_APPS:
            oblivious = table3["oblivious"][app].read300_elapsed
            smart = table3["smart"][app].read300_elapsed
            assert smart <= oblivious * 1.1, app

    def test_din_smart_helps_read300(self, table3):
        """din's 73 % I/O cut frees the shared disk — the paper's 87->67 s."""
        assert table3["smart"]["din"].read300_elapsed < table3["oblivious"]["din"].read300_elapsed
