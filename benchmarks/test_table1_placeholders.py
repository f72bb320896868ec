"""Table 1: are placeholders necessary?

Oblivious ReadN detectors beside a Read300 background that is either
oblivious (LRU) or foolish (MRU), under LRU-SP and under LRU-S
("unprotected").  The paper's conclusion, asserted here:

* without placeholders a foolish neighbour inflates the detector's I/Os;
* with placeholders the detector stays near its oblivious baseline;
* placeholders do NOT prevent elapsed-time increases (disk contention).
"""

import pytest

from conftest import run_once
from repro.harness import report
from repro.harness.experiments import table1_placeholders
from repro.harness.paperdata import TABLE1_READN


@pytest.fixture(scope="module")
def table1():
    return table1_placeholders(TABLE1_READN, 6.4)


def test_table1_benchmark(benchmark, save_table):
    data = run_once(benchmark, table1_placeholders, TABLE1_READN, 6.4)
    save_table("table1", "Table 1: placeholder protection\n" + report.render_table1(data), data=data)
    for n in (490, 500):
        assert data["unprotected"][n].block_ios > data["oblivious"][n].block_ios * 1.5
        assert data["protected"][n].block_ios <= data["oblivious"][n].block_ios * 1.1


class TestShapes:
    def test_unprotected_inflates_tight_detectors(self, table1):
        """Read490/Read500 barely (co-)fit; LRU-S lets the fool rob them."""
        for n in (490, 500):
            unprotected = table1["unprotected"][n].block_ios
            oblivious = table1["oblivious"][n].block_ios
            assert unprotected > oblivious * 1.5, n

    def test_protected_stays_near_oblivious(self, table1):
        for n in TABLE1_READN:
            protected = table1["protected"][n].block_ios
            oblivious = table1["oblivious"][n].block_ios
            assert protected <= oblivious * 1.1, n

    def test_protected_beats_unprotected_everywhere(self, table1):
        for n in TABLE1_READN:
            assert table1["protected"][n].block_ios <= table1["unprotected"][n].block_ios

    def test_roomy_detectors_unharmed_even_unprotected(self, table1):
        """Read390/Read400 leave slack; even LRU-S barely touches them."""
        for n in (390, 400):
            assert table1["unprotected"][n].block_ios < table1["oblivious"][n].block_ios * 1.25

    def test_elapsed_time_still_suffers_under_protection(self, table1):
        """The paper: 'placeholders did not prevent the increase in elapsed
        times' — the foolish process floods the shared disk regardless."""
        slowdowns = [
            table1["protected"][n].elapsed / table1["oblivious"][n].elapsed
            for n in TABLE1_READN
        ]
        assert max(slowdowns) > 1.1
