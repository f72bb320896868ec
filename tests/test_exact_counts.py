"""Exact cost counts: regression gates that hold on any machine.

A timing compares only against a run on the same box; a count does not
move with the hardware.  A change that alters one of these counts
changes what the simulator does, and re-pins it here on purpose, with
the reason stated in CHANGES.md.
"""

import pytest

from repro.check.invariants import sanitize_enabled
from repro.core.allocation import LRU_SP
from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System


def test_cs2_gli_lru_sp_counts():
    """The Fig. 5 ``cs2+gli`` mix with smart managers under LRU-SP at
    6.4 MB: accesses, hits and engine events (4.62 events per access)."""
    if sanitize_enabled():
        # The sanitizer sweeps the whole 819-frame cache after every
        # operation (minutes for this run) and changes none of the counts.
        pytest.skip("counts are sanitizer-independent; the sweep takes minutes")
    system = System(MachineConfig(cache_mb=6.4, policy=LRU_SP))
    for kind in ("cs2", "gli"):
        app(kind, smart=True).build().spawn(system)
    system.run()
    assert system.cache.stats.accesses == 21_498
    assert system.cache.stats.hits == 20_285
    assert system.engine.events_fired == 99_366
