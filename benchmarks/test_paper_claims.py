"""Every paper claim, one test per row of :data:`repro.harness.claims.CLAIMS`.

The experiments are memoised, so one pytest session runs each of them once
(about two minutes in all).  A row with a known deviation is an expected
failure: it is reported, not asserted.
"""

import pytest

from repro.harness.claims import CLAIMS


@pytest.mark.parametrize(
    "claim",
    [
        pytest.param(c, id=c.id, marks=[pytest.mark.xfail(reason=c.known_deviation)]
                     if c.known_deviation else [])
        for c in CLAIMS
    ],
)
def test_claim(claim):
    value = claim.measure()
    assert claim.admits(value), f"{claim.cell}: {claim.measures} = {value:.4g}, band {claim.band}"
