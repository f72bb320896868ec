"""Self-validation: every row of the claims table checked against the paper.

``repro-accfc validate`` runs the full experiment set, measures each row
of :data:`repro.harness.claims.CLAIMS` and prints one verdict line per
row.  A row with a ``known_deviation`` prints as ``[DEV ]`` with its
reason and is counted apart; any other row outside its band fails the
command.  ``benchmarks/test_paper_claims.py`` asserts the same rows.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.harness.claims import CLAIMS, Claim, number

Result = Tuple[Claim, float]


def run_validation() -> List[Result]:
    """Every claim with its measured value."""
    return [(claim, claim.measure()) for claim in CLAIMS]


def verdict(claim: Claim, value: float) -> str:
    if claim.known_deviation:
        return "DEV "
    return "PASS" if claim.admits(value) else "FAIL"


def render_validation(results: List[Result]) -> str:
    width = max(len(c.id) for c, _ in results)
    lines = []
    for claim, value in results:
        paper = "-" if claim.paper is None else number(claim.paper)
        line = (
            f"[{verdict(claim, value)}] {claim.id:<{width}}  ours={number(value)}  "
            f"paper={paper}  band={claim.band}  {claim.cell}: {claim.measures}"
        )
        if claim.known_deviation:
            line += f" -- known deviation: {claim.known_deviation}"
        lines.append(line)
    marks = [verdict(c, v) for c, v in results]
    checked = len(marks) - marks.count("DEV ")
    lines.append(
        f"\n{marks.count('PASS')}/{checked} claims reproduced, "
        f"{marks.count('DEV ')} known deviations"
    )
    return "\n".join(lines)
