"""The claims table and the self-validation report that renders it."""

import math

import pytest

from repro.harness import claims, cli, paperdata, validate
from repro.harness.claims import CLAIMS, Claim, Open
from repro.harness.validate import render_validation


def _row(id="fig4/x", lo=Open(-math.inf), hi=1.0, deviation=None):
    return Claim(id, "cell", "what", lambda d: 0.0, lo=lo, hi=hi, known_deviation=deviation)


class TestRender:
    def test_pass_and_fail_marks(self):
        text = render_validation([(_row("fig4/din@6.4"), 0.27), (_row("fig5/growth"), 2.0)])
        assert "[PASS] fig4/din@6.4" in text
        assert "[FAIL] fig5/growth" in text
        assert "1/2 claims reproduced, 0 known deviations" in text

    def test_alignment_uses_longest_names(self):
        lines = render_validation([(_row("a"), 0.5), (_row("a-much-longer-name"), 0.5)]).splitlines()
        assert lines[0].index("ours=") == lines[1].index("ours=")

    def test_all_pass_summary(self):
        assert "1/1 claims reproduced" in render_validation([(_row(), 0.5)])

    def test_deviation_renders_apart(self):
        text = render_validation([(_row(), 0.5), (_row("fig4/cs3@12", deviation="why"), 9.0)])
        assert "[DEV ] fig4/cs3@12" in text
        assert "known deviation: why" in text
        assert "1/1 claims reproduced, 1 known deviations" in text


class TestExitCode:
    @pytest.mark.parametrize("value, code", [(0.5, 0), (2.0, 1)])
    def test_a_failing_row_fails_the_command(self, monkeypatch, capsys, value, code):
        rows = [(_row(), value), (_row("fig4/cs3@12", deviation="why"), 9.0)]
        monkeypatch.setattr(validate, "run_validation", lambda: rows)
        assert cli.main(["validate"]) == code
        assert "[DEV ] fig4/cs3@12" in capsys.readouterr().out


class TestTable:
    def test_ids_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_paper_values_match_paperdata(self):
        by_id = {c.id: c for c in CLAIMS}
        for app, ios in paperdata.PAPER_BLOCK_IOS.items():
            for i, mb in enumerate(paperdata.CACHE_SIZES_MB):
                assert by_id[f"fig4/{app}@{mb:g}"].paper == ios["lru-sp"][i] / ios["original"][i]
                for kernel in ("original", "lru-sp"):
                    assert by_id[f"table6/{app}@{mb:g}/{kernel}"].paper == ios[kernel][i]

    def test_cell_bands_within_tolerance(self):
        """A tighter edge may replace a tolerance edge, never widen it."""
        for c in CLAIMS:
            if c.id.startswith("fig4/") and c.paper is not None:
                tol = (c.paper - claims.FIG4_TOLERANCE, c.paper + claims.FIG4_TOLERANCE)
            elif c.id.startswith("table6/"):
                rel = claims.TABLE6_TOLERANCE[c.id.rsplit("/", 1)[1]]
                tol = (c.paper * (1 - rel), c.paper * (1 + rel))
            else:
                continue
            assert tol[0] <= c.lo <= c.hi <= tol[1], c.id

    def test_bands_ordered_and_deviations_explained(self):
        for c in CLAIMS:
            assert c.lo <= c.hi, c.id
            assert c.known_deviation is None or c.known_deviation.strip(), c.id
            assert c.experiment in claims.SOURCES, c.id

    def test_open_edges_exclude_the_bound(self):
        assert _row(hi=Open(1.0)).band == "(-inf, 1)"
        assert not _row(hi=Open(1.0)).admits(1.0)
        assert _row(hi=1.0).admits(1.0)
        assert not _row(lo=Open(1.0), hi=Open(math.inf)).admits(1.0)

    def test_row_evaluates_on_small_primed_experiment(self):
        """A structural row reads any grid, so a reduced Figure 4 run serves."""
        from repro.harness.experiments import fig4_single_apps

        best_io = next(c for c in CLAIMS if c.id == "fig4/best-io")
        value = best_io.value(fig4_single_apps(("din",), (1.0,)))
        assert 0 < value <= 1.0
        assert best_io.admits(value) == (value < 0.35)
