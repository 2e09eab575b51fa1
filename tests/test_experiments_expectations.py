"""Tests for the mechanized paper-claim checker."""

import pytest

from repro.experiments.expectations import (
    PAPER_EXPECTATIONS,
    Claim,
    break_even_between,
    decreases_with_x,
    dominates,
    flat,
    format_verdicts,
    increases_with_x,
    later_break_even,
    tracks,
    value_at,
    verify_expectations,
)
from tests.test_experiments_plot import fake_result


@pytest.fixture
def fig12ish():
    """A synthetic result with Fig 12's qualitative shape."""
    return fake_result(
        {
            "without Migration": [1.35, 1.6, 1.8, 1.9],
            "Migration": [0.7, 1.9, 3.0, 5.9],
            "Transient Placement": [0.6, 1.3, 1.7, 2.2],
        },
        x_values=(1.0, 6.0, 12.0, 25.0),
        exp_id="fig12",
    )


class TestClaimConstructors:
    def test_flat_pass_and_fail(self, fig12ish):
        good = flat("without Migration", 1.7, tolerance=0.25)
        bad = flat("Migration", 1.0, tolerance=0.1)
        assert good.evaluate(fig12ish).passed
        assert not bad.evaluate(fig12ish).passed

    def test_dominates(self, fig12ish):
        assert dominates(
            "Transient Placement", "Migration", slack=1.05
        ).evaluate(fig12ish).passed
        assert not dominates(
            "Migration", "Transient Placement"
        ).evaluate(fig12ish).passed

    def test_break_even_between(self, fig12ish):
        claim = break_even_between(
            "Migration", "without Migration", 3.0, 8.0
        )
        verdict = claim.evaluate(fig12ish)
        assert verdict.passed
        assert "crossing at" in verdict.detail

    def test_break_even_no_crossing(self, fig12ish):
        claim = break_even_between(
            "Transient Placement", "Migration", 1.0, 25.0
        )
        assert not claim.evaluate(fig12ish).passed

    def test_trends(self, fig12ish):
        assert increases_with_x("Migration").evaluate(fig12ish).passed
        assert not decreases_with_x("Migration").evaluate(fig12ish).passed

    def test_value_at(self, fig12ish):
        assert value_at(
            "without Migration", 25.0, 1.93, tolerance=0.05
        ).evaluate(fig12ish).passed
        assert not value_at(
            "without Migration", 25.0, 5.0, tolerance=0.05
        ).evaluate(fig12ish).passed

    def test_dominates_at_one_point(self, fig12ish):
        # Migration beats placement nowhere but is < 3x it at x=6.
        assert dominates(
            "Migration", "Transient Placement", slack=1.5, at=6.0
        ).evaluate(fig12ish).passed
        assert not dominates(
            "Migration", "Transient Placement", slack=1.5, at=25.0
        ).evaluate(fig12ish).passed

    def test_dominates_counts_two_near_zero_values_as_equal(self):
        # Fig 16 at C=1 under --fast: both curves are ~0, and the
        # ratio of the two is noise over noise.
        result = fake_result(
            {"a": [0.0016, 2.0], "b": [0.0003, 2.5]}, x_values=(1.0, 12.0)
        )
        assert dominates("a", "b", slack=1.1).evaluate(result).passed

    def test_dominates_still_fails_above_the_floor(self):
        above = fake_result(
            {"a": [0.5, 2.0], "b": [0.1, 2.5]}, x_values=(1.0, 12.0)
        )
        assert not dominates("a", "b", slack=1.1).evaluate(above).passed
        # One value under the floor is raised to it, not forgiven.
        straddle = fake_result(
            {"a": [0.05, 2.0], "b": [0.0003, 2.5]}, x_values=(1.0, 12.0)
        )
        assert not dominates("a", "b", slack=1.1).evaluate(straddle).passed

    def test_tracks(self, fig12ish):
        assert tracks(
            "Transient Placement", "without Migration", 0.6
        ).evaluate(fig12ish).passed
        assert not tracks(
            "Transient Placement", "without Migration", 0.1
        ).evaluate(fig12ish).passed
        # Points whose baseline is under ``above`` are skipped.
        assert tracks(
            "Transient Placement", "without Migration", 0.2, above=1.5
        ).evaluate(fig12ish).passed

    def test_later_break_even(self, fig12ish):
        args = ("Transient Placement", "without Migration")
        base = ("Migration", "without Migration")
        assert later_break_even(*args, *base, factor=2.0).evaluate(
            fig12ish
        ).passed
        assert not later_break_even(*base, *args).evaluate(fig12ish).passed

    def test_claim_error_becomes_failure(self, fig12ish):
        broken = Claim("broken", lambda r: r.series("nope"))
        verdict = broken.evaluate(fig12ish)
        assert not verdict.passed
        assert "error" in verdict.detail


class TestVerification:
    def test_fig12_expectations_pass_on_shaped_data(self, fig12ish):
        verdicts = verify_expectations(fig12ish)
        assert len(verdicts) == len(PAPER_EXPECTATIONS["fig12"])
        assert all(v.passed for v in verdicts), [str(v) for v in verdicts]

    def test_unknown_figure_yields_no_claims(self):
        result = fake_result({"a": [1.0, 1.0]}, x_values=(1.0, 2.0))
        assert verify_expectations(result) == []

    def test_custom_claims_override(self, fig12ish):
        claims = [flat("without Migration", 1.7, tolerance=0.25)]
        verdicts = verify_expectations(fig12ish, claims=claims)
        assert len(verdicts) == 1

    def test_format_verdicts(self, fig12ish):
        text = format_verdicts(verify_expectations(fig12ish))
        assert "[PASS]" in text
        assert "paper claims hold" in text

    def test_registry_covers_every_figure(self):
        from repro.experiments.figures import FIGURES

        assert set(FIGURES) == set(PAPER_EXPECTATIONS)

    def test_outlook_rows_are_checked_by_the_same_claims(self):
        columns = {
            "none": [1.75, 1.75],
            "eager": [0.4, 3.3],
            "threshold": [0.9, 1.8],
        }
        table = fake_result(columns, (0.99, 0.5), exp_id="replication")
        verdicts = verify_expectations(table)
        assert len(verdicts) == len(PAPER_EXPECTATIONS["replication"])
        assert all(v.passed for v in verdicts), [str(v) for v in verdicts]
        columns["eager"][1] = 1.9  # eager no longer thrashes
        table = fake_result(columns, (0.99, 0.5), exp_id="replication")
        assert not all(v.passed for v in verify_expectations(table))
