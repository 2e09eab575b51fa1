"""End-to-end acceptance: every registered experiment meets its claims.

Each figure, ablation and outlook study of
:data:`~repro.experiments.figures.FIGURES` runs at seed 0 on its thinned
(``fast``) grid under ``StoppingConfig.fast()``, and every claim
:data:`~repro.experiments.expectations.PAPER_EXPECTATIONS` states about
it must pass.  ``repro-experiment all --fast --check`` runs the same
check from the command line.  The per-figure classes below name the
claims that carry each of the paper's §4 statements; they re-read the
verdicts of the same run, so no experiment runs twice.
"""

import pytest

from repro.experiments.cache import CellCache
from repro.experiments.executor import ParallelExecutor, shutdown_pools
from repro.experiments.expectations import (
    PAPER_EXPECTATIONS,
    verify_expectations,
)
from repro.experiments.figures import FIG8_BASE, FIGURES, make_figure
from repro.experiments.runner import run_figure
from repro.sim.stopping import StoppingConfig
from repro.workload.clientserver import run_cell


@pytest.fixture(scope="module")
def executor(tmp_path_factory):
    """Two workers and one private cell cache for every experiment:
    Figs 8, 10 and 11 plot the same cells, and so do several ablations."""
    yield ParallelExecutor(
        workers=2, cache=CellCache(tmp_path_factory.mktemp("cells"))
    )
    shutdown_pools()


@pytest.fixture(scope="module")
def verdicts(executor):
    """``verdicts(name)``: description -> verdict of every claim on the
    experiment, each experiment run once per module."""
    runs = {}

    def get(name):
        if name not in runs:
            result = run_figure(
                make_figure(name, seed=0, fast=True),
                stopping=StoppingConfig.fast(),
                executor=executor,
            )
            runs[name] = {v.description: v for v in verify_expectations(result)}
        return runs[name]

    return get


def assert_hold(verdicts, name, *descriptions):
    """Each named claim on ``name`` is in the table and passes."""
    for description in descriptions:
        verdict = verdicts(name)[description]
        assert verdict.passed, str(verdict)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_every_claim_holds(name, verdicts):
    checked = verdicts(name).values()
    assert len(checked) == len(PAPER_EXPECTATIONS[name]) > 0
    assert all(v.passed for v in checked), [str(v) for v in checked]


class TestFigure8:
    def test_sedentary_anchor_is_4_thirds(self, verdicts):
        assert_hold(
            verdicts, "fig8", "'without Migration' is flat at 1.33333 (±8%)"
        )

    def test_migration_beats_sedentary_at_low_concurrency(self, verdicts):
        assert_hold(
            verdicts,
            "fig8",
            "both policies beat the baseline at the lowest concurrency",
        )

    def test_placement_never_worse_than_migration(self, verdicts):
        assert_hold(
            verdicts,
            "fig8",
            "'Transient Placement' dominates 'Migration' (slack x1.05)",
        )

    def test_cost_rises_with_concurrency(self, verdicts):
        """Duration of invocations generally increases with concurrency
        (i.e. as t_m falls)."""
        assert_hold(
            verdicts,
            "fig8",
            "'Migration' decreases over the sweep",
            "'Transient Placement' decreases over the sweep",
        )


class TestFigure10And11:
    def test_decomposition(self, bench_stopping):
        """Fig 10 + Fig 11 add up to Fig 8, and the migration share
        falls at maximum concurrency (callee already collocated)."""
        stop = bench_stopping(30_000)
        busy, quiet = (
            run_cell(
                FIG8_BASE.with_overrides(
                    policy="migration", mean_interblock_time=tm, seed=1
                ),
                stopping=stop,
            )
            for tm in (2.0, 100.0)
        )
        for r in (busy, quiet):
            assert r.mean_communication_time_per_call == pytest.approx(
                r.mean_call_duration + r.mean_migration_time_per_call
            )
        # Call-duration component grows with concurrency...
        assert busy.mean_call_duration > quiet.mean_call_duration
        # ...while the migration component per call shrinks.
        assert (
            busy.mean_migration_time_per_call
            < quiet.mean_migration_time_per_call
        )


class TestFigure12:
    def test_sedentary_flattens_toward_2(self, verdicts):
        assert_hold(
            verdicts, "fig12", "'without Migration' at x=25 is 1.92593 (±8%)"
        )

    def test_migration_break_even_near_6_clients(self, verdicts):
        assert_hold(
            verdicts,
            "fig12",
            "'Migration' breaks even with 'without Migration' in [3.5, 9]",
        )

    def test_placement_break_even_far_beyond_migrations(self, verdicts):
        """Paper: migration breaks even at 6 clients, placement at 20;
        the robust claim is that placement's point is at least 2x
        migration's."""
        assert_hold(
            verdicts,
            "fig12",
            "'Transient Placement' breaks even with 'without Migration'"
            " in [10, 25]",
            "'Transient Placement' breaks even at >= 2x the clients of"
            " 'Migration'",
        )

    def test_placement_growth_is_sublinear(self, verdicts):
        assert_hold(
            verdicts, "fig12", "'Transient Placement' grows sublinearly"
        )

    def test_migration_worst_at_high_client_counts(self, verdicts):
        assert_hold(
            verdicts,
            "fig12",
            "'without Migration' dominates 'Migration' at x=25 (slack x1)",
            "'Transient Placement' dominates 'Migration' at x=25 (slack x1)",
        )


class TestFigure14:
    def test_dynamic_policies_track_placement(self, verdicts):
        """§4.3: both strategies lead only to minor performance gains."""
        assert_hold(
            verdicts,
            "fig14",
            "'Comparing the Nodes' tracks 'Conservative Place-Policy' (±25%)",
            "'Comparing and Reinstantiation' tracks"
            " 'Conservative Place-Policy' (±25%)",
        )


MIG_U = "'Migration + unrestricted Attachment'"
MIG_A = "'Migration + A-transitive Attachment'"
PLACE_U = "'Transient Placement + unrestricted Attachment'"
PLACE_A = "'Transient Placement + A-transitive Attachment'"


class TestFigure16:
    def test_unrestricted_migration_is_devastating(self, verdicts):
        assert_hold(
            verdicts,
            "fig16",
            "unrestricted migration is devastating at high concurrency",
            f"{MIG_A} dominates {MIG_U} at x=12 (slack x0.667)",
        )

    def test_a_transitivity_helps_migration(self, verdicts):
        assert_hold(
            verdicts,
            "fig16",
            f"{MIG_A} dominates {MIG_U} (slack x1.1)",
            f"{MIG_A} dominates {MIG_U} at x=12 (slack x0.667)",
        )

    def test_placement_helps_under_both_attachment_modes(self, verdicts):
        assert_hold(
            verdicts,
            "fig16",
            f"{PLACE_U} dominates {MIG_U} at x=12 (slack x1)",
            f"{PLACE_A} dominates {MIG_A} at x=12 (slack x1)",
        )

    def test_placement_plus_alliances_is_best(self, verdicts):
        assert_hold(
            verdicts,
            "fig16",
            f"{PLACE_A} dominates {PLACE_U} at x=12 (slack x1.05)",
            f"{PLACE_A} dominates {MIG_A} at x=12 (slack x1)",
            f"{PLACE_A} dominates 'without Migration' at x=12 (slack x1)",
        )
