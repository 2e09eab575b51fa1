"""Declarative paper claims, checked mechanically.

EXPERIMENTS.md asserts things like "placement dominates conventional
migration" or "the baseline is flat at 4/3" next to each regenerated
figure.  This module encodes those claims as data and checks them
against any :class:`~repro.experiments.runner.ExperimentResult`, so
``repro-experiment fig12 --check`` prints a PASS/FAIL verdict per claim
instead of relying on eyeballs.

Claim types:

``flat(series, value, tolerance)``
    The curve stays within ±tolerance (relative) of a constant.
``dominates(better, worse, slack, at=None)``
    ``better`` ≤ ``worse`` · slack at every x (or at x = ``at``; lower
    is better).  Values under :data:`NOISE_FLOOR` count as equal.
``tracks(series, baseline, tolerance, at=None, above=0)``
    Within ±tolerance (relative) of another curve.
``break_even_between(series, baseline, low, high)``
    The series first crosses above the baseline inside [low, high].
``later_break_even(late, ..., early, ..., factor)``
    One crossing lies at ≥ factor× another.
``increases_with_x(series)`` / ``decreases_with_x(series)``
    Endpoint-to-endpoint trend.
``value_at(series, x, expected, tolerance)``
    A point anchor (e.g. the 4/3 baseline at any x).

A claim reads only ``result.series(label)``, ``result.x_values``,
``result.labels`` and ``result.exp_id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.analysis.breakeven import break_even, is_sublinear
from repro.analysis.series import Curve, spread
from repro.experiments.figures import LOCATORS
from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class ClaimResult:
    """Verdict for one checked claim."""

    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.description}{suffix}"


@dataclass(frozen=True)
class Claim:
    """One checkable statement about an experiment's curves."""

    description: str
    check: Callable[[ExperimentResult], Tuple[bool, str]]

    def evaluate(self, result: ExperimentResult) -> ClaimResult:
        """Run the check, never raising (a crash is a failure)."""
        try:
            passed, detail = self.check(result)
        except Exception as exc:  # noqa: BLE001 - verdicts must not crash
            return ClaimResult(self.description, False, f"error: {exc!r}")
        return ClaimResult(self.description, passed, detail)


# -- claim constructors -------------------------------------------------------

#: Values below this are indistinguishable from zero.  The model's time
#: unit is one remote message (mean 1.0); a cell with almost no contention
#: (a single client) measures ~1e-3 of it, where a ratio of two curves is
#: noise divided by noise.  :func:`dominates` raises both values to the
#: floor before comparing them, so two values under it count as equal.
NOISE_FLOOR = 0.01


def _at(result, x: float) -> int:
    """Index of grid point ``x`` in the result's sweep."""
    return list(result.x_values).index(x)


def _pairs(result, a: str, b: str, at: Optional[float]) -> List[tuple]:
    """``(a, b)`` value pairs at every x, or only at x = ``at``."""
    pairs = list(zip(result.series(a), result.series(b)))
    return pairs if at is None else [pairs[_at(result, at)]]


def _where(at: Optional[float]) -> str:
    return "" if at is None else f" at x={at:g}"


def flat(series: str, value: float, tolerance: float = 0.1) -> Claim:
    """The series stays within ±tolerance (relative) of ``value``."""

    def check(result):
        ys = result.series(series)
        worst = max(abs(y - value) / abs(value) for y in ys)
        return worst <= tolerance, f"max deviation {worst:.1%}"

    return Claim(
        f"{series!r} is flat at {value:g} (±{tolerance:.0%})", check
    )


def dominates(
    better: str,
    worse: str,
    slack: float = 1.05,
    at: Optional[float] = None,
) -> Claim:
    """``better`` ≤ ``worse`` · slack at every x, or only at x = ``at``.

    Lower is better.  Both values are first raised to
    :data:`NOISE_FLOOR`, so points where both curves are about zero
    pass instead of comparing noise with noise.
    """

    def check(result):
        worst = max(
            max(b, NOISE_FLOOR) / max(w, NOISE_FLOOR)
            for b, w in _pairs(result, better, worse, at)
        )
        return worst <= slack, f"worst ratio {worst:.3f}"

    return Claim(
        f"{better!r} dominates {worse!r}{_where(at)} (slack x{slack:.3g})",
        check,
    )


def tracks(
    series: str,
    baseline: str,
    tolerance: float,
    at: Optional[float] = None,
    above: float = 0.0,
) -> Claim:
    """``series`` is within ±tolerance (relative) of ``baseline`` at
    every x (or only at x = ``at``) where the baseline is ≥ ``above``."""

    def check(result):
        gaps = [
            abs(y - b) / b
            for y, b in _pairs(result, series, baseline, at)
            if b >= above
        ]
        worst = max(gaps, default=0.0)
        return worst <= tolerance, f"max deviation {worst:.1%}"

    return Claim(
        f"{series!r} tracks {baseline!r}{_where(at)} (±{tolerance:.0%})",
        check,
    )


def _crossing(result, series: str, baseline: str) -> Optional[float]:
    return break_even(
        list(result.x_values), result.series(series), result.series(baseline)
    )


def break_even_between(
    series: str, baseline: str, low: float, high: float
) -> Claim:
    """The series first crosses above the baseline inside [low, high]."""

    def check(result):
        point = _crossing(result, series, baseline)
        if point is None:
            return False, "no crossing in range"
        return low <= point <= high, f"crossing at {point:.1f}"

    return Claim(
        f"{series!r} breaks even with {baseline!r} in [{low:g}, {high:g}]",
        check,
    )


def later_break_even(
    late: str,
    late_baseline: str,
    early: str,
    early_baseline: str,
    factor: float = 1.0,
) -> Claim:
    """``late`` crosses its baseline at ≥ ``factor``× the x where
    ``early`` crosses its own; a ``late`` that never crosses in range
    passes, an ``early`` that never crosses fails."""

    def check(result):
        first = _crossing(result, early, early_baseline)
        second = _crossing(result, late, late_baseline)
        detail = "crossings at " + " and ".join(
            "none" if p is None else f"{p:.1f}" for p in (first, second)
        )
        if first is None:
            return False, detail
        return second is None or second >= factor * first, detail

    return Claim(
        f"{late!r} breaks even at >= {factor:g}x the clients of {early!r}",
        check,
    )


def increases_with_x(series: str, margin: float = 1.0) -> Claim:
    """The last point exceeds the first by at least ``margin``×."""

    def check(result):
        ys = result.series(series)
        return ys[-1] > ys[0] * margin, f"{ys[0]:.3f} -> {ys[-1]:.3f}"

    return Claim(f"{series!r} increases over the sweep", check)


def decreases_with_x(series: str, margin: float = 1.0) -> Claim:
    """The last point is below the first by at least ``margin``×."""

    def check(result):
        ys = result.series(series)
        return ys[-1] * margin < ys[0], f"{ys[0]:.3f} -> {ys[-1]:.3f}"

    return Claim(f"{series!r} decreases over the sweep", check)


def value_at(
    series: str, x: float, expected: float, tolerance: float = 0.1
) -> Claim:
    """The series' value at grid point ``x`` is ``expected`` ±tolerance."""

    def check(result):
        y = result.series(series)[_at(result, x)]
        deviation = abs(y - expected) / abs(expected)
        return deviation <= tolerance, f"measured {y:.3f}"

    return Claim(
        f"{series!r} at x={x:g} is {expected:g} (±{tolerance:.0%})", check
    )


# -- the paper's §4 statements and the ablations beyond it -------------------

SEDENTARY = "without Migration"
MIGRATION = "Migration"
PLACEMENT = "Transient Placement"
GUARDED = "Guarded Migration"
MIG_U = "Migration + unrestricted Attachment"
MIG_X = "Migration + exclusive Attachment"
MIG_A = "Migration + A-transitive Attachment"
PLACE_U = "Transient Placement + unrestricted Attachment"
PLACE_X = "Transient Placement + exclusive Attachment"
PLACE_A = "Transient Placement + A-transitive Attachment"
CONSERVATIVE = "Conservative Place-Policy"
COMPARING = "Comparing the Nodes"
REINSTANTIATION = "Comparing and Reinstantiation"


def _sublinear(series: str) -> Claim:
    return Claim(
        f"{series!r} grows sublinearly",
        lambda r: (is_sublinear(r.x_values, r.series(series)), ""),
    )


def _visit_costs_more(policy: str) -> List[Claim]:
    """Call-by-visit never undercuts call-by-move by more than 5 % and
    exceeds it by more than 5 % somewhere: it pays the return trip."""
    move, visit = f"{policy} (move)", f"{policy} (visit)"
    return [
        dominates(move, visit, slack=1 / 0.95),
        Claim(
            f"{visit!r} costs over 5% more than {move!r} somewhere",
            lambda r: (
                any(
                    v > m * 1.05
                    for v, m in zip(r.series(visit), r.series(move))
                ),
                "",
            ),
        ),
    ]


def _topology_spread(width: float) -> Claim:
    def check(result):
        gap = spread(
            [
                Curve(label, tuple(result.x_values), tuple(result.series(label)))
                for label in result.labels
            ]
        )
        return gap < width, f"max pairwise gap {gap:.3f}"

    return Claim(f"every topology's curve is within {width:g} of the others", check)


def _fragmentation(policy: str) -> List[Claim]:
    """Splitting an object once cuts the conflict cost by over 20 %; the
    gain from 4 to 8 fragments is no larger than from 2 to 4 (+0.05)."""

    def at(result, k):
        return result.series(policy)[_at(result, k)]

    return [
        Claim(
            f"{policy}: 2 fragments cost < 0.8x one",
            lambda r: (at(r, 2.0) < 0.8 * at(r, 1.0), f"{at(r, 2.0):.3f}"),
        ),
        Claim(
            f"{policy}: diminishing returns from 4 to 8 fragments",
            lambda r: (
                at(r, 4.0) - at(r, 8.0) < at(r, 2.0) - at(r, 4.0) + 0.05,
                f"gains {at(r, 2.0) - at(r, 4.0):.3f}, "
                f"{at(r, 4.0) - at(r, 8.0):.3f}",
            ),
        ),
    ]


#: exp_id -> its claims: one entry per experiment of
#: :data:`~repro.experiments.figures.FIGURES` — the paper's figures
#: (fig*), the ablations and the outlook studies.
PAPER_EXPECTATIONS = {
    "fig8": [
        flat(SEDENTARY, 4.0 / 3.0, tolerance=0.08),
        dominates(PLACEMENT, MIGRATION, slack=1.05),
        # Migration pays off at low concurrency (largest t_m point).
        Claim(
            "both policies beat the baseline at the lowest concurrency",
            lambda r: (
                r.series(MIGRATION)[-1] < r.series(SEDENTARY)[-1]
                and r.series(PLACEMENT)[-1] < r.series(SEDENTARY)[-1],
                "",
            ),
        ),
        decreases_with_x(MIGRATION),
        decreases_with_x(PLACEMENT),
    ],
    "fig10": [
        flat(SEDENTARY, 4.0 / 3.0, tolerance=0.08),
        decreases_with_x(MIGRATION),
        decreases_with_x(PLACEMENT),
    ],
    "fig11": [
        Claim(
            "'without Migration' performs no migrations",
            lambda r: (all(v == 0.0 for v in r.series(SEDENTARY)), ""),
        ),
        Claim(
            "migration load dips at maximum concurrency",
            lambda r: (
                r.series(MIGRATION)[0] < max(r.series(MIGRATION)[1:]),
                "",
            ),
        ),
        # Rejected move-requests migrate nothing.
        dominates(PLACEMENT, MIGRATION, slack=1.08),
    ],
    "fig12": [
        value_at(SEDENTARY, 25.0, 2.0 * (1 - 1 / 27), tolerance=0.08),
        break_even_between(MIGRATION, SEDENTARY, 3.5, 9.0),
        break_even_between(PLACEMENT, SEDENTARY, 10.0, 25.0),
        later_break_even(
            PLACEMENT, SEDENTARY, MIGRATION, SEDENTARY, factor=2.0
        ),
        dominates(PLACEMENT, MIGRATION, slack=1.08),
        increases_with_x(MIGRATION, margin=2.0),
        _sublinear(PLACEMENT),
        # Migration is the worst policy at the largest client count.
        dominates(SEDENTARY, MIGRATION, slack=1.0, at=25.0),
        dominates(PLACEMENT, MIGRATION, slack=1.0, at=25.0),
    ],
    "fig14": [
        dominates(COMPARING, CONSERVATIVE, slack=1.3),
        dominates(CONSERVATIVE, COMPARING, slack=1.3),
        dominates(REINSTANTIATION, CONSERVATIVE, slack=1.3),
        # §4.3: "only minor performance gains" - no dramatic win or
        # loss wherever the curves are off the degenerate ~0 point.
        tracks(COMPARING, CONSERVATIVE, 0.25, above=0.2),
        tracks(REINSTANTIATION, CONSERVATIVE, 0.25, above=0.2),
    ],
    "fig16": [
        dominates(MIG_A, MIG_U, slack=1.1),
        dominates(PLACE_U, MIG_U, slack=1.05),
        dominates(PLACE_A, MIG_A, slack=1.05),
        Claim(
            "unrestricted migration is devastating at high concurrency",
            lambda r: (r.series(MIG_U)[-1] > r.series(SEDENTARY)[-1], ""),
        ),
        # At the largest client count: A-transitivity bounds the damage,
        # placement improves both attachment modes, and the combination
        # wins overall.
        dominates(MIG_A, MIG_U, slack=1 / 1.5, at=12.0),
        dominates(PLACE_U, MIG_U, slack=1.0, at=12.0),
        dominates(PLACE_A, MIG_A, slack=1.0, at=12.0),
        dominates(PLACE_A, PLACE_U, slack=1.05, at=12.0),
        dominates(PLACE_A, SEDENTARY, slack=1.0, at=12.0),
    ],
    # §2.2's transient fixing: the guard leaves low concurrency alone,
    # caps the hot-spot degradation, but does not reach the place-policy.
    "guard": [
        tracks(GUARDED, MIGRATION, 0.1, at=3.0),
        dominates(GUARDED, MIGRATION, slack=0.75, at=25.0),
        dominates(PLACEMENT, GUARDED, slack=1.0, at=25.0),
    ],
    # §4.1 folds location into the message time: every locator keeps
    # placement ahead of migration, and none is >10 % cheaper than
    # immediate update.
    "locator": [
        dominates(
            f"{PLACEMENT} ({locator})", f"{MIGRATION} ({locator})", slack=1.0
        )
        for locator in LOCATORS
    ]
    + [
        dominates(
            f"{PLACEMENT} (immediate)", f"{PLACEMENT} ({locator})", slack=1 / 0.9
        )
        for locator in LOCATORS[1:]
    ],
    # §4.2.2: a larger N/M moves placement's break-even over-
    # proportionally (possibly out of the sweep).
    "nm_ratio": [
        break_even_between(
            f"{PLACEMENT}, N~exp(8)", f"{SEDENTARY}, N~exp(8)", 1.0, 25.0
        ),
        later_break_even(
            f"{PLACEMENT}, N~exp(16)",
            f"{SEDENTARY}, N~exp(16)",
            f"{PLACEMENT}, N~exp(8)",
            f"{SEDENTARY}, N~exp(8)",
        ),
    ],
    # §3.4's exclusive attachment sits between unrestricted and
    # A-transitive.
    "exclusive": [
        dominates(MIG_X, MIG_U, slack=1.05),
        dominates(PLACE_X, PLACE_U, slack=1.5),
        dominates(MIG_A, MIG_X, slack=1.1),
        dominates(PLACE_A, PLACE_X, slack=1.1),
    ],
    # §2.3's call-by-visit pays the return trip under both policies.
    "visit": _visit_costs_more(MIGRATION) + _visit_costs_more(PLACEMENT),
    # §4.1: "other structures ... had no effects on the results".
    "topology": [_topology_spread(0.25)],
    # §2.2: availability favours spreading a group, chained group
    # operations favour collocating it.
    "availability": [
        dominates("spread", "collocated", slack=1.0, at=0.0),
        dominates("collocated", "spread", slack=1.0, at=1.0),
    ],
    # §5: finer fragments tame conflicts, with diminishing returns.
    "fragmentation": _fragmentation("migration") + _fragmentation("placement"),
    # §5: eager replication thrashes like conventional migration once
    # writes appear; threshold replication behaves like the place-policy.
    "replication": [
        Claim(
            "'none' is flat across read ratios (spread < 0.3)",
            lambda r: (
                max(r.series("none")) - min(r.series("none")) < 0.3,
                "",
            ),
        ),
        dominates("eager", "none", slack=0.6, at=0.99),
        dominates("none", "eager", slack=1 / 1.5, at=0.5),
        dominates("threshold", "none", slack=1.0, at=0.99),
        dominates("threshold", "none", slack=1.25, at=0.5),
    ],
    # The paper's policy ranking survives crashes and message loss once
    # the place-policy's locks are leased.
    "faulttolerance": [
        dominates("placement", "migration", slack=1.0),
        dominates("migration", "sedentary", slack=1.0),
    ],
}


def verify_expectations(
    result: ExperimentResult,
    claims: Optional[List[Claim]] = None,
) -> List[ClaimResult]:
    """Check a result against its figure's paper claims.

    ``claims`` overrides the registry (for custom experiments).
    Unknown figures with no explicit claims yield an empty list.
    """
    if claims is None:
        claims = PAPER_EXPECTATIONS.get(result.exp_id, [])
    return [claim.evaluate(result) for claim in claims]


def format_verdicts(verdicts: List[ClaimResult]) -> str:
    """One line per claim, plus a summary line."""
    lines = [str(v) for v in verdicts]
    passed = sum(1 for v in verdicts if v.passed)
    lines.append(f"{passed}/{len(verdicts)} paper claims hold")
    return "\n".join(lines)
