"""Unit tests for Welch's t-test (validated against scipy)."""

import numpy as np
import pytest

from repro.analysis.significance import (
    ComparisonResult,
    compare_means,
    welch_t_test,
)
from repro.sim.stats import RunningStats


#: seed -> (statistic, p-value) of ``scipy.stats.ttest_ind(a, b,
#: equal_var=False)`` on ``test_matches_scipy``'s samples, computed once
#: with scipy 1.17.1.
SCIPY_WELCH = {
    0: (-2.644839063199473, 0.009751586172724347),
    1: (-0.6435533086711767, 0.5214778784032913),
    2: (-1.1550436913118836, 0.2510781407146088),
}


def summarize(data) -> RunningStats:
    s = RunningStats()
    for v in data:
        s.add(float(v))
    return s


class TestWelch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(10.0, 2.0, size=40)
        b = rng.normal(10.5, 3.0, size=55)
        ours = welch_t_test(summarize(a), summarize(b))
        statistic, pvalue = SCIPY_WELCH[seed]
        assert ours.t_statistic == pytest.approx(statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(pvalue, rel=1e-6)

    def test_identical_samples_not_significant(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=100)
        result = welch_t_test(summarize(data), summarize(data))
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_clear_difference_significant(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, size=200)
        b = rng.normal(5.0, 1.0, size=200)
        result = welch_t_test(summarize(a), summarize(b))
        assert result.significant(alpha=0.001)
        assert result.ci_high < 0  # a - b is clearly negative

    def test_ci_covers_true_difference(self):
        rng = np.random.default_rng(5)
        covered = 0
        for _ in range(50):
            a = rng.normal(2.0, 1.0, size=60)
            b = rng.normal(1.0, 1.0, size=60)
            r = welch_t_test(summarize(a), summarize(b), confidence=0.95)
            if r.ci_low <= 1.0 <= r.ci_high:
                covered += 1
        assert covered >= 40  # ~95% coverage, generous slack

    def test_zero_variance_equal(self):
        a = summarize([3.0, 3.0, 3.0])
        b = summarize([3.0, 3.0])
        result = welch_t_test(a, b)
        assert result.p_value == 1.0
        assert result.practically_equal(margin=0.01)

    def test_zero_variance_different(self):
        a = summarize([3.0, 3.0])
        b = summarize([4.0, 4.0])
        result = welch_t_test(a, b)
        assert result.p_value == 0.0
        assert result.significant()

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            welch_t_test(summarize([1.0]), summarize([1.0, 2.0]))

    def test_confidence_validation(self):
        a, b = summarize([1, 2, 3]), summarize([1, 2, 3])
        with pytest.raises(ValueError):
            welch_t_test(a, b, confidence=1.5)

    def test_practically_equal_requires_tight_ci(self):
        rng = np.random.default_rng(6)
        a = rng.normal(1.0, 0.01, size=500)
        b = rng.normal(1.001, 0.01, size=500)
        r = welch_t_test(summarize(a), summarize(b))
        assert r.practically_equal(margin=0.05)
        assert not r.practically_equal(margin=1e-5)


class TestCompareMeans:
    def test_within_margin(self):
        assert compare_means(1.00, 1.03, relative_margin=0.05)

    def test_outside_margin(self):
        assert not compare_means(1.0, 1.2, relative_margin=0.05)

    def test_zero_means(self):
        assert compare_means(0.0, 0.0)
