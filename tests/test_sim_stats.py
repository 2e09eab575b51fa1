"""Unit tests for the statistics accumulators."""

import math

import numpy as np
import pytest

from repro.sim.stats import (
    BatchMeans,
    RunningStats,
    TimeWeightedStats,
    normal_ppf,
    student_t_ppf,
)


#: Reference quantiles computed once with scipy 1.17.1:
#: ``scipy.stats.norm.ppf(p)`` and ``scipy.stats.t.ppf(p, dof)``.
NORM_PPF = {
    0.001: -3.090232306167813,
    0.01: -2.3263478740408408,
    0.025: -1.9599639845400545,
    0.5: 0.0,
    0.9: 1.2815515655446004,
    0.975: 1.959963984540054,
    0.995: 2.5758293035489004,
    0.9999: 3.719016485455709,
}
T_PPF = {
    (3, 0.95): 2.3533634348018233,
    (3, 0.975): 3.1824463052837078,
    (3, 0.995): 5.840909309733355,
    (5, 0.95): 2.0150483733330233,
    (5, 0.975): 2.5705818356363146,
    (5, 0.995): 4.032142983555228,
    (10, 0.95): 1.8124611228116756,
    (10, 0.975): 2.228138851986274,
    (10, 0.995): 3.16927267261695,
    (30, 0.95): 1.697260886593957,
    (30, 0.975): 2.0422724563012378,
    (30, 0.995): 2.7499956535672254,
    (49, 0.995): 2.679951973631552,
    (100, 0.95): 1.6602343260853392,
    (100, 0.975): 1.9839715185235518,
    (100, 0.995): 2.6258905214380173,
}


class TestNormalPpf:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.025, 0.5, 0.9, 0.975, 0.995, 0.9999])
    def test_matches_scipy(self, p):
        assert normal_ppf(p) == pytest.approx(NORM_PPF[p], abs=1e-8)

    def test_symmetry(self):
        assert normal_ppf(0.3) == pytest.approx(-normal_ppf(0.7), abs=1e-9)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            normal_ppf(p)


class TestStudentTPpf:
    @pytest.mark.parametrize("dof", [3, 5, 10, 30, 100])
    @pytest.mark.parametrize("p", [0.95, 0.975, 0.995])
    def test_matches_scipy(self, dof, p):
        expected = T_PPF[dof, p]
        assert student_t_ppf(p, dof) == pytest.approx(expected, rel=2e-3)

    def test_converges_to_normal(self):
        assert student_t_ppf(0.99, 10**7) == pytest.approx(
            normal_ppf(0.99), rel=1e-6
        )

    def test_dof_must_be_positive(self):
        with pytest.raises(ValueError):
            student_t_ppf(0.9, 0)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.count == 0
        assert s.variance == 0.0
        assert s.sem == math.inf

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.normal(5, 2, size=1000)
        s = RunningStats()
        for v in data:
            s.add(v)
        assert s.mean == pytest.approx(np.mean(data))
        assert s.variance == pytest.approx(np.var(data, ddof=1))
        assert s.min == pytest.approx(np.min(data))
        assert s.max == pytest.approx(np.max(data))
        assert s.total == pytest.approx(np.sum(data))

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=100), rng.normal(loc=3, size=57)
        sa, sb, sc = RunningStats(), RunningStats(), RunningStats()
        for v in a:
            sa.add(v)
        for v in b:
            sb.add(v)
        for v in np.concatenate([a, b]):
            sc.add(v)
        sa.merge(sb)
        assert sa.count == sc.count
        assert sa.mean == pytest.approx(sc.mean)
        assert sa.variance == pytest.approx(sc.variance)

    def test_merge_with_empty(self):
        s = RunningStats()
        s.add(1.0)
        s.merge(RunningStats())
        assert s.count == 1
        empty = RunningStats()
        empty.merge(s)
        assert empty.count == 1
        assert empty.mean == 1.0

    def test_confidence_halfwidth_matches_t_interval(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=50)
        s = RunningStats()
        for v in data:
            s.add(v)
        t = T_PPF[49, 0.995]
        expected = t * np.std(data, ddof=1) / np.sqrt(50)
        assert s.confidence_halfwidth(0.99) == pytest.approx(expected, rel=2e-3)

    def test_halfwidth_infinite_for_single_sample(self):
        s = RunningStats()
        s.add(1.0)
        assert s.confidence_halfwidth() == math.inf


class TestTimeWeightedStats:
    def test_constant_signal(self):
        s = TimeWeightedStats(initial_value=4.0)
        assert s.mean(10) == 4.0

    def test_step_signal(self):
        s = TimeWeightedStats(initial_value=0.0)
        s.update(10.0, now=5.0)  # 0 for [0,5), 10 afterwards
        assert s.mean(10.0) == pytest.approx(5.0)

    def test_tracks_max(self):
        s = TimeWeightedStats()
        s.update(3, now=1)
        s.update(7, now=2)
        s.update(2, now=3)
        assert s.max == 7

    def test_time_backwards_rejected(self):
        s = TimeWeightedStats()
        s.update(1, now=5)
        with pytest.raises(ValueError):
            s.update(2, now=4)

    def test_mean_at_start_time(self):
        s = TimeWeightedStats(initial_value=2.0, start_time=3.0)
        assert s.mean(3.0) == 2.0


class TestBatchMeans:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BatchMeans(batch_size=0)
        with pytest.raises(ValueError):
            BatchMeans(warmup=-1)

    def test_warmup_discarded(self):
        bm = BatchMeans(batch_size=2, warmup=3)
        for v in [100, 100, 100, 1, 2, 3, 4]:
            bm.add(v)
        assert bm.observation_count == 4
        assert bm.mean == pytest.approx(2.5)

    def test_batch_count(self):
        bm = BatchMeans(batch_size=5)
        for v in range(17):
            bm.add(v)
        assert bm.batch_count == 3  # 2 observations left in partial batch

    def test_halfwidth_infinite_below_two_batches(self):
        bm = BatchMeans(batch_size=10)
        for v in range(10):
            bm.add(v)
        assert bm.confidence_halfwidth() == math.inf

    def test_iid_data_ci_covers_mean(self):
        rng = np.random.default_rng(3)
        bm = BatchMeans(batch_size=100)
        for v in rng.exponential(2.0, size=20000):
            bm.add(v)
        low, high = bm.interval(0.99)
        assert low < 2.0 < high

    def test_relative_halfwidth_near_zero_mean(self):
        bm = BatchMeans(batch_size=2)
        for v in [1, -1, 1, -1, 1, -1]:
            bm.add(v)
        assert bm.relative_halfwidth() == math.inf
