"""Unit tests for the statistics collectors."""

import math

import numpy as np
import pytest

from repro.sim import BatchMeans, TallyStat, TimeWeightedStat, confidence_interval
from repro.sim.stats import _T_975, _t_quantile


class TestTallyStat:
    def test_empty_is_nan(self):
        stat = TallyStat()
        assert math.isnan(stat.mean)
        assert math.isnan(stat.variance)

    def test_matches_numpy(self):
        values = [3.0, 1.5, -2.0, 7.25, 0.0, 4.5]
        stat = TallyStat()
        for value in values:
            stat.record(value)
        assert stat.count == len(values)
        assert stat.mean == pytest.approx(np.mean(values))
        assert stat.variance == pytest.approx(np.var(values, ddof=1))
        assert stat.stdev == pytest.approx(np.std(values, ddof=1))
        assert stat.minimum == min(values)
        assert stat.maximum == max(values)

    def test_single_observation(self):
        stat = TallyStat()
        stat.record(5.0)
        assert stat.mean == 5.0
        assert math.isnan(stat.variance)

    def test_reset(self):
        stat = TallyStat()
        stat.record(1.0)
        stat.reset()
        assert stat.count == 0
        assert math.isnan(stat.mean)


class TestTimeWeightedStat:
    def test_constant_signal(self):
        stat = TimeWeightedStat(initial_value=3.0)
        assert stat.time_average(10.0) == pytest.approx(3.0)

    def test_step_signal(self):
        stat = TimeWeightedStat(initial_value=0.0)
        stat.update(2.0, now=5.0)   # 0 for 5 units, then 2
        assert stat.time_average(10.0) == pytest.approx(1.0)

    def test_add_increments(self):
        stat = TimeWeightedStat()
        stat.add(3.0, now=1.0)
        stat.add(-1.0, now=2.0)
        assert stat.value == 2.0
        # area: 0*1 + 3*1 + 2*2 = 7 over 4 units
        assert stat.time_average(4.0) == pytest.approx(7.0 / 4.0)

    def test_time_going_backwards_rejected(self):
        stat = TimeWeightedStat()
        stat.update(1.0, now=5.0)
        with pytest.raises(ValueError):
            stat.update(2.0, now=4.0)

    def test_zero_window_is_nan(self):
        assert math.isnan(TimeWeightedStat().time_average(0.0))

    def test_reset_keeps_value(self):
        stat = TimeWeightedStat()
        stat.update(4.0, now=2.0)
        stat.reset(now=2.0)
        assert stat.value == 4.0
        assert stat.time_average(4.0) == pytest.approx(4.0)

    def test_maximum_tracked(self):
        stat = TimeWeightedStat()
        stat.update(5.0, now=1.0)
        stat.update(2.0, now=2.0)
        assert stat.maximum == 5.0


class TestBatchMeans:
    def test_requires_two_batches(self):
        with pytest.raises(ValueError):
            BatchMeans(num_batches=1)

    def test_batch_means_partition(self):
        batches = BatchMeans(num_batches=2)
        for value in [1.0, 2.0, 3.0, 4.0]:
            batches.record(value)
        assert batches.batch_means() == [1.5, 3.5]

    def test_front_remainder_dropped(self):
        batches = BatchMeans(num_batches=2)
        for value in [99.0, 1.0, 2.0, 3.0, 4.0]:
            batches.record(value)
        assert batches.batch_means() == [1.5, 3.5]

    def test_interval_shrinks_with_data(self):
        rng = np.random.default_rng(0)
        small = BatchMeans(num_batches=10)
        large = BatchMeans(num_batches=10)
        for value in rng.normal(size=100):
            small.record(float(value))
        for value in rng.normal(size=10000):
            large.record(float(value))
        assert large.interval()[0] < small.interval()[0]

    def test_interval_covers_known_mean(self):
        rng = np.random.default_rng(1)
        batches = BatchMeans(num_batches=20)
        for value in rng.normal(loc=5.0, size=20000):
            batches.record(float(value))
        half_width, mean = batches.interval(confidence=0.99)
        assert abs(mean - 5.0) < half_width + 0.05

    def test_too_few_observations(self):
        batches = BatchMeans(num_batches=10)
        batches.record(1.0)
        half_width, mean = batches.interval()
        assert math.isnan(half_width)
        assert mean == 1.0


class TestConfidenceInterval:
    def test_empty(self):
        mean, half = confidence_interval([])
        assert math.isnan(mean)

    def test_single_value_infinite_width(self):
        mean, half = confidence_interval([4.0])
        assert mean == 4.0
        assert half == math.inf

    def test_matches_scipy_t(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = confidence_interval(values, confidence=0.95)
        assert mean == 3.0
        # Known half width: t(0.975, 4) * s / sqrt(5)
        from scipy import stats
        expected = stats.t.ppf(0.975, 4) * np.std(values, ddof=1) / np.sqrt(5)
        assert half == pytest.approx(expected)


def _scipy_t(probability, df):
    from scipy import stats

    return float(stats.t.ppf(probability, df))


class TestTQuantile:
    """The pinned 0.975 table must carry scipy's own bits."""

    @pytest.mark.parametrize("df", range(1, len(_T_975) + 1))
    def test_table_matches_scipy_bit_for_bit(self, df):
        assert _t_quantile(0.975, df).hex() == _scipy_t(0.975, df).hex()

    @pytest.mark.parametrize("confidence, df", [(0.90, 100), (0.95, 200), (0.99, 4)])
    def test_fallback_matches_scipy(self, confidence, df):
        probability = 0.5 + confidence / 2.0
        assert _t_quantile(probability, df).hex() == _scipy_t(probability, df).hex()

    @pytest.mark.parametrize("confidence", [0.95, 0.90])
    def test_confidence_interval_matches_direct_scipy(self, confidence):
        values = [2.5, 3.75, 1.0, 4.125, 2.0, 3.5, 5.25, 0.5]
        n = len(values)
        mean = sum(values) / n
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        expected = _scipy_t(0.5 + confidence / 2.0, n - 1) * math.sqrt(variance / n)
        got_mean, half = confidence_interval(values, confidence=confidence)
        assert got_mean == mean
        assert half.hex() == expected.hex()

    @pytest.mark.parametrize("confidence", [0.95, 0.99])
    def test_batch_means_interval_matches_direct_scipy(self, confidence):
        batches = BatchMeans(num_batches=20)
        for index in range(400):
            batches.record(float((index * 37) % 101) / 7.0)
        means = batches.batch_means()
        k = len(means)
        grand = sum(means) / k
        variance = sum((m - grand) ** 2 for m in means) / (k - 1)
        expected = _scipy_t(0.5 + confidence / 2.0, k - 1) * math.sqrt(variance / k)
        half, got_grand = batches.interval(confidence=confidence)
        assert got_grand == grand
        assert half.hex() == expected.hex()
