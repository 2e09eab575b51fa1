"""Statistics accumulators for simulation output analysis.

The paper runs every simulation "as long as a confidence interval of 1%
was reached with probability p=0.99" (§4.1).  This module provides the
pieces for that rule:

* :class:`RunningStats` — numerically stable (Welford) accumulator of
  count/mean/variance for observation streams.
* :class:`TimeWeightedStats` — mean of a piecewise-constant signal
  weighted by how long each value was held (utilization, queue length).
* :class:`BatchMeans` — the classic batch-means method for estimating
  the variance of the mean of a *correlated* observation series, which
  is what a steady-state simulation produces.
* :func:`normal_ppf` — inverse standard-normal CDF (Acklam's algorithm)
  so the core library does not depend on scipy.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Tuple


def normal_ppf(p: float) -> float:
    """Inverse CDF of the standard normal distribution.

    Uses Peter Acklam's rational approximation (relative error below
    1.15e-9 over the full domain), refined with one Halley step against
    ``math.erfc`` for double-precision accuracy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")

    # Coefficients of the rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)

    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    elif p <= 1 - p_low:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )

    # One Halley refinement step.
    e = 0.5 * math.erfc(-x / math.sqrt(2)) - p
    u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    x = x - u / (1 + x * u / 2)
    return x


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (NR §6.4)."""
    MAXIT, EPS, FPMIN = 200, 3e-15, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, dof: float) -> float:
    """CDF of Student's t with ``dof`` degrees of freedom.

    Uses the central form ``P(|T| <= t) = I_y(1/2, dof/2)`` with
    ``y = t^2/(dof + t^2)``, which keeps full precision for small |t|
    (the tail form ``I_{dof/(dof+t^2)}`` loses t below ~1e-8 because
    its argument rounds to 1).
    """
    if dof <= 0:
        raise ValueError(f"dof must be positive, got {dof}")
    if t == 0.0:
        return 0.5
    y = t * t / (dof + t * t)
    central = regularized_incomplete_beta(0.5, dof / 2.0, y)
    return 0.5 + 0.5 * central if t > 0 else 0.5 - 0.5 * central


@functools.lru_cache(maxsize=1024)
def student_t_ppf(p: float, dof: int) -> float:
    """Inverse CDF of Student's t with ``dof`` degrees of freedom.

    Exact inversion of :func:`student_t_cdf` by bisection bracketed
    around the normal quantile, accurate to ~1e-10 for all dof >= 1.
    For very large dof it short-circuits to :func:`normal_ppf`.

    Memoized: the stopping rule polls the same ``(p, dof)`` pair every
    chunk until a batch completes, and each miss is a 200-step
    bisection over :func:`student_t_cdf`.
    """
    if dof <= 0:
        raise ValueError(f"dof must be positive, got {dof}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    z = normal_ppf(p)
    if dof > 1e6:
        return z
    # Bracket: t quantiles have heavier tails than the normal's.
    lo, hi = min(z, -1.0), max(z, 1.0)
    while student_t_cdf(lo, dof) > p:
        lo *= 2.0
    while student_t_cdf(hi, dof) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # interval exhausted in double precision
            break
        if student_t_cdf(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class RunningStats:
    """Streaming count/mean/variance via Welford's algorithm."""

    __slots__ = ("count", "mean", "_m2", "min", "max", "total")

    def __init__(self):
        self.count: int = 0
        self.mean: float = 0.0
        self._m2: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self.total: float = 0.0

    def add(self, value: float) -> None:
        """Record one observation.

        The arithmetic (and its order) is kept exactly as the textbook
        Welford update so results stay bit-identical across releases;
        only the attribute traffic is reduced to single read/write
        pairs — this accumulator ingests every observation of every
        simulation run.
        """
        value = float(value)
        count = self.count + 1
        self.count = count
        self.total += value
        mean = self.mean
        delta = value - mean
        mean += delta / count
        self.mean = mean
        self._m2 += delta * (value - mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return
        n1, n2 = self.count, other.count
        delta = other.mean - self.mean
        total_n = n1 + n2
        self.mean += delta * n2 / total_n
        self._m2 += other._m2 + delta * delta * n1 * n2 / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 with fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        if self.count < 2:
            return math.inf
        return self.stddev / math.sqrt(self.count)

    def confidence_halfwidth(self, confidence: float = 0.99) -> float:
        """Half-width of the CI for the mean, assuming i.i.d. samples."""
        if self.count < 2:
            return math.inf
        t = student_t_ppf(0.5 + confidence / 2.0, self.count - 1)
        return t * self.sem

    def __repr__(self) -> str:
        return (
            f"<RunningStats n={self.count} mean={self.mean:.6g} "
            f"sd={self.stddev:.6g}>"
        )


class TimeWeightedStats:
    """Time-average of a piecewise-constant signal.

    Call :meth:`update` whenever the signal changes; the contribution of
    each value is weighted by how long it was held.
    """

    __slots__ = ("_value", "_last_time", "_area", "_start", "max")

    def __init__(self, initial_value: float = 0.0, start_time: float = 0.0):
        self._value = float(initial_value)
        self._last_time = float(start_time)
        self._start = float(start_time)
        self._area = 0.0
        self.max = float(initial_value)

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def update(self, new_value: float, now: float) -> None:
        """Record that the signal changed to ``new_value`` at ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}"
            )
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(new_value)
        if self._value > self.max:
            self.max = self._value

    def mean(self, now: float) -> float:
        """Time-average of the signal over ``[start, now]``."""
        span = now - self._start
        if span <= 0:
            return self._value
        area = self._area + self._value * (now - self._last_time)
        return area / span


class BatchMeans:
    """Batch-means estimator for correlated steady-state output.

    Observations are grouped into fixed-size batches; batch averages are
    approximately independent once batches are long relative to the
    autocorrelation time, so a t-based CI over batch means is valid.

    Parameters
    ----------
    batch_size:
        Number of observations per batch.
    warmup:
        Number of initial observations to discard (transient deletion).
    """

    __slots__ = (
        "batch_size",
        "warmup",
        "_seen",
        "_current_sum",
        "_current_n",
        "_batches",
        "_overall",
    )

    def __init__(self, batch_size: int = 500, warmup: int = 0):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        self.batch_size = batch_size
        self.warmup = warmup
        self._seen = 0
        self._current_sum = 0.0
        self._current_n = 0
        self._batches = RunningStats()
        self._overall = RunningStats()

    @property
    def batch_count(self) -> int:
        """Number of completed batches (post-warmup)."""
        return self._batches.count

    @property
    def observation_count(self) -> int:
        """Number of post-warmup observations recorded."""
        return self._overall.count

    @property
    def mean(self) -> float:
        """Grand mean over all post-warmup observations."""
        return self._overall.mean

    def add(self, value: float) -> None:
        """Record one observation."""
        seen = self._seen + 1
        self._seen = seen
        if seen <= self.warmup:
            return
        value = float(value)
        self._overall.add(value)
        current_sum = self._current_sum + value
        current_n = self._current_n + 1
        if current_n == self.batch_size:
            self._batches.add(current_sum / current_n)
            self._current_sum = 0.0
            self._current_n = 0
        else:
            self._current_sum = current_sum
            self._current_n = current_n

    def confidence_halfwidth(self, confidence: float = 0.99) -> float:
        """CI half-width for the mean from the batch-mean series."""
        if self._batches.count < 2:
            return math.inf
        return self._batches.confidence_halfwidth(confidence)

    def relative_halfwidth(self, confidence: float = 0.99) -> float:
        """Half-width divided by |mean| (``inf`` if mean is ~0)."""
        hw = self.confidence_halfwidth(confidence)
        mean = self.mean
        if abs(mean) < 1e-12:
            return math.inf
        return hw / abs(mean)

    def interval(self, confidence: float = 0.99) -> Tuple[float, float]:
        """(low, high) CI for the mean."""
        hw = self.confidence_halfwidth(confidence)
        return (self.mean - hw, self.mean + hw)
