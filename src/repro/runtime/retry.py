"""Invocation timeout and retry policy (bounded exponential backoff).

On a reliable network (the paper's model) a call always completes and
no timeout machinery is needed.  Under the fault layer a request or
reply message may be lost; the only way a sender detects this is by
waiting out a timeout.  :class:`RetryPolicy` captures the standard
production recipe:

* a fixed per-attempt *timeout* — the sender concludes loss after this
  much silence, never earlier than the already-elapsed wire time;
* *bounded retries* — at most ``max_attempts`` tries, after which the
  call fails with :class:`~repro.errors.TimeoutError`;
* *exponential backoff with jitter* — the k-th retry waits
  ``min(cap, base * multiplier**k)`` scaled by a random factor in
  ``[1 - jitter, 1]``, drawn from its own named stream
  (``"invocation.retry"``) so retrying never perturbs the latency or
  workload streams.

The defaults are sized for the paper's normalized Exp(1) message
latency: an 8-unit timeout is ~8 mean one-way latencies, so spurious
timeouts (the message was merely slow) are rare but possible —
exactly the real-world ambiguity retries must tolerate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.runtime.clock import Clock

if TYPE_CHECKING:  # the live backend passes RandomJitter; no numpy needed
    from repro.sim.rng import Stream


class RandomJitter:
    """Jitter source for live (non-simulated) retries.

    :meth:`RetryPolicy.backoff` draws jitter via ``stream.uniform()``
    with no arguments — the contract of the simulation's
    :class:`~repro.sim.rng.Stream`.  The stdlib's ``random.Random``
    needs two arguments, so the live backend wraps one in this
    adapter; seeded, it is just as reproducible.
    """

    __slots__ = ("_rng",)

    def __init__(self, seed=None):
        self._rng = random.Random(seed)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw from ``[low, high)`` with the seeded generator."""
        return self._rng.uniform(low, high)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry/backoff configuration for invocations.

    Attributes
    ----------
    max_attempts:
        Total tries per call (first attempt included).  Must be >= 1.
    timeout:
        Silence duration after which one attempt is abandoned.
    base:
        Backoff before the first retry.
    cap:
        Upper bound on any single backoff delay.
    multiplier:
        Growth factor between consecutive backoffs.
    jitter:
        Fraction of each backoff randomized away: the delay is drawn
        uniformly from ``[delay * (1 - jitter), delay]``.  0 disables
        jitter (deterministic backoff).
    """

    max_attempts: int = 4
    timeout: float = 8.0
    base: float = 1.0
    cap: float = 30.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.cap < self.base:
            raise ValueError(
                f"cap must be >= base, got cap={self.cap} base={self.base}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def envelope(self, retry_index: int) -> float:
        """Un-jittered upper bound on the ``retry_index``-th backoff.

        ``min(cap, base * multiplier**k)`` — non-decreasing in ``k``
        (``multiplier >= 1``) and never above ``cap``; jitter only ever
        shrinks a delay below this envelope.
        """
        if retry_index < 0:
            raise ValueError(
                f"retry_index must be >= 0, got {retry_index}"
            )
        return min(self.cap, self.base * self.multiplier**retry_index)

    def backoff(self, retry_index: int, stream: Stream) -> float:
        """Delay before retry number ``retry_index`` (0-based).

        Only draws from ``stream`` when jitter is enabled, so a
        jitter-free policy is fully deterministic.  ``stream`` is any
        object with a no-argument ``uniform()`` returning [0, 1) — a
        simulation :class:`~repro.sim.rng.Stream` or a live
        :class:`RandomJitter`; the policy itself is backend-blind.
        """
        delay = self.envelope(retry_index)
        if self.jitter > 0 and delay > 0:
            delay *= 1.0 - self.jitter * stream.uniform()
        return delay

    def delays(self, stream: Stream) -> Iterator[float]:
        """The full backoff schedule: one delay per retry, in order.

        Yields ``max_attempts - 1`` delays (the first attempt has no
        backoff before it).  Pure computation over the injected
        ``stream`` — no clock, no sleeping.
        """
        for k in range(self.max_attempts - 1):
            yield self.backoff(k, stream)

    def schedule(
        self, clock: Clock, stream: Stream
    ) -> List[Tuple[float, float]]:
        """Absolute ``(start, deadline)`` of every attempt, from ``clock``.

        Timestamps come from the *injected* :class:`~repro.runtime.
        clock.Clock` — simulated time under a ``SimClock``, wall-clock
        seconds under a ``WallClock`` — never from any ambient time
        source; that is what makes the same policy drive both
        backends.  Attempt ``i`` starts when the previous attempt's
        timeout plus the i-1-th backoff has elapsed and times out
        ``timeout`` later.  Start times are monotonic non-decreasing by
        construction (delays are never negative).
        """
        schedule: List[Tuple[float, float]] = []
        start = clock.now()
        for attempt in range(self.max_attempts):
            schedule.append((start, start + self.timeout))
            if attempt < self.max_attempts - 1:
                start += self.timeout + self.backoff(attempt, stream)
        return schedule

    @property
    def worst_case_duration(self) -> float:
        """Upper bound on the sender-observed duration of a failed call.

        ``max_attempts`` timeouts plus every (un-jittered) backoff —
        the bound the fault-tolerance experiment checks against when it
        claims retries keep caller-observed latency bounded.
        """
        backoffs = sum(
            min(self.cap, self.base * self.multiplier**k)
            for k in range(self.max_attempts - 1)
        )
        return self.max_attempts * self.timeout + backoffs
