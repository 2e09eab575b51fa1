"""The discrete-event simulation environment (clock + event calendar).

:class:`Environment` owns simulated time and the pending-event heap.
Events are totally ordered by ``(time, priority, sequence)``; the
sequence number makes scheduling deterministic and FIFO among equals,
which the reproduction relies on for repeatable experiments.

Two fast paths keep the hot loop lean without changing that order:

* Zero-delay :data:`~repro.sim.events.URGENT` events (process
  bootstrap, interrupts, immediate sends) go onto a FIFO deque that the
  stepper checks before the heap.  Such events always carry the current
  timestamp and URGENT priority, so FIFO order *is* heap order; the
  only events that may legally overtake them are already-heaped entries
  at the same time with a smaller ``(priority, sequence)`` key, which
  the stepper checks explicitly.
* :meth:`Environment.sleep` hands out pooled
  :class:`~repro.sim.events.Sleep` timeouts that are recycled after
  processing, eliminating the allocation that dominates the
  yield-timeout pattern.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import EmptySchedule, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    NORMAL,
    Sleep,
    Timeout,
    URGENT,
)
from repro.sim.process import Process

Infinity = float("inf")

#: Default upper bound on retained recycled sleep events (bounds memory
#: when a burst of concurrent sleepers drains all at once).
_SLEEP_POOL_MAX = 256


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    sleep_pool_cap:
        Upper bound on retained recycled :meth:`sleep` events (default
        256).  Sharded runs hold one kernel — and therefore one pool —
        per shard, so they pass a smaller cap to keep N pools from
        multiplying the retained memory.  ``0`` disables recycling.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_urgent",
        "_eid",
        "_active_process",
        "_sleep_pool",
        "_sleep_pool_cap",
    )

    def __init__(
        self, initial_time: float = 0.0, sleep_pool_cap: int = _SLEEP_POOL_MAX
    ):
        if sleep_pool_cap < 0:
            raise ValueError(
                f"sleep_pool_cap must be >= 0, got {sleep_pool_cap}"
            )
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        #: Zero-delay URGENT fast lane: ``(sequence, event)`` in FIFO
        #: order, every entry stamped with the current ``_now``.
        self._urgent: "deque[Tuple[int, Event]]" = deque()
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._sleep_pool: List[Sleep] = []
        self._sleep_pool_cap = sleep_pool_cap

    # -- clock & introspection ----------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if self._urgent:
            # Fast-lane entries are always due at the current time.
            return self._now
        return self._queue[0][0] if self._queue else Infinity

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue) + len(self._urgent)

    @property
    def scheduled_events(self) -> int:
        """Total events ever placed on the calendar (monotonic).

        Recovered from the event-id allocator, so the hot loop carries
        no counter: the telemetry sampler derives event throughput as
        the per-interval delta of this value, and the disabled-telemetry
        path is untouched by construction.
        """
        # The next id to be handed out equals the number of ids consumed
        # so far.  Draw it and re-seat the allocator at that same value,
        # so no id is skipped (every caller reads ``env._eid`` afresh).
        consumed = next(self._eid)
        self._eid = count(consumed)
        return consumed

    # -- event factories ------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float, value: Any = None) -> Sleep:
        """Pooled timeout for the dominant ``yield env.sleep(d)`` idiom.

        Semantically identical to :meth:`timeout` but the returned
        event is recycled once processed, so it must be yielded
        immediately and exactly once — never stored, re-yielded after
        an interrupt, or combined into a condition.
        """
        pool = self._sleep_pool
        if not pool:
            return Sleep(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = pool.pop()
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = False
        event.delay = delay
        heappush(
            self._queue, (self._now + delay, NORMAL, next(self._eid), event)
        )
        return event

    def process(self, generator, name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when any of ``events`` has fired."""
        return AnyOf(self, list(events))

    # -- scheduling & stepping ------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Place a triggered event on the calendar ``delay`` from now."""
        if delay == 0.0 and priority == URGENT:
            self._urgent.append((next(self._eid), event))
        else:
            heappush(
                self._queue,
                (self._now + delay, priority, next(self._eid), event),
            )

    def _pop(self) -> Event:
        """Remove and return the next event in total order.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        urgent = self._urgent
        if urgent:
            queue = self._queue
            if queue:
                # A heaped entry may only precede the fast lane when it
                # is due now with a smaller (priority, sequence) key;
                # heap times never lie in the past, so ``<=`` is an
                # equality test.
                top = queue[0]
                if top[0] <= self._now and (
                    top[1] < URGENT
                    or (top[1] == URGENT and top[2] < urgent[0][0])
                ):
                    self._now, _, _, event = heappop(queue)
                    return event
            return urgent.popleft()[1]
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None
        return event

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        event = self._pop()

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # Nobody handled the failure: crash the simulation with the
            # original exception so errors never pass silently.
            exc = event._value
            raise exc

        if type(event) is Sleep:
            pool = self._sleep_pool
            if len(pool) < self._sleep_pool_cap:
                pool.append(event)

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the calendar is empty;
            a number
                run until the clock reaches that time (the clock is set
                to exactly ``until`` on return);
            an :class:`Event`
                run until the event fires and return its value (raises
                if the event failed).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at <= self._now:
                raise ValueError(f"until={at} must lie in the future (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            # URGENT so the stop fires before ordinary events at `at`.
            self.schedule(until, priority=0, delay=at - self._now)

        if until is not None:
            if until.callbacks is None:
                # Already processed: report its value immediately.
                if until._ok:
                    return until.value
                raise until._value
            until.callbacks.append(_stop_simulation)

        # Inlined stepping loop: identical semantics to step(), with
        # the heap, fast lane and pool bound to locals.  This is the
        # hottest loop in the repository.
        queue = self._queue
        urgent = self._urgent
        pool = self._sleep_pool
        pool_cap = self._sleep_pool_cap
        pop = heappop
        now = self._now
        try:
            while True:
                if urgent:
                    event = None
                    if queue:
                        top = queue[0]
                        if top[0] <= now and (
                            top[1] < URGENT
                            or (top[1] == URGENT and top[2] < urgent[0][0])
                        ):
                            t, _, _, event = pop(queue)
                            self._now = now = t
                    if event is None:
                        event = urgent.popleft()[1]
                elif queue:
                    t, _, _, event = pop(queue)
                    self._now = now = t
                else:
                    if until is not None and not until.triggered:
                        raise RuntimeError(
                            f"no events scheduled but {until!r} never fired"
                        ) from None
                    return None

                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    raise event._value

                if type(event) is Sleep and len(pool) < pool_cap:
                    pool.append(event)
        except StopSimulation as stop:
            return stop.value


def _stop_simulation(event: Event) -> None:
    """Callback attached to ``until`` events: unwinds :meth:`Environment.run`."""
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    raise event._value
