"""Unit tests for the simulation environment (clock + calendar)."""

import warnings

import pytest

from repro.errors import EmptySchedule
from repro.sim.kernel import Environment, Infinity


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=100).now == 100.0

    def test_peek_empty_is_infinity(self, env):
        assert env.peek() == Infinity

    def test_peek_returns_next_event_time(self, env):
        env.timeout(9)
        env.timeout(3)
        assert env.peek() == 3

    def test_len_counts_scheduled_events(self, env):
        env.timeout(1)
        env.timeout(2)
        assert len(env) == 2

    def test_scheduled_events_counts_without_deprecated_api(self, env):
        # ``itertools.count.__reduce__`` is deprecated in Python 3.12
        # and removed in 3.14; the count must come from elsewhere.
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert env.scheduled_events == 0
            env.timeout(1)
            env.timeout(2)
            assert env.scheduled_events == 2
            env.timeout(3)
            assert env.scheduled_events == 3
        # Reading the count consumes no event id.
        assert [entry[2] for entry in sorted(env._queue)] == [0, 1, 2]

    def test_step_advances_clock(self, env):
        env.timeout(5)
        env.step()
        assert env.now == 5

    def test_step_on_empty_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()


class TestRun:
    def test_run_until_time(self, env):
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4
        assert len(env) == 1  # the timeout at 10 is still pending

    def test_run_until_past_time_rejected(self, env):
        env.timeout(1)
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=5)

    def test_run_until_event_returns_value(self, env):
        t = env.timeout(3, value="ring")
        assert env.run(until=t) == "ring"
        assert env.now == 3

    def test_run_until_failed_event_raises(self, env):
        def proc(env):
            yield env.timeout(1)
            raise RuntimeError("proc crash")

        p = env.process(proc(env))
        with pytest.raises(Exception, match="proc crash"):
            env.run(until=p)

    def test_run_without_until_drains_calendar(self, env):
        env.timeout(1)
        env.timeout(2)
        env.run()
        assert env.now == 2
        assert len(env) == 0

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, value="done")
        env.run()
        assert env.run(until=t) == "done"

    def test_run_until_event_that_never_fires(self, env):
        pending = env.event()
        env.timeout(1)
        with pytest.raises(RuntimeError, match="never fired"):
            env.run(until=pending)

    def test_stop_time_beats_same_time_events(self, env):
        fired = []
        env.timeout(5).callbacks.append(lambda e: fired.append("timeout"))
        env.run(until=5)
        # The URGENT stop event at t=5 preempts the normal event at t=5.
        assert fired == []
        assert env.now == 5


class TestDeterminism:
    def test_same_script_same_trace(self):
        def script(env, log):
            def worker(env, tag):
                for _ in range(3):
                    yield env.timeout(1.5)
                    log.append((env.now, tag))

            env.process(worker(env, "x"))
            env.process(worker(env, "y"))
            env.run()

        log1, log2 = [], []
        script(Environment(), log1)
        script(Environment(), log2)
        assert log1 == log2

    def test_schedule_order_is_fifo_for_ties(self, env):
        order = []
        e1, e2 = env.event(), env.event()
        e1.callbacks.append(lambda e: order.append(1))
        e2.callbacks.append(lambda e: order.append(2))
        e1.succeed()
        e2.succeed()
        env.run()
        assert order == [1, 2]
