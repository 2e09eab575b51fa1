"""Unit tests for the invocation timeout/retry/backoff layer."""

import pytest

from repro.errors import TimeoutError
from repro.network.faults import LinkFaultModel
from repro.network.latency import DeterministicLatency
from repro.runtime.retry import RetryPolicy
from repro.runtime.system import DistributedSystem


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="base"):
            RetryPolicy(base=-1.0)
        with pytest.raises(ValueError, match="cap"):
            RetryPolicy(base=5.0, cap=1.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_grows_exponentially_and_caps(self, streams):
        policy = RetryPolicy(base=1.0, multiplier=2.0, cap=5.0, jitter=0.0)
        s = streams.stream("unused")
        assert [policy.backoff(k, s) for k in range(5)] == [
            1.0,
            2.0,
            4.0,
            5.0,
            5.0,
        ]
        with pytest.raises(ValueError, match="retry_index"):
            policy.backoff(-1, s)

    def test_jitter_shrinks_within_bounds(self, streams):
        policy = RetryPolicy(base=4.0, multiplier=1.0, cap=4.0, jitter=0.5)
        s = streams.stream("jitter")
        for _ in range(200):
            delay = policy.backoff(0, s)
            assert 2.0 <= delay <= 4.0

    def test_jitter_free_policy_never_draws(self):
        policy = RetryPolicy(jitter=0.0)
        # stream=None would explode on any draw attempt.
        assert policy.backoff(1, None) == 2.0

    def test_worst_case_duration(self):
        policy = RetryPolicy(
            max_attempts=4, timeout=8.0, base=1.0, multiplier=2.0,
            cap=30.0, jitter=0.0,
        )
        # 4 timeouts + backoffs 1 + 2 + 4.
        assert policy.worst_case_duration == 39.0


def make_system(retry):
    model = LinkFaultModel()
    system = DistributedSystem(
        nodes=2,
        seed=5,
        latency=DeterministicLatency(1.0),
        fault_model=model,
        retry=retry,
    )
    server = system.create_server(node=1, name="s")
    return system, model, server


#: Deterministic policy used by the timeline tests below.
DET = RetryPolicy(
    max_attempts=4, timeout=8.0, base=1.0, multiplier=2.0, cap=30.0,
    jitter=0.0,
)


class TestInvocationRetries:
    def test_call_succeeds_once_link_restored(self):
        system, model, server = make_system(DET)
        model.fail_link(0, 1)

        def restore():
            yield system.env.timeout(20.0)
            model.restore_link(0, 1)

        def caller():
            result = yield from system.invocations.invoke(0, server)
            return result

        system.env.process(restore(), name="restore")
        p = system.env.process(caller(), name="caller")
        system.run()

        # Attempt k spends 1 on the wire + 7 waiting out the timeout,
        # then backs off 1, 2, 4: attempts start at 0, 9, 19, 31.  The
        # link is up again at t=20, so attempt 4 completes: call+reply.
        result = p.value
        assert result.attempts == 4
        assert not result.was_local
        assert system.now == pytest.approx(33.0)
        assert result.duration == pytest.approx(33.0)
        svc = system.invocations
        assert svc.timeouts == 3
        assert svc.retries == 3
        assert svc.failed_calls == 0
        assert svc.retry_wait_time == pytest.approx(1.0 + 2.0 + 4.0)
        assert svc.durations.count == 1

    def test_exhausted_attempts_raise_timeout_error(self):
        system, model, server = make_system(DET)
        model.fail_link(0, 1)

        def caller():
            try:
                yield from system.invocations.invoke(0, server)
            except TimeoutError:
                return system.now
            return None

        p = system.env.process(caller(), name="caller")
        system.run()

        # The failed call's wall clock is exactly the policy's bound.
        assert p.value == pytest.approx(DET.worst_case_duration)
        svc = system.invocations
        assert svc.timeouts == 4
        assert svc.retries == 3
        assert svc.failed_calls == 1
        # Failed calls are not mixed into the duration statistics.
        assert svc.durations.count == 0
        assert svc.stats()["failed_calls"] == 1

    def test_lost_reply_reexecutes_at_least_once(self):
        system, model, server = make_system(DET)

        def saboteur():
            # Cut the link after the call message was sent (t=0) but
            # before the reply goes out (t=1): only the reply is lost.
            yield system.env.timeout(0.5)
            model.fail_link(0, 1)
            yield system.env.timeout(4.5)
            model.restore_link(0, 1)

        def caller():
            result = yield from system.invocations.invoke(0, server)
            return result

        system.env.process(saboteur(), name="saboteur")
        p = system.env.process(caller(), name="caller")
        system.run()

        # Attempt 1 executed at the callee but its reply was lost; the
        # retry executed it again — at-least-once semantics.
        assert p.value.attempts == 2
        assert server.invocation_count == 2
        assert system.invocations.timeouts == 1

    def test_retry_is_never_reported_local(self):
        # A retried call whose final attempt happened to be node-local
        # must still count as remote: the caller paid timeout+backoff.
        system, model, server = make_system(DET)
        model.fail_link(0, 1)

        def fixer():
            yield system.env.timeout(5.0)
            model.restore_link(0, 1)
            # Move the server onto the caller's node while it retries.
            yield from system.migrations.migrate([server], 0)

        def caller():
            result = yield from system.invocations.invoke(0, server)
            return result

        system.env.process(fixer(), name="fixer")
        p = system.env.process(caller(), name="caller")
        system.run()
        assert p.value.attempts > 1
        assert not p.value.was_local
        assert system.invocations.local_calls == 0

    def test_voided_attempts_wait_is_not_blocked_time(self):
        # Both attempts find the callee in transit; the first then loses
        # its reply.  Only the attempt that succeeded reports its wait.
        model = LinkFaultModel()
        system = DistributedSystem(
            nodes=3,
            seed=5,
            migration_duration=3.0,
            latency=DeterministicLatency(1.0),
            fault_model=model,
            retry=DET,
        )
        server = system.create_server(node=1, name="s")
        env = system.env

        def mover():
            yield from system.migrations.migrate([server], 2)  # lands t=3
            yield env.timeout(6.5)
            yield from system.migrations.migrate([server], 1)  # 9.5 -> 12.5

        def saboteur():
            # Down after the call message left (t=3), before the reply
            # does (t=4); up again well before the retry.
            yield env.timeout(3.5)
            model.fail_link(0, 2)
            yield env.timeout(2.5)
            model.restore_link(0, 2)

        def caller():
            yield env.timeout(1.0)
            result = yield from system.invocations.invoke(0, server)
            return result

        env.process(mover(), name="mover")
        env.process(saboteur(), name="saboteur")
        p = env.process(caller(), name="caller")
        system.run()

        # Attempt 1: blocked 1..3, call 3..4, reply lost at 5, timeout
        # runs out at 9, backoff 1.  Attempt 2: blocked 10..12.5, call
        # and reply 12.5..14.5.
        result = p.value
        assert result.attempts == 2
        assert result.blocked_time == pytest.approx(2.5)
        assert result.duration == pytest.approx(13.5)
        assert not result.was_local
        svc = system.invocations
        assert svc.timeouts == 1
        assert svc.retries == 1
        assert svc.failed_calls == 0
        assert svc.blocked_calls == 1
        assert svc.durations.count == 1
        assert server.invocation_count == 2
