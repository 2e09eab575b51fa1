"""Every exception in the taxonomy must round-trip through pickle.

The parallel experiment executor propagates worker failures by pickling
them back to the parent process; an exception class whose constructor
signature diverges from its ``args`` silently turns into a
``PicklingError`` (or worse, a different exception) at the boundary.
The whole taxonomy is collected by introspection so new exception
classes are covered the day they are added.
"""

import inspect
import pickle
import subprocess
import sys

import pytest

import repro.errors as errors_module
from repro.errors import (
    ConnectionLostError,
    DrainTimeoutError,
    FrameTooLargeError,
    InvariantViolationError,
    ReproError,
    TransportError,
    WorkerCrashedError,
)


def exception_classes():
    """Every exception class defined in repro.errors."""
    return sorted(
        (
            cls
            for _, cls in inspect.getmembers(errors_module, inspect.isclass)
            if issubclass(cls, BaseException)
            and cls.__module__ == errors_module.__name__
        ),
        key=lambda cls: cls.__name__,
    )


def sample_instance(cls):
    """Build a representative instance of one exception class."""
    if cls is InvariantViolationError:
        return cls("invariant 'x' violated at t=3.0", ("rec-a", "rec-b"))
    if cls is errors_module.StopSimulation:
        return cls(42)
    if cls is errors_module.Interrupt:
        return cls("preempted")
    if cls is ConnectionLostError:
        return cls("peer vanished mid-frame", peer=3)
    if cls is FrameTooLargeError:
        return cls("oversized frame", size=1 << 30, limit=1 << 26)
    if cls is WorkerCrashedError:
        return cls("worker died", node=2, exitcode=-9)
    if cls is DrainTimeoutError:
        return cls("drain overran", timeout=5.0, pending=(1, 4))
    if cls is errors_module.WalCorruptionError:
        return cls(
            "checksum mismatch", path="/tmp/arbitration.wal", line=17
        )
    return cls(f"sample {cls.__name__} message")


class TestTaxonomyIsCovered:
    def test_collection_found_the_taxonomy(self):
        names = [cls.__name__ for cls in exception_classes()]
        # Spot-check the corners: base, kernel, fault and monitor errors.
        for expected in (
            "ReproError",
            "SimulationError",
            "MessageLostError",
            "NodeCrashedError",
            "InvariantViolationError",
            "ConfigurationError",
        ):
            assert expected in names
        assert len(names) >= 15


@pytest.mark.parametrize(
    "cls", exception_classes(), ids=lambda cls: cls.__name__
)
class TestPickleRoundTrip:
    def test_round_trips_unchanged(self, cls):
        original = sample_instance(cls)
        clone = pickle.loads(pickle.dumps(original))
        assert type(clone) is cls
        assert clone.args == original.args
        assert str(clone) == str(original)

    def test_survives_raise_across_boundary(self, cls):
        # The executor's actual pattern: raise, catch, pickle, re-raise.
        original = sample_instance(cls)
        try:
            raise original
        except BaseException as exc:
            clone = pickle.loads(pickle.dumps(exc))
        with pytest.raises(cls):
            raise clone


class TestInvariantViolationPayload:
    def test_message_and_trace_survive(self):
        exc = InvariantViolationError("boom", ("line1", "line2"))
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.message == "boom"
        assert clone.trace == ("line1", "line2")
        assert "line2" in str(clone)

    def test_trace_is_always_a_tuple(self):
        exc = InvariantViolationError("boom", ["a", "b"])
        assert exc.trace == ("a", "b")
        assert InvariantViolationError("x").trace == ()

    def test_is_a_repro_error(self):
        assert issubclass(InvariantViolationError, ReproError)


class TestCrossProcessRoundTrip:
    """The whole taxonomy survives a *real* process boundary.

    The live supervisor ships exceptions between OS processes the same
    way the parallel executor does between pool workers: pickle on one
    side, unpickle on the other.  One subprocess re-pickles the entire
    taxonomy so the boundary is exercised for every class at once.
    """

    _ECHO = (
        "import pickle, sys\n"
        "blob = sys.stdin.buffer.read()\n"
        "instances = pickle.loads(blob)\n"
        "sys.stdout.buffer.write(pickle.dumps(instances))\n"
    )

    def test_taxonomy_round_trips_through_a_subprocess(self):
        originals = [sample_instance(cls) for cls in exception_classes()]
        proc = subprocess.run(
            [sys.executable, "-c", self._ECHO],
            input=pickle.dumps(originals),
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        clones = pickle.loads(proc.stdout)
        assert len(clones) == len(originals)
        for original, clone in zip(originals, clones):
            assert type(clone) is type(original)
            assert clone.args == original.args
            assert str(clone) == str(original)


class TestLiveErrorPayloads:
    def test_connection_lost_payload_survives(self):
        exc = ConnectionLostError("send failed after 4 attempts", peer=7)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.peer == 7
        assert "peer=7" in str(clone)

    def test_frame_too_large_payload_survives(self):
        exc = FrameTooLargeError("refusing frame", size=100, limit=64)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.size == 100
        assert clone.limit == 64
        assert "100" in str(clone) and "64" in str(clone)

    def test_worker_crashed_payload_survives(self):
        exc = WorkerCrashedError("sigkilled", node=1, exitcode=-9)
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.node == 1
        assert clone.exitcode == -9
        assert "exitcode=-9" in str(clone)

    def test_drain_timeout_payload_survives(self):
        exc = DrainTimeoutError("stragglers", timeout=2.5, pending=[3, 5])
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.timeout == 2.5
        assert clone.pending == (3, 5)
        assert "pending: 3, 5" in str(clone)

    def test_wal_corruption_payload_survives(self):
        exc = errors_module.WalCorruptionError(
            "non-monotonic seq 3 after 5", path="/run/arb.wal", line=9
        )
        clone = pickle.loads(pickle.dumps(exc))
        assert clone.message == "non-monotonic seq 3 after 5"
        assert clone.path == "/run/arb.wal"
        assert clone.line == 9
        assert issubclass(
            errors_module.WalCorruptionError, errors_module.SupervisionError
        )

    def test_live_errors_are_fault_errors(self):
        for cls in (
            TransportError,
            ConnectionLostError,
            FrameTooLargeError,
            errors_module.TransportClosedError,
            errors_module.SupervisionError,
            WorkerCrashedError,
            DrainTimeoutError,
        ):
            assert issubclass(cls, errors_module.FaultError)
        assert issubclass(ConnectionLostError, TransportError)
        assert issubclass(WorkerCrashedError, errors_module.SupervisionError)
        assert issubclass(DrainTimeoutError, errors_module.SupervisionError)
