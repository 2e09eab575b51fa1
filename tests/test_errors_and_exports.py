"""Tests for the exception hierarchy and the public API surface."""

import os
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.SimulationError,
            errors.EmptySchedule,
            errors.EventAlreadyTriggered,
            errors.ProcessError,
            errors.RuntimeModelError,
            errors.UnknownObjectError,
            errors.UnknownNodeError,
            errors.ObjectFixedError,
            errors.MigrationInProgressError,
            errors.AttachmentError,
            errors.AllianceError,
            errors.PolicyError,
            errors.FaultError,
            errors.MessageLostError,
            errors.TimeoutError,
            errors.NodeDownError,
            errors.MigrationAbortedError,
            errors.ConfigurationError,
            errors.StoppingRuleError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_runtime_errors_grouped(self):
        for exc in (
            errors.UnknownObjectError,
            errors.ObjectFixedError,
            errors.AttachmentError,
            errors.PolicyError,
        ):
            assert issubclass(exc, errors.RuntimeModelError)

    def test_kernel_errors_grouped(self):
        for exc in (errors.EmptySchedule, errors.ProcessError):
            assert issubclass(exc, errors.SimulationError)

    def test_fault_errors_grouped(self):
        # Injected-failure conditions share FaultError (and through it
        # RuntimeModelError) so applications can degrade gracefully
        # with a single except clause.
        for exc in (
            errors.MessageLostError,
            errors.TimeoutError,
            errors.NodeDownError,
            errors.MigrationAbortedError,
        ):
            assert issubclass(exc, errors.FaultError)
            assert issubclass(exc, errors.RuntimeModelError)

    def test_timeout_error_is_not_the_builtin(self):
        # repro.errors.TimeoutError deliberately shadows the builtin
        # inside the package; they must stay distinct types so builtin
        # handlers don't accidentally swallow simulated faults.
        assert errors.TimeoutError is not TimeoutError
        assert not issubclass(errors.TimeoutError, TimeoutError)

    def test_control_flow_signals_not_repro_errors(self):
        # StopSimulation and Interrupt are control flow, not failures:
        # user code catching ReproError must not swallow them.
        assert not issubclass(errors.StopSimulation, errors.ReproError)
        assert not issubclass(errors.Interrupt, errors.ReproError)

    def test_interrupt_carries_cause(self):
        interrupt = errors.Interrupt(cause={"reason": "test"})
        assert interrupt.cause == {"reason": "test"}

    def test_stop_simulation_carries_value(self):
        stop = errors.StopSimulation(42)
        assert stop.value == 42


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_policy_names_match_figures_legends(self):
        # The registry names are what experiment configs reference.
        assert set(repro.POLICIES) == {
            "sedentary",
            "migration",
            "placement",
            "comparing",
            "reinstantiation",
        }

    def test_figures_registry(self):
        # The paper's figures, the ablations and the outlook studies.
        assert set(repro.FIGURES) == {
            "fig8",
            "fig10",
            "fig11",
            "fig12",
            "fig14",
            "fig16",
            "guard",
            "locator",
            "nm_ratio",
            "exclusive",
            "visit",
            "topology",
            "replication",
            "fragmentation",
            "availability",
            "faulttolerance",
        }

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.fragmentation
        import repro.network
        import repro.replication
        import repro.runtime
        import repro.sim
        import repro.workload

        for module in (
            repro.analysis,
            repro.core,
            repro.experiments,
            repro.fragmentation,
            repro.network,
            repro.replication,
            repro.runtime,
            repro.sim,
            repro.workload,
        ):
            assert module.__doc__, f"{module.__name__} lacks a docstring"

    def test_sub_all_exports_resolve(self):
        import repro.availability
        import repro.core
        import repro.core.policies
        import repro.experiments
        import repro.network
        import repro.replication
        import repro.runtime
        import repro.runtime.live
        import repro.sim
        import repro.sim.shard
        import repro.telemetry
        import repro.workload

        for module in (
            repro,
            repro.availability,
            repro.core,
            repro.core.policies,
            repro.experiments,
            repro.network,
            repro.replication,
            repro.runtime,
            repro.runtime.live,
            repro.sim,
            repro.sim.shard,
            repro.telemetry,
            repro.workload,
        ):
            assert set(module.__all__) <= set(dir(module)), module.__name__
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_unknown_export_raises_attribute_error(self):
        import repro.sim

        with pytest.raises(AttributeError, match="no_such_name"):
            repro.sim.no_such_name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.runtime.live.node",
            "repro.runtime.live.supervisor",
            "repro.runtime.live.demo",
        ],
    )
    def test_live_modules_load_no_sim_or_experiment_stack(self, module):
        # A fresh interpreter, as every spawned live process is: the
        # package __init__s are export tables, so importing a live
        # module must not drag in numpy, the sim streams or the
        # experiment and versioning harnesses.
        heavy = ["numpy", "repro.sim.rng", "repro.experiments",
                 "repro.versioning"]
        loaded = _loaded_by_import(module, heavy)
        assert loaded == "", f"{module} loaded {loaded}"

    def test_experiment_runner_loads_no_shard_kernel(self):
        # Unsharded sweeps (every figure by default) never pay for the
        # sharded kernel's import.
        loaded = _loaded_by_import(
            "repro.experiments.runner", ["repro.sim.shard"]
        )
        assert loaded == ""


def _loaded_by_import(module, watched):
    """Which of ``watched`` a fresh interpreter has loaded after
    importing ``module`` (comma-separated, empty when none)."""
    code = (
        f"import sys, {module}\n"
        f"print(','.join(m for m in {watched!r} if m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
