"""Self-tests of the benchmark suite (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/suite/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import livebench
import run as suite_run
import simbench
import spec
from steptimer import KERNEL, StepTimer

ROOT = spec.ROOT
RUN = [sys.executable, str(spec.SUITE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
LINE = re.compile(r"^(\S+) (\S+) (\S+) (\S+)$")


def invoke(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *argv], cwd=str(cwd), capture_output=True, text=True, timeout=300
    )


def one_workload(name: str, seed: int, trace: int = 0) -> dict:
    """Driver-form smoke run; returns printed metric lines + last line."""
    done = invoke("--workload", name, "--seed", str(seed), "--smoke",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match and match.group(1) == name:
            printed[match.group(2)] = (match.group(3), match.group(4))
    return {"printed": printed, "last": json.loads(lines[-1]), "lines": lines}


@pytest.fixture(scope="module")
def catalogue() -> dict:
    return spec.load_benchmark()


@pytest.fixture(scope="module")
def smoke_set() -> dict:
    """The whole suite at smoke size, as the suite form runs it."""
    done = invoke("--smoke", "--seed", "11")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(ROOT / spec.OUT / "results.json", encoding="utf-8") as fh:
        result_set = json.load(fh)
    result_set["stdout"] = done.stdout
    return result_set


# -- the contract file ----------------------------------------------------------


def test_benchmark_json_meets_the_contract(catalogue):
    assert set(catalogue) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert catalogue["paths"] == ["benchmarks/suite"]
    assert catalogue["command"] == ["python3", "benchmarks/suite/run.py"]
    assert 1 <= catalogue["run_seconds"] <= 60
    assert spec.workload_names(catalogue) == [
        "sim_invoke", "sim_migrate", "sim_fig12_regen", "live_steady", "live_faults"
    ]
    names = []
    for workload in catalogue["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in catalogue["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in catalogue["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"])
    setup = [m for m in catalogue["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in catalogue["end_to_end"])}
    ]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- smoke runs -------------------------------------------------------------------


def test_smoke_finishes_in_time_and_is_correct(smoke_set, catalogue):
    details = smoke_set["runs"][0]["workloads"]
    assert sorted(details) == sorted(spec.workload_names(catalogue))
    assert sum(d["wall_time_s"] for d in details.values()) < 30.0
    for detail in details.values():
        assert detail["correct"], detail["failures"]
        assert detail["ops_failed"] == 0 and detail["ops_attempted"] >= 1


def test_result_set_carries_provenance(smoke_set):
    facts = smoke_set["provenance"]
    for key in ("commit", "dirty", "nproc", "python", "seed", "seconds"):
        assert key in facts
    assert facts["seed"] == 11 and facts["nproc"] == os.cpu_count()
    for detail in smoke_set["runs"][0]["workloads"].values():
        assert detail["wall_time_s"] > 0


def test_every_printed_name_is_in_the_catalogue(smoke_set, catalogue):
    unit_of = spec.units(catalogue)
    workloads = set(spec.workload_names(catalogue))
    seen = 0
    for line in smoke_set["stdout"].splitlines():
        match = LINE.match(line)
        if not match or match.group(1) not in workloads:
            continue
        name, unit = match.group(2), match.group(4)
        if name in ("ops_attempted", "ops_failed"):
            continue
        assert NAME.match(name)
        assert unit_of[name] == unit
        seen += 1
    assert seen >= 5 * len(catalogue["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_holds_exactly_the_listed_metrics(catalogue, trace):
    result = one_workload("sim_invoke", 11, trace)["last"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = catalogue["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
    assert result["correct"] is True and result["failed"] == 0
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())


@pytest.mark.parametrize("name", spec.SIM_WORKLOADS)
def test_simulated_work_repeats_for_a_seed_and_differs_across_seeds(
    name, smoke_set
):
    first = smoke_set["runs"][0]["workloads"][name]
    again = one_workload(name, 11)
    other = one_workload(name, 12)
    assert again["lines"].count(f"{name} sim_digest {first['sim_digest']}") == 1
    assert f"{name} sim_digest {first['sim_digest']}" not in other["lines"]
    for count in spec.EXACT_COUNTS:
        if count in first["metrics"]:
            assert float(again["printed"][count][0]) == first["metrics"][count]["value"]
    differing = [
        c for c in spec.EXACT_COUNTS
        if c in first["metrics"]
        and float(other["printed"][c][0]) != first["metrics"][c]["value"]
    ]
    assert differing


def test_the_two_single_cell_workloads_isolate_opposite_layers():
    invoke_run = one_workload("sim_invoke", 11, trace=1)["last"]["metrics"]
    assert invoke_run["runtime.migration.migrations_per_call"]["value"] == 0
    assert invoke_run["runtime.migration.self_us_per_migration"]["value"] == 0
    assert invoke_run["core.attachment.closure_size_mean"]["value"] == 0
    assert invoke_run["core.attachment.closure_self_us_per_block"]["value"] == 0
    migrate = one_workload("sim_migrate", 11, trace=1)["last"]["metrics"]
    assert migrate["runtime.migration.migrations_per_call"]["value"] >= 1.5
    assert migrate["core.attachment.closure_size_mean"]["value"] > 1


def test_traced_live_run_fills_every_live_metric():
    result = one_workload("live_steady", 11, trace=1)
    assert result["last"]["correct"], result["lines"]
    metrics = result["last"]["metrics"]
    always_zero_without_faults = {
        "live.transport.reconnects", "live.transport.duplicates_suppressed",
        "live.transport.dropped_messages", "live.supervisor.restarts",
        "live.supervisor.leases_broken", "live.node.abort_share",
    }
    for name, entry in metrics.items():
        if name.startswith("live.") and name not in always_zero_without_faults:
            assert entry["value"] > 0, name
    trace = json.loads((ROOT / spec.OUT / "trace_live_steady.json").read_text())
    assert trace["traces_kept"] > 0 and "live.move" in trace["names"]


# -- the stepping timer -----------------------------------------------------------


def test_self_times_sum_to_environment_run_time():
    """Independent clock reads around the timer's own wrapper agree."""
    from repro.sim.kernel import Environment

    timer = StepTimer()
    timer.install()
    outer = {"seconds": 0.0}
    timed_run = Environment.run

    def measured(env, *args, **kwargs):
        start = time.perf_counter()
        try:
            return timed_run(env, *args, **kwargs)
        finally:
            outer["seconds"] += time.perf_counter() - start

    Environment.run = measured
    try:
        simbench.build_cell("sim_migrate", 5, 2_000).run()
    finally:
        Environment.run = timed_run
        timer.uninstall()
    assert Environment.run is not timed_run  # originals are back
    total = timer.total_self_seconds()
    assert total == pytest.approx(outer["seconds"], rel=0.02)
    assert total == pytest.approx(timer.stats[KERNEL].total_s, rel=1e-6)
    assert timer.count("runtime.migration") > 0
    assert timer.dump()["trees_kept"] > 0


def test_wrapped_generator_behaves_like_the_original():
    timer = StepTimer()
    log = []

    def layer(start):
        try:
            got = yield start
            log.append(("sent", got))
            try:
                yield "second"
            except KeyError as exc:
                log.append(("thrown", exc.args[0]))
            yield "third"
        finally:
            log.append("closed")
        return "never"

    def short():
        yield 1
        return "result"

    gen = timer.wrap_generator("layer", layer)("first")
    assert next(gen) == "first"
    assert gen.send("hello") == "second"
    assert gen.throw(KeyError("boom")) == "third"
    gen.close()
    assert log == [("sent", "hello"), ("thrown", "boom"), "closed"]

    def outer():
        return (yield from timer.wrap_generator("short", short)())

    driver = outer()
    assert next(driver) == 1
    with pytest.raises(StopIteration) as stop:
        next(driver)
    assert stop.value.value == "result"
    assert timer.count("layer") == 1 and timer.stats["layer"].steps == 3
    assert timer.self_seconds("layer") > 0


# -- hygiene ------------------------------------------------------------------------


def test_watchdog_kills_a_hung_run_and_cleans_up():
    workdir = os.path.join(spec.OUT, f"wtest{os.getpid()}")
    os.makedirs(ROOT / workdir)
    try:
        # Far more migrations than half a second allows.
        result = livebench.run_live(
            workdir, "hung", 10**9, 1, [], watchdog=0.5
        )
        assert "watchdog" in result["error"]
        assert not (ROOT / workdir / "hung").exists()
        ops = livebench.ops(result, 100)
        assert ops["failed"] == ops["attempted"] == 100
        listing = subprocess.run(
            ["ps", "-eo", "args"], capture_output=True, text=True
        ).stdout
        assert "hung/spec.json" not in listing
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)


def test_record_refuses_a_dirty_tree(monkeypatch, tmp_path, capsys, catalogue):
    monkeypatch.setattr(
        suite_run, "provenance", lambda args: {"dirty": True, "commit": "x"}
    )
    target = tmp_path / "baseline.json"
    args = type("Args", (), {"record": str(target), "repeat": 1})()
    assert suite_run.run_suite(args, catalogue) == 2
    assert not target.exists()
    assert "clean git tree" in capsys.readouterr().err


def test_without_the_program_the_benchmark_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        spec.SUITE, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "sim_invoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- compare.py -----------------------------------------------------------------------


def _write(path: Path, result_set: dict) -> str:
    path.write_text(json.dumps(result_set))
    return str(path)


def test_compare_passes_equal_sets_and_flags_regressions(
    smoke_set, tmp_path, capsys
):
    base = {k: v for k, v in smoke_set.items() if k != "stdout"}
    same = _write(tmp_path / "a.json", base)
    assert compare.main([same, same]) == 0
    assert "RESULT: OK" in capsys.readouterr().out

    slower = json.loads(json.dumps(base))
    metrics = slower["runs"][0]["workloads"]["sim_invoke"]["metrics"]
    metrics["work_per_s"]["value"] *= 0.5
    assert compare.main([same, _write(tmp_path / "b.json", slower)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"sim_invoke\s+work_per_s.*REGRESSED", out)

    drifted = json.loads(json.dumps(base))
    drifted["runs"][0]["workloads"]["sim_migrate"]["sim_digest"] = "0" * 64
    assert compare.main([same, _write(tmp_path / "c.json", drifted)]) == 1
    assert "sim_migrate seed=11 sim_digest: DIFFERS" in capsys.readouterr().out

    failing = json.loads(json.dumps(base))
    failing["runs"][0]["workloads"]["live_steady"]["ops_failed"] = 3
    assert compare.main([same, _write(tmp_path / "d.json", failing)]) == 1
    assert "LARGER" in capsys.readouterr().out


def test_compare_reports_noisy_metrics_as_unresolved():
    noisy = [100.0, 80.0, 125.0, 90.0, 110.0]
    assert compare.verdict(noisy, noisy, "higher", ("relative", 0.1), True) == (
        "UNRESOLVED"
    )
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "higher", ("relative", 0.1), True) == (
        "PASS"
    )
    better = [v * 2 for v in noisy]
    assert compare.verdict(noisy, better, "higher", ("relative", 0.1), True) == (
        "PASS"
    )
    assert compare.verdict(steady, steady, "higher", ("relative", 0.1), False) == (
        "UNRESOLVED"
    )
