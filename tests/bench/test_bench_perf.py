"""`scripts/bench_perf.py --check`: every gate fires, skips are announced.

A 1-CPU runner skips the parallel-vs-serial grid (measuring a ~1.0x ratio on
one core says nothing).  Checking such a run against the committed baseline
must neither crash nor silently pass: the skipped gate is announced and the
remaining gates still apply.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.errors import EventBudgetExceeded, SimulationError

_SCRIPT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scripts", "bench_perf.py"
)


@pytest.fixture(scope="module")
def bench_perf():
    spec = importlib.util.spec_from_file_location("bench_perf_under_test", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing(overhead):
    return {
        "sample": 1 / 16,
        "attempts": [{"untraced": 100.0, "traced": 100.0 * (1 - overhead),
                      "overhead": overhead}],
        "overhead": overhead,
    }


@pytest.fixture
def fast_measures(bench_perf, monkeypatch):
    """Stub the expensive measurements; the report and gate logic is under test."""
    monkeypatch.setattr(
        bench_perf, "measure_core_speed",
        lambda: {"sim_events": 1000, "trials": [100.0], "best": 100.0},
    )
    monkeypatch.setattr(
        bench_perf, "measure_grid",
        lambda cpus: {"skipped": "parallel-vs-serial comparison needs >= 2 CPUs (machine has 1)"},
    )
    monkeypatch.setattr(
        bench_perf, "measure_sparse_smoke",
        lambda: {
            "n": 150, "edge_mode": "sparse", "events": 1000,
            "wall_s": 0.1, "events_per_sec": 10000.0,
        },
    )
    monkeypatch.setattr(bench_perf, "measure_tracing", lambda: _tracing(0.01))
    return bench_perf


def _baseline(bench_perf, monkeypatch, tmp_path, **sections):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(sections))
    monkeypatch.setattr(bench_perf, "BASELINE", str(path))


def test_skipped_grid_is_recorded_in_output(fast_measures, tmp_path):
    out = tmp_path / "perf.json"
    assert fast_measures.main(["--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert "skipped" in result["grid"]
    assert result["sparse_smoke"]["events_per_sec"] == 10000.0
    assert result["tracing"]["overhead"] == 0.01


def test_compare_tolerates_skipped_grid_on_both_sides(
    fast_measures, monkeypatch, tmp_path, capsys
):
    _baseline(
        fast_measures, monkeypatch, tmp_path,
        cpus=1,
        core_speed={"best": 100.0},
        grid={"skipped": "needs >= 2 CPUs"},
        sparse_smoke={"events_per_sec": 10000.0},
    )
    rc = fast_measures.main(["--out", str(tmp_path / "perf.json"), "--check"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "grid gate skipped" in captured
    assert "OK: perf checks passed" in captured


def test_compare_still_gates_core_speed_when_grid_skipped(
    fast_measures, monkeypatch, tmp_path, capsys
):
    _baseline(
        fast_measures, monkeypatch, tmp_path,
        cpus=8,
        core_speed={"best": 1_000_000.0},
        grid={"points": 6, "speedup": 3.0, "identical_results": True},
        sparse_smoke={"events_per_sec": 10000.0},
    )
    rc = fast_measures.main(["--out", str(tmp_path / "perf.json"), "--check"])
    captured = capsys.readouterr()
    assert rc == 1  # stubbed 100 events/sec is far below the committed figure
    assert "core speed" in captured.err
    assert "sparse smoke" not in captured.err


def test_tracing_overhead_fails_check(fast_measures, monkeypatch, tmp_path, capsys):
    _baseline(
        fast_measures, monkeypatch, tmp_path,
        core_speed={"best": 100.0},
        sparse_smoke={"events_per_sec": 10000.0},
    )
    monkeypatch.setattr(fast_measures, "measure_tracing", lambda: _tracing(0.20))
    rc = fast_measures.main(["--out", str(tmp_path / "perf.json"), "--check"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "tracing" in captured.err
    assert "core speed" not in captured.err


def test_sparse_smoke_counts_the_event_cap_as_its_end(bench_perf, monkeypatch):
    def capped(config, max_events=None):
        raise EventBudgetExceeded(f"exceeded max_events={max_events}")

    monkeypatch.setattr(bench_perf, "_simulate", capped)
    assert bench_perf.measure_sparse_smoke()["events"] == bench_perf.SPARSE_SMOKE_EVENTS


def test_sparse_smoke_propagates_other_simulation_errors(bench_perf, monkeypatch):
    """A scheduler fault must fail the run, not pass as a fast capped run."""
    def broken(config, max_events=None):
        raise SimulationError("cannot schedule in the past (delay=-1)")

    monkeypatch.setattr(bench_perf, "_simulate", broken)
    with pytest.raises(SimulationError, match="in the past"):
        bench_perf.measure_sparse_smoke()
