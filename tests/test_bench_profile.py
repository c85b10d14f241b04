"""Profile mode of ``benchmarks/bench_engine_throughput.py`` checks its hooks.

Profile mode wraps engine hooks by name; a name that no engine defines
would silently drop out of the per-phase breakdown, so the benchmark
refuses to run with one.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_BENCH_PATH = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_engine_throughput.py"
)
_spec = importlib.util.spec_from_file_location("bench_engine_throughput", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_every_profile_hook_exists_on_some_engine():
    assert bench._unresolved_profile_hooks() == []


def test_profile_mode_rejects_a_hook_no_engine_defines(monkeypatch, capsys):
    phases = bench.PROFILE_PHASES + (("bogus", ("counter.record_bogus",)),)
    monkeypatch.setattr(bench, "PROFILE_PHASES", phases)
    argv = ["--mode", "profile", "--num-blocks", "256", "--num-accesses", "16"]
    assert bench.main(argv) == 1
    assert "counter.record_bogus" in capsys.readouterr().out
