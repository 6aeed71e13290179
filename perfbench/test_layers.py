"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_layers.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from layers import (ENTRY_POINTS, OWNER_ACCOUNTS,  # noqa: E402
                    UNMAPPED, SpanRecorder, account_for_owner,
                    install_wrappers)
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("bench", "root")
    clock.now = 1.0
    rec.open("gpu", "launch")
    clock.now = 3.0
    rec.open("interconnect.link")
    clock.now = 3.5
    assert rec.close() == 0.5
    clock.now = 4.0
    assert rec.close() == 3.0
    clock.now = 6.0
    assert rec.close() == 6.0
    assert rec.self_s == {"bench": 3.0, "gpu": 2.5,
                          "interconnect.link": 0.5}


def test_nested_same_layer_spans_count_once():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("interconnect.link")          # an event callback
    clock.now = 1.0
    rec.open("interconnect.link")          # Link.send inside it
    clock.now = 2.0
    rec.open("interconnect.link")          # and a nested send
    clock.now = 4.0
    rec.close()
    clock.now = 5.0
    rec.close()
    clock.now = 7.0
    outer = rec.close()
    assert outer == 7.0
    assert rec.self_s["interconnect.link"] == outer
    assert sum(rec.self_s.values()) == outer


def test_kept_spans_record_parent_and_end():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    rec.open("bench", "root")
    rec.open("gpu")                        # not kept
    clock.now = 1.0
    rec.open("systems.construct", "make_system")
    clock.now = 2.0
    rec.close()
    rec.close()
    rec.open("events.loop", "Simulator.run")
    clock.now = 5.0
    rec.close()
    rec.close()
    assert rec.spans == [["root", 0.0, 5.0, -1],
                         ["make_system", 1.0, 2.0, 0],
                         ["Simulator.run", 2.0, 5.0, 0]]
    assert rec.calls == {"root": 1, "make_system": 1, "Simulator.run": 1}


def test_wrappers_cover_imported_aliases_and_uninstall():
    from repro.experiments import fig11_end_to_end, runner
    original = runner.layer_graphs
    rec = SpanRecorder()
    uninstall = install_wrappers(rec, [
        ("repro.experiments.runner", "layer_graphs", "llm.graph_build",
         True)])
    try:
        assert fig11_end_to_end.layer_graphs is runner.layer_graphs
        assert runner.layer_graphs is not original
    finally:
        uninstall()
    assert runner.layer_graphs is original
    assert fig11_end_to_end.layer_graphs is original


def test_every_account_is_a_declared_host_s_metric():
    from tracing import HOST_ACCOUNTS
    with open(HERE.parent / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    accounts = set(OWNER_ACCOUNTS.values()) | {
        account for _, _, account, _ in ENTRY_POINTS}
    assert set(HOST_ACCOUNTS) == accounts
    assert {f"{a}.host_s" for a in accounts} == {
        name for name in declared if name.endswith(".host_s")}


def test_every_entry_point_exists():
    rec = SpanRecorder()
    install_wrappers(rec, ENTRY_POINTS)()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rollup_covers_every_profiler_owner(name, tmp_path):
    from repro import obs
    workload = WORKLOADS[name]
    profiler = obs.SimProfiler()
    obs.install(profiler=profiler)
    try:
        workload.run(workload.prepare(2026, tmp_path))
    finally:
        obs.reset()
    owners = [owner for owner, _, _ in profiler.top(1 << 30)]
    assert owners
    assert [o for o in owners if account_for_owner(o) == UNMAPPED] == []
