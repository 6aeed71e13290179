"""Integration tests: per-request trace tracks, live run reports, diff.

One tiny 4-GPU serving run with every reporting sink installed drives
the full pipeline: request-log phases -> per-request Perfetto tracks ->
report record -> canonical JSON -> self-diff.  Pinned here:

* one ``serving/reqNNNN`` track per request, whose phase spans tile the
  request span exactly (durations sum to ``e2e_ns``);
* same-seed runs produce byte-identical traces and report JSON;
* installing the sinks does not perturb the simulation itself;
* a live report validates as a run record and self-diffs to the
  grep-able "no movement" line;
* the ``--report`` records of fig20 and fig22 are the run records of the
  tasks those figures actually run.
"""

import json
import math

import pytest

from repro import obs
from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments import fig20_serving
from repro.experiments.diff import diff_reports, format_diff
from repro.experiments.ledger import record_for_task
from repro.experiments.parallel import SimTask, _execute_task
from repro.experiments.report import build_report, experiment_report
from repro.experiments.runner import QUICK, Scale
from repro.llm.models import ModelConfig
from repro.llm.serving import ServingSpec, simulate_serving
from repro.llm.tiling import TilingConfig
from repro.obs.ledger import stable_line, validate_record
from repro.obs.tracer import Tracer
from repro.systems import make_system

TINY = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                   seq_len=64, batch=4, layers=4)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Never leak installed sinks into other tests."""
    obs.reset()
    yield
    obs.reset()


def tiny_spec() -> ServingSpec:
    return ServingSpec(model="tiny", seed=7, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4)


CONFIG = dgx_h100_config(num_gpus=4, seed=1)
TILING = TilingConfig(tile=32, chunk_bytes=32768, red_chunk_bytes=8192)


def _serve():
    system = make_system("TP-NVLS", CONFIG, tiling=TILING, jitter=False)
    return simulate_serving(system, tiny_spec(), model=TINY, style="basic")


def _task() -> SimTask:
    """The task describing :func:`_serve`'s run, for the record's
    identity (the tiny model is not in Table I, so the matrix runner
    could not run it by name)."""
    return SimTask(system="TP-NVLS", graphs=(), config=CONFIG,
                   scale=Scale(tokens_fraction=1.0, tiling=TILING),
                   kwargs=(("jitter", False),), serving=tiny_spec())


def _instrumented_serve(window_ns=5_000.0):
    """Fresh sinks, one serving run; returns (serving, tracer)."""
    obs.reset()
    tracer = Tracer()
    obs.install(tracer=tracer,
                timeseries=obs.TimeSeriesSink(window_ns=window_ns),
                request_log=obs.RequestLog(),
                causality=obs.CausalityRecorder())
    return _serve(), tracer


# ---------------------------------------------------------------------------
# Per-request Perfetto tracks (satellite 3)
# ---------------------------------------------------------------------------

def test_one_track_per_request_with_phase_spans_summing_to_e2e():
    serving, tracer = _instrumented_serve()
    tracks = tracer.tracks()
    track_of = {name: idx for idx, name in enumerate(tracks)}
    assert len(serving.stats) > 0
    for s in serving.stats:
        key = ("serving", f"req{s.rid:04d}")
        assert key in track_of, f"missing track for request {s.rid}"
        evs = [e for e in tracer.events() if e["track"] == track_of[key]]
        outer = [e for e in evs
                 if e["ph"] == "X" and e["name"] == "request"]
        assert len(outer) == 1
        assert outer[0]["ts"] == pytest.approx(s.arrival_ns / 1e3)
        assert outer[0]["dur"] == pytest.approx(s.e2e_ns / 1e3)
        phases = [e for e in evs if e.get("cat") == "serving-phase"]
        assert phases, f"request {s.rid} has no phase spans"
        # Phases tile arrival -> finish, so their durations sum to e2e.
        assert sum(p["dur"] for p in phases) \
            == pytest.approx(s.e2e_ns / 1e3, rel=1e-9)
        assert sum(p["args"]["tokens"] for p in phases) >= s.output_len
        instants = [e for e in evs if e["ph"] == "i"
                    and e["name"] == "first_token"]
        assert len(instants) == 1
        assert instants[0]["ts"] \
            == pytest.approx((s.arrival_ns + s.ttft_ns) / 1e3)
    # No track is shared between two requests: the per-request track
    # count equals the request count.
    req_tracks = [t for t in tracks if t[0] == "serving"]
    assert len(req_tracks) == len(serving.stats)


def test_request_records_tile_and_match_stats():
    serving, _ = _instrumented_serve()
    records = serving.run.request_log.records()
    assert [r.rid for r in records] == [s.rid for s in serving.stats]
    for rec, s in zip(records, serving.stats):
        assert rec.finish_ns == s.finish_ns
        assert sum(p.duration_ns for p in rec.phases) \
            == pytest.approx(rec.e2e_ns, rel=1e-12, abs=1e-6)
        # Category attribution partitions each iteration phase exactly.
        total_cat = sum(rec.category_total_ns(g)
                        for g in ("compute", "comm", "queue", "fault"))
        assert total_cat == pytest.approx(rec.e2e_ns, rel=1e-9, abs=1e-3)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_runs_are_byte_identical():
    serving_a, tracer_a = _instrumented_serve()
    report_a = build_report(_task(), serving_a)
    serving_b, tracer_b = _instrumented_serve()
    report_b = build_report(_task(), serving_b)
    trace_a = json.dumps({"tracks": tracer_a.tracks(),
                          "events": tracer_a.events()}, sort_keys=True)
    trace_b = json.dumps({"tracks": tracer_b.tracks(),
                          "events": tracer_b.events()}, sort_keys=True)
    assert trace_a == trace_b
    assert stable_line(report_a) == stable_line(report_b)


def test_sinks_do_not_perturb_the_simulation():
    # Sinks force the engine fast-path off (they observe per-event state),
    # so the uninstrumented reference disables it too: event counts are an
    # engine detail, physics is the contract.
    obs.reset()
    with fastpath.overridden(fastpath.DISABLED):
        baseline = _serve()
    instrumented, _ = _instrumented_serve()
    assert instrumented.run.makespan_ns == baseline.run.makespan_ns
    assert instrumented.run.events == baseline.run.events
    assert [s.finish_ns for s in instrumented.stats] \
        == [s.finish_ns for s in baseline.stats]
    assert [s.ttft_ns for s in instrumented.stats] \
        == [s.ttft_ns for s in baseline.stats]


# ---------------------------------------------------------------------------
# Report on a live run
# ---------------------------------------------------------------------------

def test_live_report_validates_and_self_diffs_clean():
    serving, _ = _instrumented_serve()
    record = build_report(_task(), serving)
    validate_record(record)
    report = record["serving"]
    summary = report["summary"]
    assert summary["requests"] == len(serving.stats)
    assert summary["tokens"] == serving.total_output_tokens
    # Window series covers the makespan and conserves token counts.
    assert report["windows"], "dense window series expected"
    assert sum(w["tokens"] for w in report["windows"]) \
        == pytest.approx(serving.total_output_tokens)
    assert sum(w["completions"] for w in report["windows"]) \
        == len(serving.stats)
    # Phase totals partition the summed E2E time.
    totals = report["phases"]["totals_ns"]
    e2e_sum = sum(s.e2e_ns for s in serving.stats)
    assert sum(totals.values()) == pytest.approx(e2e_sum, rel=1e-9)
    # Fault-free run: nothing charged to the fault group, no marks.
    assert report["phases"]["categories_ns"]["fault"] == 0.0
    assert report["fault_windows"] == []
    assert all(not math.isnan(v)
               for v in report["summary"]["ttft_ns"].values())
    diff = diff_reports(record, json.loads(stable_line(record)))
    assert diff["moved"] is False
    assert "no movement" in format_diff(diff)
    # The record's envelope is the task's: identity plus engine health.
    assert record["fingerprint"] == _task().fingerprint()
    assert record["metrics"]["makespan_ns"] == serving.run.makespan_ns
    assert record["metrics"]["events"] == serving.run.events
    assert record["volatile"]["events_per_wall_second"] > 0


# ---------------------------------------------------------------------------
# --report records are the figures' own run records
# ---------------------------------------------------------------------------

class _Captured(Exception):
    pass


def _fig20_task(system: str) -> SimTask:
    """The task fig20 --quick submits for ``system``."""
    captured = []

    def capture(tasks, ctx=None):
        captured.extend(tasks)
        raise _Captured

    original = fig20_serving.run_matrix
    fig20_serving.run_matrix = capture
    try:
        with pytest.raises(_Captured):
            fig20_serving.run(QUICK)
    finally:
        fig20_serving.run_matrix = original
    return next(t for t in captured if t.system == system)


def test_fig20_report_record_is_the_fig20_cais_record():
    record = experiment_report("fig20_serving", QUICK)
    task = _fig20_task("CAIS")
    summary, wall_ms = _execute_task(task)
    expected = record_for_task(task, summary, cache_hit=False,
                               wall_ms=wall_ms)
    assert record["fingerprint"] == expected["fingerprint"]
    assert record["spec"] == expected["spec"]
    assert record["metrics"]["makespan_ns"] \
        == expected["metrics"]["makespan_ns"]


def test_fig22_report_record_is_a_fleet_replica():
    record = experiment_report("fig22", QUICK)
    validate_record(record)
    assert record["spec"]["workload"] == "fleet"
    assert record["spec"]["role"] == "replica[0]"
    assert record["serving"]["summary"]["requests"] > 0
