"""Integration tests: the run ledger and harness telemetry through a
real ``run_matrix`` sweep.

The unit layer (tests/unit/test_ledger.py) pins record schema and store
semantics; here we pin the system-level contracts from ISSUE 9's
acceptance criteria:

* a matrix run with ``$REPRO_LEDGER`` set appends one schema-valid
  record per task outcome;
* a warm-cache re-run appends **hit** records without re-simulating
  anything, and those records are stable-identical to the miss records
  that seeded the cache;
* ``repro ledger query/summarize/regress`` work end-to-end on the
  resulting ledger;
* the harness meta-trace validates as Perfetto JSON with one span per
  executed (not cache-served) task.
"""

import json

import pytest

from repro.__main__ import main
from repro.common.config import dgx_h100_config
from repro.experiments import parallel
from repro.experiments.cache import SimCache
from repro.experiments.parallel import ExecContext, SimTask, run_matrix
from repro.experiments.runner import Scale
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.tiling import TilingConfig
from repro.obs.ledger import LEDGER_ENV, RunLedger, stable_line, \
    validate_record
from repro.obs.perfetto import validate_trace_file

SCALE = Scale(tokens_fraction=1.0,
              tiling=TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192))


def tiny_task(system="TP-NVLS", seed=2026) -> SimTask:
    g = Graph("tiny")
    g.add(LogicalOp(name="gemm0", kind=OpKind.GEMM,
                    gemm=GemmShape(256, 256, 256)))
    g.add(LogicalOp(name="ar0", kind=OpKind.COMM, deps=("gemm0",),
                    comm=CommKind.ALL_REDUCE, comm_bytes=1 << 16))
    return SimTask(system=system, graphs=(g,),
                   config=dgx_h100_config(seed=seed), scale=SCALE)


@pytest.fixture
def ledger_env(tmp_path, monkeypatch):
    """A fresh ledger root exported via $REPRO_LEDGER."""
    root = tmp_path / "ledger"
    monkeypatch.setenv(LEDGER_ENV, str(root))
    return str(root)


def test_matrix_appends_one_valid_record_per_task(ledger_env, tmp_path):
    tasks = [tiny_task(seed=1), tiny_task(seed=2), tiny_task(seed=1)]
    cache = SimCache(str(tmp_path / "cache"))
    out = run_matrix(tasks, ExecContext(jobs=1, cache=cache))
    recs = RunLedger(ledger_env).records()
    assert len(recs) == 3            # 2 misses + 1 in-matrix alias hit
    for rec in recs:
        validate_record(rec)
    assert sum(r["volatile"]["cache_hit"] for r in recs) == 1
    by_fp = {}
    for rec in recs:
        by_fp.setdefault(rec["fingerprint"], []).append(rec)
    assert set(by_fp) == {t.fingerprint() for t in tasks}
    # Record metrics mirror the returned summaries.
    for task, summary in zip(tasks, out):
        rec = by_fp[task.fingerprint()][0]
        assert rec["metrics"]["makespan_ns"] == summary.makespan_ns
        assert rec["metrics"]["events"] == summary.events
        assert rec["spec"]["seed"] == task.config.seed


def test_warm_rerun_appends_hits_without_resimulating(
        ledger_env, tmp_path, monkeypatch):
    tasks = [tiny_task(seed=1), tiny_task(seed=2)]
    cache = SimCache(str(tmp_path / "cache"))
    cold = run_matrix(tasks, ExecContext(jobs=1, cache=cache))

    def _boom(task):
        raise AssertionError("warm re-run must not simulate")
    monkeypatch.setattr(parallel, "_execute_task_observed", _boom)
    warm = run_matrix(tasks, ExecContext(jobs=1, cache=cache))
    assert [s.makespan_ns for s in warm] == [s.makespan_ns for s in cold]

    recs = RunLedger(ledger_env).records()
    assert [r["volatile"]["cache_hit"] for r in recs] == \
        [False, False, True, True]
    assert all(r["volatile"]["wall_ms"] == 0.0 for r in recs[2:])
    # Hit records are byte-identical to their seeding miss records
    # outside the volatile section — the determinism contract.
    by_fp = {}
    for rec in recs:
        by_fp.setdefault(rec["fingerprint"], set()).add(stable_line(rec))
    assert all(len(lines) == 1 for lines in by_fp.values())


def test_ledger_cli_end_to_end(ledger_env, tmp_path, capsys):
    run_matrix([tiny_task(seed=1), tiny_task(seed=2)],
               ExecContext(jobs=1, cache=SimCache(str(tmp_path / "c"))))
    run_matrix([tiny_task(seed=1), tiny_task(seed=2)],
               ExecContext(jobs=1, cache=SimCache(str(tmp_path / "c"))))

    assert main(["ledger", "--dir", ledger_env, "query"]) == 0
    out = capsys.readouterr().out
    assert "4 record(s)" in out and "TP-NVLS" in out

    assert main(["ledger", "--dir", ledger_env, "query", "--seed", "1",
                 "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(l)["spec"]["seed"] == 1 for l in lines)

    assert main(["ledger", "--dir", ledger_env, "summarize"]) == 0
    out = capsys.readouterr().out
    assert "hit rate" in out and "50%" in out

    # Regress passes on a clean history (benchmark envelopes resolved
    # from the repo root by the CI job; here they may be absent, which
    # regress reports as skipped, not failed).
    assert main(["ledger", "--dir", ledger_env, "regress",
                 "--engine-bench", "BENCH_engine.json",
                 "--bench", "benchmarks/BENCH_baseline.json"]) == 0
    assert "OK" in capsys.readouterr().out


def test_ledger_regress_fails_on_planted_drift(ledger_env, tmp_path,
                                               capsys):
    run_matrix([tiny_task(seed=1)], ExecContext(jobs=1))
    led = RunLedger(ledger_env)
    drifted = led.records()[0]
    drifted["metrics"] = dict(drifted["metrics"],
                              makespan_ns=drifted["metrics"]["makespan_ns"]
                              + 1.0)
    led.append(drifted)
    assert main(["ledger", "--dir", ledger_env, "regress"]) == 1
    assert "drift" in capsys.readouterr().out


def test_meta_trace_has_one_span_per_executed_task(tmp_path):
    trace_path = tmp_path / "meta.json"
    tasks = [tiny_task(seed=1), tiny_task(seed=2), tiny_task(seed=1)]
    run_matrix(tasks, ExecContext(jobs=1, cache=SimCache(None),
                                  meta_trace=str(trace_path)))
    assert validate_trace_file(str(trace_path)) == []
    payload = json.loads(trace_path.read_text())
    spans = [e for e in payload["traceEvents"]
             if e.get("ph") == "X" and e.get("cat") == "sim-task"]
    hits = [e for e in payload["traceEvents"]
            if e.get("ph") == "i" and e.get("cat") == "cache"]
    assert len(spans) == 2           # seeds 1 and 2 simulate once each
    assert len(hits) == 1            # the duplicate aliases
    assert {e["args"]["fingerprint"] for e in spans} == \
        {tiny_task(seed=1).fingerprint()[:12],
         tiny_task(seed=2).fingerprint()[:12]}


def test_ledger_disabled_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    run_matrix([tiny_task(seed=1)], ExecContext(jobs=1))
    assert list(tmp_path.iterdir()) == []
