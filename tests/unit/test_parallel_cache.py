"""Unit tests for the experiment fan-out + simulation-reuse cache layer.

Fast paths only: the simulations here are a tiny synthetic GEMM+AllReduce
graph (a few dozen TBs), not the paper workloads — the figure-level
determinism suite lives in tests/integration/test_parallel_experiments.py.
"""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.common.config import dgx_h100_config
from repro.experiments.cache import (CACHE_SCHEMA, SimCache, canonical,
                                     fingerprint, gc_stale, scan_cache)
from repro.experiments.parallel import (AblationSpec, ExecContext,
                                        RunSummary, SimTask,
                                        run_matrix, summary_satisfies)
from repro.experiments.runner import (Scale, geomean, run_system,
                                      speedups_over)
from repro.llm.graph import CommKind, GemmShape, Graph, LogicalOp, OpKind
from repro.llm.tiling import TilingConfig
from repro.systems import RunResult

SCALE = Scale(tokens_fraction=1.0,
              tiling=TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192))


def tiny_graph(name="tiny", m=256) -> Graph:
    g = Graph(name)
    g.add(LogicalOp(name="gemm0", kind=OpKind.GEMM,
                    gemm=GemmShape(m, 256, 256)))
    g.add(LogicalOp(name="ar0", kind=OpKind.COMM, deps=("gemm0",),
                    comm=CommKind.ALL_REDUCE, comm_bytes=1 << 16))
    return g


def tiny_task(system="TP-NVLS", seed=2026, m=256, windows=None,
              histograms=False) -> SimTask:
    return SimTask(system=system, graphs=(tiny_graph(m=m),),
                   config=dgx_h100_config(seed=seed), scale=SCALE,
                   utilization_windows=windows,
                   collect_histograms=histograms)


class TestCanonical:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(None) is None

    def test_enum_becomes_value(self):
        assert canonical(OpKind.GEMM) == "gemm"

    def test_frozenset_is_sorted(self):
        assert canonical(frozenset({"b", "a"})) == ["a", "b"]

    def test_dataclass_by_field(self):
        out = canonical(GemmShape(1, 2, 3))
        assert out == {"m": 1, "n": 2, "k": 3}

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            canonical(object())


class TestFingerprint:
    def test_stable_across_calls(self):
        assert tiny_task().fingerprint() == tiny_task().fingerprint()

    def test_seed_changes_fingerprint(self):
        assert tiny_task(seed=1).fingerprint() != \
            tiny_task(seed=2).fingerprint()

    def test_graph_shape_changes_fingerprint(self):
        assert tiny_task(m=256).fingerprint() != \
            tiny_task(m=512).fingerprint()

    def test_system_changes_fingerprint(self):
        assert tiny_task("TP-NVLS").fingerprint() != \
            tiny_task("SP-NVLS").fingerprint()

    def test_tiling_changes_fingerprint(self):
        other = SimTask(system="TP-NVLS", graphs=(tiny_graph(),),
                        config=dgx_h100_config(),
                        scale=Scale(tokens_fraction=1.0,
                                    tiling=TilingConfig(chunk_bytes=16384)))
        assert other.fingerprint() != tiny_task().fingerprint()

    def test_ablation_changes_fingerprint(self):
        base = tiny_task()
        abl = SimTask(system=base.system, graphs=base.graphs,
                      config=base.config, scale=base.scale,
                      ablation=AblationSpec.of({"prelaunch"}))
        assert abl.fingerprint() != base.fingerprint()

    def test_windows_do_not_change_fingerprint(self):
        # Summary resolution is a projection, not a simulation input —
        # figures requesting different window counts must share entries.
        assert tiny_task(windows=24).fingerprint() == \
            tiny_task(windows=None).fingerprint()

    def test_dict_order_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})


class TestRunSummary:
    def test_round_trips_through_json(self):
        summary, _ = _run_one(tiny_task(windows=4))
        blob = json.dumps(summary.to_dict(), sort_keys=True)
        back = RunSummary.from_dict(json.loads(blob))
        assert back == summary
        assert back.utilization_series is not None
        assert len(back.utilization_series) == 4

    def test_matches_direct_run_system(self):
        summary, _ = _run_one(tiny_task())
        res = run_system("TP-NVLS", [tiny_graph()], dgx_h100_config(),
                         SCALE)
        assert summary.makespan_ns == res.makespan_ns
        assert summary.events == res.events
        assert summary.avg_bandwidth_utilization == \
            pytest.approx(res.average_bandwidth_utilization())

    def test_satisfies_checks_series_shape(self):
        summary, _ = _run_one(tiny_task())           # no series
        assert summary_satisfies(tiny_task(), summary)
        assert not summary_satisfies(tiny_task(windows=4), summary)
        rich, _ = _run_one(tiny_task(windows=4))
        assert summary_satisfies(tiny_task(windows=4), rich)
        assert summary_satisfies(tiny_task(), rich)  # extra series is fine


class TestHistogramEnvelope:
    """Satellite: full distribution state rides the worker envelope."""

    def test_fingerprint_ignores_collect_histograms(self):
        # Like utilization_windows, histogram harvest is a projection of
        # the same simulation — cache entries must be shared.
        assert tiny_task(histograms=True).fingerprint() == \
            tiny_task(histograms=False).fingerprint()

    def test_collected_histograms_roundtrip_through_json(self):
        summary, _ = _run_one(tiny_task(histograms=True))
        assert summary.histograms is not None
        assert len(summary.histograms) > 0
        names = [h["name"] for h in summary.histograms]
        assert names == sorted(names)
        blob = json.dumps(summary.to_dict(), sort_keys=True)
        back = RunSummary.from_dict(json.loads(blob))
        assert back == summary
        assert back.histograms == summary.histograms

    def test_uncollected_histograms_stay_none(self):
        summary, _ = _run_one(tiny_task())
        assert summary.histograms is None
        blob = json.dumps(summary.to_dict(), sort_keys=True)
        # Serialized as an explicit null (distinct from collected-empty).
        assert json.loads(blob)["histograms"] is None
        assert RunSummary.from_dict(json.loads(blob)).histograms is None

    def test_satisfies_requires_collected_histograms(self):
        plain, _ = _run_one(tiny_task())
        rich, _ = _run_one(tiny_task(histograms=True))
        assert not summary_satisfies(tiny_task(histograms=True), plain)
        assert summary_satisfies(tiny_task(histograms=True), rich)
        assert summary_satisfies(tiny_task(), rich)  # extra states are fine

    def test_merged_worker_states_equal_single_run(self):
        # Two same-seed worker runs each ship full state; merging the
        # per-name states is associative and reproduces either run's
        # distribution exactly (integer bucket counts merge losslessly).
        from repro.obs.metrics import Histogram, merge_histogram_states
        s1, _ = _run_one(tiny_task(histograms=True))
        s2, _ = _run_one(tiny_task(histograms=True))
        assert s1.histograms == s2.histograms
        for st1, st2 in zip(s1.histograms, s2.histograms):
            merged = merge_histogram_states([st1, st2])
            assert merged["count"] == 2 * st1["count"]
            h = Histogram.from_state(merged)
            if st1["count"]:
                assert h.quantile(0.5) == \
                    Histogram.from_state(st1).quantile(0.5)

    def test_run_matrix_collects_histograms(self):
        ctx = ExecContext(jobs=1, cache=SimCache(root=None))
        out = run_matrix([tiny_task(histograms=True)], ctx)
        assert out[0].histograms is not None

    def test_dedup_alias_respects_histogram_need(self):
        # A histogram-needing task must not alias to a plain duplicate's
        # in-flight result within one matrix.
        ctx = ExecContext(jobs=1, cache=SimCache(root=None))
        out = run_matrix([tiny_task(), tiny_task(histograms=True)], ctx)
        assert out[1].histograms is not None
        # The reverse order may alias (a histogram-rich result satisfies
        # the plain request).
        ctx2 = ExecContext(jobs=1, cache=SimCache(root=None))
        out2 = run_matrix([tiny_task(histograms=True), tiny_task()], ctx2)
        assert out2[0].histograms is not None


def _run_one(task):
    from repro.experiments.parallel import _execute_task
    return _execute_task(task)


class TestSimCache:
    def test_memory_only_round_trip(self):
        cache = SimCache(root=None)
        cache.store("ab" * 32, {"makespan_ns": 1.0})
        assert cache.lookup("ab" * 32) == {"makespan_ns": 1.0}
        assert cache.lookup("cd" * 32) is None

    def test_disk_round_trip(self, tmp_path):
        fp = tiny_task().fingerprint()
        SimCache(root=str(tmp_path)).store(fp, {"x": 1})
        # A fresh instance (new process, conceptually) reads it back.
        assert SimCache(root=str(tmp_path)).lookup(fp) == {"x": 1}

    def test_disk_layout_is_versioned(self, tmp_path):
        cache = SimCache(root=str(tmp_path))
        cache.store("ff" * 32, {"x": 1})
        assert (tmp_path / CACHE_SCHEMA).is_dir()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        fp = "aa" * 32
        cache = SimCache(root=str(tmp_path))
        cache.store(fp, {"x": 1})
        path = tmp_path / CACHE_SCHEMA / fp[:2] / f"{fp}.json"
        path.write_text("{not json")
        assert SimCache(root=str(tmp_path)).lookup(fp) is None


class TestRunMatrix:
    def test_results_in_task_order(self):
        tasks = [tiny_task(m=256), tiny_task(m=512), tiny_task(m=256)]
        out = run_matrix(tasks)
        assert out[0] == out[2]
        assert out[1] != out[0]
        assert out[1].tbs_completed > out[0].tbs_completed

    def test_cache_hit_equals_fresh_simulation(self, tmp_path):
        cache = SimCache(root=str(tmp_path))
        fresh = run_matrix([tiny_task()],
                           ExecContext(jobs=1, cache=cache))[0]
        hit = run_matrix([tiny_task()],
                         ExecContext(jobs=1, cache=cache))[0]
        assert hit == fresh

    def test_changed_seed_misses(self, tmp_path):
        cache = SimCache(root=str(tmp_path))
        obs.install(metrics=obs.MetricsRegistry())
        try:
            metrics = obs.current_metrics()
            run_matrix([tiny_task(seed=1)],
                       ExecContext(jobs=1, cache=cache))
            run_matrix([tiny_task(seed=2)],
                       ExecContext(jobs=1, cache=cache))
            assert metrics.counter("cache.hits").value == 0
            assert metrics.counter("cache.misses").value == 2
        finally:
            obs.reset()

    def test_metrics_record_hits_and_wall_time(self, tmp_path):
        cache = SimCache(root=str(tmp_path))
        obs.install(metrics=obs.MetricsRegistry())
        try:
            metrics = obs.current_metrics()
            ctx = ExecContext(jobs=1, cache=cache)
            run_matrix([tiny_task(), tiny_task()], ctx)   # dup task: 1 sim
            assert metrics.counter("cache.hits").value == 1
            assert metrics.counter("cache.misses").value == 1
            hist = metrics.histogram("experiments.task_wall_ms")
            assert hist.count == 1
        finally:
            obs.reset()

    def test_dedup_within_one_matrix(self, tmp_path):
        # fig11/fig15/fig16 share baseline runs: identical tasks in one
        # matrix simulate once when a cache is attached.
        cache = SimCache(root=str(tmp_path))
        out = run_matrix([tiny_task()] * 3, ExecContext(jobs=1, cache=cache))
        assert out[0] == out[1] == out[2]

    def test_parallel_jobs_match_serial(self):
        tasks = [tiny_task(m=m) for m in (256, 384, 512)]
        serial = run_matrix(tasks, ExecContext(jobs=1))
        parallel = run_matrix(tasks, ExecContext(jobs=3))
        assert serial == parallel


class TestRunnerGuards:
    def test_geomean_normal(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_empty(self):
        assert geomean([]) == 0.0

    def test_geomean_zero_warns(self):
        with pytest.warns(RuntimeWarning):
            assert geomean([1.0, 0.0]) == 0.0

    def test_geomean_negative_warns(self):
        with pytest.warns(RuntimeWarning):
            assert geomean([-1.0, 2.0]) == 0.0

    def test_speedups_over_zero_reference_warns(self):
        results = {
            "CAIS": _result(makespan_ns=0.0),
            "T3": _result(makespan_ns=5.0),
        }
        with pytest.warns(RuntimeWarning):
            out = speedups_over(results)
        assert out == {"CAIS": 0.0, "T3": 0.0}

    def test_speedups_over_normal(self):
        results = {
            "CAIS": _result(makespan_ns=2.0),
            "T3": _result(makespan_ns=5.0),
        }
        assert speedups_over(results)["T3"] == pytest.approx(2.5)


def _result(makespan_ns: float) -> RunResult:
    return RunResult(system="x", makespan_ns=makespan_ns, compute_ns=0.0,
                     tbs_completed=0, events=0)


# ---------------------------------------------------------------------------
# Cache introspection (`python -m repro cache`)
# ---------------------------------------------------------------------------

class TestCacheIntrospection:
    def _seed_cache(self, tmp_path):
        """A cache root with one current-schema entry and one stale dir."""
        root = tmp_path / "cache"
        cache = SimCache(str(root))
        task = tiny_task()
        summary, _ = _run_one(task)
        cache.store(task.fingerprint(), summary.to_dict())
        stale = root / "v0" / "ab"
        stale.mkdir(parents=True)
        (stale / ("c" * 64 + ".json")).write_text("{}")
        return root

    def test_scan_reports_schemas_and_staleness(self, tmp_path):
        root = self._seed_cache(tmp_path)
        rows = scan_cache(str(root))
        assert [(r["schema"], r["stale"], r["entries"]) for r in rows] \
            == [("v0", True, 1), (CACHE_SCHEMA, False, 1)]
        current = rows[1]
        assert current["bytes"] > 0
        assert current["newest_age_s"] is not None
        assert current["newest_age_s"] >= 0.0

    def test_scan_missing_root_is_empty(self, tmp_path):
        assert scan_cache(str(tmp_path / "nope")) == []

    def test_gc_evicts_only_stale_schemas(self, tmp_path):
        root = self._seed_cache(tmp_path)
        assert gc_stale(str(root)) == ["v0"]
        assert not (root / "v0").exists()
        assert (root / CACHE_SCHEMA).exists()
        # Nothing left to evict on the second pass.
        assert gc_stale(str(root)) == []

    def test_cache_cli_lists_and_gcs(self, tmp_path, capsys):
        root = self._seed_cache(tmp_path)
        assert main(["cache", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "stale" in out and CACHE_SCHEMA in out
        assert main(["cache", "--dir", str(root), "--gc"]) == 0
        assert "evicted stale schema(s): v0" in capsys.readouterr().out
        assert not (root / "v0").exists()

    def test_cache_cli_json_mode(self, tmp_path, capsys):
        root = self._seed_cache(tmp_path)
        assert main(["cache", "--dir", str(root), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["schema"] for r in rows} == {"v0", CACHE_SCHEMA}
