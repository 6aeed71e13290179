"""Fast-path equivalence: every layer reproduces the reference run.

DESIGN.md §11 states the equivalence contract per layer:

* ``link_windows``     — identical physics (per-chunk timestamps exact),
  only event counts and same-instant interleaving differ;
* ``analytic_collectives`` — exact-float makespans (the bypass replays a
  calibrated signature only after it validated to exact equality);
* ``analytic_kernels`` — bit-exact replication of the event path,
  including every RNG draw and busy-integral float.

These tests run real system workloads (scaled) with each layer toggled
and require the observable outputs to match the all-off reference to
exact float equality — makespan, total compute, TB counts, and GPU
utilization.  The kernel layer's conflict counter is pinned to zero on
graphs with parallel branches (training backward), guarding the
isolated-launch soloness analysis in ``BarrierRunner.run_graph``.
"""

import dataclasses

import pytest

from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.runner import layer_graphs
from repro.llm.models import LLAMA_7B
from repro.llm.tiling import TilingConfig
from repro.llm.tp import sublayer_graph
from repro.systems import make_system

SCALE = 0.125
TILING = TilingConfig(chunk_bytes=32768, red_chunk_bytes=8192)
SYSTEMS = ("TP-NVLS", "CAIS", "CoCoNet", "T3")

#: One config per layer with only that layer enabled, plus all-on.
LAYER_CONFIGS = {
    "link_windows": fastpath.FastPathConfig(
        link_windows=True, analytic_collectives=False,
        analytic_kernels=False),
    "analytic_collectives": fastpath.FastPathConfig(
        link_windows=False, analytic_collectives=True,
        analytic_kernels=False),
    "analytic_kernels": fastpath.FastPathConfig(
        link_windows=False, analytic_collectives=False,
        analytic_kernels=True),
    "all": fastpath.FastPathConfig(),
}


def _observables(res):
    return (res.makespan_ns, res.compute_ns, res.tbs_completed,
            res.gpu_utilization)


def _run(system, graphs, cfg=None):
    cfg = cfg or dgx_h100_config()
    return make_system(system, cfg, tiling=TILING).run(list(graphs))


@pytest.fixture(scope="module")
def layer_workload():
    model = LLAMA_7B.scaled(SCALE)
    cfg = dgx_h100_config()
    return model, cfg


@pytest.fixture(scope="module")
def references(layer_workload):
    """All-off reference observables per (system, training)."""
    model, cfg = layer_workload
    out = {}
    with fastpath.overridden(fastpath.DISABLED):
        for system in SYSTEMS:
            for training in (False, True):
                graphs = layer_graphs(model, cfg.num_gpus, system,
                                      training=training)
                out[system, training] = _observables(
                    _run(system, graphs, cfg))
    return out


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
@pytest.mark.parametrize("training", (False, True),
                         ids=("inference", "training"))
@pytest.mark.parametrize("system", SYSTEMS)
def test_layer_preserves_observables(references, layer_workload,
                                     system, training, layer):
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, system, training=training)
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        res = _run(system, graphs, cfg)
    assert _observables(res) == references[system, training]
    # The kernel mini-sim must never have fired into a non-isolated
    # frame: a nonzero conflict count means the soloness analysis let a
    # concurrent launch through (training graphs run dgrad+wgrad branches
    # in one event frame — the exact case the counter guards).
    assert res.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


def test_kernel_fastpath_engages_and_elides_events(layer_workload):
    """The analytic kernel layer must actually fire on barrier-style
    runs (TP-NVLS layer graphs are chains of isolated kernels) and
    report the events it skipped."""
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, "TP-NVLS", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, cfg)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast = _run("TP-NVLS", graphs, cfg)
    assert fast.details.get("fastpath.kernel_launches", 0.0) > 0
    assert fast.details.get("fastpath.events_elided", 0.0) > 0
    assert fast.events < ref.events
    assert fast.makespan_ns == ref.makespan_ns


def test_kernel_fastpath_exact_with_jitter(layer_workload):
    """Jitter draws are replicated in the exact event-path order, so the
    mini-sim stays bit-exact with jitter enabled and a nonzero seed."""
    model, _ = layer_workload
    cfg = dgx_h100_config(seed=7)
    jcfg = dataclasses.replace(
        cfg, jitter=dataclasses.replace(cfg.jitter, tb_jitter=0.02))
    graphs = layer_graphs(model, jcfg.num_gpus, "TP-NVLS", training=True)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, jcfg)
    with fastpath.overridden(LAYER_CONFIGS["analytic_kernels"]):
        fast = _run("TP-NVLS", graphs, jcfg)
    assert fast.details.get("fastpath.kernel_launches", 0.0) > 0
    assert _observables(fast) == _observables(ref)


def _serve_tiny_nvls():
    """A tiny fig20-style TP-NVLS serving stream on 4 GPUs."""
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=7, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4)
    cfg = dgx_h100_config(num_gpus=4, seed=1)
    system = make_system("TP-NVLS", cfg, tiling=TILING)
    return simulate_serving(system, spec, model=tiny, style="basic")


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_serving_run_preserves_observables(layer):
    """fig20-style continuous-batching serving: per-layer equivalence
    of the whole request stream (TTFTs, makespan, token totals)."""
    with fastpath.overridden(fastpath.DISABLED):
        ref = _serve_tiny_nvls()
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = _serve_tiny_nvls()
    assert fast.run.makespan_ns == ref.run.makespan_ns
    assert fast.total_output_tokens == ref.total_output_tokens
    assert fast.iterations == ref.iterations
    assert ([s.ttft_ns for s in fast.stats]
            == [s.ttft_ns for s in ref.stats])


# Engagement: a fast-path layer that silently stops firing keeps every
# equivalence test green while the speed falls away, so each layer is
# pinned to fire on a workload where it must.

def test_serving_fastpath_layers_engage():
    """Under the default config, TP-NVLS serving takes all three layers:
    analytic collectives, link windows and analytic kernels."""
    with fastpath.overridden(fastpath.FastPathConfig()):
        details = _serve_tiny_nvls().run.details
    assert details.get("fastpath.analytic_ops", 0.0) > 0
    assert details.get("fastpath.link_messages", 0.0) > 0
    assert details.get("fastpath.kernel_launches", 0.0) > 0


def test_link_windows_engage_on_t3_layer(layer_workload):
    """T3's FIFO links carry its fused traffic through link windows."""
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, "T3", training=False)
    with fastpath.overridden(fastpath.FastPathConfig()):
        res = _run("T3", graphs, cfg)
    assert res.details.get("fastpath.link_messages", 0.0) > 0


def test_cais_layer_elides_exactly_the_skipped_events(layer_workload):
    """On CAIS the fused link-to-switch hop elides events; the elided
    count accounts for every event the reference path fires and the
    default engine does not."""
    model, cfg = layer_workload
    graphs = layer_graphs(model, cfg.num_gpus, "CAIS", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("CAIS", graphs, cfg)
    with fastpath.overridden(fastpath.FastPathConfig()):
        fast = _run("CAIS", graphs, cfg)
    elided = fast.details.get("fastpath.events_elided", 0.0)
    assert elided > 0
    assert fast.events + elided == ref.events
    assert fast.makespan_ns == ref.makespan_ns


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_faulted_run_preserves_observables(layer_workload, layer):
    """fig19-style faulted runs: fault windows make links/executors
    ineligible for the fast path, and whatever remains eligible must
    still reproduce the reference exactly (retries included)."""
    from repro.common.config import FaultSpec

    model, _ = layer_workload
    cfg = dgx_h100_config().with_faults(
        FaultSpec(enabled=True, intensity=1.0, fault_seed=3))
    graphs = layer_graphs(model, cfg.num_gpus, "TP-NVLS", training=False)
    with fastpath.overridden(fastpath.DISABLED):
        ref = _run("TP-NVLS", graphs, cfg)
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = _run("TP-NVLS", graphs, cfg)
    assert _observables(fast) == _observables(ref)
    assert fast.details.get("fastpath.kernel_conflicts", 0.0) == 0.0


@pytest.mark.parametrize("layer", sorted(LAYER_CONFIGS))
def test_faulted_serving_run_preserves_observables(layer):
    """fig21-style faulted serving: the whole resilience stack — drop
    storms with retransmission, retry-budget aborts, SLO-aware shedding
    — must be invisible to the fast path: every per-request stat and
    every non-fastpath detail is exact-float-equal with --no-fastpath."""
    from repro.common.config import FaultSpec
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=5, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4,
                       admission_policy="shed", slo_ttft_ms=0.001,
                       retry_budget=1)

    def serve():
        cfg = dgx_h100_config(num_gpus=4, seed=1).with_faults(FaultSpec(
            enabled=True, intensity=1.0, fault_seed=5, msg_drop_rate=0.3))
        system = make_system("CAIS", cfg, tiling=TILING)
        return simulate_serving(system, spec, model=tiny, style="sp")

    with fastpath.overridden(fastpath.DISABLED):
        ref = serve()
    with fastpath.overridden(LAYER_CONFIGS[layer]):
        fast = serve()
    assert fast.run.makespan_ns == ref.run.makespan_ns
    assert fast.stats == ref.stats
    assert [s.rid for s in fast.shed] == [s.rid for s in ref.shed]
    assert (fast.aborts, fast.reprefill_tokens, fast.iterations) == \
        (ref.aborts, ref.reprefill_tokens, ref.iterations)
    strip = lambda d: {k: v for k, v in d.items()
                       if not k.startswith("fastpath.")}
    assert strip(fast.run.details) == strip(ref.run.details)
    # The recipe must actually exercise the resilience stack (aborts are
    # covered by the serving-invariant property tests; with this tight an
    # SLO most of the stream sheds before it can run long enough to
    # exhaust a retry budget).
    assert ref.shed
    assert ref.run.details["faults.retries"] > 0


def test_faulted_serving_disabled_run_carries_no_fastpath_details():
    """--no-fastpath byte-identity extends to faulted serving: with every
    layer off the result details carry no ``fastpath.*`` keys."""
    from repro.common.config import FaultSpec
    from repro.llm.models import ModelConfig
    from repro.llm.serving import ServingSpec, simulate_serving

    tiny = ModelConfig(name="tiny", hidden=256, ffn_hidden=512, heads=8,
                       seq_len=64, batch=4, layers=4)
    spec = ServingSpec(model="tiny", seed=5, arrival_rate_rps=100_000.0,
                       horizon_ms=0.05, prompt_min=8, prompt_max=24,
                       output_min=1, output_max=3, max_batch_requests=4,
                       admission_policy="shed", slo_ttft_ms=0.001,
                       retry_budget=1)
    cfg = dgx_h100_config(num_gpus=4, seed=1).with_faults(FaultSpec(
        enabled=True, intensity=1.0, fault_seed=5, msg_drop_rate=0.3))
    with fastpath.overridden(fastpath.DISABLED):
        res = simulate_serving(make_system("CAIS", cfg, tiling=TILING),
                               spec, model=tiny, style="sp")
    assert not any(k.startswith("fastpath.") for k in res.run.details)


def test_disabled_runs_carry_no_fastpath_details(layer_workload):
    """Byte-identity of the baseline: with every layer off, the result
    details contain no ``fastpath.*`` keys at all (a run is
    indistinguishable from a build that predates the fast-path)."""
    model, cfg = layer_workload
    graph = sublayer_graph(model, cfg.num_gpus, "L1")
    with fastpath.overridden(fastpath.DISABLED):
        res = _run("CAIS", [graph], cfg)
    assert not any(k.startswith("fastpath.") for k in res.details)


def test_sim_task_fingerprint_tracks_fastpath_layers():
    """Cache entries must not be shared across layer sets — except that
    the all-off fingerprint matches the pre-fast-path payload (so
    ``--no-fastpath`` reuses historical cache entries).  The default
    token is pinned literally: changing it orphans every cached summary,
    ledger fingerprint and warm benchmark replay."""
    from repro.experiments.parallel import SimTask
    from repro.experiments.runner import DEFAULT

    assert fastpath.FastPathConfig().cache_token() == "fp:w1-a1-k1-v2"
    cfg = dgx_h100_config()
    task = SimTask(system="TP-NVLS", graphs=(), config=cfg, scale=DEFAULT)
    with fastpath.overridden(fastpath.DISABLED):
        off = task.fingerprint()
        assert "fastpath" not in task.payload()
    with fastpath.overridden(fastpath.FastPathConfig()):
        on = task.fingerprint()
        assert task.payload()["fastpath"] == "fp:w1-a1-k1-v2"
    with fastpath.overridden(LAYER_CONFIGS["link_windows"]):
        windows_only = task.fingerprint()
    assert len({off, on, windows_only}) == 3
