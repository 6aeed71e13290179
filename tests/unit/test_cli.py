"""The ``python -m repro`` command tree, driven in process through
:func:`repro.__main__.main`."""

import json
import os
import runpy
import sys

import pytest

from repro.__main__ import main
from repro.common import fastpath
from repro.common.config import dgx_h100_config
from repro.experiments.parallel import ExecContext, SimTask, run_matrix
from repro.experiments.runner import Scale, sublayer_for
from repro.llm.models import by_name
from repro.llm.tiling import TilingConfig
from repro.obs.ledger import LEDGER_ENV, RunLedger, stable_line

SUBCOMMANDS = ("run", "experiments", "explain", "report", "diff", "ledger",
               "cache")


@pytest.fixture(autouse=True)
def _isolated_process_state(monkeypatch):
    """``--no-fastpath`` / ``--ledger`` change process-wide state; undo
    it so no other test inherits it."""
    monkeypatch.delenv("REPRO_NO_FASTPATH", raising=False)
    monkeypatch.delenv(LEDGER_ENV, raising=False)
    with fastpath.overridden(fastpath.config()):
        yield


def _tables(text: str) -> str:
    """Experiment output minus the timing footers."""
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("_(regenerated in"))


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_subcommand_has_help(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    assert f"usage: python -m repro {subcommand}" in capsys.readouterr().out


def test_top_level_help_lists_the_tree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out


def test_subcommands_dispatch_to_their_handlers(tmp_path, capsys):
    assert main(["run", "--list"]) == 0
    assert "workloads: L1" in capsys.readouterr().out
    assert main(["experiments", "hw"]) == 0
    assert "hardware overhead" in capsys.readouterr().out
    assert main(["explain", "--systems", "CAIS", "--gpus", "2",
                 "--scale", "0.015625"]) == 0
    assert "# repro explain" in capsys.readouterr().out
    report = str(tmp_path / "report.json")
    assert main(["report", "--scale", "0.015625", "--json", report]) == 0
    assert f"report: {report}" in capsys.readouterr().out
    assert main(["report", "--from", report]) == 0
    assert main(["diff", report, report, "--fail-on-movement"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert main(["ledger", "--dir", str(tmp_path / "l"), "query"]) == 0
    assert "no matching records" in capsys.readouterr().out
    assert main(["cache", "--dir", str(tmp_path / "c")]) == 0
    assert "empty" in capsys.readouterr().out


def test_unknown_subcommand_is_a_parser_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explian"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_experiments_module_alias_matches_subcommand(monkeypatch, capsys):
    assert main(["experiments", "hw"]) == 0
    canonical = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["python -m repro.experiments", "hw"])
    # As in a fresh `python -m` process, the module runs only as __main__.
    monkeypatch.delitem(sys.modules, "repro.experiments.__main__")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("repro.experiments", run_name="__main__",
                         alter_sys=True)
    assert exc.value.code == 0
    assert _tables(capsys.readouterr().out) == _tables(canonical)


def test_bare_flags_alias_run(capsys):
    argv = ["--system", "CAIS", "--workload", "L1", "--no-gantt"]
    assert main(["run", *argv]) == 0
    canonical = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == canonical


@pytest.mark.parametrize("argv", [["run", "--list"],
                                  ["experiments", "hw"]])
def test_no_fastpath_is_process_wide(argv, capsys):
    assert fastpath.config().any_enabled
    assert main([*argv, "--no-fastpath"]) == 0
    assert fastpath.config() == fastpath.DISABLED
    assert os.environ["REPRO_NO_FASTPATH"] == "1"


@pytest.mark.parametrize("system", ["CAIS", "TP-NVLS"])
def test_run_ledger_record_matches_matrix_task(system, tmp_path,
                                               monkeypatch, capsys):
    direct = tmp_path / "direct"
    assert main(["run", "--system", system, "--workload", "L1",
                 "--no-gantt", "--ledger", str(direct)]) == 0
    assert f"ledger: {direct}" in capsys.readouterr().out
    [record] = RunLedger(str(direct)).records()
    assert record["volatile"]["cache_hit"] is False

    # The same run as the matrix task it describes itself as.
    monkeypatch.setenv(LEDGER_ENV, str(tmp_path / "matrix"))
    scale = Scale(tokens_fraction=0.125,
                  tiling=TilingConfig(chunk_bytes=32768,
                                      red_chunk_bytes=8192))
    model = scale.apply(by_name("LLaMA-7B"))
    task = SimTask(system=system,
                   graphs=(sublayer_for(model, 8, system, "L1"),),
                   config=dgx_h100_config(num_gpus=8, seed=2026),
                   scale=scale)
    run_matrix([task], ExecContext(jobs=1))
    [matrix] = RunLedger(str(tmp_path / "matrix")).records()
    assert stable_line(record) == stable_line(matrix)


def test_fleet_honours_metrics_and_profile(tmp_path, capsys):
    out_path = tmp_path / "metrics.json"
    assert main(["run", "--system", "TP-NVLS", "--workload", "fleet",
                 "--replicas", "2", "--scale", "0.03125", "--metrics",
                 "--metrics-out", str(out_path), "--profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fleet: 2 replicas")
    assert f"metrics: {out_path}" in out
    assert "simulator profile:" in out
    snapshot = json.loads(out_path.read_text())
    assert snapshot["counters"]["serving.iterations"] > 0
    assert json.dumps(snapshot, indent=2, sort_keys=True) in out


@pytest.mark.parametrize("argv, message", [
    (["--workload", "fleet", "--trace", "t.json"],
     "--trace does not apply to --workload fleet"),
    (["--workload", "L1", "--training"],
     "--training applies to --workload layer only"),
    (["--workload", "serving", "--admission", "shed"],
     "--admission requires --slo-ttft-ms"),
])
def test_run_rejects_flags_it_would_ignore(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
