"""Unit tests for report validation and report diffing (schema-level).

Integration coverage — building a report from a live serving run — lives
in tests/integration/test_report.py; here we pin the run-record contract
of a report file (the record's stable view plus its ``serving`` section)
and the diff attribution logic on synthetic reports.
"""

import copy
import math

import pytest

from repro.__main__ import main
from repro.experiments.diff import (DIFF_KIND, diff_reports, format_diff,
                                    movement_breaches)
from repro.experiments.report import format_report
from repro.obs.ledger import (LEDGER_SCHEMA, RECORD_KIND, canonical_json,
                              stable_line, validate_record)


def _tail(v: float):
    return {"p50": v, "p90": v, "p95": v, "p99": v, "mean": v, "max": v}


def _window(index: int, **over):
    row = {
        "index": index,
        "start_ns": index * 100_000.0,
        "end_ns": (index + 1) * 100_000.0,
        "tokens": 10.0,
        "iterations": 5.0,
        "completions": 2.0,
        "evictions": 0.0,
        "sheds": 0.0,
        "aborts": 0.0,
        "retries": 0.0,
        "kv_peak_bytes": 1e6,
        "batch_peak": 4.0,
        "ttft_p95_ns": 2e6,
        "faults": [],
    }
    row.update(over)
    return row


def _report(**over):
    """A minimal valid report file: a run record's stable view with a
    fault-free, two-window ``serving`` section."""
    report = {
        "schema": LEDGER_SCHEMA,
        "kind": RECORD_KIND,
        "fingerprint": "a" * 64,
        "spec": {"system": "CAIS", "model": "llama2-70b", "seed": 2026,
                 "workload": "serving", "role": None,
                 "faults": {"enabled": False, "intensity": 1.0,
                            "fault_seed": 0}},
        "metrics": {"makespan_ns": 200_000.0, "events": 1000},
        "details": {},
        "serving": {
            "summary": {
                "requests": 4, "tokens": 20, "iterations": 10,
                "evictions": 0, "shed": 0, "aborts": 0,
                "kv_peak_bytes": 1e6, "makespan_ns": 200_000.0,
                "tokens_per_s": 1e5,
                "ttft_ns": _tail(2e6), "tpot_ns": _tail(5e5),
                "e2e_ns": _tail(4e6),
            },
            "slo": {
                "ttft_ms": 3.0, "tpot_ms": 0.75,
                "ttft_attainment": 0.75, "tpot_attainment": 1.0,
                "attainment": 0.75, "goodput_tokens_per_s": 7.5e4,
            },
            "window_ns": 100_000.0,
            "windows": [_window(0), _window(1)],
            "fault_windows": [],
            "phases": {
                "totals_ns": {"queue": 1e6, "prefill": 2e6,
                              "decode": 3e6},
                "categories_ns": {"compute": 3e6, "comm": 2e6,
                                  "queue": 1e6, "fault": 0.0},
            },
            "worst_requests": [],
        },
    }
    report.update(over)
    return report


def _validate_file(report):
    """What ``repro report --from``/``repro diff`` check a file with."""
    validate_record(report, report=True)


# ---------------------------------------------------------------------------
# validate_record on report files
# ---------------------------------------------------------------------------

def test_validate_accepts_wellformed_report():
    _validate_file(_report())


def test_validate_rejects_wrong_kind_and_schema():
    with pytest.raises(ValueError, match="kind"):
        _validate_file(_report(kind="something-else"))
    with pytest.raises(ValueError, match="schema"):
        _validate_file(_report(schema=LEDGER_SCHEMA + 1))
    with pytest.raises(ValueError, match="not a JSON object"):
        _validate_file([])


def test_validate_rejects_missing_summary_field():
    bad = _report()
    del bad["serving"]["summary"]["tokens_per_s"]
    with pytest.raises(ValueError, match="summary.tokens_per_s"):
        _validate_file(bad)


def test_validate_rejects_wrong_type():
    bad = _report()
    bad["serving"]["summary"]["requests"] = "four"
    with pytest.raises(ValueError, match="summary.requests"):
        _validate_file(bad)


def test_validate_rejects_malformed_window_row():
    bad = _report()
    del bad["serving"]["windows"][1]["retries"]
    with pytest.raises(ValueError, match=r"windows\[1\].retries"):
        _validate_file(bad)


def test_validate_rejects_non_object_sections():
    bad = _report()
    bad["serving"]["fault_windows"] = [3]
    with pytest.raises(ValueError, match=r"fault_windows\[0\]"):
        _validate_file(bad)
    with pytest.raises(ValueError, match="serving is not an object"):
        _validate_file(_report(serving=[]))
    bad = _report()
    bad["serving"]["window_ns"] = "wide"
    with pytest.raises(ValueError, match="serving.window_ns"):
        _validate_file(bad)


def test_report_file_lacks_volatile_that_the_ledger_requires():
    # A report file is the stable view: fine for report/diff, but the
    # ledger's default check still demands the provenance section.
    with pytest.raises(ValueError, match="volatile"):
        validate_record(_report())
    bare = _report()
    del bare["serving"]
    with pytest.raises(ValueError, match="serving"):
        _validate_file(bare)
    with_volatile = _report(volatile={"cache_hit": False, "wall_ms": 1.0})
    validate_record(with_volatile)
    assert stable_line(with_volatile) == stable_line(_report())


# ---------------------------------------------------------------------------
# Serialization / rendering
# ---------------------------------------------------------------------------

def test_report_to_json_is_byte_stable():
    a = stable_line(_report())
    b = stable_line(copy.deepcopy(_report()))
    assert a == b
    assert "\n" not in a and ": " not in a  # canonical compact form


def test_format_report_renders_without_side_effects():
    report = _report()
    text = format_report(report)
    assert "repro run report" in text
    assert "CAIS llama2-70b" in text
    assert "Latency tails" in text
    assert report == _report()  # rendering mutated nothing


def test_format_report_dashes_out_nan_tails():
    report = _report()
    report["serving"]["summary"]["tpot_ns"] = _tail(math.nan)
    text = format_report(report)
    assert "| TPOT | - |" in text


def test_format_report_names_faults_only_when_enabled():
    # A disabled FaultSpec still carries intensity 1.0.
    assert "fault intensity" not in format_report(_report())
    faulted = _report()
    faulted["spec"]["faults"].update(enabled=True, intensity=0.5)
    assert "(seed 2026, fault intensity 0.5)" in format_report(faulted)


# ---------------------------------------------------------------------------
# diff_reports
# ---------------------------------------------------------------------------

def test_self_diff_has_no_movement():
    report = _report()
    diff = diff_reports(report, copy.deepcopy(report))
    assert diff["kind"] == DIFF_KIND
    assert diff["moved"] is False
    assert diff["windows"] == []
    assert all(cell["delta"] == 0.0 for cell in diff["summary"].values())
    assert "no movement: reports are identical" in format_diff(diff)


def test_self_diff_with_nan_tails_is_still_no_movement():
    # A run with no multi-token requests has NaN TPOT tails; NaN != NaN
    # must not read as movement.
    report = _report()
    report["serving"]["summary"]["tpot_ns"] = _tail(math.nan)
    diff = diff_reports(report, copy.deepcopy(report))
    assert diff["moved"] is False
    assert diff["summary"]["tpot_p95_ns"]["delta"] == 0.0


def test_diff_attributes_movement_to_fault_category_and_windows():
    base = _report()
    other = copy.deepcopy(base)
    other["spec"]["faults"].update(enabled=True, intensity=1.0)
    other["serving"]["summary"]["makespan_ns"] = 300_000.0
    other["serving"]["summary"]["ttft_ns"] = _tail(8e6)
    other["serving"]["phases"]["categories_ns"]["fault"] = 4e6
    other["serving"]["windows"][1]["retries"] = 12.0
    other["serving"]["windows"][1]["faults"] = ["link_down gpu0->sw0"]
    diff = diff_reports(base, other)
    assert diff["moved"] is True
    assert diff["summary"]["ttft_p95_ns"]["delta"] == pytest.approx(6e6)
    assert diff["phases"]["categories_ns"]["fault"]["delta"] \
        == pytest.approx(4e6)
    assert len(diff["windows"]) == 1
    row = diff["windows"][0]
    assert row["index"] == 1
    assert row["retries_delta"] == 12.0
    assert row["faults_base"] == []
    assert row["faults_other"] == ["link_down gpu0->sw0"]
    text = format_diff(diff)
    assert "largest category movement: fault (+4.00 ms)" in text
    assert "Window movement" in text


def test_diff_windows_union_handles_extra_windows():
    base = _report()
    other = copy.deepcopy(base)
    other["serving"]["windows"].append(
        _window(2, tokens=7.0, completions=1.0))
    diff = diff_reports(base, other)
    assert [w["index"] for w in diff["windows"]] == [2]
    assert diff["windows"][0]["tokens_delta"] == 7.0


def test_diff_validates_inputs():
    with pytest.raises(ValueError, match="kind"):
        diff_reports(_report(kind="nope"), _report())


def _rewindowed(report, factor):
    """``report`` re-bucketed at ``factor`` times its window width."""
    other = copy.deepcopy(report)
    other["serving"]["window_ns"] *= factor
    for w in other["serving"]["windows"]:
        w["start_ns"] *= factor
        w["end_ns"] *= factor
    return other


def test_diff_rejects_different_window_widths():
    base = _report()
    with pytest.raises(ValueError,
                       match=r"window_ns=100000\.0.*window_ns=200000\.0"):
        diff_reports(base, _rewindowed(base, 2.0))


def test_diff_names_both_sides_by_spec_and_fingerprint():
    base = _report()
    other = _report(fingerprint="b" * 64)
    diff = diff_reports(base, other)
    assert diff["base"] == {"fingerprint": "a" * 64, "spec": base["spec"]}
    assert diff["other"]["fingerprint"] == "b" * 64
    assert format_diff(diff).startswith(
        "### repro report diff — base: CAIS llama2-70b (seed 2026) | ")


def test_diff_to_json_is_byte_stable():
    base, other = _report(), _report()
    assert canonical_json(diff_reports(base, other)) \
        == canonical_json(diff_reports(base, other))


# ---------------------------------------------------------------------------
# --fail-on-movement (the CI diff gate)
# ---------------------------------------------------------------------------

def _write_report(tmp_path, name, report):
    import json
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_movement_breaches_relative_threshold():
    base = _report()
    other = copy.deepcopy(base)
    other["serving"]["summary"]["tokens_per_s"] *= 1.10       # +10%
    other["serving"]["phases"]["totals_ns"]["queue"] *= 1.02  # +2%
    diff = diff_reports(base, other)
    breaches = movement_breaches(diff, threshold=0.05)
    assert len(breaches) == 1
    assert breaches[0].startswith("summary:tokens/s")
    # A looser gate tolerates both movements.
    assert movement_breaches(diff, threshold=0.25) == []


def test_movement_from_zero_base_always_breaches():
    base = _report()
    other = copy.deepcopy(base)
    other["serving"]["summary"]["evictions"] = 3
    diff = diff_reports(base, other)
    breaches = movement_breaches(diff, threshold=0.5)
    assert any("from zero" in b for b in breaches)


def test_fail_on_movement_cli_gate(tmp_path, capsys):
    base_path = _write_report(tmp_path, "base.json", _report())
    other = copy.deepcopy(_report())
    other["serving"]["summary"]["tokens_per_s"] *= 1.001  # tiny movement
    other_path = _write_report(tmp_path, "other.json", other)

    # Self-diff passes even the strictest gate.
    assert main(["diff", base_path, base_path, "--fail-on-movement"]) == 0
    # Bare flag: any movement at all fails.
    assert main(["diff", base_path, other_path, "--fail-on-movement"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # Thresholded: 0.1% movement passes a 5% gate...
    assert main(["diff", base_path, other_path,
                 "--fail-on-movement", "0.05"]) == 0
    # ...and fails a gate tighter than the movement.
    assert main(["diff", base_path, other_path,
                 "--fail-on-movement", "0.0001"]) == 1
    out = capsys.readouterr().out
    assert "tokens/s" in out and "FAIL" in out


def test_diff_cli_exits_nonzero_on_window_mismatch(tmp_path, capsys):
    base_path = _write_report(tmp_path, "base.json", _report())
    other_path = _write_report(tmp_path, "wide.json",
                               _rewindowed(_report(), 2.0))
    assert main(["diff", base_path, other_path]) == 2
    captured = capsys.readouterr()
    assert "no movement" not in captured.out
    assert "window_ns=100000.0" in captured.err
    assert "window_ns=200000.0" in captured.err


def test_fail_on_movement_rejects_bad_threshold(tmp_path):
    path = _write_report(tmp_path, "r.json", _report())
    with pytest.raises(SystemExit):
        main(["diff", path, path, "--fail-on-movement", "not-a-number"])
    with pytest.raises(SystemExit):
        main(["diff", path, path, "--fail-on-movement", "-1"])
