"""Unit tests for report validation and report diffing (schema-level).

Integration coverage — building a report from a live serving run — lives
in tests/integration/test_report.py; here we pin the JSON schema contract
and the diff attribution logic on synthetic reports.
"""

import copy
import math

import pytest

from repro.__main__ import main
from repro.experiments.diff import (DIFF_KIND, diff_reports, diff_to_json,
                                    format_diff, movement_breaches)
from repro.experiments.report import (REPORT_KIND, REPORT_SCHEMA,
                                      format_report, report_to_json,
                                      validate_report)


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
    """A minimal schema-valid report (fault-free, two windows)."""
    report = {
        "schema": REPORT_SCHEMA,
        "kind": REPORT_KIND,
        "run": {"system": "CAIS", "model": "llama2-70b", "seed": 2026,
                "fault_intensity": 0.0, "workload": "serving"},
        "summary": {
            "requests": 4, "tokens": 20, "iterations": 10, "evictions": 0,
            "shed": 0, "aborts": 0,
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
            "totals_ns": {"queue": 1e6, "prefill": 2e6, "decode": 3e6},
            "categories_ns": {"compute": 3e6, "comm": 2e6, "queue": 1e6,
                              "fault": 0.0},
        },
        "worst_requests": [],
    }
    report.update(over)
    return report


# ---------------------------------------------------------------------------
# validate_report
# ---------------------------------------------------------------------------

def test_validate_accepts_wellformed_report():
    validate_report(_report())


def test_validate_rejects_wrong_kind_and_schema():
    with pytest.raises(ValueError, match="kind"):
        validate_report(_report(kind="something-else"))
    with pytest.raises(ValueError, match="schema"):
        validate_report(_report(schema=REPORT_SCHEMA + 1))
    with pytest.raises(ValueError, match="not a JSON object"):
        validate_report([])


def test_validate_rejects_missing_summary_field():
    bad = _report()
    del bad["summary"]["tokens_per_s"]
    with pytest.raises(ValueError, match="summary.tokens_per_s"):
        validate_report(bad)


def test_validate_rejects_wrong_type():
    bad = _report()
    bad["summary"]["requests"] = "four"
    with pytest.raises(ValueError, match="summary.requests"):
        validate_report(bad)


def test_validate_rejects_malformed_window_row():
    bad = _report()
    del bad["windows"][1]["retries"]
    with pytest.raises(ValueError, match=r"windows\[1\].retries"):
        validate_report(bad)


# ---------------------------------------------------------------------------
# Serialization / rendering
# ---------------------------------------------------------------------------

def test_report_to_json_is_byte_stable():
    a = report_to_json(_report())
    b = report_to_json(copy.deepcopy(_report()))
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
    report["summary"]["tpot_ns"] = _tail(math.nan)
    text = format_report(report)
    assert "| TPOT | - |" in text


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
    report["summary"]["tpot_ns"] = _tail(math.nan)
    diff = diff_reports(report, copy.deepcopy(report))
    assert diff["moved"] is False
    assert diff["summary"]["tpot_p95_ns"]["delta"] == 0.0


def test_diff_attributes_movement_to_fault_category_and_windows():
    base = _report()
    other = copy.deepcopy(base)
    other["run"]["fault_intensity"] = 1.0
    other["summary"]["makespan_ns"] = 300_000.0
    other["summary"]["ttft_ns"] = _tail(8e6)
    other["phases"]["categories_ns"]["fault"] = 4e6
    other["windows"][1]["retries"] = 12.0
    other["windows"][1]["faults"] = ["link_down gpu0->sw0"]
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
    other["windows"].append(_window(2, tokens=7.0, completions=1.0))
    diff = diff_reports(base, other)
    assert [w["index"] for w in diff["windows"]] == [2]
    assert diff["windows"][0]["tokens_delta"] == 7.0


def test_diff_validates_inputs():
    with pytest.raises(ValueError, match="kind"):
        diff_reports(_report(kind="nope"), _report())


def test_diff_to_json_is_byte_stable():
    base, other = _report(), _report()
    assert diff_to_json(diff_reports(base, other)) \
        == diff_to_json(diff_reports(base, other))


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
    other["summary"]["tokens_per_s"] *= 1.10          # +10%
    other["phases"]["totals_ns"]["queue"] *= 1.02     # +2%
    diff = diff_reports(base, other)
    breaches = movement_breaches(diff, threshold=0.05)
    assert len(breaches) == 1
    assert breaches[0].startswith("summary:tokens/s")
    # A looser gate tolerates both movements.
    assert movement_breaches(diff, threshold=0.25) == []


def test_movement_from_zero_base_always_breaches():
    base = _report()
    other = copy.deepcopy(base)
    other["summary"]["evictions"] = 3
    diff = diff_reports(base, other)
    breaches = movement_breaches(diff, threshold=0.5)
    assert any("from zero" in b for b in breaches)


def test_fail_on_movement_cli_gate(tmp_path, capsys):
    base_path = _write_report(tmp_path, "base.json", _report())
    other = copy.deepcopy(_report())
    other["summary"]["tokens_per_s"] *= 1.001          # tiny movement
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


def test_fail_on_movement_rejects_bad_threshold(tmp_path):
    path = _write_report(tmp_path, "r.json", _report())
    with pytest.raises(SystemExit):
        main(["diff", path, path, "--fail-on-movement", "not-a-number"])
    with pytest.raises(SystemExit):
        main(["diff", path, path, "--fail-on-movement", "-1"])
