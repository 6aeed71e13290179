"""Compare two run reports and attribute the movement (``repro diff``).

Given two report JSONs produced by :mod:`.report` (``repro report
--json``), this module computes a structured **diff**: which summary
metrics moved and by how much, which phase kinds and causality category
groups absorbed the time, and which windows the movement concentrates in
— with the fault overlay of each side attached, so a degradation caused
by an injected fault window is visibly localized to it.

The diff is a pure function of the two reports, so diffing a report
against itself yields the all-zero movement that the CI determinism gate
greps for ("no movement"), and diffing a fault-free run against a faulted
one deterministically attributes the tail growth to the ``fault``/retry
phases.
"""

from __future__ import annotations

import argparse
import json
import math
from typing import Dict, List

from ..obs.requests import GROUPS, PHASE_KINDS
from .report import REPORT_SCHEMA, load_report, validate_report
from .runner import markdown_table

DIFF_KIND = "repro-report-diff"

#: Summary scalars compared, in display order: (label, section, key-path).
_SUMMARY_METRICS = (
    ("tokens/s", "summary", ("tokens_per_s",)),
    ("makespan_ns", "summary", ("makespan_ns",)),
    ("requests", "summary", ("requests",)),
    ("evictions", "summary", ("evictions",)),
    ("shed", "summary", ("shed",)),
    ("aborts", "summary", ("aborts",)),
    ("ttft_p50_ns", "summary", ("ttft_ns", "p50")),
    ("ttft_p95_ns", "summary", ("ttft_ns", "p95")),
    ("ttft_p99_ns", "summary", ("ttft_ns", "p99")),
    ("tpot_p95_ns", "summary", ("tpot_ns", "p95")),
    ("e2e_p95_ns", "summary", ("e2e_ns", "p95")),
    ("slo_attainment", "slo", ("attainment",)),
    ("goodput_tokens_per_s", "slo", ("goodput_tokens_per_s",)),
)

#: Per-window counters whose movement is attributed window by window.
_WINDOW_KEYS = ("tokens", "completions", "evictions", "sheds",
                "aborts", "retries")


def _get(report: Dict, section: str, path) -> float:
    node = report[section]
    for key in path:
        node = node[key]
    return float(node)


def _delta(a: float, b: float) -> float:
    """b - a, with NaN treated as absent (NaN != NaN would make a
    self-diff look like movement)."""
    if math.isnan(a) and math.isnan(b):
        return 0.0
    if math.isnan(a) or math.isnan(b):
        return math.nan
    return b - a


def diff_reports(base: Dict, other: Dict) -> Dict:
    """Structured movement from ``base`` to ``other`` (validated first)."""
    validate_report(base)
    validate_report(other)

    summary: Dict[str, Dict[str, float]] = {}
    for label, section, path in _SUMMARY_METRICS:
        a = _get(base, section, path)
        b = _get(other, section, path)
        summary[label] = {"base": a, "other": b, "delta": _delta(a, b)}

    def side_totals(report, section_key):
        return report["phases"][section_key]

    phases = {}
    for section_key, keys in (("totals_ns", PHASE_KINDS),
                              ("categories_ns", GROUPS)):
        table = {}
        for key in keys:
            a = float(side_totals(base, section_key).get(key, 0.0))
            b = float(side_totals(other, section_key).get(key, 0.0))
            table[key] = {"base": a, "other": b, "delta": b - a}
        phases[section_key] = table

    base_windows = {w["index"]: w for w in base["windows"]}
    other_windows = {w["index"]: w for w in other["windows"]}
    windows: List[Dict] = []
    for i in sorted(set(base_windows) | set(other_windows)):
        wa = base_windows.get(i)
        wb = other_windows.get(i)
        row: Dict[str, object] = {
            "index": i,
            "start_ns": (wb or wa)["start_ns"],
        }
        moved = False
        for key in _WINDOW_KEYS:
            a = float(wa[key]) if wa else 0.0
            b = float(wb[key]) if wb else 0.0
            row[f"{key}_delta"] = b - a
            moved = moved or b != a
        row["faults_base"] = list(wa["faults"]) if wa else []
        row["faults_other"] = list(wb["faults"]) if wb else []
        if moved or row["faults_base"] != row["faults_other"]:
            windows.append(row)

    moved_summary = any(v["delta"] != 0.0 for v in summary.values()
                        if not math.isnan(v["delta"]))
    moved_phases = any(cell["delta"] != 0.0
                       for table in phases.values()
                       for cell in table.values())
    return {
        "schema": REPORT_SCHEMA,
        "kind": DIFF_KIND,
        "base": dict(base["run"]),
        "other": dict(other["run"]),
        "summary": summary,
        "phases": phases,
        "windows": windows,
        "moved": bool(moved_summary or moved_phases or windows),
    }


def format_diff(diff: Dict, max_window_rows: int = 15) -> str:
    """Deterministic terminal rendering; prints the grep-able
    ``no movement`` line when the reports are identical."""
    def who(run: Dict) -> str:
        bits = [str(run[k]) for k in ("system", "model") if k in run]
        if run.get("fault_intensity"):
            bits.append(f"faults x={run['fault_intensity']:g}")
        if "seed" in run:
            bits.append(f"seed {run['seed']}")
        return " ".join(bits) or "run"

    head = (f"### repro report diff — base: {who(diff['base'])} | "
            f"other: {who(diff['other'])}")
    if not diff["moved"]:
        return head + "\n\nno movement: reports are identical on all " \
                      "tracked metrics"

    blocks = [head]
    rows = []
    for label, _, _ in _SUMMARY_METRICS:
        cell = diff["summary"][label]
        if math.isnan(cell["delta"]) or cell["delta"] != 0.0:
            scale = 1e6 if label.endswith("_ns") else 1.0
            name = label[:-3] + " (ms)" if label.endswith("_ns") else label
            rows.append([name, cell["base"] / scale, cell["other"] / scale,
                         cell["delta"] / scale])
    if rows:
        blocks.append("#### Summary movement\n" +
                      markdown_table(["metric", "base", "other", "delta"],
                                     rows))

    phase_rows = []
    for section_key, title in (("totals_ns", "phase"),
                               ("categories_ns", "category")):
        for key, cell in diff["phases"][section_key].items():
            if cell["delta"] != 0.0:
                phase_rows.append([f"{title}:{key}", cell["base"] / 1e6,
                                   cell["other"] / 1e6,
                                   cell["delta"] / 1e6])
    if phase_rows:
        blocks.append("#### Phase-time movement (ms)\n" +
                      markdown_table(["where", "base", "other", "delta"],
                                     phase_rows))
        cats = diff["phases"]["categories_ns"]
        top = max(cats, key=lambda g: abs(cats[g]["delta"]))
        if cats[top]["delta"] != 0.0:
            blocks.append(f"largest category movement: {top} "
                          f"({cats[top]['delta'] / 1e6:+.2f} ms)")

    windows = diff["windows"]
    if windows:
        ranked = sorted(
            windows,
            key=lambda w: (-max(abs(w[f"{k}_delta"])
                                for k in _WINDOW_KEYS), w["index"]))
        shown = sorted(ranked[:max_window_rows], key=lambda w: w["index"])
        rows = [[int(w["index"]), f"{w['start_ns'] / 1e3:.0f}"]
                + [w[f"{k}_delta"] for k in _WINDOW_KEYS]
                + ["/".join(filter(None, [
                    "base" if w["faults_base"] else "",
                    "other" if w["faults_other"] else ""])) or "-"]
                for w in shown]
        blocks.append(
            f"#### Window movement ({len(windows)} windows moved; "
            f"top {len(shown)} by magnitude)\n" +
            markdown_table(["w", "t (us)", "tok Δ", "done Δ", "evict Δ",
                            "retry Δ", "faulted"], rows))
    return "\n\n".join(blocks)


def diff_to_json(diff: Dict) -> str:
    return json.dumps(diff, sort_keys=True, separators=(",", ":"))


def movement_breaches(diff: Dict, threshold: float) -> List[str]:
    """Summary metrics and phase totals whose *relative* movement
    exceeds ``threshold`` (e.g. 0.05 = 5%).

    A metric moving off a zero base is always a breach (there is no
    denominator to soften it); window-level rows are deliberately not
    gated — they localize movement, the aggregates above decide it.
    """
    breaches: List[str] = []

    def check(name: str, cell: Dict[str, float]) -> None:
        delta = cell["delta"]
        if math.isnan(delta) or delta == 0.0:
            return
        base = abs(cell["base"])
        rel = abs(delta) / base if base > 0.0 else math.inf
        if rel > threshold:
            shown = f"{rel:.1%}" if math.isfinite(rel) else "from zero"
            breaches.append(f"{name}: {cell['base']:g} -> "
                            f"{cell['other']:g} ({shown})")

    for label, _, _ in _SUMMARY_METRICS:
        check(f"summary:{label}", diff["summary"][label])
    for section_key, title in (("totals_ns", "phase"),
                               ("categories_ns", "category")):
        for key, cell in diff["phases"][section_key].items():
            check(f"{title}:{key}", cell)
    return breaches


def _movement_threshold(text: str):
    """``--fail-on-movement`` value: ``any``, or a relative fraction."""
    if text == "any":
        return text
    try:
        threshold = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"threshold must be a number, got {text!r}") from None
    if threshold < 0:
        raise argparse.ArgumentTypeError("threshold must be >= 0")
    return threshold


def add_parser(subparsers, shared) -> None:
    """Register ``diff`` on the ``python -m repro`` tree."""
    parser = subparsers.add_parser(
        "diff", help="attribute metric movement between two run reports",
        description="attribute metric movement between two run reports "
                    "(see `python -m repro report --json`)")
    parser.add_argument("base", help="baseline report JSON")
    parser.add_argument("other", help="comparison report JSON")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the structured diff as JSON")
    parser.add_argument("--fail-on-movement", nargs="?", const="any",
                        default=None, type=_movement_threshold,
                        metavar="THRESHOLD",
                        help="exit nonzero when metrics move: bare = any "
                             "movement at all; with a value (e.g. 0.05) = "
                             "any summary/phase metric moving more than "
                             "that relative fraction")
    parser.set_defaults(func=_command)


def _command(args) -> int:
    threshold = args.fail_on_movement
    diff = diff_reports(load_report(args.base), load_report(args.other))
    print(format_diff(diff))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(diff_to_json(diff) + "\n")
        print(f"\ndiff: {args.json}")
    if threshold == "any":
        if diff["moved"]:
            print("\nFAIL: reports differ (--fail-on-movement)")
            return 1
    elif threshold is not None:
        breaches = movement_breaches(diff, threshold)
        if breaches:
            print(f"\nFAIL: {len(breaches)} metric(s) moved beyond "
                  f"{threshold:.1%} (--fail-on-movement):")
            for b in breaches:
                print(f"  - {b}")
            return 1
    return 0
