"""Chrome ``trace_event`` JSON export — loadable in ``ui.perfetto.dev``.

The :class:`~.tracer.Tracer` records events against abstract *tracks*;
this module resolves tracks to (pid, tid) pairs, prepends the metadata
events that name them, and serializes the Chrome JSON object format:
https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

Determinism: pids/tids are assigned in track registration order, event
order is recording order, and serialization sorts keys — so two same-seed
runs write byte-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .ledger import canonical_json
from .tracer import Tracer

#: Phases the validator accepts (the subset the Tracer emits, plus
#: metadata).
_KNOWN_PHASES = {"X", "B", "E", "i", "I", "C", "b", "e", "n", "M", "s", "f"}


def to_chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """Resolve a Tracer's recording into a Chrome trace JSON object."""
    pids: Dict[str, int] = {}
    tids: Dict[tuple, int] = {}
    events: List[dict] = []
    for process, thread in tracer.tracks():
        if process not in pids:
            pid = len(pids) + 1
            pids[process] = pid
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": process}})
        pid = pids[process]
        key = (process, thread)
        if key not in tids:
            tid = len(tids) + 1
            tids[key] = tid
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": thread}})

    track_ids = [(pids[p], tids[(p, t)]) for p, t in tracer.tracks()]
    for ev in tracer.events():
        out = dict(ev)
        pid, tid = track_ids[out.pop("track")]
        out["pid"] = pid
        out["tid"] = tid
        if out["ph"] in ("b", "e"):
            # Async ids are namespaced per process in the Chrome format.
            out["id"] = f"0x{out['id']:x}"
        elif out["ph"] in ("s", "f"):
            # Flow ids are global; hex form keeps them distinct from the
            # async id namespace when both appear in one trace.
            out["id"] = f"0x{out['id']:x}"
        events.append(out)
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Serialize ``tracer`` to ``path`` (deterministic byte output)."""
    with open(path, "w") as fh:
        fh.write(canonical_json(to_chrome_trace(tracer)))


def validate_chrome_trace(obj: Any) -> List[str]:
    """Best-effort schema check; returns a list of problems (empty = ok).

    Used by the test suite and the CI smoke job to confirm an emitted
    trace is Perfetto-loadable without shipping the real schema.
    """
    problems: List[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, ev in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                problems.append(f"{where}: missing integer {field!r}")
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing 'name'")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad 'ts' {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs 'dur' >= 0")
        if ph in ("b", "e", "s", "f") and "id" not in ev:
            problems.append(f"{where}: {ph!r} event needs 'id'")
        if ph == "C" and "args" not in ev:
            problems.append(f"{where}: counter event needs 'args'")
    return problems


def validate_trace_file(path: str) -> List[str]:
    """Load ``path`` and run :func:`validate_chrome_trace` on it."""
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))
