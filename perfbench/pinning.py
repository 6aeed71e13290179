"""Re-record ``pins.json``: the outputs each run checks on pinned seeds.

For every workload and pinned seed this runs the reference event path
(every fast-path layer off) and pins its outputs: the reference path
is what the fast-path layers must reproduce to exact float equality.
It then runs the default engine, the one a benchmark run times, and
reports every pin the default engine does not reproduce.  Such a pin
fails every pass on that seed until the fast path is fixed; it is a
defect to fix in the program, not in the pins.

    python3 perfbench/run.py --pin
"""

from __future__ import annotations

import json
import sys

from repro.common import fastpath
from workloads import first_difference


def write_pins(workloads, seeds, work, path) -> int:
    """Write the pins; returns 1 if the default engine disagrees with any
    of them, else 0."""
    pins, defects = {}, []
    for name, workload in sorted(workloads.items()):
        pins[name] = {}
        for seed in seeds:
            inputs = workload.prepare(seed, work / f"pin-{name}")
            with fastpath.overridden(fastpath.DISABLED):
                reference = workload.outcome(
                    inputs, workload.run(inputs)).observed
            observed = workload.outcome(inputs,
                                        workload.run(inputs)).observed
            pins[name][str(seed)] = reference
            key = first_difference(observed, reference)
            if key is None:
                print(f"{name} seed {seed}: pinned")
            else:
                defects.append(f"{name} seed {seed}: the default engine's "
                               f"{key} differs from the reference path")
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for defect in defects:
        print(f"DEFECT {defect}; every pass on this seed will fail",
              file=sys.stderr)
    return 1 if defects else 0
