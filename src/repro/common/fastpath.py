"""Global fast-path configuration for the simulation engine.

Three composable acceleration layers (see DESIGN.md §11), each of which is
*equivalence-preserving* in a precisely stated sense:

* ``link_windows`` — batched serialization on uncontended FIFO links
  (:mod:`repro.interconnect.link`).  Per-chunk timestamps are reproduced
  exactly; only event *count* and same-instant interleaving differ.
* ``analytic_collectives`` — closed-form/calibrated completion times for
  uncongested collective phases (:mod:`repro.collectives.analytic`),
  validated online against the event path on a deterministic sample of ops.
* ``analytic_kernels`` — exact arithmetic evaluation of isolated
  pure-compute kernel launches (:mod:`repro.gpu.executor`): the SM slot
  pipeline is replayed in a specialized loop drawing the *same* RNG values
  in the *same* order as the event path, so every timestamp, jitter draw,
  and busy-integral float is reproduced bit-for-bit with two heap
  operations per thread block instead of two full engine events.

The process-global config is read once per harness construction.
``--no-fastpath`` on ``python -m repro run`` and ``experiments`` (or
``REPRO_NO_FASTPATH=1``) forces the reference event path everywhere,
which is the byte-identity baseline CI compares against.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional


@dataclass(frozen=True)
class FastPathConfig:
    """Which acceleration layers are active, plus their tuning knobs."""

    #: Collapse per-chunk serialization events on uncontended FIFO links.
    link_windows: bool = True
    #: Bypass event-level simulation for validated uncongested collectives.
    analytic_collectives: bool = True
    #: Evaluate isolated pure-compute kernel launches arithmetically
    #: (bit-exact replication of the event path, including RNG draws).
    analytic_kernels: bool = True
    #: Occurrences of a collective signature simulated on the event path
    #: before the bypass may engage: the first calibrates, the remaining
    #: ``validate_occurrences - 1`` must reproduce the calibrated makespan
    #: to exact float equality or the signature is blacklisted.
    validate_occurrences: int = 2

    @property
    def any_enabled(self) -> bool:
        return (self.link_windows or self.analytic_collectives
                or self.analytic_kernels)

    def cache_token(self) -> str:
        """Stable fingerprint component for result caches.

        Every layer changes event interleaving (windows) or skips
        simulation entirely (analytic), so cached summaries must not be
        shared across layer sets.
        """
        return (f"fp:w{int(self.link_windows)}"
                f"-a{int(self.analytic_collectives)}"
                f"-k{int(self.analytic_kernels)}"
                f"-v{self.validate_occurrences}")


DISABLED = FastPathConfig(link_windows=False, analytic_collectives=False,
                          analytic_kernels=False)


def _from_env() -> FastPathConfig:
    if os.environ.get("REPRO_NO_FASTPATH", "").strip() not in ("", "0"):
        return DISABLED
    return FastPathConfig()


_config: FastPathConfig = _from_env()


def config() -> FastPathConfig:
    """The process-global fast-path configuration."""
    return _config


def set_config(cfg: FastPathConfig) -> FastPathConfig:
    """Install ``cfg`` globally; returns the previous config."""
    global _config
    previous = _config
    _config = cfg
    return previous


@contextmanager
def overridden(cfg: Optional[FastPathConfig] = None,
               **overrides) -> Iterator[FastPathConfig]:
    """Temporarily install ``cfg`` (or field overrides) — test helper."""
    new = cfg if cfg is not None else replace(_config, **overrides)
    previous = set_config(new)
    try:
        yield new
    finally:
        set_config(previous)
