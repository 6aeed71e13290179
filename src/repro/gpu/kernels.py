"""Kernel instances: what the executor launches onto GPUs.

A :class:`KernelInstance` describes one kernel launch replicated across the
tensor-parallel group (TP kernels are symmetric: every GPU runs the same
grid on its own shard).  The remote-access behaviour is supplied as
callables expanding a TB's concrete :class:`~repro.gpu.remote_ops.RemoteOp`
list; the symbolic form the CAIS compiler analyses lives alongside in
``compiled`` (a :class:`~repro.cais.compiler.CompiledKernel`).

Timing model per TB: ``tb_pre_ns`` of compute, then the remote phase (issue
reductions / wait for loads), then ``tb_post_ns`` of compute.  A GEMM
consuming gathered data (AG-GEMM) puts the bulk of its work in ``post``; a
GEMM producing partials for reduction (GEMM-RS) puts it in ``pre``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..cais.compiler import CompiledKernel
from ..common.errors import WorkloadError
from .remote_ops import RemoteOp

#: token identifying a dependency event, e.g. ("rs", addr) — any hashable.
Token = object
#: (gpu, block_idx) -> the TB's remote requests.  The list may be a
#: template shared by many TBs (see ``llm.tiling``): callers never mutate it.
RemoteOpsFn = Callable[[int, Tuple[int, ...]], List[RemoteOp]]
DepsFn = Callable[[int, Tuple[int, ...]], List[Token]]

_kernel_ids = itertools.count()


def block_indices(grid: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """All block indices of a grid, in row-major launch order."""
    if not grid or any(d <= 0 for d in grid):
        raise WorkloadError(f"invalid grid {grid}")
    indices: List[Tuple[int, ...]] = [()]
    for dim in grid:
        indices = [idx + (i,) for idx in indices for i in range(dim)]
    return indices


@dataclass
class KernelInstance:
    """One kernel launch (replicated on every participating GPU)."""

    name: str
    grid: Tuple[int, ...]
    tb_pre_ns: float
    tb_post_ns: float = 0.0
    remote_loads: Optional[RemoteOpsFn] = None
    remote_reduces: Optional[RemoteOpsFn] = None
    tb_deps: Optional[DepsFn] = None
    compiled: Optional[CompiledKernel] = None
    pool: str = "default"
    launch_overhead_ns: float = 0.0
    #: Merging-aware TB ordering chosen by the compiler: the sequence in
    #: which TBs are submitted to the scheduler (defaults to row-major).
    #: Interleaving data-region homes keeps the per-GPU send streams in
    #: step (a GPU whose region is local skips a send; long same-home runs
    #: would let it drift a whole region ahead).
    block_order: Optional[Sequence[Tuple[int, ...]]] = None
    #: CAIS coordination flags, set by the system configuration.
    sync_prelaunch: bool = False
    sync_preaccess: bool = False
    #: Called per (gpu, block_idx) as each TB completes.
    on_tb_complete: Optional[Callable[[int, Tuple[int, ...]], None]] = None
    #: Attribution class for critical-path analysis: "gemm" (tensor-core
    #: matmul work) or "vector" (element-wise/LayerNorm work).
    compute_class: str = "gemm"
    kernel_id: int = field(default_factory=lambda: next(_kernel_ids))

    def __post_init__(self) -> None:
        if self.tb_pre_ns < 0 or self.tb_post_ns < 0:
            raise WorkloadError(f"negative TB time in kernel {self.name}")
        block_indices(self.grid)        # validates the grid

    def num_blocks(self) -> int:
        n = 1
        for d in self.grid:
            n *= d
        return n

    def group_for(self, block_idx: Tuple[int, ...]) -> Optional[int]:
        """TB-group id for a block (None when the kernel is not grouped)."""
        if self.compiled is None:
            return None
        group = self.compiled.group_by_block.get(block_idx)
        return group.group_id if group else None


def total_tb_time_ns(kernel: KernelInstance) -> float:
    """Aggregate single-GPU compute demand of a kernel (no overlap)."""
    return kernel.num_blocks() * (kernel.tb_pre_ns + kernel.tb_post_ns)
