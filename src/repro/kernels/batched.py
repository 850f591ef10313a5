"""Batched GEMM over equal-width tile groups (paper Fig. 7 step 3).

TW tiles have unequal work (different ``K_i``/``N_i``), which under-utilises
a GPU if every tile launches its own kernel.  The paper batches tiles of
equal width into one kernel so they share the activation matrix ``A`` and
fill the machine.

The grouping logic lives in :func:`repro.runtime.batching.batching_plan` —
the *same* plan the cost model prices — and its execution, one gather GEMM
per tile in plan order, in :func:`repro.kernels.masked.tw_gemm`; :func:`tw_batched_gemm` is the
explicit entry point that makes the plan it runs visible to the caller.
``batched_gemm`` remains the plain 3-D contraction primitive each group
reduces to (one tensor-core kernel per width group in the real
implementation).
"""

from __future__ import annotations

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.kernels.masked import tw_gemm

__all__ = ["batched_gemm", "tw_batched_gemm"]


def batched_gemm(a_batch: np.ndarray, b_batch: np.ndarray) -> np.ndarray:
    """Plain batched GEMM: ``out[i] = a_batch[i] @ b_batch[i]``."""
    a_batch = np.asarray(a_batch)
    b_batch = np.asarray(b_batch)
    if a_batch.ndim != 3 or b_batch.ndim != 3:
        raise ValueError("batched operands must be 3-D (batch, rows, cols)")
    if a_batch.shape[0] != b_batch.shape[0]:
        raise ValueError("batch sizes disagree")
    if a_batch.shape[2] != b_batch.shape[1]:
        raise ValueError(
            f"inner dims disagree: {a_batch.shape} @ {b_batch.shape}"
        )
    return np.matmul(a_batch, b_batch)


def tw_batched_gemm(a: np.ndarray, weight: TiledTWMatrix, plan=None) -> np.ndarray:
    """Compute ``A @ W`` with one batched GEMM per equal-width tile group.

    Numerically identical to :func:`repro.kernels.masked.tw_gemm_reference`
    (bit-identical on exactly-representable data); the difference is
    execution structure: ``len(plan)`` kernel launches instead of
    ``n_tiles``.  ``plan`` defaults to
    :func:`repro.runtime.batching.batching_plan` over ``weight`` — pass an
    explicit plan (or :class:`~repro.runtime.scheduler.ExecutionPlan`) to
    pin the kernel issue order.
    """
    return tw_gemm(a, weight, plan=plan)
