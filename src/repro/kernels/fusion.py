"""Non-GEMM epilogues and their fused forms (paper §VI "Kernel Fusion").

BERT spends ~39% of its time in non-GEMM kernels (Add-bias, LayerNorm, …);
fusing consecutive epilogues removes kernel launches and global-memory round
trips, cutting that to ~29% (the paper applies the same fusion to the dense
baseline for fairness).  This module holds both halves of that claim:

- the unfused primitives (:func:`add_bias`, :func:`gelu`, :func:`layernorm`,
  :func:`dropout`) and their plain compositions, kept verbatim as the
  ``*_reference`` oracles under the vectorisation contract — one full pass
  over the activations per primitive, exactly what an unfused schedule pays;
- the :data:`EPILOGUES` registry of *fused* consumers (``bias_gelu``,
  ``bias_layernorm``, ``dropout_residual_layernorm``) that the serving
  runtime applies right after each layer's TW GEMM: one read of the GEMM
  output, in-place arithmetic on at most two scratch buffers, one write.

Dtype contract (mixed-precision pipeline): a fused epilogue *preserves the
activation storage dtype* — float16 in, float16 out — while accumulating in
float32 (float64 stays float64), mirroring a fused CUDA kernel that keeps
the running mean/variance in registers at full precision.  In float64 the
fused forms are bit-identical to their unfused reference compositions
(same operation order; in-place ufuncs round exactly like their
out-of-place forms).  In float16/float32 they can only agree with the
round-trip-per-primitive references to within storage-rounding — the fused
path rounds once at the end, the reference rounds after every pass.

:class:`EpilogueSpec` is the serializable per-layer attachment
(`CompiledLayer.epilogue`, ``WaveStep.epilogue``): the epilogue name plus
its parameter vectors.  :func:`apply_epilogue` is the single entry point
the executor and ``CompiledTWModel.run()`` both call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.registry import Registry

__all__ = [
    "add_bias",
    "gelu",
    "dropout",
    "layernorm",
    "bias_gelu",
    "bias_layernorm",
    "bias_gelu_reference",
    "bias_layernorm_reference",
    "dropout_residual_layernorm",
    "dropout_residual_layernorm_reference",
    "EPILOGUES",
    "Epilogue",
    "EpilogueSpec",
    "apply_epilogue",
    "resolve_epilogue_spec",
]

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


def _acc_dtype(dtype: np.dtype) -> np.dtype:
    """Accumulation dtype: float64 stays float64, everything else fp32."""
    return np.dtype(np.float64) if dtype == np.float64 else np.dtype(np.float32)


# --------------------------------------------------------------------- #
# unfused primitives (one pass over the activations each)
# --------------------------------------------------------------------- #
def add_bias(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Row-broadcast bias add (cuBLAS epilogue / separate Add-bias kernel)."""
    x = np.asarray(x)
    bias = np.asarray(bias)
    if bias.shape != (x.shape[-1],):
        raise ValueError(f"bias shape {bias.shape} != ({x.shape[-1]},)")
    return x + bias


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in BERT)."""
    x = np.asarray(x)
    # x*x*x, not x**3: numpy sends a float cube to libm pow, ~100x slower
    return 0.5 * x * (1.0 + np.tanh(_SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))))


def dropout(x: np.ndarray, p: float = 0.0, seed: int = 0) -> np.ndarray:
    """Inverted dropout with a deterministic seeded mask.

    The mask is a pure function of ``(seed, x.shape)`` so the fused and
    unfused paths draw identical masks.  ``p == 0`` is the inference-time
    identity and returns ``x`` unchanged.  Note the shape dependence: with
    ``p > 0`` the output of a served wave depends on how requests were
    batched together, so serving keeps ``p = 0`` unless explicitly asked.
    """
    x = np.asarray(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = np.random.default_rng(seed).random(x.shape) >= p
    scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
    return x * (keep.astype(x.dtype) * scale)


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Layer normalisation over the last axis.

    Preserves the input storage dtype (float16 in → float16 out) while
    accumulating the mean/variance in float32 (float64 inputs accumulate in
    float64) — the mixed-precision dtype contract.  Integer inputs promote
    to float64, the historical behaviour.  The row statistics are taken on
    a C-ordered array, because numpy sums a row in memory order: equal
    values in C and Fortran order then give equal bits.
    """
    x = np.asarray(x)
    if not np.issubdtype(x.dtype, np.floating):
        x = x.astype(np.float64)
    acc = _acc_dtype(x.dtype)
    xa = x.astype(acc, order="C", copy=False)
    mean = xa.mean(axis=-1, keepdims=True)
    var = xa.var(axis=-1, keepdims=True)
    out = (xa - mean) / np.sqrt(var + eps)
    if gamma is not None:
        out = out * np.asarray(gamma, dtype=acc)
    if beta is not None:
        out = out + np.asarray(beta, dtype=acc)
    return out.astype(x.dtype, copy=False)


# --------------------------------------------------------------------- #
# reference compositions — the unfused oracles (vectorisation contract:
# kept verbatim, never optimised; each primitive is one activation pass)
# --------------------------------------------------------------------- #
def bias_gelu_reference(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Unfused Add-bias → GeLU oracle (two passes, fresh temporaries)."""
    return gelu(add_bias(x, bias))


def bias_layernorm_reference(
    x: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Unfused Add-bias → LayerNorm oracle."""
    return layernorm(add_bias(x, bias), gamma, beta, eps)


def dropout_residual_layernorm_reference(
    x: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    p: float = 0.0,
    seed: int = 0,
    eps: float = 1e-5,
) -> np.ndarray:
    """Unfused Dropout → residual-add → LayerNorm oracle (three passes)."""
    return layernorm(dropout(x, p, seed) + np.asarray(residual), gamma, beta, eps)


# --------------------------------------------------------------------- #
# fused consumers — one read of the GEMM output, in-place arithmetic
# --------------------------------------------------------------------- #
#: a transposing C-ordered write larger than this is done in blocks.  A
#: smaller one fits in cache, where blocking gains nothing and pays one
#: ufunc call per block: on a 2-vCPU Xeon with 2 MiB of L2 per core the
#: whole float64 LayerNorm on a Fortran 8x768 (128x768) input took 0.08
#: (1.27) ms one-shot against 0.12 (1.37) ms blocked, while at 512x768
#: (3 MiB) the one-shot write made it 9.9 ms against 8.3 ms
_SUM_BLOCKED_BYTES = 2 << 20
#: side of one square block of that write
_SUM_BLOCK = 128


def _c_ordered_sum(x: np.ndarray, other, acc: np.dtype) -> np.ndarray:
    """``x + other`` computed in ``acc`` and written C-ordered.

    numpy sums a row in memory order, so the row statistics that follow
    need a C-ordered sum for their bits not to depend on ``x``'s layout.
    When a 2-D operand is not C-ordered (every ``tw_gemm`` output is
    Fortran-ordered) the write transposes, and past the cache a one-shot
    strided pass misses on every element, so a large sum is written in
    ``_SUM_BLOCK``-square blocks.  The elementwise sum has the same bits
    either way.
    """
    other = np.asarray(other, dtype=acc)
    transposing = x.ndim == 2 and not (
        x.flags.c_contiguous and (other.ndim < 2 or other.flags.c_contiguous)
    )
    if not transposing or x.size * acc.itemsize <= _SUM_BLOCKED_BYTES:
        return np.add(x, other, order="C", dtype=acc)
    other = np.broadcast_to(other, x.shape)
    out = np.empty(x.shape, dtype=acc)
    b = _SUM_BLOCK
    for r in range(0, x.shape[0], b):
        for c in range(0, x.shape[1], b):
            np.add(x[r:r + b, c:c + b], other[r:r + b, c:c + b],
                   out=out[r:r + b, c:c + b], dtype=acc)
    return out


def bias_gelu(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Fused Add-bias + GeLU.

    Bit-identical to :func:`bias_gelu_reference` in float64 (identical
    operation order; only temporaries differ); float16/float32 inputs
    accumulate in fp32 and round once at the end.
    """
    x = np.asarray(x)
    acc = _acc_dtype(x.dtype)
    h = x.astype(acc, copy=False) + np.asarray(bias, dtype=acc)
    t = h * h
    t *= h
    t *= 0.044715
    t += h
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    h *= 0.5
    t *= h
    return t.astype(x.dtype, copy=False)


def bias_layernorm(
    x: np.ndarray,
    bias: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Fused Add-bias + LayerNorm — the paper's flagship fusion example
    ("the previous Add-bias operation can execute with LayerNormalization
    when the data is loaded into the register file").

    The biased sum is written C-ordered (:func:`_c_ordered_sum`), so the
    row statistics (and the output bits) do not depend on the input's
    memory order.
    """
    x = np.asarray(x)
    acc = _acc_dtype(x.dtype)
    h = _c_ordered_sum(x, bias, acc)
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    h -= mean
    h /= np.sqrt(var + eps)
    if gamma is not None:
        h *= np.asarray(gamma, dtype=acc)
    if beta is not None:
        h += np.asarray(beta, dtype=acc)
    return h.astype(x.dtype, copy=False)


def dropout_residual_layernorm(
    x: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray | None = None,
    beta: np.ndarray | None = None,
    p: float = 0.0,
    seed: int = 0,
    eps: float = 1e-5,
) -> np.ndarray:
    """Fused Dropout + residual-add + LayerNorm (transformer block tail).

    The residual sum is written C-ordered, as in :func:`bias_layernorm`.
    """
    x = np.asarray(x)
    acc = _acc_dtype(x.dtype)
    if p:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        keep = np.random.default_rng(seed).random(x.shape) >= p
        scale = np.asarray(1.0 / (1.0 - p), dtype=x.dtype)
        x = x * (keep.astype(x.dtype) * scale)
    h = _c_ordered_sum(x, residual, acc)
    mean = h.mean(axis=-1, keepdims=True)
    var = h.var(axis=-1, keepdims=True)
    h -= mean
    h /= np.sqrt(var + eps)
    if gamma is not None:
        h *= np.asarray(gamma, dtype=acc)
    if beta is not None:
        h += np.asarray(beta, dtype=acc)
    return h.astype(x.dtype, copy=False)


# --------------------------------------------------------------------- #
# registry + per-layer attachment
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EpilogueSpec:
    """A serializable per-layer epilogue attachment.

    ``name`` resolves through :data:`EPILOGUES`; the parameter vectors are
    sized to the layer's output width ``N``.  Unused parameters stay
    ``None`` (e.g. ``bias_gelu`` ignores ``gamma``/``beta``).
    """

    name: str
    bias: np.ndarray | None = None
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    p: float = 0.0
    seed: int = 0
    eps: float = 1e-5


@dataclass(frozen=True)
class Epilogue:
    """A registry entry: the fused consumer and its unfused oracle.

    ``elementwise`` marks an epilogue whose every output element depends
    only on the GEMM output at the same position and the column's own
    parameters (no residual, no row statistics).  A column the GEMM never
    writes then leaves it as one constant per column, which lets
    :func:`~repro.kernels.liveness.tighten_chain` fold that column into
    the next layer, and run the epilogue only on the columns the chain
    can see, with its parameter vectors sliced to them.
    """

    name: str
    fused: Callable[..., np.ndarray]
    reference: Callable[..., np.ndarray]
    uses_residual: bool = False
    elementwise: bool = False


EPILOGUES = Registry("epilogue")


def _fused_bias_gelu(y, spec, residual):
    return bias_gelu(y, spec.bias)


def _reference_bias_gelu(y, spec, residual):
    return bias_gelu_reference(y, spec.bias)


def _fused_bias_layernorm(y, spec, residual):
    return bias_layernorm(y, spec.bias, spec.gamma, spec.beta, spec.eps)


def _reference_bias_layernorm(y, spec, residual):
    return bias_layernorm_reference(y, spec.bias, spec.gamma, spec.beta, spec.eps)


def _fused_dropout_residual_layernorm(y, spec, residual):
    return dropout_residual_layernorm(
        y, residual, spec.gamma, spec.beta, spec.p, spec.seed, spec.eps
    )


def _reference_dropout_residual_layernorm(y, spec, residual):
    return dropout_residual_layernorm_reference(
        y, residual, spec.gamma, spec.beta, spec.p, spec.seed, spec.eps
    )


_BIAS_GELU = Epilogue(
    "bias_gelu", _fused_bias_gelu, _reference_bias_gelu, elementwise=True
)
_BIAS_LAYERNORM = Epilogue(
    "bias_layernorm", _fused_bias_layernorm, _reference_bias_layernorm
)
_DROPOUT_RESIDUAL_LAYERNORM = Epilogue(
    "dropout_residual_layernorm",
    _fused_dropout_residual_layernorm,
    _reference_dropout_residual_layernorm,
    uses_residual=True,
)

EPILOGUES.register("bias_gelu", lambda: _BIAS_GELU)
EPILOGUES.register("bias_layernorm", lambda: _BIAS_LAYERNORM, aliases=("bias_ln",))
EPILOGUES.register(
    "dropout_residual_layernorm",
    lambda: _DROPOUT_RESIDUAL_LAYERNORM,
    aliases=("dropout_add_ln",),
)


def resolve_epilogue_spec(
    epilogue: "EpilogueSpec | str | None",
    n: int,
    dtype: np.dtype | type = np.float64,
) -> EpilogueSpec | None:
    """Normalise an epilogue argument into a fully-parameterised spec.

    A bare name gets neutral parameters in the layer's parameter dtype
    (zero bias, unit gamma, zero beta — float32 for sub-fp32 storage, so
    an int8/float16 model still accumulates its epilogue in fp32).
    Vectors on an explicit spec are validated against the layer width.
    """
    if epilogue is None:
        return None
    param_dtype = _acc_dtype(np.dtype(dtype) if dtype is not None else np.float64)
    if isinstance(epilogue, str):
        name = EPILOGUES.canonical(epilogue)
        ep = EPILOGUES.create(name)
        spec = EpilogueSpec(
            name=name,
            bias=np.zeros(n, dtype=param_dtype),
            gamma=np.ones(n, dtype=param_dtype),
            beta=np.zeros(n, dtype=param_dtype),
        )
        return spec if not ep.uses_residual else EpilogueSpec(
            name=name,
            gamma=np.ones(n, dtype=param_dtype),
            beta=np.zeros(n, dtype=param_dtype),
        )
    name = EPILOGUES.canonical(epilogue.name)
    for label, arr in (("bias", epilogue.bias), ("gamma", epilogue.gamma),
                       ("beta", epilogue.beta)):
        if arr is not None and np.asarray(arr).shape != (n,):
            raise ValueError(
                f"epilogue {name!r} {label} shape {np.asarray(arr).shape} != ({n},)"
            )
    if name == epilogue.name:
        return epilogue
    return EpilogueSpec(
        name=name, bias=epilogue.bias, gamma=epilogue.gamma, beta=epilogue.beta,
        p=epilogue.p, seed=epilogue.seed, eps=epilogue.eps,
    )


def apply_epilogue(
    y: np.ndarray,
    spec: EpilogueSpec,
    residual: np.ndarray | None = None,
    *,
    reference: bool = False,
) -> np.ndarray:
    """Apply a layer's epilogue to its GEMM output ``y``.

    ``residual`` is the layer *input* (the skip connection) and is required
    by residual-consuming epilogues.  ``reference=True`` routes through the
    unfused oracle composition instead of the fused consumer.
    """
    ep = EPILOGUES.create(spec.name)
    if ep.uses_residual and residual is None:
        raise ValueError(f"epilogue {spec.name!r} needs the layer input as residual")
    fn = ep.reference if reference else ep.fused
    return fn(y, spec, residual)
