"""Full-size GEMM shape tables for the latency experiments.

Accuracy experiments train the Mini* models; latency experiments price the
*paper's* full-size GEMM shapes on the simulator (model size costs nothing
there).  This module is the single source of truth for those shapes.

Shapes are ``(m, k, n, count)``: ``A(M×K) @ B(K×N)`` repeated ``count``
times per forward pass, with ``B`` the prunable weight.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "GemmShape",
    "bert_base_gemm_shapes",
    "vgg16_gemm_shapes",
    "nmt_gemm_shapes",
    "nongemm_time_fraction",
]


@dataclass(frozen=True)
class GemmShape:
    """One weight GEMM in a model's forward pass."""

    m: int
    k: int
    n: int
    count: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.count) <= 0:
            raise ValueError(f"invalid GEMM shape {self}")

    @property
    def flops(self) -> float:
        """Total multiply-add FLOPs across repetitions."""
        return 2.0 * self.m * self.k * self.n * self.count


def bert_base_gemm_shapes(batch: int = 64, seq: int = 128) -> list[GemmShape]:
    """BERT-base weight GEMMs (12 layers, hidden 768, FFN 3072).

    Six weight matrices per layer (4 attention projections + 2 FC), the
    accounting behind the paper's 72 matrices (Fig. 5).  ``M`` is the token
    count in flight — the paper's throughput-oriented inference setting.
    """
    if batch <= 0 or seq <= 0:
        raise ValueError("batch and seq must be positive")
    m = batch * seq
    hidden, ffn, layers = 768, 3072, 12
    return [
        GemmShape(m, hidden, hidden, count=4 * layers, name="attn-proj"),
        GemmShape(m, hidden, ffn, count=layers, name="ffn-1"),
        GemmShape(m, ffn, hidden, count=layers, name="ffn-2"),
    ]


#: VGG-16 convolution stack: (channels_in, channels_out, spatial_out) per
#: conv layer at 224×224 input, from Simonyan & Zisserman Table 1.
_VGG16_CONVS: tuple[tuple[int, int, int], ...] = (
    (3, 64, 224), (64, 64, 224),
    (64, 128, 112), (128, 128, 112),
    (128, 256, 56), (256, 256, 56), (256, 256, 56),
    (256, 512, 28), (512, 512, 28), (512, 512, 28),
    (512, 512, 14), (512, 512, 14), (512, 512, 14),
)


def vgg16_gemm_shapes(batch: int = 8) -> list[GemmShape]:
    """VGG-16's 13 conv layers (im2col-lowered) + 3 FC layers (§VII-A).

    After im2col, conv ``l`` is a GEMM with ``M = batch·OH·OW``,
    ``K = C_in·9`` and ``N = C_out`` — the matrix the paper prunes.
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    shapes = [
        GemmShape(batch * s * s, c_in * 9, c_out, name=f"conv{i + 1}")
        for i, (c_in, c_out, s) in enumerate(_VGG16_CONVS)
    ]
    shapes += [
        GemmShape(batch, 512 * 7 * 7, 4096, name="fc1"),
        GemmShape(batch, 4096, 4096, name="fc2"),
        GemmShape(batch, 4096, 1000, name="fc3"),
    ]
    return shapes


def nmt_gemm_shapes(
    batch: int = 64, seq: int = 32, hidden: int = 512, vocab: int = 8000
) -> list[GemmShape]:
    """Attention NMT GEMMs: fused LSTM gates + attention + projection.

    Encoder/decoder gate GEMMs batch all time steps (``M = batch·seq``,
    ``N = 4·hidden``); the vocabulary projection dominates the decoder.
    """
    if min(batch, seq, hidden, vocab) <= 0:
        raise ValueError("all extents must be positive")
    m = batch * seq
    return [
        GemmShape(m, hidden, 4 * hidden, count=2, name="enc-gates"),
        GemmShape(m, hidden, 4 * hidden, count=2, name="dec-gates"),
        GemmShape(m, hidden, hidden, count=1, name="attention"),
        GemmShape(m, 2 * hidden, hidden, count=1, name="combine"),
        GemmShape(m, hidden, vocab, count=1, name="vocab-proj"),
    ]


def nongemm_time_fraction(model: str, fused: bool) -> float:
    """Non-GEMM share of end-to-end dense latency (paper §VI).

    BERT spends ~39 % in non-GEMM kernels unfused, ~29 % with the paper's
    kernel fusion; NMT is similar but lighter; VGG only ~5 % (which is why
    Fig. 15 omits it).
    """
    table = {
        "bert": (0.39, 0.29),
        "nmt": (0.30, 0.22),
        "vgg": (0.05, 0.04),
    }
    if model not in table:
        raise KeyError(f"unknown model {model!r}; expected one of {sorted(table)}")
    unfused, fused_frac = table[model]
    return fused_frac if fused else unfused
