"""The paper's three workloads, miniaturised for offline training.

- :mod:`repro.models.bert` — MiniBERT transformer encoder (classification
  and span-QA heads) — the paper's BERT-base on MNLI / SQuAD;
- :mod:`repro.models.vgg` — MiniVGG conv stack — the paper's VGG-16 on
  ImageNet;
- :mod:`repro.models.nmt` — MiniNMT LSTM encoder-decoder with attention —
  the paper's NMT on IWSLT En-Vi;
- :mod:`repro.models.registry` — *full-size* GEMM shape
  tables (BERT-base, VGG-16, NMT) for the latency experiments, where model
  size costs nothing because the simulator prices shapes, not arrays.
"""

from repro.models.bert import BertConfig, MiniBERTClassifier, MiniBERTSpan
from repro.models.vgg import MiniVGG, VGGConfig
from repro.models.nmt import MiniNMT, NMTConfig
from repro.models.registry import (
    bert_base_gemm_shapes,
    nmt_gemm_shapes,
    vgg16_gemm_shapes,
)

__all__ = [
    "BertConfig",
    "MiniBERTClassifier",
    "MiniBERTSpan",
    "VGGConfig",
    "MiniVGG",
    "NMTConfig",
    "MiniNMT",
    "bert_base_gemm_shapes",
    "vgg16_gemm_shapes",
    "nmt_gemm_shapes",
]
