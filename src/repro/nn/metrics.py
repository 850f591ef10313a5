"""Evaluation metrics: accuracy, span F1, corpus BLEU.

BLEU follows Papineni et al. (the paper's NMT metric, §VII-A): modified
n-gram precision up to 4-grams, geometric mean, brevity penalty, with +1
smoothing on higher-order counts so short toy sequences score sensibly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

__all__ = ["accuracy", "span_f1", "corpus_bleu"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches between integer arrays."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())


def span_f1(
    pred_start: np.ndarray, pred_end: np.ndarray,
    true_start: np.ndarray, true_end: np.ndarray,
) -> float:
    """Mean token-overlap F1 between predicted and gold spans (SQuAD F1)."""
    ps, pe = np.asarray(pred_start), np.asarray(pred_end)
    ts, te = np.asarray(true_start), np.asarray(true_end)
    if not (ps.shape == pe.shape == ts.shape == te.shape):
        raise ValueError("span arrays must share a shape")
    scores = []
    for a0, a1, b0, b1 in zip(ps, pe, ts, te):
        lo, hi = max(a0, b0), min(a1, b1)
        overlap = max(0, hi - lo + 1)
        pred_len = max(1, a1 - a0 + 1)
        true_len = max(1, b1 - b0 + 1)
        if overlap == 0:
            scores.append(0.0)
            continue
        p = overlap / pred_len
        r = overlap / true_len
        scores.append(2 * p * r / (p + r))
    return float(np.mean(scores)) if scores else 0.0


def _ngrams(tokens: Sequence[int], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(
    candidates: Sequence[Sequence[int]],
    references: Sequence[Sequence[int]],
    max_n: int = 4,
) -> float:
    """Corpus BLEU (0–100): pooled n-gram counts + brevity penalty."""
    if len(candidates) != len(references):
        raise ValueError("candidate/reference counts differ")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if not candidates:
        return 0.0
    matched = np.zeros(max_n)
    total = np.zeros(max_n)
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cg = _ngrams(cand, n)
            rg = _ngrams(ref, n)
            total[n - 1] += max(len(cand) - n + 1, 0)
            matched[n - 1] += sum(min(c, rg[g]) for g, c in cg.items())
    precisions = []
    for n in range(max_n):
        if n == 0:
            if total[0] == 0 or matched[0] == 0:
                return 0.0
            precisions.append(matched[0] / total[0])
        else:  # +1 smoothing keeps short sequences meaningful
            precisions.append((matched[n] + 1.0) / (total[n] + 1.0))
    log_p = np.mean(np.log(precisions))
    bp = 1.0 if cand_len >= ref_len else float(np.exp(1.0 - ref_len / max(cand_len, 1)))
    return float(100.0 * bp * np.exp(log_p))
