"""Tests for synthetic datasets, metrics, trainer and the pruning adapter."""

import numpy as np
import pytest

from repro.nn.datasets import (
    ImagePatternDataset,
    SentencePairDataset,
    Seq2SeqDataset,
    SpanQADataset,
    batches,
)
from repro.nn.layers import Linear, Sequential
from repro.nn.loss import cross_entropy
from repro.nn.metrics import accuracy, corpus_bleu, span_f1
from repro.nn.optimizer import Adam
from repro.nn.tensor import Tensor
from repro.nn.trainer import TrainConfig, TrainedModelAdapter, Trainer


class TestDatasets:
    def test_sentence_pair_reproducible(self):
        ds = SentencePairDataset(seed=0)
        a = ds.sample(16, seed=1)
        b = ds.sample(16, seed=1)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_sentence_pair_labels_balanced(self):
        ds = SentencePairDataset(seed=0)
        split = ds.sample(600, seed=2)
        counts = np.bincount(split.y, minlength=3)
        assert counts.min() > 120

    def test_sentence_pair_structure(self):
        ds = SentencePairDataset(vocab_size=64, seq_len=20, seed=0)
        split = ds.sample(8, seed=0)
        assert split.x.shape == (8, 22)
        assert (split.x[:, 0] == ds.cls_id).all()
        assert (split.x[:, 11] == ds.sep_id).all()

    def test_sentence_pair_validation(self):
        with pytest.raises(ValueError):
            SentencePairDataset(vocab_size=4)
        with pytest.raises(ValueError):
            SentencePairDataset(n_topics=2)

    def test_span_qa_labels_point_at_markers(self):
        ds = SpanQADataset(seed=0)
        split = ds.sample(32, seed=1)
        for i in range(32):
            kind = split.x[i, 0] - ds.question_base
            marker = ds.marker_ids[kind]
            assert split.x[i, split.extra["start"][i]] == marker
            assert split.extra["end"][i] - split.extra["start"][i] == ds.span_len - 1

    def test_span_qa_validation(self):
        with pytest.raises(ValueError):
            SpanQADataset(seq_len=8, n_marker_kinds=4, span_len=3)

    def test_image_dataset_shapes(self):
        ds = ImagePatternDataset(n_classes=4, seed=0)
        split = ds.sample(10, seed=0)
        assert split.x.shape == (10, 3, 16, 16)
        assert split.y.max() < 4

    def test_image_dataset_classes_distinguishable(self):
        """Nearest-template classification must beat chance by a wide margin
        (otherwise the task would be unlearnable)."""
        ds = ImagePatternDataset(n_classes=4, seed=0)
        split = ds.sample(200, seed=1)
        flat_templates = ds._templates.reshape(4, -1)
        preds = np.array([
            np.argmax(flat_templates @ x.ravel()) for x in split.x
        ])
        assert accuracy(preds, split.y) > 0.6

    def test_seq2seq_structure(self):
        ds = Seq2SeqDataset(seed=0)
        split = ds.sample(16, seed=0)
        for i in range(16):
            src = split.x[i][split.x[i] != ds.pad_id]
            tgt = split.y[i][(split.y[i] != ds.pad_id)]
            assert tgt[0] == ds.bos_id and tgt[-1] == ds.eos_id
            content = tgt[1:-1]
            np.testing.assert_array_equal(content, ds._mapping[src[::-1]])

    def test_batches_cover_everything(self):
        seen = np.concatenate(list(batches(10, 3)))
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_batches_shuffled(self):
        rng = np.random.default_rng(0)
        order = np.concatenate(list(batches(100, 10, rng)))
        assert not np.array_equal(order, np.arange(100))

    def test_batches_validation(self):
        with pytest.raises(ValueError):
            list(batches(10, 0))


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_shape_check(self):
        with pytest.raises(ValueError):
            accuracy(np.ones(2), np.ones(3))

    def test_span_metrics_perfect(self):
        s = np.array([2, 5])
        e = np.array([4, 7])
        assert span_f1(s, e, s, e) == 1.0

    def test_span_f1_partial_overlap(self):
        # pred [2,4], true [3,5]: overlap 2, p=2/3, r=2/3 -> f1=2/3
        f1 = span_f1(np.array([2]), np.array([4]), np.array([3]), np.array([5]))
        assert f1 == pytest.approx(2 / 3)

    def test_span_f1_no_overlap(self):
        assert span_f1(np.array([0]), np.array([1]), np.array([5]), np.array([6])) == 0.0

    def test_bleu_identity(self):
        ref = [3, 4, 5, 6, 7, 8]
        assert corpus_bleu([ref], [ref]) == pytest.approx(100.0)

    def test_bleu_disjoint_zero(self):
        assert corpus_bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0

    def test_bleu_brevity_penalty(self):
        ref = [3, 4, 5, 6, 7, 8, 9, 10]
        short = ref[:4]
        trunc = corpus_bleu([short], [ref])
        full = corpus_bleu([ref], [ref])
        assert trunc < full

    def test_corpus_bleu_monotone_in_quality(self):
        rng = np.random.default_rng(0)
        refs = [list(rng.integers(3, 50, size=10)) for _ in range(20)]
        perfect = corpus_bleu(refs, refs)
        noisy = corpus_bleu(
            [r[:5] + list(rng.integers(3, 50, size=5)) for r in refs], refs
        )
        assert perfect > noisy > 0.0

    def test_corpus_bleu_validation(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [])
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1]], max_n=0)


def _make_mlp_and_data():
    """Tiny 2-class problem: sign of a linear projection of the input."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 8))
    w_true = rng.standard_normal(8)
    y = (x @ w_true > 0).astype(np.int64)
    from repro.nn.datasets import ClassificationSplit

    split = ClassificationSplit(x=x, y=y)
    model = Sequential(
        Linear(8, 16, rng=np.random.default_rng(1)),
        Linear(16, 2, rng=np.random.default_rng(2)),
    )

    def loss_fn(s, idx):
        logits = model(Tensor(s.x[idx]))
        return cross_entropy(logits, s.y[idx])

    return model, split, loss_fn


class TestTrainer:
    def test_loss_decreases(self):
        model, split, loss_fn = _make_mlp_and_data()
        opt = Adam(list(model.parameters()), lr=1e-2)
        trainer = Trainer(loss_fn, opt)
        losses = trainer.train(split, TrainConfig(epochs=5, batch_size=32))
        assert losses[-1] < losses[0] * 0.5

    def test_model_learns_task(self):
        model, split, loss_fn = _make_mlp_and_data()
        opt = Adam(list(model.parameters()), lr=1e-2)
        Trainer(loss_fn, opt).train(split, TrainConfig(epochs=10, batch_size=32))
        preds = model(Tensor(split.x)).data.argmax(axis=1)
        assert accuracy(preds, split.y) > 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestTrainedModelAdapter:
    def _adapter(self):
        model, split, loss_fn = _make_mlp_and_data()
        opt = Adam(list(model.parameters()), lr=1e-2)
        Trainer(loss_fn, opt).train(split, TrainConfig(epochs=5, batch_size=32))
        prunable = [model.steps[0].weight, model.steps[1].weight]
        adapter = TrainedModelAdapter(
            prunable, loss_fn, split, TrainConfig(epochs=1, batch_size=32)
        )
        return model, split, adapter

    def test_satisfies_protocol(self):
        from repro.core.pruner import PrunableModel

        _, _, adapter = self._adapter()
        assert isinstance(adapter, PrunableModel)

    def test_weight_matrices_are_live_views(self):
        model, _, adapter = self._adapter()
        ws = adapter.weight_matrices()
        assert ws[0] is model.steps[0].weight.data

    def test_gradient_matrices_nonzero(self):
        _, _, adapter = self._adapter()
        grads = adapter.gradient_matrices()
        assert len(grads) == 2
        assert all(np.abs(g).sum() > 0 for g in grads)

    def test_apply_masks_zeroes_and_freezes(self):
        model, split, adapter = self._adapter()
        masks = [np.ones((8, 16), dtype=bool), np.ones((16, 2), dtype=bool)]
        masks[0][:, :8] = False
        adapter.apply_masks(masks)
        assert np.all(model.steps[0].weight.data[:, :8] == 0.0)
        adapter.fine_tune()
        assert np.all(model.steps[0].weight.data[:, :8] == 0.0)  # stays pruned
        assert adapter.overall_sparsity == pytest.approx(
            (8 * 8) / (8 * 16 + 16 * 2)
        )

    def test_full_pruner_integration(self):
        """End-to-end: train → TW-prune with fine-tuning → accuracy holds."""
        from repro.core import GradualSchedule, ImportanceConfig, TWPruneConfig, TWPruner

        model, split, adapter = self._adapter()
        pruner = TWPruner(
            TWPruneConfig(granularity=4),
            GradualSchedule(target=0.5, n_stages=2),
            ImportanceConfig(method="taylor"),
        )
        result = pruner.prune(adapter)
        assert result.achieved_sparsity == pytest.approx(0.5, abs=0.05)
        preds = model(Tensor(split.x)).data.argmax(axis=1)
        assert accuracy(preds, split.y) > 0.8  # fine-tuning recovered accuracy

    def test_validation(self):
        _, split, _ = self._adapter()
        with pytest.raises(ValueError):
            TrainedModelAdapter([], lambda s, i: None, split)
        _, _, adapter = self._adapter()
        with pytest.raises(ValueError):
            adapter.apply_masks([np.ones((8, 16), dtype=bool)])
