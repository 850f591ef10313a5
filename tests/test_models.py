"""Tests for MiniBERT / MiniVGG / MiniNMT and the shape registry."""

import numpy as np
import pytest

from repro.models import (
    BertConfig,
    MiniBERTClassifier,
    MiniBERTSpan,
    MiniNMT,
    MiniVGG,
    NMTConfig,
    VGGConfig,
    bert_base_gemm_shapes,
    nmt_gemm_shapes,
    vgg16_gemm_shapes,
)
from repro.models.registry import GemmShape, nongemm_time_fraction
from repro.nn.datasets import (
    ImagePatternDataset,
    SentencePairDataset,
    Seq2SeqDataset,
    SpanQADataset,
)
from repro.nn.optimizer import Adam
from repro.nn.trainer import TrainConfig, Trainer

SMALL_BERT = BertConfig(vocab_size=128, dim=32, n_layers=2, n_heads=4, max_len=32, seed=0)


class TestMiniBERT:
    def test_forward_shape(self):
        model = MiniBERTClassifier(SMALL_BERT, n_classes=3)
        ids = np.random.default_rng(0).integers(0, 128, size=(4, 16))
        assert model(ids).shape == (4, 3)

    def test_prunable_count_matches_paper_accounting(self):
        """6 matrices per layer — 72 for 12 layers (Fig. 5)."""
        model = MiniBERTClassifier(SMALL_BERT)
        assert len(model.prunable_weights()) == 6 * SMALL_BERT.n_layers
        cfg12 = BertConfig(dim=32, n_layers=12, n_heads=4)
        assert len(MiniBERTClassifier(cfg12).prunable_weights()) == 72

    def test_learns_sentence_pair_task(self):
        ds = SentencePairDataset(vocab_size=128, seq_len=16, seed=0)
        train = ds.sample(512, seed=1)
        test = ds.sample(256, seed=2)
        model = MiniBERTClassifier(SMALL_BERT, n_classes=3)
        opt = Adam(list(model.parameters()), lr=2e-3)
        Trainer(model.loss, opt).train(train, TrainConfig(epochs=6, batch_size=64))
        acc = model.evaluate(test)
        assert acc > 0.55  # well above the 1/3 chance level

    def test_span_model_shapes(self):
        model = MiniBERTSpan(SMALL_BERT)
        ids = np.random.default_rng(0).integers(0, 128, size=(3, 20))
        s, e = model(ids)
        assert s.shape == (3, 20) and e.shape == (3, 20)

    def test_span_model_learns(self):
        ds = SpanQADataset(vocab_size=128, seq_len=24, n_marker_kinds=3, seed=0)
        train = ds.sample(1024, seed=1)
        test = ds.sample(128, seed=2)
        cfg = BertConfig(vocab_size=128, dim=48, n_layers=2, n_heads=4, max_len=32, seed=0)
        model = MiniBERTSpan(cfg)
        opt = Adam(list(model.parameters()), lr=2e-3)
        Trainer(model.loss, opt).train(train, TrainConfig(epochs=8, batch_size=64))
        assert model.evaluate(test) > 0.7  # span F1 well above chance

    def test_sequence_too_long_raises(self):
        model = MiniBERTClassifier(SMALL_BERT)
        with pytest.raises(ValueError):
            model(np.zeros((1, 64), dtype=np.int64))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BertConfig(dim=30, n_heads=4)
        with pytest.raises(ValueError):
            MiniBERTClassifier(SMALL_BERT, n_classes=1)


class TestMiniVGG:
    def test_forward_shape(self):
        model = MiniVGG(VGGConfig(seed=0))
        x = np.random.default_rng(0).standard_normal((2, 3, 16, 16))
        assert model(x).shape == (2, 10)

    def test_learns_image_task(self):
        ds = ImagePatternDataset(n_classes=4, seed=0)
        train = ds.sample(512, seed=1)
        test = ds.sample(128, seed=2)
        model = MiniVGG(VGGConfig(n_classes=4, seed=0))
        opt = Adam(list(model.parameters()), lr=2e-3)
        Trainer(model.loss, opt).train(train, TrainConfig(epochs=4, batch_size=64))
        assert model.evaluate(test) > 0.7

    def test_prunable_weights_are_gemm_views(self):
        model = MiniVGG(VGGConfig())
        ws = model.prunable_weights()
        # 2 convs per stage × 2 stages + 2 FCs
        assert len(ws) == 6
        assert ws[0].shape == (3 * 9, 16)  # first conv, im2col-lowered

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VGGConfig(stages=())
        with pytest.raises(ValueError):
            VGGConfig(image_size=10, stages=(8, 16))


class TestMiniNMT:
    def test_forward_shape(self):
        model = MiniNMT(NMTConfig(vocab_size=32, dim=16, seed=0))
        src = np.random.default_rng(0).integers(3, 32, size=(2, 6))
        tgt_in = np.random.default_rng(1).integers(3, 32, size=(2, 5))
        assert model(src, tgt_in).shape == (2, 5, 32)

    def test_greedy_decode_terminates(self):
        model = MiniNMT(NMTConfig(vocab_size=32, dim=16, seed=0))
        src = np.random.default_rng(0).integers(3, 32, size=(3, 6))
        outs = model.greedy_decode(src, max_len=8)
        assert len(outs) == 3
        assert all(len(o) <= 8 for o in outs)

    def test_learns_toy_translation(self):
        ds = Seq2SeqDataset(vocab_size=32, max_len=8, seed=0)
        train = ds.sample(768, seed=1)
        test = ds.sample(64, seed=2)
        model = MiniNMT(NMTConfig(vocab_size=32, dim=48, seed=0))
        opt = Adam(list(model.parameters()), lr=5e-3)
        before = model.evaluate(test)
        Trainer(model.loss, opt).train(train, TrainConfig(epochs=12, batch_size=64))
        after = model.evaluate(test)
        assert after > before + 20.0  # BLEU improves substantially
        assert after > 40.0

    def test_prunable_weights(self):
        model = MiniNMT(NMTConfig(vocab_size=32, dim=16))
        ws = model.prunable_weights()
        assert len(ws) == 7  # 2+2 gates, attention, combine, out_proj


class TestRegistry:
    def test_bert_shapes_paper_dimensions(self):
        shapes = bert_base_gemm_shapes(batch=64, seq=128)
        assert sum(s.count for s in shapes) == 72  # 6 per layer × 12
        attn = next(s for s in shapes if s.name == "attn-proj")
        assert (attn.k, attn.n) == (768, 768)
        ffn1 = next(s for s in shapes if s.name == "ffn-1")
        assert (ffn1.k, ffn1.n) == (768, 3072)

    def test_vgg16_shapes(self):
        shapes = vgg16_gemm_shapes(batch=8)
        assert len(shapes) == 16  # 13 conv + 3 FC (paper §III-B)
        conv1 = shapes[0]
        assert conv1.k == 27 and conv1.n == 64
        fc1 = next(s for s in shapes if s.name == "fc1")
        assert fc1.k == 512 * 49 and fc1.n == 4096

    def test_nmt_shapes(self):
        shapes = nmt_gemm_shapes()
        gates = next(s for s in shapes if s.name == "enc-gates")
        assert gates.n == 4 * 512

    def test_gemm_shape_flops(self):
        s = GemmShape(2, 3, 4, count=5)
        assert s.flops == 2.0 * 2 * 3 * 4 * 5

    def test_gemm_shape_validation(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)

    def test_nongemm_fraction(self):
        assert nongemm_time_fraction("bert", fused=False) == pytest.approx(0.39)
        assert nongemm_time_fraction("bert", fused=True) == pytest.approx(0.29)
        assert nongemm_time_fraction("vgg", fused=False) < 0.1
        with pytest.raises(KeyError):
            nongemm_time_fraction("resnet", fused=True)
