"""Fig. 3 — motivation: sparse baselines lose to dense on real hardware.

Reproduces the sparsity + execution-time comparison for VGG and BERT:
Dense-T (tensor cores), Dense-C (CUDA cores), EW, VW (cuSparse on CUDA
cores) and BW (BlockSparse on tensor cores), each sparse pattern at a
representative accuracy-matched sparsity.

Paper shape: every sparse baseline is *slower* than its dense reference —
EW/VW slower than Dense-C, BW ~3× slower than Dense-T — despite >50 %
sparsity.
"""

from repro.analysis import ExperimentRecord, ascii_bars, format_table, save_results
from repro.experiments.latency import MODEL_SHAPES
from repro.gpu.engine import EngineConfig, InferenceEngine, LayerPlan

# accuracy-matched sparsities (each pattern pruned until ~1% drop; these are
# the levels our Fig. 12 accuracy sweeps support for the two models)
MATCHED = {"ew": 0.80, "vw": 0.75, "bw": 0.55}


def motivation_rows(model: str) -> list[list]:
    infer = InferenceEngine()
    shapes = MODEL_SHAPES[model]()
    tc = EngineConfig(engine="tensor_core")
    cu = EngineConfig(engine="cuda_core")

    def total(pattern: str, sparsity: float, cfg: EngineConfig) -> float:
        plans = [
            LayerPlan(s, pattern=pattern, sparsity=sparsity, block_size=32)
            for s in shapes
        ]
        return sum(infer.gemm_cost(p, cfg).total_us * p.shape.count for p in plans) / 1e3

    dense_t = total("dense", 0.0, tc)
    dense_c = total("dense", 0.0, cu)
    rows = [
        ["Dense-T", 0.0, dense_t],
        ["Dense-C", 0.0, dense_c],
        ["EW", MATCHED["ew"], total("ew", MATCHED["ew"], cu)],
        ["VW", MATCHED["vw"], total("vw", MATCHED["vw"], cu)],
        ["BW", MATCHED["bw"], total("bw", MATCHED["bw"], tc)],
    ]
    return rows


def test_fig03_motivation(benchmark, results_dir):
    rows_by_model = benchmark.pedantic(
        lambda: {m: motivation_rows(m) for m in ("vgg", "bert")},
        rounds=1, iterations=1,
    )
    series = {}
    for model, rows in rows_by_model.items():
        print(f"\nFig. 3 ({model.upper()}): sparsity and GEMM execution time")
        print(format_table(["config", "sparsity", "time (ms)"], rows))
        print(ascii_bars({r[0]: r[2] for r in rows}))
        series[model] = {r[0]: {"sparsity": r[1], "time_ms": r[2]} for r in rows}

        dense_t = series[model]["Dense-T"]["time_ms"]
        dense_c = series[model]["Dense-C"]["time_ms"]
        # the paper's qualitative claims:
        assert series[model]["EW"]["time_ms"] > dense_c      # EW slower than Dense-C
        assert series[model]["VW"]["time_ms"] > dense_c      # VW slower than Dense-C
        assert series[model]["BW"]["time_ms"] > dense_t      # BW slower than Dense-T
        assert dense_t < dense_c                              # tensor cores win dense

    bw_ratio = series["bert"]["BW"]["time_ms"] / series["bert"]["Dense-T"]["time_ms"]
    save_results(
        ExperimentRecord(
            experiment="fig03",
            description="Sparse baselines vs dense on V100 (motivation)",
            series=series,
            paper_anchors={
                "EW/VW slower than Dense-C": True,
                "BW ~3x slower than Dense-T": 3.0,
                "measured BW/Dense-T (bert)": bw_ratio,
            },
        ),
        results_dir,
    )
