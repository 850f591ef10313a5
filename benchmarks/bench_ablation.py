"""Ablations of the design choices DESIGN.md calls out.

Latency side (simulator, BERT-base shapes at 75 % TW):

- batching on/off × streams on/off (Fig. 7 steps 3-4);
- transpose on/off (Fig. 7 step 2);

Accuracy side (trained MiniBERT at 75 %):

- apriori tuning on/off (Algorithm 2's contribution);
- tile reorganisation on/off (paper §IV-A pruning order);
- column/row budget split (the implicit hyper-parameter our DESIGN.md
  documents; 0.5 is the default).
"""

from repro.analysis import ExperimentRecord, format_table, save_results
from repro.core.tile_sparsity import TWPruneConfig
from repro.experiments import gemm_speedup
from repro.gpu.engine import EngineConfig, TransposePlan

SPARSITY = 0.75


def test_ablation_execution_optimizations(benchmark, results_dir):
    def sweep():
        out = {}
        for batching in (True, False):
            for streams in (True, False):
                cfg = EngineConfig(batching=batching, streams=streams)
                out[f"batching={batching},streams={streams}"] = gemm_speedup(
                    "bert", "tw", SPARSITY, config=cfg
                )
        out["transpose=False"] = gemm_speedup(
            "bert", "tw", SPARSITY,
            config=EngineConfig(transpose=TransposePlan("none")),
        )
        return out

    series = benchmark(sweep)
    print("\nAblation: execution optimisations (TW at 75%, BERT shapes)")
    print(format_table(["config", "speedup"], [[k, v] for k, v in series.items()]))

    full = series["batching=True,streams=True"]
    naive = series["batching=False,streams=False"]
    assert full >= naive, "the optimised configuration must not lose"
    assert series["transpose=False"] < full, "untransposed must be slower"

    save_results(
        ExperimentRecord(
            experiment="ablation_execution",
            description="Batching/streams/transpose ablation at 75% TW",
            series=series,
            paper_anchors={"Fig.7 optimisations all contribute": True},
        ),
        results_dir,
    )


def test_ablation_pruning_algorithm(benchmark, accuracy_cache, results_dir):
    def sweep():
        out = {
            "default (apriori, reorg, split=0.5)": accuracy_cache.point(
                "mnli", "tw", SPARSITY, granularity=8
            ),
            "no apriori": accuracy_cache.point(
                "mnli", "tw", SPARSITY, granularity=8, apriori=False
            ),
            "no reorganisation": accuracy_cache.point(
                "mnli", "tw", SPARSITY, granularity=8,
                prune_config=TWPruneConfig(granularity=8, reorganize=False),
            ),
            "columns only (split=1.0)": accuracy_cache.point(
                "mnli", "tw", SPARSITY, granularity=8,
                prune_config=TWPruneConfig(granularity=8, col_row_split=1.0),
            ),
            "rows only (split=0.0)": accuracy_cache.point(
                "mnli", "tw", SPARSITY, granularity=8,
                prune_config=TWPruneConfig(granularity=8, col_row_split=0.0),
            ),
        }
        return out

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = accuracy_cache.baseline("mnli")
    rows = [[k, v, baseline - v] for k, v in series.items()]
    print(f"\nAblation: pruning algorithm choices at {SPARSITY:.0%} "
          f"(dense {baseline:.3f})")
    print(format_table(["config", "accuracy", "drop"], rows))

    # every variant must stay a working model (well above 1/3 chance)
    for label, acc in series.items():
        assert acc > 0.45, f"{label} collapsed"

    save_results(
        ExperimentRecord(
            experiment="ablation_pruning",
            description="Apriori / reorganisation / budget-split ablation",
            series={**series, "dense": baseline},
            paper_anchors={"apriori reduces accuracy loss": True},
        ),
        results_dir,
    )
