"""Tests for the GPU launch schedule: cross-tile batching and stream plans."""

import numpy as np

from repro.formats.tiled import TiledTWMatrix
from repro.gpu.tw_kernel import TWShapeStats
from repro.runtime.batching import BatchGroup, batching_plan
from repro.runtime.scheduler import assign_streams, build_execution_plan


def one_group_per_tile(shape: TWShapeStats) -> list[BatchGroup]:
    """Every tile its own kernel (the "Normal GEMM" row of Fig. 7 step 3)."""
    return [
        BatchGroup(width=nt, tile_ids=(i,), max_depth=kt)
        for i, (kt, nt) in enumerate(shape.tiles)
    ]


def used_streams(assignment) -> int:
    return sum(1 for s in assignment.streams if s)


def stream_work(assignment) -> list[int]:
    return [sum(g.padded_work() for g in s) for s in assignment.streams]


class TestBatching:
    def _shape(self):
        return TWShapeStats(
            k=64, n=48, granularity=16,
            tiles=((60, 16), (40, 16), (20, 16), (30, 8)),
        )

    def test_groups_by_width(self):
        plan = batching_plan(self._shape())
        widths = [g.width for g in plan]
        assert widths == [16, 8]
        assert plan[0].n_tiles == 3

    def test_max_depth(self):
        plan = batching_plan(self._shape())
        assert plan[0].max_depth == 60

    def test_padded_work(self):
        plan = batching_plan(self._shape())
        assert plan[0].padded_work() == 60 * 16 * 3

    def test_empty_tile_list(self):
        empty = TWShapeStats(k=64, n=48, granularity=16, tiles=())
        assert batching_plan(empty) == []

    def test_single_tile_group(self):
        one = TWShapeStats(k=64, n=16, granularity=16, tiles=((40, 16),))
        plan = batching_plan(one)
        assert len(plan) == 1
        assert plan[0].tile_ids == (0,)
        assert plan[0].max_depth == 40
        assert plan[0].padded_work() == 40 * 16

    def test_degenerate_zero_width_tiles(self):
        shape = TWShapeStats(
            k=64, n=48, granularity=16, tiles=((60, 16), (0, 0), (50, 0))
        )
        plan = batching_plan(shape)
        zero = next(g for g in plan if g.width == 0)
        assert zero.n_tiles == 2
        assert zero.padded_work() == 0  # zero-width tiles carry no work

    def test_accepts_tiled_matrix_directly(self):
        rng = np.random.default_rng(0)
        col_keep = np.ones(32, dtype=bool)
        masks = [rng.random(16) < 0.5 for _ in range(4)]
        tw = TiledTWMatrix.from_masks(
            rng.standard_normal((16, 32)), 8, col_keep, masks
        )
        from_matrix = batching_plan(tw)
        from_stats = batching_plan(TWShapeStats.from_matrix(tw))
        assert from_matrix == from_stats


class TestScheduler:
    def _two_groups(self):
        return TWShapeStats(
            k=32, n=32, granularity=16, tiles=((32, 16), (8, 16))
        )

    def test_round_robin_balance(self):
        groups = one_group_per_tile(
            TWShapeStats(k=64, n=64, granularity=16,
                         tiles=((64, 16), (64, 16), (64, 16), (64, 16))),
        )
        assignment = assign_streams(groups)
        assert used_streams(assignment) == 4
        assert len(set(stream_work(assignment))) == 1

    def test_heavy_first(self):
        groups = one_group_per_tile(self._two_groups())
        assignment = assign_streams(groups)
        assert max(stream_work(assignment)) == 32 * 16

    def test_empty_group_list(self):
        assignment = assign_streams([])
        assert used_streams(assignment) == 0
        assert assignment.execution_order() == []

    def test_degenerate_widths_carry_no_stream_work(self):
        # zero-width groups are still scheduled, but add no work to a stream
        shape = TWShapeStats(
            k=64, n=48, granularity=16, tiles=((60, 16), (0, 0), (0, 0))
        )
        assignment = assign_streams(batching_plan(shape))
        work = stream_work(assignment)
        assert sum(work) == 60 * 16
        assert sum(1 for w in work if w) == 1
        assert sorted(
            i for g in assignment.execution_order() for i in g.tile_ids
        ) == [0, 1, 2]

    def test_execution_order_covers_all_groups_round_robin(self):
        shape = TWShapeStats(
            k=64, n=96, granularity=16,
            tiles=((64, 16), (32, 16), (16, 8), (8, 8), (4, 4), (2, 4)),
        )
        groups = one_group_per_tile(shape)
        assignment = assign_streams(groups)
        order = assignment.execution_order()
        assert sorted(g.tile_ids for g in order) == sorted(g.tile_ids for g in groups)
        # breadth-first: the first entries are each used stream's head, then
        # each stream's second group, and so on
        depth = max(len(s) for s in assignment.streams)
        assert order == [
            s[d] for d in range(depth) for s in assignment.streams if d < len(s)
        ]

    def test_build_execution_plan_bundles_groups_and_streams(self):
        shape = self._two_groups()
        plan = build_execution_plan(shape)
        assert list(plan.groups) == batching_plan(shape)
        assert sorted(g.tile_ids for g in plan.execution_order()) == sorted(
            g.tile_ids for g in plan.groups
        )
