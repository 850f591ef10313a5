"""Tests for the GPU launch schedule: cross-tile batching and stream plans."""

import numpy as np
import pytest

from repro.formats.tiled import TiledTWMatrix
from repro.gpu.tw_kernel import TWShapeStats
from repro.runtime import assign_streams, batching_plan, build_execution_plan


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

    def test_disabled_one_group_per_tile(self):
        plan = batching_plan(self._shape(), enabled=False)
        assert len(plan) == 4
        assert all(g.n_tiles == 1 for g in plan)

    def test_padded_work(self):
        plan = batching_plan(self._shape())
        assert plan[0].padded_work() == 60 * 16 * 3

    def test_empty_tile_list(self):
        empty = TWShapeStats(k=64, n=48, granularity=16, tiles=())
        assert batching_plan(empty) == []
        assert batching_plan(empty, enabled=False) == []

    def test_single_tile_group(self):
        one = TWShapeStats(k=64, n=16, granularity=16, tiles=((40, 16),))
        plan = batching_plan(one)
        assert len(plan) == 1
        assert plan[0].tile_ids == (0,)
        assert plan[0].max_depth == 40
        assert plan[0].padded_work() == 40 * 16

    def test_disabled_passthrough_preserves_tile_order(self):
        plan = batching_plan(self._shape(), enabled=False)
        assert [g.tile_ids for g in plan] == [(0,), (1,), (2,), (3,)]
        assert [g.max_depth for g in plan] == [60, 40, 20, 30]

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
    def test_round_robin_balance(self):
        groups = batching_plan(
            TWShapeStats(k=64, n=64, granularity=16,
                         tiles=((64, 16), (64, 16), (64, 16), (64, 16))),
            enabled=False,
        )
        assignment = assign_streams(groups)
        assert assignment.n_streams == 4
        assert assignment.imbalance() == pytest.approx(1.0)

    def test_disabled_single_stream(self):
        groups = batching_plan(self._two_groups(), enabled=False)
        assignment = assign_streams(groups, enabled=False)
        assert assignment.n_streams == 1

    def _two_groups(self):
        return TWShapeStats(
            k=32, n=32, granularity=16, tiles=((32, 16), (8, 16))
        )

    def test_heavy_first(self):
        groups = batching_plan(self._two_groups(), enabled=False)
        assignment = assign_streams(groups)
        work = assignment.stream_work()
        assert max(work) == 32 * 16

    def test_empty_group_list(self):
        assignment = assign_streams([])
        assert assignment.n_streams == 0
        assert assignment.imbalance() == pytest.approx(1.0)
        assert assignment.execution_order() == []
        assert assignment.order_streams() == []

    def test_imbalance_with_degenerate_widths(self):
        # zero-width groups carry no work; they must not poison the
        # max/mean diagnostic with zero-work streams
        shape = TWShapeStats(
            k=64, n=48, granularity=16, tiles=((60, 16), (0, 0), (0, 0))
        )
        assignment = assign_streams(batching_plan(shape))
        assert assignment.imbalance() == pytest.approx(1.0)

    def test_execution_order_covers_all_groups_round_robin(self):
        shape = TWShapeStats(
            k=64, n=96, granularity=16,
            tiles=((64, 16), (32, 16), (16, 8), (8, 8), (4, 4), (2, 4)),
        )
        groups = batching_plan(shape, enabled=False)
        assignment = assign_streams(groups)
        order = assignment.execution_order()
        assert sorted(g.tile_ids for g in order) == sorted(g.tile_ids for g in groups)
        # breadth-first: the first n_streams entries are each stream's head
        heads = [s[0] for s in assignment.streams if s]
        assert order[: len(heads)] == heads
        streams_of = assignment.order_streams()
        assert len(streams_of) == len(order)
        for pos, g in enumerate(order):
            assert g in assignment.streams[streams_of[pos]]

    def test_build_execution_plan_bundles_groups_and_streams(self):
        shape = self._two_groups()
        plan = build_execution_plan(shape)
        assert plan.n_kernels == len(batching_plan(shape))
        assert sorted(g.tile_ids for g in plan.execution_order()) == sorted(
            g.tile_ids for g in plan.groups
        )
        sequential = build_execution_plan(shape, batching=False, streams=False)
        assert sequential.assignment.n_streams == 1
        assert sequential.n_kernels == 2  # one kernel per tile
