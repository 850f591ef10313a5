"""Tests for the shared-memory weight arenas (ISSUE 7).

The lifecycle contract under test: ``place`` is idempotent/refcounted per
cache key, ``attach`` rebuilds a bit-identical read-only
:class:`TiledTWMatrix` (tiles *and* pre-seeded tile operands) from the
segment, and ``release`` unlinks deterministically at refcount zero — no
``/dev/shm`` entry survives a balanced place/release sequence.
"""

import numpy as np
import pytest

from repro.core.tile_sparsity import TWPruneConfig, tw_prune_step
from repro.formats.tiled import TiledTWMatrix
from repro.kernels.masked import tw_gemm
from repro.runtime import arena
from repro.runtime.scheduler import build_execution_plan


def _tw_and_plan(seed=0, k=24, n=24, g=8, sparsity=0.5, dtype=np.float64):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((k, n))
    step = tw_prune_step([np.abs(dense)], sparsity, TWPruneConfig(granularity=g))
    tw = TiledTWMatrix.from_masks(
        dense, g, step.col_keeps[0], step.row_masks[0], dtype=np.dtype(dtype)
    )
    return tw, build_execution_plan(tw)


@pytest.fixture(autouse=True)
def _no_leaks_across_tests():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(arena.leaked_segments())
    yield
    assert set(arena.leaked_segments()) == before


class TestPlaceRelease:
    def test_place_then_release_unlinks(self):
        tw, plan = _tw_and_plan(0)
        ref = arena.place("key-a", tw, plans=(plan,))
        assert ref.name in arena.owned_segments()
        assert ref.name in arena.leaked_segments()  # linked while owned
        assert arena.release("key-a") is True
        assert ref.name not in arena.owned_segments()
        assert ref.name not in arena.leaked_segments()

    def test_place_is_idempotent_and_refcounted(self):
        tw, plan = _tw_and_plan(1)
        first = arena.place("key-b", tw, plans=(plan,))
        second = arena.place("key-b", tw, plans=(plan,))
        assert second is first  # same segment, not a second copy
        assert arena.release("key-b") is False  # one ref still out
        assert first.name in arena.leaked_segments()
        assert arena.release("key-b") is True
        assert first.name not in arena.leaked_segments()

    def test_release_unknown_key_is_a_noop(self):
        assert arena.release("never-placed") is False

    def test_distinct_keys_get_distinct_segments(self):
        tw, plan = _tw_and_plan(2)
        ref_c = arena.place("key-c", tw, plans=(plan,))
        ref_d = arena.place("key-d", tw, plans=(plan,))
        try:
            assert ref_c.name != ref_d.name
        finally:
            arena.release("key-c")
            arena.release("key-d")

    def test_release_all_sweeps_everything(self):
        tw, plan = _tw_and_plan(3)
        arena.place("key-e", tw)
        arena.place("key-f", tw)
        arena.place("key-f", tw)  # refcount 2: release_all ignores counts
        assert arena.release_all() == 2
        assert arena.owned_segments() == []

    def test_ref_is_small_and_picklable(self):
        import pickle

        tw, plan = _tw_and_plan(4)
        ref = arena.place("key-g", tw, plans=(plan,))
        try:
            payload = pickle.dumps(ref)
            assert len(payload) < 16384  # descriptors stay small on the wire
            assert pickle.loads(payload) == ref
        finally:
            arena.release("key-g")


class TestAttach:
    def test_attach_rebuilds_bit_identical_matrix(self):
        tw, plan = _tw_and_plan(5)
        ref = arena.place("key-h", tw, plans=(plan,))
        try:
            got = arena.attach(ref)
            assert got.shape == tw.shape
            assert got.granularity == tw.granularity
            assert len(got.tiles) == len(tw.tiles)
            for mine, theirs in zip(tw.tiles, got.tiles):
                np.testing.assert_array_equal(mine.col_indices, theirs.col_indices)
                np.testing.assert_array_equal(mine.mask_k, theirs.mask_k)
                np.testing.assert_array_equal(mine.data, theirs.data)
        finally:
            arena.detach_all()
            arena.release("key-h")

    def test_attached_views_are_readonly(self):
        tw, plan = _tw_and_plan(6)
        ref = arena.place("key-i", tw, plans=(plan,))
        try:
            got = arena.attach(ref)
            with pytest.raises((ValueError, RuntimeError)):
                got.tiles[0].data[0, 0] = 1.0
        finally:
            arena.detach_all()
            arena.release("key-i")

    def test_attach_preseeds_group_operands(self):
        tw, plan = _tw_and_plan(7)
        ref = arena.place("key-j", tw, plans=(plan,))
        try:
            got = arena.attach(ref)
            memo = got.__dict__["_tile_operands"][ref.compute_dtype]
            assert len(memo) == len(ref.operands)
            # the seeded operands are the same bytes the parent computed
            parent_memo = tw.__dict__["_tile_operands"][ref.compute_dtype]
            for key, value in memo.items():
                np.testing.assert_array_equal(value[0], parent_memo[key][0])
                np.testing.assert_array_equal(value[1], parent_memo[key][1])
        finally:
            arena.detach_all()
            arena.release("key-j")

    @pytest.mark.parametrize("storage", ["float16", "int8"])
    def test_attach_preseeds_converted_operands(self, storage):
        # fp16 and int8 payloads are placed already converted to the fp32
        # compute dtype, so a worker's GEMMs never upcast or dequantise
        tw, plan = _tw_and_plan(9, dtype=storage)
        ref = arena.place("key-m", tw, plans=(plan,), dtype=np.float32)
        try:
            assert ref.compute_dtype == np.dtype(np.float32).str
            got = arena.attach(ref)
            memo = got.__dict__["_tile_operands"][ref.compute_dtype]
            assert len(memo) == len(ref.operands) > 0
            ids = {tid: id(entry) for tid, entry in memo.items()}
            a = np.random.default_rng(90).standard_normal((4, tw.shape[0])).astype(np.float32)
            np.testing.assert_array_equal(
                tw_gemm(a, got, plan=plan), tw_gemm(a, tw, plan=plan)
            )
            assert {tid: id(entry) for tid, entry in memo.items()} == ids
        finally:
            arena.detach_all()
            arena.release("key-m")

    def test_gemm_through_attached_matrix_is_bit_identical(self):
        tw, plan = _tw_and_plan(8)
        rng = np.random.default_rng(80)
        a = rng.standard_normal((5, tw.shape[0]))
        want = tw_gemm(a, tw, plan=plan)
        ref = arena.place("key-k", tw, plans=(plan,))
        try:
            got_tw = arena.attach(ref)
            got = tw_gemm(a, got_tw, plan=plan)
            np.testing.assert_array_equal(got, want)
        finally:
            arena.detach_all()
            arena.release("key-k")

    def test_attach_is_cached_per_segment(self):
        tw, plan = _tw_and_plan(9)
        ref = arena.place("key-l", tw, plans=(plan,))
        try:
            assert arena.attach(ref) is arena.attach(ref)
        finally:
            arena.detach_all()
            arena.release("key-l")

    def test_attach_after_unlink_fails_cleanly(self):
        tw, plan = _tw_and_plan(10)
        ref = arena.place("key-m", tw, plans=(plan,))
        arena.release("key-m")
        with pytest.raises(FileNotFoundError):
            arena.attach(ref)


class TestServerLifecycle:
    """The server-side arena contract visible from the outside."""

    def test_server_places_once_per_format_and_close_releases(self):
        from repro.runtime import ServerConfig, TWModelServer

        rng = np.random.default_rng(11)
        server = TWModelServer(ServerConfig(granularity=8, executor="process"))
        for _ in range(2):
            dense = rng.standard_normal((24, 24))
            step = tw_prune_step(
                [np.abs(dense)], 0.5, TWPruneConfig(granularity=8)
            )
            server.add_layer(dense, step.col_keeps[0], step.row_masks[0])
        try:
            first = server.serve(rng.standard_normal((2, 24)))
            assert first.status == "ok"
            placed = set(arena.owned_segments())
            assert len(server._arenas) == 2
            second = server.serve(rng.standard_normal((2, 24)))
            assert second.status == "ok"
            assert set(arena.owned_segments()) == placed  # no re-placement
        finally:
            server.close()
        assert not set(arena.owned_segments()) & placed
        server.close()  # idempotent

    def test_inline_server_places_nothing(self):
        from repro.runtime import ServerConfig, TWModelServer

        rng = np.random.default_rng(12)
        server = TWModelServer(ServerConfig(granularity=8))
        dense = rng.standard_normal((24, 24))
        step = tw_prune_step([np.abs(dense)], 0.5, TWPruneConfig(granularity=8))
        server.add_layer(dense, step.col_keeps[0], step.row_masks[0])
        before = arena.owned_segments()
        assert server.serve(rng.standard_normal((2, 24))).status == "ok"
        assert arena.owned_segments() == before
        server.close()
