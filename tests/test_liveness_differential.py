"""Differential tests for the liveness stage (``repro.kernels.liveness``).

``repro.compile`` executes each TW layer's *tightened* format: the kept
rows that read a column the previous layer never writes are dropped, and
after an elementwise epilogue their constant products are folded into the
format's ``out_bias``.  The format and its epilogue run in live
coordinates: between two layers only the columns the chain can see exist.
The untightened model stays reachable as ``CompiledLayer.pruned_tw`` and
``CompiledLayer.epilogue``, so every case here runs the same random stack
twice and compares:

- ``run()`` against ``tw_gemm`` (and, in float64, ``tw_gemm_reference``)
  chained over the pruned formats with the same epilogues;
- ``serve()`` on every executor × placement against ``run()``;
- the NaN pattern of an input row holding a NaN;
- a kept ``inf`` weight in a row that reads a dead column, and a dead
  column whose ``gelu(b_j)`` is not finite: both keep their column.

Stacks are 2–4 chained layers with random widths, granularity, sparsity,
payload dtype and a per-layer epilogue; ``dropout_residual_layernorm``
only goes on square layers.  Weights and inputs are dyadic, so float64
chains without an epilogue between layers must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.gpu.device import V100
from repro.kernels.fusion import EpilogueSpec, apply_epilogue, gelu
from repro.kernels.masked import (
    DTYPE_TOLERANCES,
    activation_dtype,
    tw_gemm,
    tw_gemm_reference,
)
from repro.runtime.placement import Placement

DTYPES = ["float64", "float32", "float16", "int8"]
ROWS = 5


@dataclass(frozen=True)
class Case:
    dims: tuple[int, ...]
    epilogues: tuple[str | None, ...]
    granularity: int
    sparsity: float
    dtype: str
    seed: int

    @property
    def exact(self) -> bool:
        """Float64 with no epilogue between layers: every product is exact."""
        return self.dtype == "float64" and all(e is None for e in self.epilogues[:-1])


@st.composite
def cases(draw, dtypes=DTYPES) -> Case:
    n_layers = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.sampled_from([8, 16, 24]), min_size=n_layers + 1,
                               max_size=n_layers + 1)))
    epilogues = []
    for k, n in zip(dims, dims[1:]):
        names = [None, "bias_gelu", "bias_layernorm"]
        if k == n:
            names.append("dropout_residual_layernorm")
        epilogues.append(draw(st.sampled_from(names)))
    return Case(
        dims=dims,
        epilogues=tuple(epilogues),
        granularity=draw(st.sampled_from([2, 4, 8])),
        sparsity=draw(st.sampled_from([0.25, 0.5, 0.75])),
        dtype=draw(st.sampled_from(dtypes)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _dyadic(rng, shape) -> np.ndarray:
    return np.round(rng.standard_normal(shape) * 4) / 4


def _spec(name, n, rng) -> EpilogueSpec | None:
    if name is None:
        return None
    return EpilogueSpec(
        name,
        bias=_dyadic(rng, n),
        gamma=1.0 + np.abs(_dyadic(rng, n)),
        beta=_dyadic(rng, n),
    )


def _build(case: Case, weights=None, scores=None):
    rng = np.random.default_rng(case.seed)
    if weights is None:
        weights = [_dyadic(rng, (k, n)) for k, n in zip(case.dims, case.dims[1:])]
    specs = [_spec(e, n, rng) for e, n in zip(case.epilogues, case.dims[1:])]
    model = repro.compile(
        weights,
        sparsity=case.sparsity,
        granularity=case.granularity,
        dtype=np.dtype(case.dtype),
        epilogue=specs,
        scores=scores,
    )
    x = _dyadic(rng, (ROWS, case.dims[0]))
    return model, x


def _pruned_chain(model, x, gemm=tw_gemm) -> np.ndarray:
    """The untightened model: ``gemm`` over every layer's pruned format."""
    a = np.asarray(x).astype(activation_dtype(model.dtype))
    for l in model.layers:
        y = gemm(a, l.pruned_tw)
        a = apply_epilogue(y, l.epilogue, residual=a) if l.epilogue else y
    return a


def _assert_within_tolerance(got, want, dtype: str, n_layers: int) -> None:
    """Max-normalised :data:`DTYPE_TOLERANCES` bound, one per chained layer.

    The row is the compute dtype's: float16 and int8 compute in float32
    against the same weight values on both sides, so they take the float32
    row (tighter than their storage rounding or quantisation bound).
    """
    tol = DTYPE_TOLERANCES[activation_dtype(dtype).name]
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    bound = n_layers * (tol["atol"] + tol["rtol"] * max(1.0, np.abs(want).max()))
    err = np.abs(got - want).max()
    assert err <= bound, (dtype, err, bound)


class TestRunMatchesUntightenedChain:
    @given(cases())
    @settings(max_examples=80, deadline=None)
    def test_run_vs_pruned_formats(self, case):
        model, x = _build(case)
        got = model.run(x)
        want = _pruned_chain(model, x)
        assert got.dtype == want.dtype
        if case.exact:
            np.testing.assert_array_equal(got, want)
        else:
            _assert_within_tolerance(got, want, case.dtype, len(case.epilogues))
        if case.dtype == "float64":
            ref = _pruned_chain(model, x, tw_gemm_reference)
            # a LayerNorm's row sums round by memory order, which differs
            # between tw_gemm's transposed output and the reference's
            if case.exact and case.epilogues[-1] in (None, "bias_gelu"):
                np.testing.assert_array_equal(got, ref)
            else:
                _assert_within_tolerance(got, ref, case.dtype, len(case.epilogues))

    @given(cases())
    @settings(max_examples=40, deadline=None)
    def test_nan_input_row_keeps_the_untightened_pattern(self, case):
        model, x = _build(case)
        rng = np.random.default_rng(case.seed)
        x[rng.integers(ROWS), rng.integers(case.dims[0])] = np.nan
        np.testing.assert_array_equal(
            np.isnan(model.run(x)), np.isnan(_pruned_chain(model, x))
        )


class TestServeMatchesRun:
    @given(cases())
    @settings(max_examples=15, deadline=None)
    def test_every_executor_and_placement(self, case):
        model, x = _build(case)
        reqs = [x[:2], x[2:]]
        for executor in ("inline", "threaded"):
            for placement in (Placement((V100,)),
                              Placement((V100, V100))):
                with model.serve(executor=executor, placement=placement,
                                 max_wave_rows=3) as server:
                    for r in reqs:  # one wave each: replicas take turns
                        server.submit(r)
                    served = server.flush()
                for s, r in zip(served, reqs):
                    assert s.status == "ok", s
                    np.testing.assert_array_equal(s.output, model.run(r))


class TestNonFiniteWeights:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["float64", "float32", "float16"]))
    @settings(max_examples=25, deadline=None)
    def test_kept_inf_weight_reading_a_dead_column_is_not_dropped(self, seed, dtype):
        case = Case(dims=(16, 16, 16), epilogues=(None, None), granularity=4,
                    sparsity=0.6, dtype=dtype, seed=seed)
        model, x = _build(case)
        dead = np.ones(16, dtype=bool)
        for t in model.layers[0].pruned_tw.tiles:
            dead[t.col_indices] = False
        kept = model.layers[1].mask & dead[:, None]
        assume(kept.any())
        j, c = np.argwhere(kept)[0]
        weights = [l.dense.copy() for l in model.layers]
        weights[1][j, c] = np.inf
        # the same scores give the same masks with the inf weight in place
        scores = [np.abs(l.dense) for l in model.layers]
        inf_model, _ = _build(case, weights=weights, scores=scores)
        # the last layer keeps its full N, so its columns are the model's
        tile = next(t for t in inf_model.layers[1].tw.tiles if c in t.col_indices)
        assert np.isinf(tile.data[:, np.searchsorted(tile.col_indices, c)]).any()
        # the dead column j stays in the edge's index set, holding 0
        first = inf_model.layers[0]
        assert first.tw.shape[1] == first.pruned_tw.kept_columns + 1
        assert inf_model.layers[1].tw.shape[0] == first.tw.shape[1]
        with np.errstate(invalid="ignore"):
            got, want = inf_model.run(x), _pruned_chain(inf_model, x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got[:, c]).all()  # 0 · inf in every row


class TestEmptyLayer:
    def test_a_layer_with_no_tiles_shrinks_to_no_columns(self):
        """Nothing is live after a layer with no tiles: its ``N`` and the
        next ``K`` shrink to zero and the chain still computes zeros."""
        from repro.formats.tiled import TiledTWMatrix
        from repro.kernels.liveness import tighten_chain

        rng = np.random.default_rng(3)
        empty = TiledTWMatrix((4, 6), 2, ())
        full = TiledTWMatrix.from_masks(
            _dyadic(rng, (6, 4)), 2, np.ones(4, bool), [np.ones(6, bool)] * 2
        )
        (first, _), (second, _) = tighten_chain([empty, full], [None, None])
        assert first.shape == (4, 0) and second.shape == (0, 4)
        y = tw_gemm(tw_gemm(_dyadic(rng, (3, 4)), first), second)
        np.testing.assert_array_equal(y, np.zeros((3, 4)))


class TestNonFiniteConstant:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["float64", "float32"]),
           st.sampled_from([np.inf, np.nan]))
    @settings(max_examples=25, deadline=None)
    def test_dead_column_with_non_finite_gelu_constant_is_kept(self, seed, dtype, value):
        """A ``bias_gelu`` column no tile writes but whose constant
        ``gelu(b_j)`` is not finite keeps its place in live coordinates, so
        the rows that read it still see it."""
        case = Case(dims=(16, 16, 16), epilogues=("bias_gelu", None), granularity=4,
                    sparsity=0.6, dtype=dtype, seed=seed)
        model, x = _build(case)
        first = model.layers[0]
        dead = np.ones(16, dtype=bool)
        dead[np.concatenate([t.col_indices for t in first.pruned_tw.tiles])] = False
        read = model.layers[1].mask.any(axis=1)
        assume((dead & read).any())
        j = np.flatnonzero(dead & read)[0]
        first.epilogue.bias[j] = value  # the spec _build made; no one else holds it
        model = repro.compile(
            [l.dense for l in model.layers], sparsity=case.sparsity,
            granularity=case.granularity, dtype=np.dtype(dtype),
            epilogue=[first.epilogue, None], scores=[np.abs(l.dense) for l in model.layers],
        )
        first = model.layers[0]
        assert first.tw.shape[1] == first.pruned_tw.kept_columns + 1
        assert not np.isfinite(first.tw_epilogue.bias).all()
        np.testing.assert_array_equal(first.epilogue.bias[j], value)
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = model.run(x), _pruned_chain(model, x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        assert not np.isfinite(got).all()


class TestFoldFunctionalVsModule:
    """The ``c_fc -> gelu -> c_proj`` MLP: a plain functional forward over
    the pruned weights against the compiled module, whose ``c_proj`` folds
    the constant ``gelu(b_j)`` of every column ``c_fc`` never writes."""

    @staticmethod
    def mlp_functional(a, c_fc_weight, c_fc_bias, c_proj_weight):
        b = a @ c_fc_weight + c_fc_bias
        c = gelu(b)
        return c @ c_proj_weight

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["float64", "float32"]))
    @settings(max_examples=25, deadline=None)
    def test_mlp(self, seed, dtype):
        rng = np.random.default_rng(seed)
        n_embd = 16
        c_fc = rng.standard_normal((n_embd, 4 * n_embd))
        c_proj = rng.standard_normal((4 * n_embd, n_embd))
        c_fc_bias = rng.standard_normal(4 * n_embd)
        module = repro.compile(
            [c_fc, c_proj], sparsity=0.75, granularity=8, dtype=np.dtype(dtype),
            epilogue=[EpilogueSpec("bias_gelu", bias=c_fc_bias), None],
        )
        assert module.layers[1].tw.out_bias is not None
        a = rng.standard_normal((ROWS, n_embd))
        want = self.mlp_functional(
            a, module.layers[0].masked_dense(), c_fc_bias, module.layers[1].masked_dense()
        )
        _assert_within_tolerance(module.run(a), want, dtype, 2)
        # the scalar oracle adds the folded bias like tw_gemm does
        c_proj_in = apply_epilogue(
            tw_gemm(a, module.layers[0].tw), module.layers[0].tw_epilogue
        )
        _assert_within_tolerance(
            tw_gemm(c_proj_in, module.layers[1].tw),
            tw_gemm_reference(c_proj_in, module.layers[1].tw), dtype, 1,
        )
