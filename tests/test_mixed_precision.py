"""Mixed-precision pipeline + fused epilogues (ISSUE 9).

The dtype matrix: every storage dtype ``{float64, float32, float16,
int8}`` through every execution surface ``{compile→run, serve,
serve-async (ingress)}`` must agree with the float64
oracle within the documented per-dtype tolerance
(:data:`repro.kernels.masked.DTYPE_TOLERANCES`; int8 within its
quantisation-error bound).  Fused epilogues must be bit-identical to
their unfused ``*_reference`` compositions in float64 on every surface.

pytest-asyncio is not a dependency; async bodies run under
``asyncio.run`` inside plain sync tests.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.kernels import tw_gemm
from repro.kernels.fusion import (
    EPILOGUES,
    EpilogueSpec,
    apply_epilogue,
    layernorm,
    resolve_epilogue_spec,
)
from repro.kernels.masked import DTYPE_TOLERANCES, activation_dtype, gemm_dtypes
from repro.runtime.server import ServerConfig

DTYPES = ["float64", "float32", "float16", "int8"]

#: end-to-end (3 chained layers) error bound vs the float64 oracle, as
#: max|got-want| / max|want| — the per-GEMM DTYPE_TOLERANCES table does
#: not apply per element across a chain, where rounding compounds through
#: the weight norms; int8's bound is its quantisation error
_VS_F64_MAXREL = {
    "float64": 0.0,
    "float32": 1e-4,
    "float16": 5e-3,
    "int8": 5e-2,
}


def _stack(seed=0):
    rng = np.random.default_rng(seed)
    ws = [
        rng.standard_normal((48, 64)),
        rng.standard_normal((64, 48)),
        rng.standard_normal((48, 64)),
    ]
    x = rng.standard_normal((8, 48))
    return ws, x


def _compile(ws, dtype=None, epilogue=None, placement=None):
    return repro.compile(
        ws,
        sparsity=0.5,
        granularity=8,
        dtype=None if dtype is None else np.dtype(dtype),
        epilogue=epilogue,
        placement=placement,
    )


def _serve_once(model, x, **kwargs):
    server = model.serve(**kwargs)
    try:
        server.submit(x)
        (res,) = server.flush()
        assert res.status == "ok", res
        return res.output
    finally:
        server.close()


def _serve_async(model, x):
    from repro.runtime.ingress import ServingLoop

    server = model.serve()
    try:

        async def go():
            async with ServingLoop(server) as loop:
                return await loop.submit(x)

        res = asyncio.run(go())
        assert res.status == "ok", res
        return res.output
    finally:
        server.close()


class TestDtypeMatrix:
    """Every dtype × every execution surface vs the float64 oracle."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_run_vs_float64_oracle(self, dtype):
        ws, x = _stack()
        want = _compile(ws).run(x)
        got = _compile(ws, dtype=dtype).run(x).astype(np.float64)
        err = np.abs(got - want).max() / np.abs(want).max()
        assert err <= _VS_F64_MAXREL[dtype], (dtype, err)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_serve_bit_identical_to_run(self, dtype):
        ws, x = _stack()
        model = _compile(ws, dtype=dtype)
        np.testing.assert_array_equal(_serve_once(model, x), model.run(x))

    @pytest.mark.parametrize("placement", ["single", "replicated", "replicated_x3"])
    @pytest.mark.parametrize("executor", ["inline", "threaded"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_serve_bit_identical_to_run_on_every_placement(
        self, dtype, executor, placement
    ):
        from repro.gpu.device import T4, V100
        from repro.runtime.placement import Placement

        kind, _, n = placement.partition("_x")
        devices = (V100,) if kind == "single" else (V100, T4, V100)[: int(n or 2)]
        ws, x = _stack()
        model = _compile(ws, dtype=dtype, placement=Placement(kind, devices))
        reqs = [x[i : i + 2] for i in range(0, len(x), 2)]
        with model.serve(executor=executor, max_wave_rows=2) as server:
            for r in reqs:  # one wave each: replicas take turns, x3 wraps round
                server.submit(r)
            served = server.flush()
        for s, r in zip(served, reqs):
            assert s.status == "ok", s
            np.testing.assert_array_equal(s.output, model.run(r))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_serve_async_bit_identical_to_run(self, dtype):
        ws, x = _stack()
        model = _compile(ws, dtype=dtype)
        np.testing.assert_array_equal(_serve_async(model, x), model.run(x))

    def test_int8_serve_splits_storage_from_activation_dtype(self):
        # int8 tiles are served as stored, with float32 activations and
        # float32 outputs (weights-only quantisation)
        ws, x = _stack()
        model = _compile(ws, dtype="int8")
        assert all(l.tw.dtype == np.int8 for l in model.layers)
        out = _serve_once(model, x)
        assert out.dtype == np.float32

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_served_output_dtype_matches_run(self, dtype):
        ws, x = _stack()
        model = _compile(ws, dtype=dtype)
        want = activation_dtype(model.layers[-1].tw.dtype)
        assert model.run(x).dtype == want
        assert _serve_once(model, x).dtype == want

    def test_run_casts_activations_once_at_entry(self):
        # run() and serve() share numerics: a float64 request against a
        # float16 model computes in float16, not promoted float64
        ws, x = _stack()
        model = _compile(ws, dtype="float16")
        assert model.run(x).dtype == np.float16
        assert _compile(ws, dtype="int8").run(x).dtype == np.float32


class TestFusedEpilogues:
    """Fused consumers == unfused ``*_reference`` oracles, everywhere."""

    @pytest.mark.parametrize("name", ["bias_gelu", "bias_layernorm"])
    def test_run_bit_identical_to_unfused_reference(self, name):
        ws, x = _stack()
        model = _compile(ws, epilogue=name)
        a = np.atleast_2d(x)
        for layer in model.layers:
            y = tw_gemm(a, layer.tw)
            a = apply_epilogue(y, layer.tw_epilogue, residual=a, reference=True)
        np.testing.assert_array_equal(model.run(x), a)

    def test_residual_epilogue_through_square_stack(self):
        rng = np.random.default_rng(3)
        ws = [rng.standard_normal((48, 48)) for _ in range(2)]
        x = rng.standard_normal((6, 48))
        model = _compile(ws, epilogue="dropout_residual_layernorm")
        a = np.atleast_2d(x)
        for layer in model.layers:
            y = tw_gemm(a, layer.tw)
            a = apply_epilogue(y, layer.tw_epilogue, residual=a, reference=True)
        np.testing.assert_array_equal(model.run(x), a)
        np.testing.assert_array_equal(_serve_once(model, x), model.run(x))

    def test_residual_epilogue_rejects_non_square_layers(self):
        ws, _ = _stack()
        with pytest.raises(ValueError, match="square"):
            _compile(ws, epilogue="dropout_residual_layernorm")

    @pytest.mark.parametrize("kwargs", [{}, {"executor": "threaded"}])
    def test_serve_matches_run_under_every_executor(self, kwargs):
        ws, x = _stack()
        model = _compile(ws, epilogue="bias_gelu")
        np.testing.assert_array_equal(
            _serve_once(model, x, **kwargs), model.run(x)
        )

    def test_per_layer_epilogue_sequence(self):
        ws, x = _stack()
        model = _compile(ws, epilogue=["bias_gelu", None, "bias_layernorm"])
        assert model.layers[0].epilogue.name == "bias_gelu"
        assert model.layers[1].epilogue is None
        assert model.layers[2].epilogue.name == "bias_layernorm"
        with pytest.raises(ValueError, match="entries"):
            _compile(ws, epilogue=["bias_gelu"])

    def test_registry_lists_all_epilogues(self):
        assert EPILOGUES.names() == [
            "bias_gelu", "bias_layernorm", "dropout_residual_layernorm",
        ]
        from repro.cli import _info_record

        assert _info_record()["registries"]["epilogues"] == EPILOGUES.names()


class TestSaveLoadRoundTrip:
    def test_int8_scales_are_not_neutral(self):
        # keeps the scale round-trip check below from passing trivially
        ws, _ = _stack()
        tw = _compile(ws, dtype="int8").layers[0].tw
        assert tw.quantized
        assert any(t.scale != 1.0 for t in tw.tiles)

    @pytest.mark.parametrize("dtype", ["float16", "int8"])
    def test_dtype_models_round_trip(self, dtype, tmp_path):
        ws, x = _stack()
        model = _compile(ws, dtype=dtype, epilogue="bias_gelu")
        path = model.save(tmp_path / "m.npz")
        back = repro.load(path)
        np.testing.assert_array_equal(back.run(x), model.run(x))
        for a, b in zip(model.layers, back.layers):
            assert [t.scale for t in a.tw.tiles] == [t.scale for t in b.tw.tiles]
            assert (a.epilogue is None) == (b.epilogue is None)
            if a.epilogue is not None:
                assert a.epilogue.name == b.epilogue.name
                np.testing.assert_array_equal(a.epilogue.bias, b.epilogue.bias)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_loaded_model_serves_bit_identical_to_run(self, dtype, tmp_path):
        # serving registers the loaded formats themselves
        ws, x = _stack()
        back = repro.load(_compile(ws, dtype=dtype).save(tmp_path / "m.npz"))
        with back.serve() as server:
            out = server.serve(x).output
            assert all(s.tw is l.tw for s, l in zip(server._layers, back.layers))
        np.testing.assert_array_equal(out, back.run(x))


class TestActivationDtype:
    """One rule decides the activation dtype for ``run()`` and serving."""

    @pytest.mark.parametrize(
        "storage, want",
        [
            ("float64", "float64"),
            ("float32", "float32"),
            ("float16", "float16"),
            ("int8", "float32"),
        ],
    )
    def test_rule_keeps_activations_in_gemm_output_dtype(self, storage, want):
        act = activation_dtype(storage)
        assert act == np.dtype(want)
        # a layer's output is fed to the next layer unchanged
        assert gemm_dtypes(act, np.dtype(storage))[1] == act


class TestKernelDtypePolicy:
    def test_layernorm_preserves_storage_dtype(self):
        # satellite fix: layernorm used to upcast everything to float64;
        # it must preserve the input dtype and accumulate in fp32
        rng = np.random.default_rng(5)
        for dtype in ("float32", "float16"):
            x = rng.standard_normal((4, 16)).astype(dtype)
            assert layernorm(x).dtype == np.dtype(dtype)
        assert layernorm(rng.standard_normal((4, 16))).dtype == np.float64

    def test_resolve_spec_neutral_params_and_validation(self):
        spec = resolve_epilogue_spec("bias_gelu", n=8)
        assert isinstance(spec, EpilogueSpec)
        assert spec.bias.shape == (8,) and not spec.bias.any()
        with pytest.raises(KeyError):
            resolve_epilogue_spec("not_an_epilogue", n=8)

    def test_price_dtype_axis(self):
        model = repro.compile("bert", sparsity=0.75)
        base = model.price()
        fp32 = model.price(dtype="float32")
        fp16 = model.price(dtype="float16")
        assert base.dtype == "" and fp32.dtype == "float32"
        assert fp32.engine == "cuda_core" and fp16.engine == "tensor_core"
        # the modeled device-time win the mixed_precision BENCH records
        assert fp16.end_to_end.gemm_us < fp32.end_to_end.gemm_us / 1.3
