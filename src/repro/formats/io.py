"""Serialization of TW formats and compiled models (npz round trips).

A pruned model is the artefact a deployment consumes; these helpers
persist a TW matrix, or a whole compiled model, to a single ``.npz``
file and restore it losslessly, so pruning (offline, expensive) and
execution (repeated) can be separated — mirroring the paper's offline
weight pre-processing ("which can be done offline before the model
inference starts", §VI).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.formats.tiled import TiledTWMatrix, TWTile

__all__ = [
    "save_tiled",
    "load_tiled",
    "save_compiled_arrays",
    "load_compiled_arrays",
]


def save_tiled(matrix: TiledTWMatrix, path: str | Path) -> Path:
    """Write a TW matrix to ``path`` (npz), one entry group per tile."""
    path = Path(path)
    np.savez_compressed(path, kind="tiled", **_tiled_payload(matrix))
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_tiled(path: str | Path) -> TiledTWMatrix:
    """Read a TW matrix written by :func:`save_tiled`."""
    with np.load(path) as f:
        _expect_kind(f, "tiled")
        return _tiled_from_payload(f)


def _tiled_payload(matrix: TiledTWMatrix, prefix: str = "") -> dict[str, np.ndarray]:
    """The npz entry set of one TW matrix, keys prefixed by ``prefix``."""
    if matrix.out_bias is not None:
        raise ValueError(
            "a format with a folded out_bias is an execution format derived "
            "at compile/load time; save the pruned format instead"
        )
    payload: dict[str, np.ndarray] = {
        f"{prefix}shape": np.array(matrix.shape, dtype=np.int64),
        f"{prefix}granularity": np.array([matrix.granularity], dtype=np.int64),
        f"{prefix}n_tiles": np.array([matrix.n_tiles], dtype=np.int64),
        f"{prefix}scales": np.array(
            [t.scale for t in matrix.tiles], dtype=np.float64
        ),
    }
    for i, t in enumerate(matrix.tiles):
        payload[f"{prefix}tile{i}_cols"] = t.col_indices
        payload[f"{prefix}tile{i}_mask_k"] = t.mask_k
        payload[f"{prefix}tile{i}_data"] = t.data
    return payload


def _tiled_from_payload(f, prefix: str = "") -> TiledTWMatrix:
    """Inverse of :func:`_tiled_payload` over an open npz file.

    ``scales`` is absent from pre-quantization artifacts; they dequantise
    trivially (every tile at the neutral scale 1.0).
    """
    n_tiles = int(f[f"{prefix}n_tiles"][0])
    scales_key = f"{prefix}scales"
    scales = (
        np.asarray(f[scales_key], dtype=np.float64)
        if scales_key in getattr(f, "files", f)
        else np.ones(n_tiles)
    )
    tiles = tuple(
        TWTile(
            col_indices=f[f"{prefix}tile{i}_cols"],
            mask_k=f[f"{prefix}tile{i}_mask_k"],
            data=f[f"{prefix}tile{i}_data"],
            scale=float(scales[i]) if i < len(scales) else 1.0,
        )
        for i in range(n_tiles)
    )
    return TiledTWMatrix(
        shape=tuple(int(v) for v in f[f"{prefix}shape"]),
        granularity=int(f[f"{prefix}granularity"][0]),
        tiles=tiles,
    )


def save_compiled_arrays(
    path: str | Path, meta: dict, layers: list[dict]
) -> Path:
    """Write a compiled multi-layer TW model to one ``.npz``.

    ``meta`` is any JSON-serialisable compilation metadata; each layer dict
    holds ``tw`` (:class:`TiledTWMatrix`), ``col_keep`` (``bool[N]``) and
    ``row_masks`` (list of ``bool[K]``), plus an optional ``epilogue``
    dict (scalars under ``name``/``p``/``seed``/``eps``, parameter vectors
    under ``bias``/``gamma``/``beta``).  This is the array-level half of
    :meth:`repro.api.CompiledTWModel.save` — kept here so serialization
    stays a formats concern and the facade stays import-light.
    """
    path = Path(path)
    payload: dict[str, np.ndarray] = {
        "meta_json": np.array(json.dumps(meta)),
        "n_layers": np.array([len(layers)], dtype=np.int64),
    }
    for i, layer in enumerate(layers):
        prefix = f"l{i}_"
        payload.update(_tiled_payload(layer["tw"], prefix))
        payload[f"{prefix}col_keep"] = np.asarray(layer["col_keep"], dtype=bool)
        masks = layer["row_masks"]
        payload[f"{prefix}n_row_masks"] = np.array([len(masks)], dtype=np.int64)
        for j, mask in enumerate(masks):
            payload[f"{prefix}row_mask{j}"] = np.asarray(mask, dtype=bool)
        epi = layer.get("epilogue")
        if epi is not None:
            scalars = {k: epi[k] for k in ("name", "p", "seed", "eps")}
            payload[f"{prefix}epilogue_json"] = np.array(json.dumps(scalars))
            for k in ("bias", "gamma", "beta"):
                if epi.get(k) is not None:
                    payload[f"{prefix}epilogue_{k}"] = np.asarray(epi[k])
    np.savez_compressed(path, kind="compiled-tw", **payload)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_compiled_arrays(path: str | Path) -> tuple[dict, list[dict]]:
    """Read a compiled model written by :func:`save_compiled_arrays`.

    Returns ``(meta, layers)`` with each layer's ``tw`` / ``col_keep`` /
    ``row_masks`` restored bit-exactly.
    """
    with np.load(path) as f:
        _expect_kind(f, "compiled-tw")
        meta = json.loads(str(f["meta_json"]))
        layers = []
        for i in range(int(f["n_layers"][0])):
            prefix = f"l{i}_"
            epilogue = None
            if f"{prefix}epilogue_json" in f.files:
                epilogue = json.loads(str(f[f"{prefix}epilogue_json"]))
                for k in ("bias", "gamma", "beta"):
                    key = f"{prefix}epilogue_{k}"
                    epilogue[k] = f[key] if key in f.files else None
            layers.append(
                {
                    "tw": _tiled_from_payload(f, prefix),
                    "col_keep": f[f"{prefix}col_keep"],
                    "row_masks": [
                        f[f"{prefix}row_mask{j}"]
                        for j in range(int(f[f"{prefix}n_row_masks"][0]))
                    ],
                    "epilogue": epilogue,
                }
            )
        return meta, layers


def _expect_kind(f, kind: str) -> None:
    stored = str(f["kind"])
    if stored != kind:
        raise ValueError(f"file holds a {stored!r} matrix, expected {kind!r}")
