"""``benchmarks/bench_hotpaths.py``'s record rules and ``check_bench.compare``.

A ``--sections`` run refreshes the named sections in place, stamps each
with the recording ``host``, ``commit`` and ``quick``, keeps every other
section byte-identical, and drops keys no longer in ``SECTIONS`` so a
retired section cannot linger in the checked-in baseline.  The bench
functions are swapped for stubs; only ``main()``'s merge is under test.
``check_bench`` compares a section only against a fresh one from the same
host, and gates production ``*_ms`` columns only.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    module = _load("bench_hotpaths", REPO / "benchmarks" / "bench_hotpaths.py")
    monkeypatch.setattr(module, "SECTIONS", {
        "alpha": lambda quick: {"fresh": True},
        "beta": lambda quick: {"fresh": True},
    })
    return module


@pytest.fixture(scope="module")
def check_bench():
    return _load("check_bench", REPO / "benchmarks" / "check_bench.py")


def _main(bench, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["bench_hotpaths.py", *argv])
    bench.main()


def _here() -> tuple[dict, str]:
    host = _load("twbench_common", REPO / "twbench" / "common.py").fingerprint()
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=REPO, capture_output=True, text=True,
    ).stdout.strip()
    return host, commit


def test_sections_merge_keeps_other_sections_and_drops_retired_keys(
    bench, monkeypatch, tmp_path
):
    out = tmp_path / "bench.json"
    beta = {"host": {"cpu_count": 64, "blas": "mkl"}, "commit": "0ld", "quick": False,
            "fresh": False}
    old = {"meta": {"note": "old"}, "alpha": {"fresh": False}, "beta": beta,
           "retired": {"fresh": False}}
    out.write_text(json.dumps(old, indent=1) + "\n")
    _main(bench, monkeypatch, "--quick", "--sections", "alpha", "--out", str(out))
    record = json.loads(out.read_text())
    assert list(record) == ["alpha", "beta"]  # no top-level meta, no retired
    beta_text = json.dumps({"beta": beta}, indent=1)[2:-2]  # as it sits in the file
    assert beta_text in json.dumps(old, indent=1) and beta_text in out.read_text()
    host, commit = _here()
    assert record["alpha"] == {"host": host, "commit": commit, "quick": True,
                               "fresh": True}


def test_full_run_stamps_every_section(bench, monkeypatch, tmp_path):
    out = tmp_path / "bench.json"
    _main(bench, monkeypatch, "--out", str(out))
    record = json.loads(out.read_text())
    host, commit = _here()
    assert list(record) == ["alpha", "beta"]
    for section in record.values():
        assert section == {"host": host, "commit": commit, "quick": False,
                           "fresh": True}


def test_unknown_section_is_a_usage_error(bench, monkeypatch, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(bench, monkeypatch, "--sections", "alpha,server_http",
              "--out", str(tmp_path / "bench.json"))
    assert exc.value.code == 2
    assert "unknown sections: server_http" in capsys.readouterr().err


HOST = {"cpu_count": 2, "blas": "scipy-openblas", "blas_threads": 2}


def _record(host=HOST, **columns) -> dict:
    row = {"m": 128, "granularity": 8, "dtype": "float32", **columns}
    return {"tw_gemm": {"host": host, "commit": "abc", "quick": False,
                        "configs": [row]}}


def test_same_host_production_regression_is_flagged(check_bench):
    regressions, _ = check_bench.compare(
        _record(batched_ms=10.0), _record(batched_ms=30.0), 2.0
    )
    assert len(regressions) == 1
    assert "batched_ms" in regressions[0] and "3.0x slower" in regressions[0]


@pytest.mark.parametrize("column", ["reference_ms", "dense_ms"])
def test_oracle_and_dense_columns_are_trajectory_only(check_bench, column):
    regressions, notes = check_bench.compare(
        _record(**{column: 10.0}), _record(**{column: 30.0}), 2.0
    )
    assert regressions == [] and notes == []


def test_other_host_is_not_comparable(check_bench, monkeypatch, tmp_path, capsys):
    baseline = {**_record(batched_ms=10.0), **{
        "fusion": {"host": HOST, "commit": "abc", "quick": False,
                   "configs": [{"m": 128, "epilogue": "bias_gelu", "fused_ms": 1.0}]},
    }}
    fresh = {**_record(host={**HOST, "blas_threads": 1}, batched_ms=30.0), **{
        "fusion": baseline["fusion"],
    }}
    regressions, notes = check_bench.compare(baseline, fresh, 2.0)
    assert regressions == []
    assert notes == ["tw_gemm: not comparable (host differs: blas_threads)"]

    paths = []
    for name, record in [("base", baseline), ("fresh", fresh)]:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    monkeypatch.setattr(sys, "argv", [
        "check_bench.py", "--baseline", str(paths[0]), "--fresh", str(paths[1]),
    ])
    assert check_bench.main() == 0
    assert "tw_gemm: not comparable" in capsys.readouterr().out
