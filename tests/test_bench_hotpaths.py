"""``benchmarks/bench_hotpaths.py``'s record-writing rules.

A ``--sections`` run refreshes the named sections in place, keeps the
others, and drops keys no longer in ``SECTIONS`` so a retired section
cannot linger in the checked-in baseline.  The bench functions are
swapped for stubs; only ``main()``'s merge is under test.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_hotpaths", REPO / "benchmarks" / "bench_hotpaths.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SECTIONS", {
        "alpha": lambda quick: {"fresh": True, "quick": quick},
        "beta": lambda quick: {"fresh": True, "quick": quick},
    })
    return module


def _main(bench, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["bench_hotpaths.py", *argv])
    bench.main()


def test_sections_merge_drops_retired_keys(bench, monkeypatch, tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({
        "meta": {"note": "old"},
        "alpha": {"fresh": False},
        "beta": {"fresh": False},
        "retired": {"fresh": False},
    }))
    _main(bench, monkeypatch, "--quick", "--sections", "alpha", "--out", str(out))
    record = json.loads(out.read_text())
    assert list(record) == ["meta", "alpha", "beta"]
    assert record["alpha"] == {"fresh": True, "quick": True}
    assert record["beta"] == {"fresh": False}
    assert record["meta"]["sections"] == ["alpha"]


def test_meta_records_cpu_count(bench, monkeypatch, tmp_path):
    out = tmp_path / "bench.json"
    _main(bench, monkeypatch, "--out", str(out))
    record = json.loads(out.read_text())
    assert record["meta"]["cpu_count"] == os.cpu_count()
    assert "single core" not in record["meta"]["note"]
    assert "sections" not in record["meta"]
    assert record["alpha"] == record["beta"] == {"fresh": True, "quick": False}


def test_unknown_section_is_a_usage_error(bench, monkeypatch, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _main(bench, monkeypatch, "--sections", "alpha,server_http",
              "--out", str(tmp_path / "bench.json"))
    assert exc.value.code == 2
    assert "unknown sections: server_http" in capsys.readouterr().err
