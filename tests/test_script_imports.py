"""Every ``repro`` import in the benchmark and example scripts resolves.

The scripts are not run here (most train models or take minutes); their
source is parsed, and each ``import repro…`` / ``from repro… import name``
— module level or inside a function — is checked with :mod:`importlib`,
so a module move that leaves a stale import fails tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    p
    for d in ("benchmarks", "examples")
    for p in (ROOT / d).glob("*.py")
)


def repro_imports(path: Path) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` for each ``repro`` import in ``path``;
    ``name`` is ``None`` for a plain ``import module``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, a.name, None)
                for a in node.names
                if a.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found += [(node.lineno, node.module, a.name) for a in node.names]
    return found


def test_scripts_are_found():
    names = {p.name for p in SCRIPTS}
    assert {"bench_fig15_end2end.py", "bench_hotpaths.py", "quickstart.py"} <= names


def test_function_level_imports_are_seen():
    lines = {
        (mod, name)
        for _, mod, name in repro_imports(ROOT / "benchmarks" / "bench_hotpaths.py")
    }
    # bench_hotpaths imports inside its bench_* functions only
    assert ("repro.gpu.engine", "InferenceEngine") in lines


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_repro_imports_resolve(path):
    stale = []
    for line, module, name in repro_imports(path):
        try:
            mod = importlib.import_module(module)
        except ImportError as exc:
            stale.append(f"{path.name}:{line}: import {module}: {exc}")
            continue
        if name is None or name == "*" or hasattr(mod, name):
            continue
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            stale.append(f"{path.name}:{line}: {module} has no {name!r}")
    assert not stale, "\n".join(stale)
