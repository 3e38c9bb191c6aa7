"""The names duet-e2e reaches into ``repro`` by.

``benchmarks/e2e`` measures every layer from outside: ``layers.py`` wraps
public callables by ``(owner, attr)`` and the workload modules import
``repro`` names directly.  A rename in ``src`` therefore breaks the
benchmark, not the product — and without this file only the ``duet-e2e``
CI job would say so, after tier-1 is green.  Nothing here runs a
workload; it only resolves names.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

E2E_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def test_every_wrapped_target_resolves() -> None:
    from benchmarks.e2e import layers

    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr} (span {t.name})"
        for t in layers.targets()
        if not callable(getattr(t.owner, t.attr, None))
    ]
    assert not missing, f"benchmarks/e2e/layers.py wraps missing names: {missing}"


def test_every_repro_import_of_the_benchmark_resolves() -> None:
    missing = []
    modules = sorted(
        p for p in E2E_DIR.glob("*.py") if not p.name.startswith("test_")
    )
    assert len(modules) >= 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [(a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            for module, attr in names:
                if module.split(".")[0] != "repro":
                    continue
                try:
                    owner = importlib.import_module(module)
                    if attr is not None and not hasattr(owner, attr):
                        importlib.import_module(f"{module}.{attr}")
                except ImportError:
                    missing.append(
                        f"{path.name}: {module}" + (f".{attr}" if attr else "")
                    )
    assert not missing, f"benchmarks/e2e imports missing repro names: {missing}"
