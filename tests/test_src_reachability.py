"""Every ``src/repro`` module is imported by something that runs.

AST import walk from the entry points: the CLI, ``python -m repro``, the
figure drivers, the fleet worker, ``benchmarks/**`` and ``examples/**``.
A package ``__init__`` re-export does not count as a use:
``from repro.sim import run_failover`` reaches ``repro.sim.scenarios``,
where the name is defined, not every module ``repro/sim/__init__.py``
imports.  ``tests/`` is not an entry point, so a module that only its own
test file imports fails here — delete it or wire it to something that runs.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = {
    ".".join(p.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): p
    for p in sorted((SRC / "repro").rglob("*.py"))
}
PACKAGES = {m for m, p in MODULES.items() if p.name == "__init__.py"}
ENTRY_MODULES = {"repro.cli", "repro.__main__", "repro.fleet.worker"} | {
    m for m in MODULES if m.startswith("repro.experiments.")
}
ENTRY_FILES = [
    p for d in ("benchmarks", "examples") for p in sorted((ROOT / d).rglob("*.py"))
]


def imports(path):
    """(module, name or None) of every absolute import in a file (``src``
    uses no relative ones)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)


def definers(module, name):
    """The ``src`` modules a use of ``module.name`` lands in, following a
    package's re-export to the module that defines the name."""
    if f"{module}.{name}" in MODULES:
        return {f"{module}.{name}"}
    if module in PACKAGES:
        for base, bound in imports(MODULES[module]):
            if bound == name and base in MODULES:
                return definers(base, name)
    return {module} & MODULES.keys()


def test_every_src_module_is_reached_from_an_entry_point():
    todo = set(ENTRY_MODULES)
    for path in ENTRY_FILES:
        todo.update(*(definers(m, n) for m, n in imports(path)))
    reached = set()
    while todo:
        module = todo.pop()
        reached.add(module)
        if module not in PACKAGES:  # an __init__'s re-exports are not uses
            for base, name in imports(MODULES[module]):
                todo |= definers(base, name) - reached
    unreached = sorted(MODULES.keys() - PACKAGES - reached)
    assert not unreached, f"no entry point imports: {unreached}"


def test_every_package_all_name_resolves():
    missing = [
        f"{package}.{name}"
        for package in sorted(PACKAGES)
        for name in getattr(importlib.import_module(package), "__all__", ())
        if not hasattr(importlib.import_module(package), name)
    ]
    assert not missing, f"__all__ names that do not resolve: {missing}"
