"""Every ``src/repro`` module, def and class is reached by something
that runs.

Modules: AST import walk from the entry points — the CLI, ``python -m
repro``, the figure drivers, the fleet worker, ``benchmarks/**`` and
``examples/**``.  A package ``__init__`` re-export does not count as a
use: ``from repro.sim import run_failover`` reaches
``repro.sim.scenarios``, where the name is defined, not every module
``repro/sim/__init__.py`` imports.

Defs and classes: every name defined in ``src/repro`` must be used by
name somewhere outside ``tests/`` (see :func:`used_names`).  The match is
by name on purpose, with no call graph: a method that shares its name
with any used attribute counts as reached.

``tests/`` is not an entry point, so a module or a name that only tests
reach fails here — delete it, wire it to something that runs, or name it
in ``KEEP`` with the reason it stays.

Knobs: every field of a ``*Config`` / ``*Policy`` dataclass must be set
by some non-test file (see :func:`set_fields`).  There is no exemption
list: a value no caller sets is a constant next to the code that reads
it, and a test that needs another value monkeypatches the constant or
subclasses the class that holds it.

Skips: no test under ``tests/`` calls ``pytest.skip``.  A test whose
case a seeded world might not produce builds that case, or fails naming
it; only platform ``skipif`` markers stay.
"""

import ast
import importlib
import re
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

#: Names a non-test caller reaches only through ``getattr(self, prefix +
#: kind)``: the chaos generator's builders and the intent's journal
#: replayers.
DISPATCH_PREFIXES = ("_build_", "_replay_")

#: Defined in ``src``, used by no non-test file, and kept on purpose.
KEEP = {
    "burn_rate": "test oracle: the O(window) rescan that AlertEvaluator's "
                 "cumulative-sum burn rate must equal (TestBurnRate)",
    "recorder_lookup": "test oracle: the plain series lookup the rescan "
                       "reads, beside the evaluator's incremental one",
    "measured_demands": "operator API documented in OPERATIONS.md "
                        "(Routine re-balancing)",
    "collect_traffic_reports": "operator API documented in OPERATIONS.md "
                               "(the monitoring feed's per-VIP totals)",
    "load_trace": "the README promises trace files load back "
                  "(Workload files)",
    "close_outbound": "the paper's SNAT host-agent lifecycle (S5.2): an "
                      "outbound connection ends and frees its port",
    "snat_translate_outbound": "the paper's SNAT host-agent lifecycle "
                               "(S5.2): rewrite an outbound packet",
    "is_reachable": "test oracle: the per-pair reachability that "
                    "isolated_switches' one multi-source BFS must equal "
                    "(TestIsolationDifferential)",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _walk_uses(tree, reexports_only):
    """``ast.walk`` that skips a package ``__init__``'s imports and
    ``__all__`` (re-exports, not uses)."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if reexports_only and (
            isinstance(node, (ast.Import, ast.ImportFrom))
            or isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
        ):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def used_names():
    """Every identifier a non-test file uses: names, attributes, import
    aliases, keyword arguments, and identifier-shaped string constants
    (``benchmarks/e2e/layers.py`` names the callables it wraps by
    string)."""
    used = set()
    for path in list(MODULES.values()) + ENTRY_FILES:
        package = path.name == "__init__.py" and SRC in path.parents
        for node in _walk_uses(ast.parse(path.read_text()), package):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
                used.add(node.asname or node.name)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _IDENTIFIER.fullmatch(node.value):
                    used.add(node.value)
    return used


def defined_names():
    """(module, name) of every def and class in ``src/repro``, dunder
    protocol methods aside (the interpreter calls those)."""
    for module, path in MODULES.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not (node.name.startswith("__") and node.name.endswith("__")):
                yield module, node.name


def test_every_src_def_is_used_outside_tests():
    used = used_names()
    unused = sorted(
        f"{module}.{name}" for module, name in defined_names()
        if name not in used and name not in KEEP
        and not name.startswith(DISPATCH_PREFIXES)
    )
    assert not unused, f"defined in src, used only by tests: {unused}"


def test_keep_list_holds_only_unused_defs():
    defined = {name for _, name in defined_names()}
    stale = sorted(name for name in KEEP if name not in defined)
    assert not stale, f"KEEP names nothing src defines: {stale}"
    reached = sorted(KEEP.keys() & used_names())
    assert not reached, f"KEEP names a def a non-test file uses: {reached}"


def knob_classes():
    """Init fields, in order, of every ``@dataclass`` in ``src/repro``
    named ``*Config`` or ``*Policy``, by class name."""
    classes = {}
    for path in MODULES.values():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith(
                ("Config", "Policy")
            ) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                classes[node.name] = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                ]
    return classes


def _called_name(call, owner):
    """The class a call constructs, by name: ``X(...)`` or ``m.X(...)``
    is ``X``, and ``cls(...)`` is the class it is written in."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    return owner.get(id(call)) if name == "cls" else name


def set_fields(classes):
    """The fields of ``classes`` some non-test file sets: by keyword or
    position in a call to the class (``cls(...)`` inside it counts), or
    by a keyword of a ``replace(X(...), ...)``, which copies ``X``.  A
    ``replace`` of anything else credits no class: the AST cannot tell
    what it copies.  ``self.x = ...`` does not count, and neither does
    ``**kwargs``."""
    set_by = {name: set() for name in classes}
    for path in list(MODULES.values()) + ENTRY_FILES:
        tree = ast.parse(path.read_text())
        owner = {
            id(node): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node, owner)
            keywords = {k.arg for k in node.keywords if k.arg}
            if name == "replace":
                copied = node.args[0] if node.args else None
                if isinstance(copied, ast.Call):
                    name = _called_name(copied, owner)
                if name in classes:
                    set_by[name] |= keywords
                continue
            if name not in classes:
                continue
            positional = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    break
                positional.append(arg)
            set_by[name] |= keywords | set(classes[name][:len(positional)])
    return set_by


def test_every_config_field_is_set_outside_tests():
    classes = knob_classes()
    set_by = set_fields(classes)
    unset = sorted(
        f"{name}.{field}" for name, fields in classes.items()
        for field in fields if field not in set_by[name]
    )
    assert not unset, f"knobs only tests set: {unset}"


def test_no_test_skips_on_what_its_world_produced():
    calls = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (
                isinstance(func, ast.Attribute) and func.attr == "skip"
                and isinstance(func.value, ast.Name)
                and func.value.id == "pytest"
            ):
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not calls, f"pytest.skip calls: {calls}"
