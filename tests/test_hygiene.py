"""Source hygiene: every module-level import in the library is used, every
private module-level name is referenced somewhere in src/ or tests/, no
private library helper transforms a vector, the harness calls the library
through its public names, only ``operators`` calls ``ldexp``, and the library
imports no third-party package but NumPy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bandapprox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(bound name, line) for each import statement in the module body."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    yield name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name}: unused imports: {', '.join(unused)}"


def _private_definitions(tree):
    """(name, line) for each private function, class or variable the module body defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for n in nodes for t in ast.walk(n)
                       if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


def _references(tree):
    """Names read, attributes accessed and names imported anywhere in the module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_unreferenced_private_names():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    refs = set()
    for path in sources:
        refs |= _references(ast.parse(path.read_text(encoding="utf-8")))
    unused = [f"{path.name}:{line} {name}" for path in MODULES
              for name, line in _private_definitions(ast.parse(path.read_text(encoding="utf-8")))
              if name not in refs]
    assert not unused, f"private names nothing references: {', '.join(unused)}"


def test_import_loads_no_scipy():
    # bench/run_bench.py imports SciPy for its provenance record; the library must not
    code = ("import sys, bandapprox; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", out


#: the library layers below the harness; their private helpers take ``_coefficients`` triples
LAYERS = ("operators", "paley_wiener", "smoothness", "approx_operators", "decomposition")


def test_private_helpers_transform_no_vector():
    # a vector is transformed where it enters: by a public function, or by operators._coefficients
    transforming = {"_coefficients", "spectral_transform"}
    found = []
    for layer in LAYERS:
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and (layer, node.name) != ("operators", "_coefficients")):
                names = {getattr(ref, "id", None) or getattr(ref, "attr", None)
                         for ref in ast.walk(node) if isinstance(ref, (ast.Name, ast.Attribute))}
                found += [f"{layer}.{node.name} -> {name}" for name in sorted(names & transforming)]
    assert not found, f"private functions that transform a vector: {', '.join(found)}"


#: private library names the harness may use, and the one function that uses them: the
#: Besov norm table of ``_check_theorem1_brackets``.  ``bench/tracer.py`` reads
#: ``params.flavor`` off the third argument of ``besov_norm``, so a parameter axis there
#: waits for a change to the benchmark, and 15 per-parameter ``besov_norm`` block calls take
#: 1.9-2.2 times the table (15.9 -> 35.2 ms at N = 8, 25.3 -> 47.7 ms at N = 16; median of
#: 15 on a 2-vCPU Xeon host).
HARNESS_PRIVATE = {("_coefficients", "_check_theorem1_brackets"),
                   ("_besov_norms", "_check_theorem1_brackets")}


def test_harness_uses_only_public_library_names():
    # verify measures the public functions: a check that reached past them to a private
    # helper would leave the per-layer view of the benchmark blind to that layer
    tree = ast.parse((SRC / "harness.py").read_text(encoding="utf-8"))
    modules, imported = set(), set()  # library modules bound by name, private names imported
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.asname or alias.name for alias in node.names}
            if node.module is None:
                modules |= names
            else:
                imported |= {name for name in names if name.startswith("_")}
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        owner = getattr(node, "name", "<module>")
        for ref in ast.walk(node):
            if isinstance(ref, ast.Name) and ref.id in imported:
                found.add((ref.id, owner))
            elif (isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name)
                  and ref.value.id in modules and ref.attr.startswith("_")):
                found.add((ref.attr, owner))
    assert modules and found == HARNESS_PRIVATE, sorted(found - HARNESS_PRIVATE)


def test_only_operators_calls_ldexp():
    # a result taken at a power-of-two scale gets its 2^e back through operators._unscaled,
    # which raises NonFiniteError past the largest double; an ldexp of NumPy or math elsewhere
    # would be a second way back, one that returns inf or raises a bare OverflowError
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.alias: "name",
                    ast.FunctionDef: "name"}.get(type(node))
            name = getattr(node, name) if name else ""
            if "ldexp" in name and (path.name != "operators.py" or name != "ldexp"):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"ldexp outside operators._unscaled and _scaled: {', '.join(found)}"
