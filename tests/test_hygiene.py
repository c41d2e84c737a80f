"""Source hygiene: every module-level import in the library is used, every
private module-level name is referenced somewhere in src/ or tests/, no
private library helper transforms a vector, the harness calls the library
through its public names, only ``operators`` calls ``ldexp``, one function
decides membership of PW_omega, one function decides every spectral cut, one shift scan
samples the differences, one Tikhonov path serves ``K(t)`` and its norm, the kernel's
constants have one evaluator and no quadrature, one step pools
the norm of each eigenspace where a vector enters and feeds the R side, whose helpers take no
coefficient row and whose tails take no ``np.linalg.norm`` and no re-take, the E route
reads nothing of the R side, only the vector domain reads the eigenvectors, and the library
imports no third-party package but NumPy.  The public names of the package are pinned, and no
module binds a retired one."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bandapprox

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
    # bench/run_bench.py imports SciPy for its provenance record; the library must not, and it
    # leaves numpy.random to the first call that draws (importing it costs about 5 MB of RSS)
    code = ("import sys, bandapprox; print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'numpy.random'))))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]", out


#: the library layers below the harness; their private helpers take a vector as its
#: ``_coefficients`` triple, or on the R side as its spectral measure (``_measure``) alone
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
    assert modules and not found, sorted(found)


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


def test_one_membership_rule():
    # PW_omega membership is decided in one function, on the one tail rule; the per-element
    # _in_pw, called from three modules with two spellings of ||f||, is gone
    readers, defined = [], set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
                if any(isinstance(ref, ast.Name) and ref.id == "BANDLIMITED_TOL"
                       and isinstance(ref.ctx, ast.Load) for ref in ast.walk(node)):
                    readers.append(f"{path.name}:{node.name}")
    assert readers == ["paley_wiener.py:_require_pw"], readers
    assert "_in_pw" not in defined


def test_one_shift_scan():
    # ||Delta_tau^m g|| is sampled in one place, the shift scan, which serves the modulus and the
    # seminorm; the seminorm's grid of s and its pre-pass were a second reader of the samples
    callers = {"_difference_norms": [], "_running_modulus": []}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                names = {ref.id for ref in ast.walk(node) if isinstance(ref, ast.Name)}
                for name in callers.keys() & names:
                    callers[name].append(f"{path.stem}.{node.name}")
    assert callers == {"_difference_norms": ["smoothness._running_modulus"],
                       "_running_modulus": ["smoothness._moduli", "smoothness._seminorm_sup"]}
    assert "_SEMINORM_GRID_POINTS" not in (SRC / "smoothness.py").read_text(encoding="utf-8")


def test_one_k_path():
    # the Tikhonov path is evaluated in one place, which serves K(t) and the K-functional norm;
    # the norm's 200-point t-grid, clamped to [1e-6 / lambda_max^r, 1e6], was a second route
    callers = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += [f"{path.stem}.{node.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and any(isinstance(ref, ast.Name)
                                                                 and ref.id == "_k_path"
                                                                 for ref in ast.walk(node))]
        assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr == "trapezoid"], f"{path.name} calls np.trapezoid"
    assert callers == ["smoothness._besov_norms", "smoothness._k_functional_values"]
    assert "_K_GRID_POINTS" not in (SRC / "smoothness.py").read_text(encoding="utf-8")


def test_one_kernel_evaluator():
    # the kernel's mass and moments are closed-form sums; the composite Gauss-Legendre
    # quadrature that computed them, and the transform by quadrature, live in tests/oracles.py
    for path in MODULES:
        assert "leggauss" not in path.read_text(encoding="utf-8"), f"{path.name} calls leggauss"
    assert not hasattr(bandapprox.ApproxKernel, "h")
    assert not hasattr(bandapprox.ApproxKernel, "symbol_quadrature")


def _top_level_readers(layer: str, found) -> list:
    """``layer.name`` of each top-level function or class of ``layer`` in which ``found(node)``
    holds for some node."""
    tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
    return [f"{layer}.{node.name}" for node in tree.body if isinstance(
        node, (ast.FunctionDef, ast.ClassDef)) and any(map(found, ast.walk(node)))]


def _reads(name: str):
    """A test for a node that reads ``name``, as a variable or an attribute."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         or isinstance(node, ast.Attribute) and node.attr == name)


def test_one_spectral_measure():
    # coefficient rows are pooled per eigenspace in one place, operators._measure, the step to
    # (nodes, norms); eigh's other reduceat takes each group's value.  The measure is taken once,
    # where a vector's coefficients enter: in the public functions, the Besov norms and the lemmas
    # of a block, and the membership rule, which hands its measure to bernstein_check
    reducers = sum((_top_level_readers(layer, _reads("reduceat")) for layer in LAYERS), [])
    assert reducers == ["operators.eigh", "operators._measure"]
    callers = sum((_top_level_readers(layer, _reads("_measure")) for layer in LAYERS), [])
    assert sorted(callers) == [
        "approx_operators.jackson_check", "paley_wiener._require_pw", "paley_wiener.bandwidth",
        "paley_wiener.spectral_tail", "smoothness._besov_norms", "smoothness._lemma_reports",
        "smoothness.besov_seminorm_sup", "smoothness.k_functional", "smoothness.modulus",
        "smoothness.modulus_inequality_checks"]
    # it is the one input of the R side: each helper takes the measure, no coefficient row, and
    # squares the groups it needs at their own scale, so none measures a vector again.  The
    # tails sum the norms by hypot and need no re-take below 2^-480; the E route keeps its own
    helpers = {"paley_wiener": ["_bernstein_norms", "_tails"], "smoothness": [
        "_k_functional_values", "_k_path", "_moduli", "_seminorm_sup"]}
    for layer, names in helpers.items():
        tree = ast.parse((SRC / f"{layer}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                params = {arg.arg for arg in node.args.args}
                assert "measure" in params and not params & {"f", "v", "c", "fc", "coeffs"}, (
                    node.name, sorted(params))
                assert not any(map(_reads("_measure"), ast.walk(node))), node.name
                names.remove(node.name)
        assert not names, f"{layer}: {names} not found"
    retakes = _top_level_readers("paley_wiener", lambda node: isinstance(
        node, ast.Constant) and node.value == 480)
    assert retakes == ["paley_wiener._distances"]
    # D^k f is nodes^k norms on the measure (operators._powered); its coefficients are not formed
    assert not [path.name for path in MODULES
                if "_power_coefficients" in path.read_text(encoding="utf-8")]
    # the R tails were a Python loop of np.linalg.norm over every (row, cut) element
    tree = ast.parse((SRC / "paley_wiener.py").read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr == "norm"], "paley_wiener.py calls np.linalg.norm"
    for module in (bandapprox, *(getattr(bandapprox, layer) for layer in LAYERS)):
        assert not hasattr(module, "_scaled_mag2") and not hasattr(module, "as_vector")


def test_only_the_vector_domain_reads_the_basis():
    # every scalar but the E route sees a vector through its coefficients or its measure; the
    # basis is read to transform, to synthesize phi(D) f, by the E route of the distances (the
    # residual in H that makes E = R a real check), to synthesize bands and for ||Qf - f||
    readers = sum((_top_level_readers(layer, _reads("eigenvectors")) for layer in LAYERS), [])
    assert sorted(readers) == [
        "approx_operators.jackson_check", "decomposition._band_split",
        "operators.SpectralDecomposition", "operators._synthesize", "operators.inverse_transform",
        "operators.spectral_transform", "paley_wiener._distances"]


def test_the_e_route_reads_nothing_of_the_r_route():
    # E = R is a check between two independent routes only while the residual in H takes no
    # part of the R side: no spectral measure, no tail, no hypot and no eigenspace grouping
    tree = ast.parse((SRC / "paley_wiener.py").read_text(encoding="utf-8"))
    route = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_distances")
    for name in ("_measure", "_tails", "hypot", "_starts"):
        assert not any(map(_reads(name), ast.walk(route))), name


def test_one_cut_rule():
    # every cut keeps lambda <= omega + eps_group, decided in paley_wiener._pw_prefix: the band
    # edges come from it (_band_edges), and band_count, a second decider in Python floats that
    # put lambda_max = 2 + 4e-15 of cycle:16 above the edge 2, is gone.  SpectralDecomposition
    # derives eps_group, and eigh groups at the same width (the CLI prints it); no other layer
    # reads it
    readers = sum((_top_level_readers(layer, _reads("eps_group")) for layer in LAYERS), [])
    assert sorted(readers) == ["operators.SpectralDecomposition", "operators.eigh",
                               "paley_wiener._pw_prefix"]

    def cuts_the_spectrum(node):  # a searchsorted of, or a comparison with, the eigenvalues
        if isinstance(node, ast.Call) and _reads("searchsorted")(node.func):
            return any(map(_reads("eigenvalues"), ast.walk(node)))
        return isinstance(node, ast.Compare) and any(map(_reads("eigenvalues"), ast.walk(
            node))) and not any(isinstance(side, ast.Constant) and side.value == 0
                                for side in (node.left, *node.comparators))

    cutters = sum((_top_level_readers(layer, cuts_the_spectrum) for layer in LAYERS), [])
    assert cutters == ["paley_wiener._pw_prefix"]
    for module in (bandapprox, *(getattr(bandapprox, layer) for layer in LAYERS)):
        assert not hasattr(module, "band_count")
    assert not [path.name for path in MODULES if "band_count" in path.read_text(encoding="utf-8")]


#: the public names of ``bandapprox`` but its modules and exception classes: the paper's objects
#: (PW_omega, E(f, omega), the moduli, the K-functional, the Besov norms, the Riesz and Q
#: operators, the band decomposition), the spectral calculus they rest on, and the harness
PUBLIC_NAMES = {
    "RAW_D", "RAW_L", "SpectralDecomposition", "SymmetricOperator", "apply_multiplier", "eigh",
    "inverse_transform", "schrodinger_group", "spectral_transform",
    "BandwidthReport", "BernsteinReport", "bandwidth", "bernstein_check", "best_approx",
    "pw_project", "spectral_tail",
    "BesovParams", "besov_norm", "besov_seminorm_sup", "difference", "k_besov_norm",
    "k_functional", "lemma1_check", "lemma2_check", "modulus", "modulus_inequality_checks",
    "sup_scaled_best_approx",
    "ApproxKernel", "RieszConfig", "build_kernel", "jackson_check", "jackson_constant",
    "q_apply", "q_symbol", "riesz_apply", "riesz_identity_check", "riesz_symbol",
    "BandDecomposition", "band_decompose", "equivalence_report", "frame_norm", "synthesis_check",
    "OperatorSpec", "VerificationReport", "build_operator", "emit_report", "load_vector",
    "parse_operator_arg", "run_suite", "save_vector",
}

#: public spellings that left the library, and what replaces them: ``apply_multiplier(dec,
#: lambda lam: lam ** s, f)`` for ``operator_power``, ``spectral_tail`` at the step nodes for
#: ``dense_union_check``, ``q_symbol`` for the weights of ``shift_coefficients``, ``eigh`` for the
#: solver and its tolerance, ``__version__`` for ``PACKAGE_VERSION``, blocks for ``as_vector``
#: and the cut rule for ``band_count``
RETIRED_NAMES = {"dense_union_check", "operator_power", "shift_coefficients", "jacobi_eigh",
                 "JACOBI_TOL", "PACKAGE_VERSION", "as_vector", "band_count"}


def test_public_names():
    public = {name for name, obj in vars(bandapprox).items()
              if not name.startswith("_") and not inspect.ismodule(obj)
              and not (isinstance(obj, type) and issubclass(obj, BaseException))}
    assert public == PUBLIC_NAMES, (sorted(public - PUBLIC_NAMES), sorted(PUBLIC_NAMES - public))
    modules = [bandapprox, *(importlib.import_module(f"bandapprox.{p.stem}") for p in MODULES)]
    bound = [f"{module.__name__}.{name}" for module in modules
             for name in sorted(RETIRED_NAMES & set(vars(module)))]
    assert not bound, f"retired names still bound: {', '.join(bound)}"
