"""Operator ingestion, seeded verification suite, and report emission.

The suite instantiates an operator family over a list of sizes, draws a
seeded corpus of random vectors once (so the corpus is independent of
which checks run), executes the selected checks, and assembles an
order-normalized report.  Identical spec + seed yields byte-identical
JSON output: grids and iteration orders are fixed and nothing depends on
time, locale or dict ordering.
"""

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import decomposition as dcmp
from . import approx_operators as aop
from . import paley_wiener as pw
from . import smoothness as sm
from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    InvalidParamsError,
    ParseError,
    UnsupportedFormatError,
)
from .operators import RAW_L, SymmetricOperator, eigh, schrodinger_group, spectral_transform

PACKAGE_VERSION = "0.1.0"


# -- operator specs and builders ------------------------------------------------


@dataclass(frozen=True)
class OperatorSpec:
    """Recipe for a symmetric PSD operator: a builtin family or a file."""

    source: str = "builtin"
    builtin: str | None = None
    size: int | None = None
    spectrum: tuple | None = None
    seed: int | None = None
    path: str | None = None
    kind: str = RAW_L

    def with_size(self, n: int) -> "OperatorSpec":
        return replace(self, size=int(n))

    @property
    def sized(self) -> bool:
        """Whether the spec accepts a size parameter (builtin graph families)."""
        return self.source == "builtin" and self.builtin in ("cycle", "path",
                                                             "complete", "random_psd")

    def label(self) -> str:
        if self.source == "builtin":
            if self.builtin == "diagonal":
                inner = ",".join(repr(float(v)) for v in self.spectrum)
                return f"diagonal({inner})"
            if self.builtin == "random_psd":
                return f"random_psd(size={self.size},seed={self.seed})"
            return f"{self.builtin}({self.size})"
        return f"{self.source}:{self.path}"


def _laplacian_from_edges(num_nodes: int, edges) -> np.ndarray:
    lap = np.zeros((num_nodes, num_nodes))
    for u, v, w in edges:
        lap[u, u] += w
        lap[v, v] += w
        lap[u, v] -= w
        lap[v, u] -= w
    return lap


def build_operator(spec: OperatorSpec) -> SymmetricOperator:
    """Materialize a spec: builtin graph Laplacians, diagonals, or files."""
    if spec.source == "builtin":
        return _build_builtin(spec)
    if spec.source == "edge_list_file":
        return load_edge_list(spec.path, kind=spec.kind)
    if spec.source == "matrix_file":
        return load_matrix(spec.path, kind=spec.kind)
    raise ParseError(f"unknown operator source {spec.source!r}")


def _build_builtin(spec: OperatorSpec) -> SymmetricOperator:
    name = spec.builtin
    if name == "diagonal":
        if not spec.spectrum:
            raise ParseError("diagonal spec needs a spectrum")
        return SymmetricOperator(np.diag(np.asarray(spec.spectrum, float)), kind=spec.kind)
    n = spec.size
    if n is None or n < 1:
        raise BadDimensionError(f"builtin {name!r} needs a positive size, got {n}")
    if name == "path":
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
        return SymmetricOperator(_laplacian_from_edges(n, edges), kind=spec.kind)
    if name == "cycle":
        if n < 3:
            raise BadDimensionError(f"cycle needs at least 3 nodes, got {n}")
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
        return SymmetricOperator(_laplacian_from_edges(n, edges), kind=spec.kind)
    if name == "complete":
        lap = float(n) * np.eye(n) - np.ones((n, n))
        return SymmetricOperator(lap, kind=spec.kind)
    if name == "random_psd":
        rng = np.random.default_rng(spec.seed if spec.seed is not None else 0)
        b = rng.standard_normal((n, n))
        mat = b @ b.T / n
        mat = (mat + mat.T) / 2.0  # exact symmetry
        return SymmetricOperator(mat, kind=spec.kind)
    raise ParseError(f"unknown builtin operator {name!r}")


def parse_operator_arg(text: str, kind: str = RAW_L) -> OperatorSpec:
    """Parse CLI shorthand: cycle:16, path:8, complete:5, diag:1,4,9,
    random:16:42, edges:FILE, matrix:FILE."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head in ("cycle", "path", "complete"):
        try:
            return OperatorSpec(builtin=head, size=int(rest), kind=kind)
        except ValueError as exc:
            raise ParseError(f"bad size in {text!r}") from exc
    if head in ("diag", "diagonal"):
        try:
            values = tuple(float(v) for v in rest.split(",") if v.strip())
        except ValueError as exc:
            raise ParseError(f"bad diagonal entries in {text!r}") from exc
        if not values:
            raise ParseError(f"empty diagonal in {text!r}")
        return OperatorSpec(builtin="diagonal", spectrum=values, kind=kind)
    if head in ("random", "random_psd"):
        parts = rest.split(":")
        try:
            size = int(parts[0])
            seed = int(parts[1]) if len(parts) > 1 else 0
        except (ValueError, IndexError) as exc:
            raise ParseError(f"bad random spec {text!r}") from exc
        return OperatorSpec(builtin="random_psd", size=size, seed=seed, kind=kind)
    if head == "edges":
        return OperatorSpec(source="edge_list_file", path=rest, kind=kind)
    if head == "matrix":
        return OperatorSpec(source="matrix_file", path=rest, kind=kind)
    raise ParseError(f"cannot parse operator spec {text!r}")


def load_edge_list(path: str, kind: str = RAW_L, num_nodes: int | None = None) -> SymmetricOperator:
    """Combinatorial (weighted) graph Laplacian from 'u v [weight]' lines.

    Node ids are 0-based, '#' starts a comment, weights default to 1 and
    must be positive.  Disconnected graphs are fine.
    """
    edges = []
    max_node = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"{path}:{lineno}: expected 'u v [weight]'")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad edge entry") from exc
            if u < 0 or v < 0:
                raise ParseError(f"{path}:{lineno}: node ids must be >= 0")
            if u == v:
                raise ParseError(f"{path}:{lineno}: self-loops are not allowed")
            if w <= 0:
                raise ParseError(f"{path}:{lineno}: weights must be positive")
            edges.append((u, v, w))
            max_node = max(max_node, u, v)
    n = max_node + 1 if num_nodes is None else num_nodes
    if n < 1:
        raise BadDimensionError(f"{path}: no nodes found")
    if max_node >= n:
        raise BadDimensionError(f"{path}: node id {max_node} >= declared size {n}")
    return SymmetricOperator(_laplacian_from_edges(n, edges), kind=kind)


def load_matrix(path: str, kind: str = RAW_L) -> SymmetricOperator:
    """Dense symmetric matrix from CSV rows."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad matrix row") from exc
    if not rows:
        raise BadDimensionError(f"{path}: empty matrix")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1 or lengths.pop() != len(rows):
        raise BadDimensionError(f"{path}: matrix is not square")
    return SymmetricOperator(np.array(rows), kind=kind)


# -- vector io --------------------------------------------------------------------

def save_vector(path: str, vec, fmt: str | None = None) -> None:
    """Write a complex vector as CSV (re,im columns) or JSON ([re, im] pairs)."""
    fmt = _infer_format(path, fmt)
    arr = np.asarray(vec, dtype=np.complex128)
    if fmt == "csv":
        lines = ["re,im"]
        lines += [f"{z.real:.17g},{z.imag:.17g}" for z in arr]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = [[float(z.real), float(z.imag)] for z in arr]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        raise UnsupportedFormatError(f"unknown vector format {fmt!r}")


def load_vector(path: str, fmt: str | None = None, expected_dim: int | None = None) -> np.ndarray:
    """Read a complex vector saved by :func:`save_vector` (round-trip exact)."""
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        values = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if lineno == 1 and line.lower().replace(" ", "") == "re,im":
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ParseError(f"{path}:{lineno}: expected 're,im'")
                try:
                    values.append(complex(float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad complex entry") from exc
        arr = np.array(values, dtype=np.complex128)
    elif fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON") from exc
        try:
            arr = np.array([complex(re, im) for re, im in payload], dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: expected a list of [re, im] pairs") from exc
    else:
        raise UnsupportedFormatError(f"unknown vector format {fmt!r}")
    if expected_dim is not None and arr.shape[0] != expected_dim:
        raise DimensionMismatchError(
            f"{path}: vector length {arr.shape[0]} != expected {expected_dim}")
    return arr


def _infer_format(path: str, fmt: str | None) -> str:
    if fmt is not None:
        return fmt.lower()
    lower = str(path).lower()
    if lower.endswith(".json"):
        return "json"
    if lower.endswith(".csv"):
        return "csv"
    raise UnsupportedFormatError(f"cannot infer format from {path!r}")

# -- verification suite ------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One measured quantity: passes iff value <= tolerance (and is finite)."""

    check: str
    params: str
    value: float
    tolerance: float
    passed: bool


@dataclass
class VerificationReport:
    """Records and constants of one suite run.

    ``timings`` holds the wall seconds of each executed check.  It is
    never serialized, so the report bytes stay a function of the inputs.
    """

    meta: dict
    records: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    overall_pass: bool = True
    timings: dict = field(default_factory=dict, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "constants": self.constants,
            "records": [vars(r) for r in self.records],
            "overall_pass": self.overall_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _record(check: str, params: str, value: float, tolerance: float) -> CheckRecord:
    value = float(value)
    passed = math.isfinite(value) and value <= tolerance
    return CheckRecord(check=check, params=params, value=value,
                       tolerance=float(tolerance), passed=bool(passed))


def _params_str(**kwargs) -> str:
    parts = []
    for key in sorted(kwargs):
        val = kwargs[key]
        parts.append(f"{key}={val!r}" if isinstance(val, float) else f"{key}={val}")
    return ";".join(parts)


#: default tolerances, overridable per run
DEFAULT_TOLERANCES = {
    "plancherel": 1e-10,
    "e_equals_r": 1e-12,
    "bernstein": 1e-10,
    "bernstein_equality": 1e-12,
    "growth_bound": 1e-10,
    "riesz_norm": 1e-6,
    "riesz_slope": 0.2,
    "modulus_grid": 1e-6,
    "jackson_grid": 1e-6,
    "jackson_link": 1e-10,
    "q_tail": 1e-10,
    "q_kernel_pass": 1e-10,
    "scale_invariance": 1e-10,
    "reconstruction": 1e-10,
    "tail_identity": 1e-10,
    "synthesis": 1e-10,
    "finite_cap": 1e12,
}


@dataclass
class _SuiteContext:
    decs: dict
    corpus: dict
    rng: np.random.Generator
    tols: dict
    count: int


def _random_bandlimited(ctx, n, dec, idx):
    """A corpus vector projected onto a random positive eigenvalue band."""
    lam_pos = dec.eigenvalues[dec.eigenvalues > 0]
    omega = float(ctx.rng.choice(lam_pos))
    f = pw.pw_project(dec, ctx.corpus[n][idx % ctx.count], omega)
    return f, omega


def _check_plancherel(ctx):
    records = []
    for n, dec in ctx.decs.items():
        worst = 0.0
        for f in ctx.corpus[n]:
            c = spectral_transform(dec, f)
            norm_f = float(np.linalg.norm(f))
            worst = max(worst, abs(float(np.linalg.norm(c)) - norm_f) / (1.0 + norm_f))
        records.append(_record("plancherel", _params_str(N=n), worst,
                               ctx.tols["plancherel"]))
    return records, {}


def _check_e_equals_r(ctx):
    records = []
    for n, dec in ctx.decs.items():
        worst = 0.0
        for f in ctx.corpus[n]:
            omega = float(ctx.rng.uniform(0.0, 1.2 * dec.lambda_max))
            e_val = pw.best_approx(dec, f, omega)
            r_val = pw.spectral_tail(dec, f, omega)
            worst = max(worst, abs(e_val - r_val) / (1.0 + float(np.linalg.norm(f))))
        records.append(_record("e_equals_r", _params_str(N=n), worst,
                               ctx.tols["e_equals_r"]))
    return records, {}


_BERNSTEIN_POWERS = (0.5, 1.0, 2.0, 7.0)


def _check_bernstein(ctx):
    records = []
    for n, dec in ctx.decs.items():
        worst = 0.0
        for idx in range(ctx.count):
            f, omega = _random_bandlimited(ctx, n, dec, idx)
            if np.linalg.norm(f) < 1e-12:
                continue
            rep = pw.bernstein_check(dec, f, omega, _BERNSTEIN_POWERS)
            worst = max(worst, rep.max_ratio)
        records.append(_record("bernstein", _params_str(N=n, s=str(_BERNSTEIN_POWERS)),
                               worst, 1.0 + ctx.tols["bernstein"]))
        top = dec.eigenvectors[:, -1]
        rep = pw.bernstein_check(dec, top, dec.lambda_max, _BERNSTEIN_POWERS)
        records.append(_record("bernstein_equality", _params_str(N=n),
                               float(np.max(np.abs(rep.ratios - 1.0))),
                               ctx.tols["bernstein_equality"]))
    return records, {}


def _check_growth_bound(ctx):
    records = []
    for n, dec in ctx.decs.items():
        worst = 0.0
        for idx in range(min(ctx.count, 20)):
            f, omega = _random_bandlimited(ctx, n, dec, idx)
            norm_f = float(np.linalg.norm(f))
            if norm_f < 1e-12 or omega == 0.0:
                continue
            for _ in range(20):
                z = complex(ctx.rng.uniform(-2, 2), ctx.rng.uniform(-2, 2))
                grown = float(np.linalg.norm(schrodinger_group(dec, z, f)))
                worst = max(worst, grown / (math.exp(omega * abs(z.imag)) * norm_f))
        records.append(_record("growth_bound", _params_str(N=n), worst,
                               1.0 + ctx.tols["growth_bound"]))
    return records, {}


def _check_riesz_norm(ctx):
    records = []
    for n, dec in ctx.decs.items():
        worst = 0.0
        for idx in range(min(ctx.count, 20)):
            f = ctx.corpus[n][idx]
            omega = float(ctx.rng.uniform(0.3, 1.2) * dec.lambda_max)
            cfg = aop.RieszConfig(omega=omega)
            applied = float(np.linalg.norm(aop.riesz_apply(dec, f, cfg)))
            worst = max(worst, applied / (omega * float(np.linalg.norm(f))))
        records.append(_record("riesz_norm", _params_str(N=n, K=10_000), worst,
                               1.0 + ctx.tols["riesz_norm"]))
    return records, {}


def _check_riesz_identity(ctx):
    # the truncation error peaks at the band edge, where it decays like 1/K;
    # strictly inside the band the phases cancel one order better, so the
    # slope is measured with each eigenvector at its own edge omega = lambda_j
    records = []
    truncations = (100, 1000, 10_000)
    for n, dec in ctx.decs.items():
        lam = dec.eigenvalues
        eligible = np.where(lam > 0.2 * dec.lambda_max)[0]
        picks = eligible[np.linspace(0, len(eligible) - 1, min(3, len(eligible))).astype(int)]
        worst_slope_dev = 0.0
        worst_tail_ratio = 0.0
        for j in picks:
            f = dec.eigenvectors[:, j]
            omega = float(lam[j])
            reps = [aop.riesz_identity_check(dec, f, omega, 1, k) for k in truncations]
            slope = np.polyfit(np.log(truncations), np.log([r.residual for r in reps]), 1)[0]
            worst_slope_dev = max(worst_slope_dev, abs(slope + 1.0))
            last = reps[-1]
            worst_tail_ratio = max(worst_tail_ratio, last.residual / last.tail_bound)
        records.append(_record("riesz_identity_slope", _params_str(N=n),
                               worst_slope_dev, ctx.tols["riesz_slope"]))
        records.append(_record("riesz_identity_tail", _params_str(N=n, K=10_000),
                               worst_tail_ratio, 1.0 + 1e-10))
    return records, {}


def _check_modulus_inequalities(ctx):
    records = []
    for n, dec in ctx.decs.items():
        lam_max = dec.lambda_max
        worst = 0.0
        for trial in range(50):
            f = ctx.corpus[n][trial % ctx.count]
            s = float(np.exp(ctx.rng.uniform(math.log(0.05), math.log(20.0))) / lam_max)
            a_scale = float(np.exp(ctx.rng.uniform(math.log(0.3), math.log(4.0))))
            m = int(ctx.rng.integers(1, 4))
            k = int(ctx.rng.integers(0, m + 1))
            rep = sm.modulus_inequality_checks(dec, f, s, a_scale, m, k)
            if not rep.vacuous_power:
                worst = max(worst, rep.ratio_power)
            if not rep.vacuous_scale:
                worst = max(worst, rep.ratio_scale)
        records.append(_record("modulus_inequalities", _params_str(N=n, trials=50),
                               worst, 1.0 + ctx.tols["modulus_grid"]))
    return records, {}


_JACKSON_COMBOS = ((2, 0, 6), (2, 1, 6), (3, 1, 8))


def _check_jackson_chain(ctx):
    records = []
    constants = {}
    for n, dec in ctx.decs.items():
        start = dec.eigenvalues[0] if dec.eigenvalues[0] > 0 else dec.min_positive_eigenvalue
        omegas = np.linspace(start, 2.0 * dec.lambda_max, 5)
        for m, k, order in _JACKSON_COMBOS:
            kernel = aop.build_kernel(order, m)
            constants[f"jackson_C[m={m},k={k},n={order}]"] = aop.jackson_constant(kernel, m, k)
            worst_ratio = 0.0
            worst_link = 0.0
            for idx in range(min(ctx.count, 10)):
                f = ctx.corpus[n][idx]
                for omega in omegas:
                    rep = aop.jackson_check(dec, f, float(omega), m, k, kernel)
                    if not rep.vacuous:
                        worst_ratio = max(worst_ratio, rep.ratio_best, rep.ratio_q)
                    worst_link = max(worst_link, rep.link_gap)
            records.append(_record("jackson_chain", _params_str(N=n, m=m, k=k, n_kernel=order),
                                   worst_ratio, 1.0 + ctx.tols["jackson_grid"]))
            records.append(_record("jackson_link", _params_str(N=n, m=m, k=k, n_kernel=order),
                                   worst_link, ctx.tols["jackson_link"]))
    return records, constants


def _check_q_operator(ctx):
    records = []
    m = 2
    kernel = aop.build_kernel(6, m)
    for n, dec in ctx.decs.items():
        worst_tail = 0.0
        worst_pass = 0.0
        has_kernel_mode = bool(dec.eigenvalues[0] == 0.0)
        for idx in range(min(ctx.count, 20)):
            f = ctx.corpus[n][idx]
            norm_f = float(np.linalg.norm(f))
            omega = float(ctx.rng.uniform(0.3, 1.0) * dec.lambda_max)
            qf = aop.q_apply(dec, f, omega, m, kernel)
            tail = pw.spectral_tail(dec, qf, omega)
            worst_tail = max(worst_tail, tail / norm_f)
            if has_kernel_mode:
                c_in = spectral_transform(dec, f)
                c_out = spectral_transform(dec, qf)
                zero_modes = dec.eigenvalues == 0.0
                dev = float(np.max(np.abs(c_out[zero_modes] - c_in[zero_modes])))
                worst_pass = max(worst_pass, dev / norm_f)
        records.append(_record("q_tail", _params_str(N=n, m=m), worst_tail,
                               ctx.tols["q_tail"]))
        if has_kernel_mode:
            records.append(_record("q_kernel_pass", _params_str(N=n, m=m), worst_pass,
                                   ctx.tols["q_kernel_pass"]))
    return records, {}


_LEMMA_COMBOS = ((1.5, 1, 2),)


def _check_lemma_ratios(ctx):
    records = []
    constants = {}
    for n, dec in ctx.decs.items():
        for alpha, nn, r in _LEMMA_COMBOS:
            a_emp = 0.0
            c_emp = 0.0
            for idx in range(min(ctx.count, 3)):
                f = ctx.corpus[n][idx]
                rep1 = sm.lemma1_check(dec, f, alpha, nn, r)
                rep2 = sm.lemma2_check(dec, f, alpha, nn, r)
                if not rep1.vacuous:
                    a_emp = max(a_emp, rep1.ratio)
                if not rep2.vacuous:
                    c_emp = max(c_emp, rep2.ratio)
            key = f"alpha={alpha},n={nn},r={r},N={n}"
            constants[f"lemma1_A[{key}]"] = a_emp
            constants[f"lemma2_C[{key}]"] = c_emp
            params = _params_str(N=n, alpha=alpha, n_order=nn, r=r)
            records.append(_record("lemma1_ratio", params, a_emp, ctx.tols["finite_cap"]))
            records.append(_record("lemma2_ratio", params, c_emp, ctx.tols["finite_cap"]))
    return records, constants


_THEOREM1_COMBOS = ((0.7, 1.0), (1.5, 2.0), (0.9, math.inf))
_THEOREM1_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R", "k_functional")


def _check_theorem1_brackets(ctx):
    records = []
    constants = {}
    for n, dec in ctx.decs.items():
        for alpha, q in _THEOREM1_COMBOS:
            norms = []
            for idx in range(min(ctx.count, 10)):
                f = ctx.corpus[n][idx]
                row = [sm.besov_norm(dec, f, sm.BesovParams(alpha=alpha, q=q, flavor=fl))
                       for fl in _THEOREM1_FLAVORS]
                norms.append(row)
            norms = np.array(norms)
            ratios = norms[:, :, None] / norms[:, None, :]
            lo, hi = float(ratios.min()), float(ratios.max())
            q_name = "inf" if q == math.inf else q
            constants[f"theorem1_bracket_lo[alpha={alpha},q={q_name},N={n}]"] = lo
            constants[f"theorem1_bracket_hi[alpha={alpha},q={q_name},N={n}]"] = hi
            params = _params_str(N=n, alpha=alpha, q=q_name)
            records.append(_record("theorem1_bracket", params, hi / lo,
                                   ctx.tols["finite_cap"]))
            # bracket must be scale-invariant: ratios computed from 1000 f match
            scaled = np.array([sm.besov_norm(dec, 1e3 * ctx.corpus[n][0],
                                             sm.BesovParams(alpha=alpha, q=q, flavor=fl))
                               for fl in _THEOREM1_FLAVORS])
            dev = float(np.max(np.abs(scaled / norms[0] / 1e3 - 1.0)))
            records.append(_record("theorem1_scale_invariance", params, dev,
                                   ctx.tols["scale_invariance"]))
    return records, constants


def _check_frame_equivalence(ctx):
    records = []
    constants = {}
    for n, dec in ctx.decs.items():
        for alpha, q in _THEOREM1_COMBOS:
            vectors = ctx.corpus[n][:min(ctx.count, 20)]
            rep = dcmp.equivalence_report(dec, vectors, alpha, q, a=2.0)
            q_name = "inf" if q == math.inf else q
            constants[f"c1[alpha={alpha},q={q_name},N={n}]"] = rep.ratio_lo
            constants[f"c2[alpha={alpha},q={q_name},N={n}]"] = rep.ratio_hi
            params = _params_str(N=n, alpha=alpha, q=q_name)
            records.append(_record("frame_equivalence", params,
                                   rep.ratio_hi / rep.ratio_lo, ctx.tols["finite_cap"]))
            scaled = dcmp.equivalence_report(dec, 1e3 * ctx.corpus[n][0], alpha, q, a=2.0)
            dev = abs(scaled.ratios[0] / rep.ratios[0] - 1.0)
            records.append(_record("frame_scale_invariance", params, dev,
                                   ctx.tols["scale_invariance"]))
    return records, constants


def _check_synthesis_constant(ctx):
    records = []
    a = 2.0
    alpha = 0.8
    for n, dec in ctx.decs.items():
        worst_ratio = 0.0
        worst_recon = 0.0
        worst_tail_dev = 0.0
        edges = pw._band_powers(a, pw.band_count(dec.lambda_max, a) + 1)
        for idx in range(min(ctx.count, 10)):
            f = ctx.corpus[n][idx]
            norm_f = float(np.linalg.norm(f))
            band_dec = dcmp.band_decompose(dec, f, a)
            recon = float(np.linalg.norm(np.sum(band_dec.bands, axis=0) - f))
            worst_recon = max(worst_recon, recon / norm_f)
            norms2 = band_dec.band_norms() ** 2
            for big_n, e_val in enumerate(pw._distances(dec, f, edges, "E") ** 2):
                tail = float(np.sum(norms2[big_n + 1:]))
                worst_tail_dev = max(worst_tail_dev, abs(e_val - tail) / norm_f ** 2)
            rep = dcmp.synthesis_check(dec, band_dec.bands, alpha, a=a)
            if rep.rhs > 0:
                worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
        # non-orthogonal inputs: each band is a random vector squashed to its edge
        for _ in range(5):
            bands = [pw.pw_project(dec, ctx.corpus[n][int(ctx.rng.integers(ctx.count))], edge)
                     for edge in edges]
            rep = dcmp.synthesis_check(dec, bands, alpha, a=a)
            if rep.rhs > 0:
                worst_ratio = max(worst_ratio, rep.lhs / rep.rhs)
        records.append(_record("synthesis_constant", _params_str(N=n, alpha=alpha, a=a),
                               worst_ratio, 1.0 + ctx.tols["synthesis"]))
        records.append(_record("band_reconstruction", _params_str(N=n, a=a),
                               worst_recon, ctx.tols["reconstruction"]))
        records.append(_record("band_tail_identity", _params_str(N=n, a=a),
                               worst_tail_dev, ctx.tols["tail_identity"]))
    return records, {}


#: canonical check order; selection never changes per-check RNG streams
ALL_CHECKS = (
    ("plancherel", _check_plancherel),
    ("e_equals_r", _check_e_equals_r),
    ("bernstein", _check_bernstein),
    ("growth_bound", _check_growth_bound),
    ("riesz_norm", _check_riesz_norm),
    ("riesz_identity", _check_riesz_identity),
    ("modulus_inequalities", _check_modulus_inequalities),
    ("jackson_chain", _check_jackson_chain),
    ("q_operator", _check_q_operator),
    ("lemma_ratios", _check_lemma_ratios),
    ("theorem1_brackets", _check_theorem1_brackets),
    ("frame_equivalence", _check_frame_equivalence),
    ("synthesis_constant", _check_synthesis_constant),
)

CHECK_NAMES = tuple(name for name, _ in ALL_CHECKS)


def run_suite(spec: OperatorSpec, count: int = 100, seed: int = 7,
              sizes=(8, 16), checks=None, tolerances=None) -> VerificationReport:
    """Run the selected checks over a seeded corpus and assemble the report.

    The corpus (one operator per size, ``count`` random vectors each) is
    drawn before any check runs, and each check owns an independent child
    RNG keyed by its canonical position, so the report is a pure function
    of (spec, count, seed, sizes, checks, tolerances).  ``count`` must be
    at least 1, and each operator needs a positive eigenvalue.
    """
    if count < 1:
        raise InvalidParamsError(f"count must be >= 1, got {count}")
    if checks is None:
        selected = list(CHECK_NAMES)
    else:
        unknown = set(checks) - set(CHECK_NAMES)
        if unknown:
            raise ParseError(f"unknown checks: {sorted(unknown)}")
        selected = [name for name in CHECK_NAMES if name in set(checks)]
    tols = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tols.update(tolerances)

    seed_seq = np.random.SeedSequence(seed)
    children = seed_seq.spawn(1 + len(ALL_CHECKS))
    corpus_rng = np.random.default_rng(children[0])

    sizes = tuple(int(n) for n in sizes) if spec.sized else (None,)
    decs = {}
    corpus = {}
    for size in sizes:
        inst = spec.with_size(size) if spec.sized else spec
        if spec.builtin == "random_psd" and inst.seed is None:
            inst = replace(inst, seed=seed * 31 + (size or 0))
        op = build_operator(inst)
        dec = eigh(op)
        n = dec.dim
        if dec.lambda_max == 0.0:
            raise InvalidParamsError(f"spectrum {{0}} at N = {n}: no positive eigenvalue to check")
        decs[n] = dec
        corpus[n] = [corpus_rng.standard_normal(n) + 1j * corpus_rng.standard_normal(n)
                     for _ in range(count)]

    report = VerificationReport(meta={
        "operator": spec.label() if not spec.sized else spec.builtin,
        "kind": spec.kind,
        "seed": seed,
        "count": count,
        "sizes": sorted(decs.keys()),
        "checks": selected,
        "package": "bandapprox",
        "version": PACKAGE_VERSION,
    })
    for index, (name, fn) in enumerate(ALL_CHECKS):
        if name not in selected:
            continue
        ctx = _SuiteContext(decs=decs, corpus=corpus,
                            rng=np.random.default_rng(children[1 + index]),
                            tols=tols, count=count)
        start = time.perf_counter()
        records, constants = fn(ctx)
        report.timings[name] = time.perf_counter() - start
        report.records.extend(records)
        report.constants.update(constants)

    report.records.sort(key=lambda r: (r.check, r.params))
    finite = all(math.isfinite(r.value) for r in report.records) and \
        all(math.isfinite(v) for v in report.constants.values())
    report.overall_pass = bool(finite and all(r.passed for r in report.records))
    return report


def emit_report(report: VerificationReport, fmt: str, path: str) -> None:
    """Write a report as stable-ordered JSON or one-row-per-record CSV."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_json())
    elif fmt == "csv":
        lines = ["check,params,value,tolerance,passed"]
        for r in report.records:
            lines.append(f"{r.check},{r.params},{r.value!r},{r.tolerance!r},"
                         f"{'true' if r.passed else 'false'}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        raise UnsupportedFormatError(f"unknown report format {fmt!r}")


def load_report(path: str) -> VerificationReport:
    """Read back a JSON report written by :func:`emit_report`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON report") from exc
    try:
        records = [CheckRecord(**r) for r in payload["records"]]
        return VerificationReport(meta=payload["meta"], records=records,
                                  constants=payload["constants"],
                                  overall_pass=payload["overall_pass"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed report") from exc
