"""Operator ingestion, seeded verification suite, and report emission.

The suite instantiates an operator family over a list of sizes, draws a
seeded corpus of random vectors once (so the corpus is independent of
which checks run), executes the selected checks, and assembles an
order-normalized report.  Identical spec + seed yields byte-identical
JSON output: grids and iteration orders are fixed and nothing depends on
time, locale or dict ordering.

``run_suite`` calls each check once per size with that size's operator and
corpus, a ``(count, N)`` block.  The checks measure through the public
functions only, with no private name of the library, in block calls with a
parameter per row or a parameter axis (see ``operators``): a row of a block
call has the bits of the call on that row alone.  The growth check projects its
vectors at every group value in one call, and the Riesz identity check takes its
eigenvectors as one block, each at its own eigenvalue, in one call per truncation.
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
from . import __version__
from .errors import (
    BadDimensionError,
    DimensionMismatchError,
    InvalidParamsError,
    ParseError,
    UnsupportedFormatError,
)
from .operators import (
    RAW_L,
    SpectralDecomposition,
    SymmetricOperator,
    eigh,
    schrodinger_group,
    spectral_transform,
)


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
    """The Laplacian of the weighted edges ``(u, v, w)``, each entry added in edge order."""
    lap = np.zeros((num_nodes, num_nodes))
    u, v, w = np.reshape(np.asarray(edges, dtype=float), (-1, 3)).T
    u, v = u.astype(int), v.astype(int)
    np.add.at(lap, (np.c_[u, v, u, v], np.c_[u, v, v, u]), np.c_[w, w, -w, -w])
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
        size, colon, seed = rest.partition(":")  # a size, then a seed with no field after it
        try:
            return OperatorSpec(builtin="random_psd", size=int(size),
                                seed=int(seed) if colon else 0, kind=kind)
        except ValueError as exc:
            raise ParseError(f"bad random spec {text!r}") from exc
    if head == "edges":
        return OperatorSpec(source="edge_list_file", path=rest, kind=kind)
    if head == "matrix":
        return OperatorSpec(source="matrix_file", path=rest, kind=kind)
    raise ParseError(f"cannot parse operator spec {text!r}")


def load_edge_list(path: str, kind: str = RAW_L) -> SymmetricOperator:
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
    if max_node < 0:
        raise BadDimensionError(f"{path}: no nodes found")
    return SymmetricOperator(_laplacian_from_edges(max_node + 1, edges), kind=kind)


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

def save_vector(path: str, vec) -> None:
    """Write a complex vector as CSV (re,im columns) or JSON ([re, im] pairs), by extension."""
    arr = np.asarray(vec, dtype=np.complex128)
    if _infer_format(path) == "csv":
        lines = ["re,im"]
        lines += [f"{z.real:.17g},{z.imag:.17g}" for z in arr]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        payload = [[float(z.real), float(z.imag)] for z in arr]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh)
            fh.write("\n")


def load_vector(path: str, expected_dim: int | None = None) -> np.ndarray:
    """Read a complex vector saved by :func:`save_vector` (round-trip exact)."""
    if _infer_format(path) == "csv":
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
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON") from exc
        try:
            arr = np.array([complex(re, im) for re, im in payload], dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: expected a list of [re, im] pairs") from exc
    if expected_dim is not None and arr.shape[0] != expected_dim:
        raise DimensionMismatchError(
            f"{path}: vector length {arr.shape[0]} != expected {expected_dim}")
    return arr


def _infer_format(path: str) -> str:
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

    ``timings`` holds each executed check's wall seconds, summed over its sizes, and under
    ``"eigh"`` those of the eigensolves.  It is never serialized, so the report bytes stay a
    function of the inputs.
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


#: the one table that turns measurements into pass/fail; overridable per run
DEFAULT_TOLERANCES = {
    "plancherel": 1e-10,
    "e_equals_r": 1e-12,
    "bernstein": 1e-10,
    "bernstein_equality": 1e-12,
    "growth_bound": 1e-10,
    "riesz_norm": 1e-6,
    "riesz_slope": 0.2,
    "modulus_ratio": 1e-6,
    "jackson_ratio": 1e-6,
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
    """One size of one check: operator, corpus rows and the check's RNG (kept across sizes)."""

    n: int
    dec: SpectralDecomposition
    corpus: np.ndarray
    rng: "np.random.Generator"  # a string: importing the library leaves numpy.random unloaded
    tols: dict

    def record(self, check: str, value: float, tolerance: float, **params) -> CheckRecord:
        """The record of ``check`` at this size, named by ``params`` and ``N``."""
        return _record(check, _params_str(N=self.n, **params), value, tolerance)


def _row_norms(x):
    """The norm of each row of ``x``: the sum ``np.linalg.norm`` takes on one complex row."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def _check_plancherel(ctx):
    norms = _row_norms(ctx.corpus)
    gaps = np.abs(_row_norms(spectral_transform(ctx.dec, ctx.corpus)) - norms)
    worst = max([0.0] + (gaps / (1.0 + norms)).tolist())
    return [ctx.record("plancherel", worst, ctx.tols["plancherel"])], {}


def _check_e_equals_r(ctx):
    omegas = ctx.rng.uniform(0.0, 1.2 * ctx.dec.lambda_max, size=len(ctx.corpus))
    # both routes, each vector at its own omega: E = R stays a real check
    gaps = np.abs(pw.best_approx(ctx.dec, ctx.corpus, omegas)
                  - pw.spectral_tail(ctx.dec, ctx.corpus, omegas))
    worst = max([0.0] + (gaps / (1.0 + _row_norms(ctx.corpus))).tolist())
    return [ctx.record("e_equals_r", worst, ctx.tols["e_equals_r"])], {}


_BERNSTEIN_POWERS = (0.5, 1.0, 2.0, 7.0)


def _check_bernstein(ctx):
    """Worst Bernstein ratio of every corpus vector, each projected onto a random band."""
    dec = ctx.dec
    omegas = ctx.rng.choice(dec.eigenvalues[dec.eigenvalues > 0], size=len(ctx.corpus))
    projected = pw.pw_project(dec, ctx.corpus, omegas)
    kept = _row_norms(projected) >= 1e-12
    rep = pw.bernstein_check(dec, projected[kept], omegas[kept], _BERNSTEIN_POWERS)
    worst = max([0.0] + rep.max_ratio.tolist())
    rep = pw.bernstein_check(dec, dec.eigenvectors[:, -1], dec.lambda_max, _BERNSTEIN_POWERS)
    return [ctx.record("bernstein", worst, 1.0 + ctx.tols["bernstein"],
                       s=str(_BERNSTEIN_POWERS)),
            ctx.record("bernstein_equality", float(np.max(np.abs(rep.ratios - 1.0))),
                       ctx.tols["bernstein_equality"])], {}


def _check_growth_bound(ctx):
    """Worst ``||e^{izD} f|| / (e^{omega |Im z|} ||f||)``, 20 band-limited vectors at 20 z."""
    dec, kept, worst = ctx.dec, [], 0.0
    positive = dec.eigenvalues[dec.eigenvalues > 0]
    values = positive[np.diff(positive, prepend=0.0) > 0]  # one per eigenspace, as drawn
    for row in pw.pw_project(dec, ctx.corpus[:20, None], values):
        omega = float(ctx.rng.choice(positive))
        f = row[values.searchsorted(omega)]
        norm_f = float(np.linalg.norm(f))
        if norm_f < 1e-12 or omega == 0.0:
            continue
        # row k holds Re z_k and Im z_k, drawn in the order of 40 scalar draws
        re, im = ctx.rng.uniform(-2, 2, size=(20, 2)).T
        zs = re + 1j * im
        kept.append((f, zs, np.array([math.exp(omega * abs(z.imag)) for z in zs]) * norm_f))
    if kept:
        fs, zs, bounds = map(np.array, zip(*kept))
        grown = np.linalg.norm(schrodinger_group(dec, zs, fs[:, None]), axis=-1)
        worst = float(np.max(grown / bounds))
    return [ctx.record("growth_bound", worst, 1.0 + ctx.tols["growth_bound"])], {}


def _check_riesz_norm(ctx):
    corpus = ctx.corpus[:20]
    omegas = ctx.rng.uniform(0.3, 1.2, size=len(corpus)) * ctx.dec.lambda_max
    applied = aop.riesz_apply(ctx.dec, corpus, aop.RieszConfig(omega=omegas))
    worst = max([0.0] + (_row_norms(applied) / (omegas * _row_norms(corpus))).tolist())
    return [ctx.record("riesz_norm", worst, 1.0 + ctx.tols["riesz_norm"], K=10_000)], {}


def _check_riesz_identity(ctx):
    # the truncation error peaks at the band edge, where it decays like 1/K;
    # strictly inside the band the phases cancel one order better, so the
    # slope is measured with each eigenvector at its own edge omega = lambda_j
    dec = ctx.dec
    truncations = (100, 1000, 10_000)
    lam = dec.eigenvalues
    eligible = np.where(lam > 0.2 * dec.lambda_max)[0]
    picks = eligible[np.linspace(0, len(eligible) - 1, min(3, len(eligible))).astype(int)]
    reps = [aop.riesz_identity_check(dec, dec.eigenvectors[:, picks].T, lam[picks], 1, k)
            for k in truncations]
    worst_slope_dev = worst_tail_ratio = 0.0
    for residuals, bound in zip(np.transpose([r.residual for r in reps]).tolist(),
                                reps[-1].tail_bound.tolist()):
        slope = np.polyfit(np.log(truncations), np.log(residuals), 1)[0]
        worst_slope_dev = max(worst_slope_dev, abs(slope + 1.0))
        worst_tail_ratio = max(worst_tail_ratio, residuals[-1] / bound)
    return [ctx.record("riesz_identity_slope", worst_slope_dev, ctx.tols["riesz_slope"]),
            ctx.record("riesz_identity_tail", worst_tail_ratio, 1.0 + 1e-10, K=10_000)], {}


def _check_modulus_inequalities(ctx):
    """Worst ratio of 50 trials; power ratios of ``k >= 1`` only (at ``k = 0`` it is 1)."""
    trials = []
    for trial in range(50):
        s = float(np.exp(ctx.rng.uniform(math.log(0.05), math.log(20.0))) / ctx.dec.lambda_max)
        a_scale = float(np.exp(ctx.rng.uniform(math.log(0.3), math.log(4.0))))
        m = int(ctx.rng.integers(1, 4))
        trials.append((trial % len(ctx.corpus), s, a_scale, m, int(ctx.rng.integers(0, m + 1))))
    rows, *params = (np.array(column) for column in zip(*trials))
    rep = sm.modulus_inequality_checks(ctx.dec, ctx.corpus[rows], *params)
    worst = max(0.0, *rep.ratio_scale.tolist(), *rep.ratio_power[params[-1] > 0].tolist())
    return [ctx.record("modulus_inequalities", worst, 1.0 + ctx.tols["modulus_ratio"],
                       trials=50)], {}


_JACKSON_COMBOS = ((2, 0, 6), (2, 1, 6), (3, 1, 8))


def _check_jackson_chain(ctx):
    """Worst Jackson ratio and link gap of 10 vectors at 5 band edges, per kernel and order."""
    dec = ctx.dec
    records, constants = [], {}
    start = dec.eigenvalues[0] if dec.eigenvalues[0] > 0 else dec.min_positive_eigenvalue
    omegas = np.linspace(start, 2.0 * dec.lambda_max, 5)
    for m, k, order in _JACKSON_COMBOS:
        kernel = aop.build_kernel(order, m)
        constants[f"jackson_C[m={m},k={k},n={order}]"] = aop.jackson_constant(kernel, m, k)
        rep = aop.jackson_check(dec, ctx.corpus[:10, None], omegas, m, k, kernel)
        worst_ratio = max(0.0, *np.maximum(rep.ratio_best, rep.ratio_q).ravel().tolist())
        worst_link = max(0.0, *rep.link_gap.ravel().tolist())
        params = dict(m=m, k=k, n_kernel=order)
        records += [ctx.record("jackson_chain", worst_ratio, 1.0 + ctx.tols["jackson_ratio"],
                               **params),
                    ctx.record("jackson_link", worst_link, ctx.tols["jackson_link"], **params)]
    return records, constants


def _check_q_operator(ctx):
    dec, m = ctx.dec, 2
    kernel = aop.build_kernel(6, m)
    corpus = ctx.corpus[:20]
    omegas = ctx.rng.uniform(0.3, 1.0, size=len(corpus)) * dec.lambda_max
    q_out = aop.q_apply(dec, corpus, omegas, m, kernel)
    zero_modes = dec.eigenvalues == 0.0
    devs = np.abs(spectral_transform(dec, q_out) - spectral_transform(dec, corpus))[:, zero_modes]
    norms = _row_norms(corpus).tolist()
    worst_tail = max([0.0] + np.divide(pw.spectral_tail(dec, q_out, omegas), norms).tolist())
    worst_pass = max([0.0] + [float(np.max(dev, initial=0.0)) / n for dev, n in zip(devs, norms)])
    records = [ctx.record("q_tail", worst_tail, ctx.tols["q_tail"], m=m)]
    if zero_modes[0]:
        records.append(ctx.record("q_kernel_pass", worst_pass, ctx.tols["q_kernel_pass"], m=m))
    return records, {}


_LEMMA_COMBOS = ((1.5, 1, 2),)


def _check_lemma_ratios(ctx):
    records, constants = [], {}
    for alpha, nn, r in _LEMMA_COMBOS:
        a_emp = max(0.0, *sm.lemma1_check(ctx.dec, ctx.corpus[:3], alpha, nn, r).ratio.tolist())
        c_emp = max(0.0, *sm.lemma2_check(ctx.dec, ctx.corpus[:3], alpha, nn, r).ratio.tolist())
        key = f"alpha={alpha},n={nn},r={r},N={ctx.n}"
        constants[f"lemma1_A[{key}]"] = a_emp
        constants[f"lemma2_C[{key}]"] = c_emp
        params = dict(alpha=alpha, n_order=nn, r=r)
        records += [ctx.record("lemma1_ratio", a_emp, ctx.tols["finite_cap"], **params),
                    ctx.record("lemma2_ratio", c_emp, ctx.tols["finite_cap"], **params)]
    return records, constants


_THEOREM1_COMBOS = ((0.7, 1.0), (1.5, 2.0), (0.9, math.inf))
_THEOREM1_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R", "k_functional")


def _scaled_corpus(ctx, rows):
    """The first ``rows`` corpus vectors and ``1000 f_0``: a bracket must be scale-invariant."""
    return np.concatenate((ctx.corpus[:rows], 1e3 * ctx.corpus[:1]))


def _check_theorem1_brackets(ctx):
    """Norm brackets of up to 10 vectors and 1000 f_0: one ``besov_norm`` call per flavor, every
    vector at every ``(alpha, q)``."""
    records, constants = [], {}
    rows, (alphas, qs) = _scaled_corpus(ctx, 10)[:, None], zip(*_THEOREM1_COMBOS)
    table = np.stack([sm.besov_norm(ctx.dec, rows, sm.BesovParams(alpha=alphas, q=qs, flavor=fl))
                      for fl in _THEOREM1_FLAVORS], axis=-1)
    for (alpha, q), block in zip(_THEOREM1_COMBOS, table.transpose(1, 0, 2)):
        norms, scaled = block[:-1], block[-1]
        ratios = norms[:, :, None] / norms[:, None, :]
        lo, hi = float(ratios.min()), float(ratios.max())
        q_name = "inf" if q == math.inf else q
        constants[f"theorem1_bracket_lo[alpha={alpha},q={q_name},N={ctx.n}]"] = lo
        constants[f"theorem1_bracket_hi[alpha={alpha},q={q_name},N={ctx.n}]"] = hi
        dev = float(np.max(np.abs(scaled / norms[0] / 1e3 - 1.0)))
        records += [ctx.record("theorem1_bracket", hi / lo, ctx.tols["finite_cap"],
                               alpha=alpha, q=q_name),
                    ctx.record("theorem1_scale_invariance", dev, ctx.tols["scale_invariance"],
                               alpha=alpha, q=q_name)]
    return records, constants


def _check_frame_equivalence(ctx):
    """Frame ratios of up to 20 vectors and 1000 f_0 for every ``(alpha, q)``."""
    records, constants = [], {}
    alphas, qs = zip(*_THEOREM1_COMBOS)
    ratios = dcmp.equivalence_report(ctx.dec, _scaled_corpus(ctx, 20)[:, None], alphas, qs).ratios
    for (alpha, q), column in zip(_THEOREM1_COMBOS, ratios.T):
        lo, hi = float(column[:-1].min()), float(column[:-1].max())
        q_name = "inf" if q == math.inf else q
        constants[f"c1[alpha={alpha},q={q_name},N={ctx.n}]"] = lo
        constants[f"c2[alpha={alpha},q={q_name},N={ctx.n}]"] = hi
        records += [ctx.record("frame_equivalence", hi / lo, ctx.tols["finite_cap"],
                               alpha=alpha, q=q_name),
                    ctx.record("frame_scale_invariance", abs(column[-1] / column[0] - 1.0),
                               ctx.tols["scale_invariance"], alpha=alpha, q=q_name)]
    return records, constants


def _check_synthesis_constant(ctx):
    dec, a, alpha = ctx.dec, 2.0, 0.8
    corpus = ctx.corpus[:10]
    band_dec = dcmp.band_decompose(dec, corpus, a)
    edges, norms = band_dec.band_edges, _row_norms(corpus)
    recon = _row_norms(np.sum(band_dec.bands, axis=-2) - corpus)
    worst_recon = max([0.0] + (recon / norms).tolist())
    worst_tail_dev, dists = 0.0, pw.best_approx(dec, corpus[:, None], edges)
    for norm_f, norms2, e2_row in zip(norms.tolist(), band_dec.band_norms() ** 2, dists ** 2):
        for big_n, e2 in enumerate(e2_row):
            tail = float(np.sum(norms2[big_n + 1:]))
            worst_tail_dev = max(worst_tail_dev, abs(e2 - tail) / norm_f ** 2)
    worst_ratio = max(0.0, *dcmp.synthesis_check(dec, band_dec.bands, alpha, a=a).ratio.tolist())
    # non-orthogonal inputs: each band is a random vector squashed to its edge
    picks = [[int(ctx.rng.integers(len(ctx.corpus))) for _ in edges] for _ in range(5)]
    bands = pw.pw_project(dec, ctx.corpus[picks], edges)
    worst_ratio = max(worst_ratio, *dcmp.synthesis_check(dec, bands, alpha, a=a).ratio.tolist())
    return [ctx.record("synthesis_constant", worst_ratio, 1.0 + ctx.tols["synthesis"],
                       alpha=alpha, a=a),
            ctx.record("band_reconstruction", worst_recon, ctx.tols["reconstruction"], a=a),
            ctx.record("band_tail_identity", worst_tail_dev, ctx.tols["tail_identity"], a=a)], {}


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
    at least 1, the sizes must be distinct (a repeated size would draw its
    corpus twice), and each operator needs a positive eigenvalue.
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

    sizes = tuple(int(n) for n in sizes)
    if len(set(sizes)) != len(sizes):
        raise InvalidParamsError(f"sizes must be distinct, got {list(sizes)}")
    if not spec.sized:
        sizes = (None,)
    decs, corpus, eigh_s = {}, {}, 0.0
    for size in sizes:
        inst = spec.with_size(size) if spec.sized else spec
        if spec.builtin == "random_psd" and inst.seed is None:
            inst = replace(inst, seed=seed * 31 + (size or 0))
        op = build_operator(inst)
        start = time.perf_counter()
        dec = eigh(op)
        eigh_s += time.perf_counter() - start
        n = dec.dim
        if dec.lambda_max == 0.0:
            raise InvalidParamsError(f"spectrum {{0}} at N = {n}: no positive eigenvalue to check")
        decs[n] = dec
        draws = corpus_rng.standard_normal((count, 2, n))  # per vector: n real, n imaginary
        corpus[n] = draws[:, 0] + 1j * draws[:, 1]

    report = VerificationReport(meta={
        "operator": spec.label() if not spec.sized else spec.builtin,
        "kind": spec.kind,
        "seed": seed,
        "count": count,
        "sizes": sorted(decs.keys()),
        "checks": selected,
        "package": "bandapprox",
        "version": __version__,
    }, timings={"eigh": eigh_s})
    for index, (name, fn) in enumerate(ALL_CHECKS):
        if name not in selected:
            continue
        rng = np.random.default_rng(children[1 + index])
        start = time.perf_counter()
        for n, dec in decs.items():
            records, constants = fn(_SuiteContext(n, dec, corpus[n], rng, tols))
            report.records.extend(records)
            report.constants.update(constants)
        report.timings[name] = time.perf_counter() - start

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
