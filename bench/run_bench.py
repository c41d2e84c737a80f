"""End-to-end and per-layer benchmark of bandapprox.

Usage, from the root of a checkout::

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own process as a closed loop with one client:
the next item starts only after the previous one completes.

* ``verify-cycle``: one item is ``bandapprox verify --op cycle:8
  --count 100 --sizes 8,16 --seed N``, run in-process through
  ``cli.main``.  The K-functional and modulus-seminorm searches dominate;
  the eigensolve is negligible.
* ``profile-256``: one ``random_psd:256`` operator decomposed once in
  set-up; one item is the full analysis of one generated vector.
  Set-up is almost all the eigensolve.
* ``sweep-small``: one item is a sweep: building, decomposing and lightly
  querying 25 operators, five families (including the fully degenerate
  ``complete:N`` and a ``raw_D`` diagonal) at the sizes N = 8, 22, ..., 64.
  Operator times range from 1 ms to 0.5 s, so a median over single
  operators would be one operator's time and jump with rank; a whole
  sweep is the unit that repeats.

Untraced (``--trace 0``) runs repeat set-up ``SETUP_REPEATS`` times (the
extra repeats in fresh processes, so import is included) and report the
median as ``setup_s``; they then run whole items until ``--seconds`` at
nominal speed (below) have elapsed, and
report throughput, the median item latency, the tail latency (the
largest sample with at least ten samples above it; the maximum if there
are fewer than eleven) and the peak RSS.  Every time they report is
taken at a nominal machine speed:
the host's speed drifts by tens of percent within a minute, so each raw
time is scaled by a reference loop timed all through the run (see
``speedprobe``); the raw values go to the result file.

Traced (``--trace 1``) runs set up once under the tracer, then run a
fixed amount of work derived from ``--seconds`` twice, untraced and
traced, and report per-layer counts and raw times from the spans; the
difference of the two wall times, each at nominal speed, is the tracing
overhead.

Every run checks its outputs against gates: eigendecomposition residual
and orthogonality, E = R, Plancherel, band reconstruction, the Q-operator
tail and the Riesz norm bound, with the limits of
``harness.DEFAULT_TOLERANCES``; ``verify-cycle`` needs every record to
pass, and in traced runs a byte-identical report with and without the
tracer.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name each metric with its unit, and a result file with
provenance goes to ``bench/out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# single-threaded BLAS, set before NumPy loads, so runs do not compete for cores
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import tracer as tracing  # noqa: E402  (the benchmark's own modules, stdlib only)
from speedprobe import SpeedProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SCHEMA_VERSION = 1

WORKLOADS = ("verify-cycle", "profile-256", "sweep-small")
#: set-ups per untraced run; the eigensolve makes each profile-256 set-up long
SETUP_REPEATS = {"verify-cycle": 3, "profile-256": 2, "sweep-small": 3}
#: samples that must lie above the tail-latency sample
TAIL_BEYOND = 10

#: stated limits of the eigendecomposition gates (relative Frobenius norms)
EIG_RESIDUAL_TOL = 1e-10
EIG_ORTHOGONALITY_TOL = 1e-10

# fixed here so the metric names match BENCHMARK.json; self_check.py compares
# them with the library's lists
BESOV_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R",
                 "k_functional", "modulus")
CHECK_NAMES = ("plancherel", "e_equals_r", "bernstein", "growth_bound", "riesz_norm",
               "riesz_identity", "modulus_inequalities", "jackson_chain", "q_operator",
               "lemma_ratios", "theorem1_brackets", "frame_equivalence",
               "synthesis_constant")

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in a fixed order."""
    names = []
    for layer, fns in tracing.TRACED.items():
        for fn in fns:
            names += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.busy_s", "s"),
                      (f"{layer}.{fn}.self_s", "s")]
    names += [(f"smoothness.besov_norm.{fl}.busy_s", "s") for fl in BESOV_FLAVORS]
    names += [(f"harness.check.{check}.busy_s", "s") for check in CHECK_NAMES]
    names += [(f"{layer}.errors", "count") for layer in tracing.ERROR_LAYERS]
    names += [("operators.transforms_per_vector", "count"),
              ("operators.transform_bytes_computed", "B"),
              ("approx_operators.riesz_symbol_bytes_computed", "B"),
              ("tracing_overhead_s", "s")]
    return names


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads; ``SMALL`` is the quick self-check at N = 8."""

    verify_count: int
    verify_sizes: str
    profile_n: int
    profile_pool: int
    sweep_sizes: tuple


FULL = Scale(100, "8,16", 256, 32, tuple(range(8, 65, 14)))
SMALL = Scale(3, "8", 8, 1, (8,))
SWEEP_FAMILIES = ("cycle", "path", "complete", "random_psd", "diagonal")


class Gates:
    """Correctness gates: each evaluation counts as attempted, a miss as failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def limit(self, name, value, bound):
        self.attempted += 1
        if not (math.isfinite(value) and value <= bound):
            self.failures.append(f"{name}: {value!r} > {bound!r}")

    def require(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


class Library:
    """The imported bandapprox modules; importing them is part of set-up."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import numpy

        import bandapprox
        from bandapprox import approx_operators, cli, decomposition, errors, harness
        from bandapprox import operators, paley_wiener, smoothness

        if Path(bandapprox.__file__).resolve().parent != SRC / "bandapprox":
            raise SystemExit(f"error: imported bandapprox from {bandapprox.__file__}")
        self.np = numpy
        self.aop, self.cli, self.dcmp = approx_operators, cli, decomposition
        self.errors, self.harness, self.ops = errors, harness, operators
        self.pw, self.sm = paley_wiener, smoothness


def eig_gates(lib, gates, op, dec, label):
    """Residual ||LV - V Lambda|| / ||L|| and orthogonality ||V^T V - I||."""
    np = lib.np
    mat = op.entries
    lam = dec.eigenvalues ** 2 if dec.kind == lib.ops.RAW_L else dec.eigenvalues
    vecs = dec.eigenvectors
    scale = float(np.linalg.norm(mat)) or 1.0
    gates.limit(f"{label} eig_residual", float(np.linalg.norm(mat @ vecs - vecs * lam)) / scale,
                EIG_RESIDUAL_TOL)
    gates.limit(f"{label} eig_orthogonality",
                float(np.linalg.norm(vecs.T @ vecs - np.eye(dec.dim))), EIG_ORTHOGONALITY_TOL)


def coefficient_gates(lib, gates, dec, f, omega, e_val, bands, label):
    """E = R, Plancherel and band reconstruction, computed with NumPy directly."""
    np = lib.np
    tols = lib.harness.DEFAULT_TOLERANCES
    coeffs = dec.eigenvectors.T @ f
    norm_f = float(np.linalg.norm(f))
    r_val = float(np.linalg.norm(coeffs[dec.eigenvalues > omega]))
    gates.limit(f"{label} e_equals_r", abs(e_val - r_val) / (1.0 + norm_f), tols["e_equals_r"])
    gates.limit(f"{label} plancherel", abs(float(np.linalg.norm(coeffs)) - norm_f) / (1.0 + norm_f),
                tols["plancherel"])
    recon = float(np.linalg.norm(np.sum(bands, axis=0) - f)) / norm_f
    gates.limit(f"{label} reconstruction", recon, tols["reconstruction"])


def random_vectors(np, rng, n, count):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]


# -- workloads -----------------------------------------------------------------------
#
# Each workload class does its set-up in __init__, runs one item in item(i)
# and checks the collected outputs in check(); a traced run makes one item
# per nominal_item_s of --seconds; vectors_per_item normalizes transform counts.

class VerifyCycle:
    nominal_item_s = 10

    def __init__(self, lib, seed, scale):
        self.lib = lib
        self.vectors_per_item = scale.verify_count * len(scale.verify_sizes.split(","))
        self.argv = ["verify", "--op", "cycle:8", "--count", str(scale.verify_count),
                     "--sizes", scale.verify_sizes, "--seed", str(seed)]
        self.report_path = OUT_DIR / f"verify-report-seed{seed}.json"

    def item(self, _index):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.lib.cli.main(self.argv + ["--json", str(self.report_path)])
        return code, self.report_path.read_bytes()

    def check(self, gates, outputs):
        for code, report in outputs:
            payload = json.loads(report)
            gates.require("verify exit code 0", code == 0)
            gates.require("verify overall_pass", payload["overall_pass"] is True)
            for record in payload["records"]:
                gates.require(f"verify record {record['check']} ({record['params']})",
                              record["passed"] is True)


class Profile256:
    nominal_item_s = 1
    vectors_per_item = 1
    alpha, q = 1.5, 2.0

    def __init__(self, lib, seed, scale):
        np = lib.np
        self.lib = lib
        rng = np.random.default_rng([seed, 256])
        spec = lib.harness.OperatorSpec(builtin="random_psd", size=scale.profile_n, seed=seed)
        self.op = lib.harness.build_operator(spec)
        self.dec = lib.ops.eigh(self.op)
        self.kernel = lib.aop.build_kernel(6, 2)
        lam_max = self.dec.lambda_max
        lam_min = self.dec.min_positive_eigenvalue
        self.inputs = [(f, float(rng.uniform(0.2, 1.0)) * lam_max,
                        float(rng.uniform(0.3, 1.0)) * lam_max,
                        float(rng.uniform(0.3, 1.2)) * lam_max,
                        float(rng.uniform(lam_min, 2.0 * lam_max)))
                       for f in random_vectors(np, rng, scale.profile_n, scale.profile_pool)]

    def item(self, index):
        lib, dec = self.lib, self.dec
        pw, sm, aop, dcmp = lib.pw, lib.sm, lib.aop, lib.dcmp
        f, omega, omega_q, omega_r, omega_j = self.inputs[index % len(self.inputs)]
        pw.pw_project(dec, f, omega)
        e_val = pw.best_approx(dec, f, omega)
        pw.spectral_tail(dec, f, omega)
        pw.bandwidth(dec, f)
        for flavor in ("integral_E", "discrete_E", "integral_R", "discrete_R"):
            sm.besov_norm(dec, f, sm.BesovParams(alpha=self.alpha, q=self.q, flavor=flavor))
        bands = dcmp.band_decompose(dec, f, 2.0)
        dcmp.frame_norm(bands, self.alpha, self.q)
        qf = aop.q_apply(dec, f, omega_q, 2, self.kernel)
        rf = aop.riesz_apply(dec, f, aop.RieszConfig(omega=omega_r))
        aop.jackson_check(dec, f, omega_j, 2, 0, self.kernel)
        return index, e_val, bands.bands, qf, rf

    def check(self, gates, outputs):
        np = self.lib.np
        tols = self.lib.harness.DEFAULT_TOLERANCES
        dec = self.dec
        eig_gates(self.lib, gates, self.op, dec, "profile")
        for index, e_val, bands, qf, rf in outputs:
            f, omega, omega_q, omega_r, _ = self.inputs[index % len(self.inputs)]
            label = f"vector {index}"
            coefficient_gates(self.lib, gates, dec, f, omega, e_val, bands, label)
            norm_f = float(np.linalg.norm(f))
            q_tail = float(np.linalg.norm((dec.eigenvectors.T @ qf)[dec.eigenvalues > omega_q]))
            gates.limit(f"{label} q_tail", q_tail / norm_f, tols["q_tail"])
            gates.limit(f"{label} riesz_norm", float(np.linalg.norm(rf)) / (omega_r * norm_f),
                        1.0 + tols["riesz_norm"])


class SweepSmall:
    nominal_item_s = 3
    vectors_per_op = 3

    def __init__(self, lib, seed, scale):
        np = lib.np
        self.lib = lib
        rng = np.random.default_rng([seed, 64])
        self.schedule = []
        for n in scale.sweep_sizes:
            for family in SWEEP_FAMILIES:
                if family == "diagonal":
                    values = tuple(float(v) for v in np.round(rng.uniform(0.0, 4.0, n), 1))
                    spec = lib.harness.OperatorSpec(builtin="diagonal", spectrum=values,
                                                    kind=lib.ops.RAW_D)
                elif family == "random_psd":
                    spec = lib.harness.OperatorSpec(builtin="random_psd", size=n,
                                                    seed=int(rng.integers(2 ** 31)))
                else:
                    spec = lib.harness.OperatorSpec(builtin=family, size=n)
                inputs = [(f, float(rng.uniform(0.0, 1.2)))
                          for f in random_vectors(np, rng, n, self.vectors_per_op)]
                self.schedule.append((family, n, spec, inputs))
        self.vectors_per_item = self.vectors_per_op * len(self.schedule)

    def operator(self, spec, inputs):
        lib = self.lib
        pw, sm, dcmp = lib.pw, lib.sm, lib.dcmp
        op = lib.harness.build_operator(spec)
        dec = lib.ops.eigh(op)
        results = []
        for f, fraction in inputs:
            omega = fraction * dec.lambda_max
            e_val = pw.best_approx(dec, f, omega)
            sm.besov_norm(dec, f, sm.BesovParams(alpha=0.7, q=1.0, flavor="integral_R"))
            results.append((omega, e_val, dcmp.band_decompose(dec, f, 2.0).bands))
        return op, dec, len(dec.groups), results

    def item(self, index):
        """One sweep; each operator's output carries its wall seconds."""
        outputs = []
        for _, _, spec, inputs in self.schedule:
            start = time.perf_counter()
            out = self.operator(spec, inputs)
            outputs.append(out + (time.perf_counter() - start,))
        return index, outputs

    def operator_seconds_by_n(self, outputs):
        """Total wall seconds spent on the operators of each size."""
        by_n = {}
        for _, sweep in outputs:
            for (_, n, _, _), (*_, seconds) in zip(self.schedule, sweep):
                by_n[n] = by_n.get(n, 0.0) + seconds
        return by_n

    def check(self, gates, outputs):
        np = self.lib.np
        for _, sweep in outputs:
            for (family, n, spec, inputs), (op, dec, groups, results, _) in zip(self.schedule,
                                                                              sweep):
                label = f"{family}:{n}"
                eig_gates(self.lib, gates, op, dec, label)
                if family == "complete":
                    gates.require(f"{label} has 2 degeneracy groups", groups == min(n, 2))
                if family == "diagonal":
                    gates.require(f"{label} groups match distinct values",
                                  groups == len(np.unique(spec.spectrum)))
                for (f, _), (omega, e_val, bands) in zip(inputs, results):
                    coefficient_gates(self.lib, gates, dec, f, omega, e_val, bands, label)


WORKLOAD_CLASSES = {"verify-cycle": VerifyCycle, "profile-256": Profile256,
                    "sweep-small": SweepSmall}


# -- measurement -----------------------------------------------------------------------

def timed_setup(workload, seed, scale):
    """Import the library and set the workload up under a speed probe.

    Returns (lib, state, raw seconds, seconds at nominal speed).
    """
    with SpeedProbe() as probe:
        spent = probe.spent
        start = time.perf_counter()
        lib = Library()
        state = WORKLOAD_CLASSES[workload](lib, seed, scale)
        raw = time.perf_counter() - start - (probe.spent - spent)
    return lib, state, raw, raw * probe.factor


def child_setup_seconds(workload, seed):
    """(raw, nominal) set-up seconds of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return times["raw_s"], times["setup_s"]


def run_items(state, indices, on_item=None, probe=None):
    """Run the given items in order; returns (outputs, latencies, intervals, wall).

    With a probe, the time spent in it is taken out of the latencies and wall.
    """
    outputs, latencies, intervals = [], [], []
    spent_at_start = probe.spent if probe else 0.0
    start = time.perf_counter()
    for index in indices:
        if on_item:
            on_item(index)
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        outputs.append(state.item(index))
        t1 = time.perf_counter()
        latencies.append(t1 - t0 - ((probe.spent - spent) if probe else 0.0))
        intervals.append((t0, t1))
    wall = time.perf_counter() - start - ((probe.spent - spent_at_start) if probe else 0.0)
    return outputs, latencies, intervals, wall


def run_for(state, seconds, probe):
    """Items until ``seconds`` at nominal speed have elapsed (at least one).

    Counting nominal rather than raw seconds keeps the number of items, and
    so the rank of the tail sample, from changing with the host's speed.
    """
    outputs, latencies, intervals = [], [], []
    elapsed = 0.0
    index = 0
    while True:
        out, lat, spans, wall = run_items(state, [index], probe=probe)
        outputs += out
        latencies += lat
        intervals += spans
        index += 1
        elapsed += wall
        if elapsed * probe.factor >= seconds:
            return outputs, latencies, intervals


def tail_latency(latencies):
    """(value, percentile): the largest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_item_count(state, seconds):
    """Fixed work of a traced run, so that its counts repeat exactly."""
    return max(1, seconds // state.nominal_item_s)


def timing_metrics(setups, latencies):
    """End-to-end timing metrics from set-up samples and item latencies."""
    tail, tail_pct = tail_latency(latencies)
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_tail_ms": 1e3 * tail,
    }, tail_pct


def measure(workload, seed, seconds, scale, setup_repeats):
    """Untraced run: end-to-end metrics at nominal speed (raw ones in the details)."""
    setups = [child_setup_seconds(workload, seed) for _ in range(setup_repeats - 1)]
    lib, state, *own_setup = timed_setup(workload, seed, scale)
    setups.append(tuple(own_setup))
    with SpeedProbe() as probe:
        outputs, latencies, intervals = run_for(state, seconds, probe)
    gates = Gates()
    state.check(gates, outputs)
    nominal = [lat * probe.local_factor(t0, t1) for lat, (t0, t1) in zip(latencies, intervals)]
    metrics, tail_pct = timing_metrics([nominal_s for _, nominal_s in setups], nominal)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw, _ = timing_metrics([raw_s for raw_s, _ in setups], latencies)
    extra = {"raw": raw, "speed_factor": probe.factor,
             "setup_samples_s": setups, "items": len(latencies),
             "tail_percentile": tail_pct,
             "tail_samples_beyond": min(TAIL_BEYOND, len(latencies) - 1)}
    return lib, metrics, gates, extra


def measure_traced(workload, seed, seconds, scale):
    """Traced run: per-layer metrics from spans, plus the tracing overhead."""
    start = time.perf_counter()
    lib = Library()
    tracer = tracing.Tracer(lib.errors.BandApproxError)
    gates = Gates()

    def rebind(install):
        tracer.install() if install else tracer.remove()
        stale = tracer.stale_bindings(installed=install)
        gates.require(f"binding self-check ({'installed' if install else 'removed'}): "
                      f"{', '.join(stale)}", not stale)

    rebind(True)
    state = WORKLOAD_CLASSES[workload](lib, seed, scale)
    rebind(False)
    setup_s = time.perf_counter() - start
    indices = range(trace_item_count(state, seconds))
    # edge samples only: a timer would put probe time inside the spans
    with SpeedProbe(interval=None) as plain_probe:
        plain_out, _, _, plain_wall = run_items(state, indices)
    plain_bytes = [out[1] for out in plain_out] if workload == "verify-cycle" else None
    rebind(True)

    def mark(index):
        tracer.item = index

    with SpeedProbe(interval=None) as traced_probe:
        traced_out, _, _, traced_wall = run_items(state, indices, mark)
    rebind(False)
    tracer.item = None

    state.check(gates, plain_out + traced_out)
    extra = {"setup_s": setup_s, "items": len(indices), "untraced_s": plain_wall,
             "traced_s": traced_wall, "spans": len(tracer.spans)}
    if plain_bytes is not None:
        traced_bytes = [out[1] for out in traced_out]
        gates.require("traced verify report byte-identical to untraced",
                      plain_bytes == traced_bytes)
        extra["report_sha256"] = [hashlib.sha256(b).hexdigest() for b in plain_bytes]

    agg = tracer.aggregate()
    metrics = {}
    for layer, fns in tracing.TRACED.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            metrics[f"{name}.calls"] = agg["calls"][name]
            metrics[f"{name}.busy_s"] = agg["busy"][name]
            metrics[f"{name}.self_s"] = agg["self"][name]
    for flavor in BESOV_FLAVORS:
        metrics[f"smoothness.besov_norm.{flavor}.busy_s"] = agg["flavor_busy"][flavor]
    for check in CHECK_NAMES:
        metrics[f"harness.check.{check}.busy_s"] = agg["busy"][f"harness.check.{check}"]
    for layer in tracing.ERROR_LAYERS:
        metrics[f"{layer}.errors"] = tracer.errors[layer]
    vectors = len(indices) * state.vectors_per_item
    transforms = sum(1 for span in tracer.spans
                     if span[0] == "operators.spectral_transform" and span[5] is not None)
    metrics["operators.transforms_per_vector"] = transforms / vectors
    metrics["operators.transform_bytes_computed"] = agg["attr_sum"]["operators.spectral_transform"]
    metrics["approx_operators.riesz_symbol_bytes_computed"] = \
        agg["attr_sum"]["approx_operators.riesz_symbol"]
    metrics["tracing_overhead_s"] = (traced_wall * traced_probe.factor
                                     - plain_wall * plain_probe.factor)
    op_seconds = (state.operator_seconds_by_n(traced_out)
                  if hasattr(state, "operator_seconds_by_n") else None)
    extra.update(eigh_shares(tracer, setup_s, op_seconds))
    return lib, metrics, gates, extra, tracer


def eigh_shares(tracer, setup_s, op_seconds_by_n=None):
    """Eigensolve time by N, its share of set-up and, given the operator
    seconds by N of the traced items, its share of those by N."""
    total, _ = tracer.durations()
    by_n, in_setup, in_items = {}, 0.0, {}
    for index, (name, n, _, _, _, item, _) in enumerate(tracer.spans):
        if name != "operators.eigh":
            continue
        by_n.setdefault(n, []).append(total[index])
        if item is None:
            in_setup += total[index]
        else:
            in_items[n] = in_items.get(n, 0.0) + total[index]
    shares = {"eigh_s_by_n": {str(n): statistics.median(v) for n, v in sorted(by_n.items())},
              "eigh_share_of_setup": in_setup / setup_s}
    if op_seconds_by_n:
        shares["eigh_share_of_operator_by_n"] = {
            str(n): in_items.get(n, 0.0) / seconds for n, seconds in sorted(op_seconds_by_n.items())}
    return shares


def provenance(lib, workload, seed, seconds, trace):
    np = lib.np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        git_sha = proc.stdout.strip() or None
    if BLAS_THREADS > nproc:
        raise RuntimeError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    return {"schema_version": SCHEMA_VERSION, "git_sha": git_sha, "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "machine": platform.machine()}


def run(workload, seed, seconds, trace, scale=FULL, setup_repeats=None, out_dir=OUT_DIR):
    """Run one workload; returns (result line dict, full record dict)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        lib, metrics, gates, extra, tracer = measure_traced(workload, seed, seconds, scale)
        units = dict(per_layer_names())
    else:
        repeats = SETUP_REPEATS[workload] if setup_repeats is None else setup_repeats
        lib, metrics, gates, extra = measure(workload, seed, seconds, scale, repeats)
        units = dict(END_TO_END)
    failed = len(gates.failures)
    result = {"correct": failed == 0, "attempted": gates.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = {"provenance": provenance(lib, workload, seed, seconds, trace),
              "result": result, "fail_ratio": failed / gates.attempted,
              "failures": gates.failures, "details": extra}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"spans-{stem}.jsonl.gz")
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (internal)")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, _, raw, nominal = timed_setup(args.workload, args.seed, FULL)
        print(json.dumps({"raw_s": raw, "setup_s": nominal}))
        return 0
    if not (SRC / "bandapprox" / "__init__.py").is_file():
        print(f"error: no bandapprox sources under {SRC}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio = {record['fail_ratio']!r} ({result['failed']}/{result['attempted']})")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"provenance = {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"details = {json.dumps(record['details'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
