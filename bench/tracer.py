"""Span tracer that times calls into the bandapprox layers from outside.

Installing the tracer replaces every module-level binding of each traced
function across the loaded ``bandapprox.*`` modules with a wrapper,
including the ``from .operators import spectral_transform``-style copies
other modules hold, so calls between layers are recorded too.  A binding
self-check scans ``vars(module)`` by identity and lists every original
function still bound anywhere (or, after removal, every wrapper).

Each call records a span ``(name, attr, start, end, parent, item, nested)``
in memory: ``parent`` is the index of the enclosing span (-1 at top
level), ``item`` is the workload item being processed when the span
started, ``attr`` is a per-function annotation (the Besov flavor, the
matrix size, or bytes computed) and ``nested`` says whether a span of the
same name was already open.  Self time is a span's duration minus the
time its child spans cover.
"""

import gzip
import json
import sys
import time
from collections import Counter

#: layer module -> traced public functions
TRACED = {
    "harness": ("build_operator", "run_suite"),
    "operators": ("eigh", "spectral_transform", "inverse_transform", "apply_multiplier"),
    "paley_wiener": ("pw_project", "best_approx", "spectral_tail", "bandwidth",
                     "bernstein_check"),
    "smoothness": ("besov_norm", "k_besov_norm", "k_functional", "besov_seminorm_sup",
                   "modulus", "sup_scaled_best_approx", "modulus_inequality_checks",
                   "lemma1_check", "lemma2_check"),
    "approx_operators": ("build_kernel", "riesz_symbol", "riesz_apply", "q_apply",
                         "jackson_check", "riesz_identity_check"),
    "decomposition": ("band_decompose", "equivalence_report", "synthesis_check"),
    "cli": ("main",),
}

#: layers whose raised BandApproxErrors are counted (cli is only the entry point)
ERROR_LAYERS = ("operators", "paley_wiener", "smoothness", "approx_operators",
                "decomposition", "harness")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _besov_flavor(args, kwargs):
    return _arg(args, kwargs, 2, "params").flavor


def _transform_bytes(args, kwargs):
    n = _arg(args, kwargs, 0, "dec").dim
    return 8 * n * n


def _eigh_size(args, kwargs):
    return _arg(args, kwargs, 0, "op").dim


def _riesz_symbol_bytes(args, kwargs):
    lam = _arg(args, kwargs, 0, "lam")
    n = len(lam) if hasattr(lam, "__len__") else 1
    return 16 * n * (2 * _arg(args, kwargs, 1, "cfg").k_trunc + 1)


#: span annotations: flavor per Besov norm, N per eigensolve, bytes per kernel call
ATTRS = {
    "smoothness.besov_norm": _besov_flavor,
    "operators.spectral_transform": _transform_bytes,
    "operators.eigh": _eigh_size,
    "approx_operators.riesz_symbol": _riesz_symbol_bytes,
}


class Tracer:
    """In-memory span recorder with install/remove of the layer wrappers."""

    def __init__(self, error_type):
        self.error_type = error_type
        self.spans = []
        self.errors = Counter()
        self.item = None
        self._stack = []
        self._active = Counter()
        self._originals = {}  # traced name -> original function
        self._wrappers = {}  # traced name -> wrapper
        self._bindings = []  # (module, attribute, original) to restore
        self._checks = None  # (harness module, original ALL_CHECKS)
        self.t0 = time.perf_counter()

    def _wrap(self, name, layer, fn, attr):
        spans, stack, active, errors = self.spans, self._stack, self._active, self.errors
        error_type = self.error_type
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            stack.append(index)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            except error_type as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, attr(args, kwargs) if attr else None,
                                start, end, parent, self.item, nested)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _modules():
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == "bandapprox" or key.startswith("bandapprox."))]

    def install(self):
        """Rebind every traced function and every verify check to a wrapper."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        for layer, names in TRACED.items():
            module = sys.modules[f"bandapprox.{layer}"]
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                original = getattr(module, fn_name)
                self._originals[name] = original
                self._wrappers[name] = self._wrap(name, layer, original, ATTRS.get(name))
        by_id = {id(fn): name for name, fn in self._originals.items()}
        for module in self._modules():
            for key, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None:
                    setattr(module, key, self._wrappers[name])
                    self._bindings.append((module, key, value))
        harness = sys.modules["bandapprox.harness"]
        self._checks = (harness, harness.ALL_CHECKS)
        harness.ALL_CHECKS = tuple(
            (check, self._wrap(f"harness.check.{check}", "harness", fn, None))
            for check, fn in harness.ALL_CHECKS)

    def remove(self):
        """Restore the original bindings and the original check table."""
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        self._bindings = []
        harness, checks = self._checks
        harness.ALL_CHECKS = checks

    def stale_bindings(self, installed: bool):
        """Module bindings of the wrong side: originals while installed, else wrappers."""
        stale = self._originals if installed else self._wrappers
        stale_ids = {id(fn): name for name, fn in stale.items()}
        found = [f"{module.__name__}.{key} -> {stale_ids[id(value)]}"
                 for module in self._modules()
                 for key, value in vars(module).items() if id(value) in stale_ids]
        harness, checks = self._checks
        if installed == (harness.ALL_CHECKS is checks):
            found.append("bandapprox.harness.ALL_CHECKS")
        return found

    # -- aggregation ---------------------------------------------------------------

    def durations(self):
        """(total, self) duration of every span, self time from child coverage."""
        total = [end - start for _, _, start, end, _, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for index, span in enumerate(self.spans):
            if span[4] >= 0:
                covered[span[4]] += total[index]
        return total, [t - c for t, c in zip(total, covered)]

    def aggregate(self):
        """Per-name call counts, busy time (outermost spans) and self time."""
        total, own = self.durations()
        calls, busy, self_s = Counter(), Counter(), Counter()
        flavor_busy, attr_sum = Counter(), Counter()
        for index, (name, attr, _, _, _, _, nested) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += own[index]
            if not nested:
                busy[name] += total[index]
                if name == "smoothness.besov_norm":
                    flavor_busy[attr] += total[index]
            if isinstance(attr, int):
                attr_sum[name] += attr
        return {"calls": calls, "busy": busy, "self": self_s,
                "flavor_busy": flavor_busy, "attr_sum": attr_sum}

    def write(self, path):
        """Write every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for index, (name, attr, start, end, parent, item, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "attr": attr,
                                     "start": start - self.t0, "end": end - self.t0,
                                     "parent": parent, "item": item}) + "\n")
