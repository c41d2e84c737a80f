"""Command-line interface.

Subcommands mirror the library operations: inspect a spectrum, project a
vector onto a band, evaluate smoothness norms, split into bands, probe
the Riesz and quasi-interpolation operators, run the verification suite,
and re-emit saved reports.  Exit code 0 means every executed check
passed.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import approx_operators as aop
from . import decomposition as dcmp
from . import harness
from . import paley_wiener as pw
from . import smoothness as sm
from .errors import BandApproxError, NotBandlimitedError
from .operators import RAW_D, RAW_L, eigh


def _add_operator_args(parser):
    parser.add_argument("--op", required=True,
                        help="operator spec: cycle:N | path:N | complete:N | "
                             "diag:v1,v2,... | random:N[:seed] | edges:FILE | matrix:FILE")
    parser.add_argument("--kind", choices=[RAW_L, RAW_D], default=RAW_L,
                        help="whether the matrix is L (operator is sqrt) or already D")


def _decomposition(args):
    return eigh(harness.build_operator(harness.parse_operator_arg(args.op, kind=args.kind)))


def _decomposition_and_vector(args):
    dec = _decomposition(args)
    return dec, harness.load_vector(args.vector, expected_dim=dec.dim)


def _cmd_spectrum(args):
    dec = _decomposition(args)
    print(f"dim: {dec.dim}")
    print(f"eps_group: {dec.eps_group!r}  (a cut at omega keeps lambda <= omega + eps_group)")
    print("eigenvalues of D:")
    for value in dec.eigenvalues:
        print(f"  {float(value)!r}")
    print("degeneracy groups (index ranges):")
    for group in dec.groups:
        print(f"  {group[0]}..{group[-1]}  lambda={float(dec.eigenvalues[group[0]])!r}")
    return 0


def _cmd_project(args):
    dec, f = _decomposition_and_vector(args)
    projected = pw.pw_project(dec, f, args.omega)
    e_val = pw.best_approx(dec, f, args.omega)
    r_val = pw.spectral_tail(dec, f, args.omega)
    print(f"best approximation E(f, {args.omega}) = {e_val!r}")
    print(f"spectral tail     R(f, {args.omega}) = {r_val!r}")
    if args.out:
        harness.save_vector(args.out, projected)
        print(f"projection written to {args.out}")
    return 0


def _cmd_besov(args):
    dec, f = _decomposition_and_vector(args)
    params = sm.BesovParams(alpha=args.alpha, q=args.q, r=args.r, a=args.base,
                            flavor=args.flavor)
    value = sm.besov_norm(dec, f, params)
    print(f"besov_norm[{args.flavor}](alpha={args.alpha}, q={args.q}, "
          f"r={params.r}, a={args.base}) = {value!r}")
    return 0


def _cmd_decompose(args):
    dec, f = _decomposition_and_vector(args)
    band_dec = dcmp.band_decompose(dec, f, args.base)
    norms = band_dec.band_norms()
    recon = float(np.linalg.norm(np.sum(band_dec.bands, axis=0) - f))
    for k, (edge, norm) in enumerate(zip(band_dec.band_edges, norms)):
        print(f"band {k}: edge a^{k} = {float(edge)!r}  norm = {float(norm)!r}")
    print(f"reconstruction residual = {recon!r}")
    if args.alpha is not None:
        print(f"frame norm = {dcmp.frame_norm(band_dec, args.alpha, args.q)!r}")
    return 0


def _cmd_riesz(args):
    dec, f = _decomposition_and_vector(args)
    cfg = aop.RieszConfig(omega=args.omega, k_trunc=args.trunc)
    applied = aop.riesz_apply(dec, f, cfg)
    norm_f = float(np.linalg.norm(f))
    print(f"||R f|| = {float(np.linalg.norm(applied))!r}  (omega ||f|| = {args.omega * norm_f!r})")
    print(f"truncation tail bound = {cfg.tail_bound!r}")
    try:
        rep = aop.riesz_identity_check(dec, f, args.omega, args.power, args.trunc)
    except NotBandlimitedError:
        print("vector is not bandlimited at omega; identity check skipped")
    else:
        print(f"interpolation identity residual (power {args.power}) = {rep.residual!r}")
    return 0


def _cmd_jackson(args):
    dec, f = _decomposition_and_vector(args)
    order = args.kernel_order if args.kernel_order is not None else args.m + 4 + (args.m % 2)
    kernel = aop.build_kernel(order, args.m)
    rep = aop.jackson_check(dec, f, args.omega, args.m, args.k, kernel)
    print(f"E(f, omega)        = {rep.best!r}")
    print(f"||Qf - f||         = {rep.q_error!r}")
    print(f"modulus bound      = {rep.bound!r}  (constant C = {rep.constant!r})")
    print(f"ratios: E/bound = {rep.ratio_best!r}, ||Qf-f||/bound = {rep.ratio_q!r}")
    tols = harness.DEFAULT_TOLERANCES
    passed = (rep.link_gap <= tols["jackson_link"]
              and max(rep.ratio_best, rep.ratio_q) <= 1.0 + tols["jackson_ratio"])
    print(f"passed: {passed}")
    return 0 if passed else 1


def _parse_tolerance_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not value:
            raise BandApproxError(f"bad tolerance override {pair!r}, expected name=value")
        if name not in harness.DEFAULT_TOLERANCES:
            raise BandApproxError(f"unknown tolerance {name!r}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise BandApproxError(f"bad tolerance value in {pair!r}") from exc
    return overrides


def _cmd_verify(args):
    spec = harness.parse_operator_arg(args.op, kind=args.kind)
    checks = args.checks.split(",") if args.checks else None
    report = harness.run_suite(spec, count=args.count, seed=args.seed,
                               sizes=args.sizes, checks=checks,
                               tolerances=_parse_tolerance_overrides(args.tol))
    for record in report.records:
        status = "PASS" if record.passed else "FAIL"
        print(f"[{status}] {record.check} ({record.params}): "
              f"value={record.value!r} tolerance={record.tolerance!r}")
    print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    if args.json:
        harness.emit_report(report, "json", args.json)
        print(f"json report written to {args.json}")
    if args.csv:
        harness.emit_report(report, "csv", args.csv)
        print(f"csv report written to {args.csv}")
    if args.timings:
        with open(args.timings, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(report.timings, fh, indent=2)
            fh.write("\n")
        print(f"check timings written to {args.timings}")
    return 0 if report.overall_pass else 1


def _cmd_report(args):
    report = harness.load_report(args.infile)
    harness.emit_report(report, args.format, args.out)
    print(f"{args.format} report written to {args.out}")
    return 0


def _int_list(text: str) -> list:
    """``"8,16"`` as ``[8, 16]``: the type of ``verify --sizes``."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandapprox",
        description="Bandlimited approximation and smoothness diagnostics for "
                    "self-adjoint PSD operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="print eigenvalues and degeneracy groups")
    _add_operator_args(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("project", help="project a vector onto PW_omega")
    _add_operator_args(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--out", help="where to write the projected vector")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("besov", help="evaluate a smoothness norm")
    _add_operator_args(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, default=2.0,
                   help="integrability in [1, inf]; 'inf' for sup forms")
    p.add_argument("--r", type=int, default=None, help="smoothness order (K-functional)")
    p.add_argument("--base", type=float, default=2.0)
    p.add_argument("--flavor", default="integral_E",
                   choices=list(sm.BESOV_FLAVORS))
    p.set_defaults(fn=_cmd_besov)

    p = sub.add_parser("decompose", help="split a vector into spectral bands")
    _add_operator_args(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--base", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--q", type=float, default=2.0)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("riesz", help="apply the Riesz interpolation operator")
    _add_operator_args(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--trunc", type=int, default=10_000)
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(fn=_cmd_riesz)

    p = sub.add_parser("jackson", help="measure the direct-estimate chain")
    _add_operator_args(p)
    p.add_argument("--vector", required=True)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("-m", type=int, default=2)
    p.add_argument("-k", type=int, default=0)
    p.add_argument("--kernel-order", type=int, default=None)
    p.set_defaults(fn=_cmd_jackson)

    p = sub.add_parser("verify", help="run the verification suite")
    _add_operator_args(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sizes", type=_int_list, default="8,16")
    p.add_argument("--checks", default=None,
                   help=f"comma-separated subset of: {','.join(harness.CHECK_NAMES)}")
    p.add_argument("--json", default=None, help="write JSON report here")
    p.add_argument("--csv", default=None, help="write CSV report here")
    p.add_argument("--timings", default=None,
                   help="write each check's wall seconds, summed over sizes, as JSON here")
    p.add_argument("--tol", action="append",
                   help="override a tolerance as name=value (repeatable)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="re-emit a saved JSON report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)
    return parser


#: the parser of :func:`main`, built once per process: argparse takes milliseconds to build it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except BandApproxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
