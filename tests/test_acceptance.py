"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them even on success).  Everything is property-based at desk scale:
operators of dimension <= 64, seconds per criterion.
"""

import math

import numpy as np

from bandapprox import (
    BesovParams,
    RieszConfig,
    band_decompose,
    bandwidth,
    bernstein_check,
    besov_norm,
    best_approx,
    build_kernel,
    eigh,
    inverse_transform,
    jackson_check,
    k_functional,
    kernel_symbol,
    modulus_inequality_checks,
    pw_project,
    q_apply,
    riesz_apply,
    riesz_identity_check,
    schrodinger_group,
    spectral_tail,
    spectral_transform,
    sup_scaled_best_approx,
    synthesis_check,
)
from bandapprox.approx_operators import _psi_moment
from bandapprox.harness import OperatorSpec, build_operator, emit_report, run_suite
from oracles import besov_integral_by_quadrature, k_functional_bruteforce

SEED = 20250810


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _operator_corpus(rng, count):
    """Seeded stream of (decomposition, vector) pairs over mixed operators."""
    specs = [OperatorSpec(builtin="cycle", size=8),
             OperatorSpec(builtin="cycle", size=16),
             OperatorSpec(builtin="path", size=12),
             OperatorSpec(builtin="random_psd", size=10, seed=SEED),
             OperatorSpec(builtin="diagonal",
                          spectrum=tuple(np.sort(rng.uniform(0.2, 4.0, 9))),
                          kind="raw_D")]
    decs = [eigh(build_operator(s)) for s in specs]
    for i in range(count):
        dec = decs[i % len(decs)]
        yield dec, _random_vector(rng, dec.dim)


def test_criterion_01_best_approx_equals_tail():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for dec, f in _operator_corpus(rng, 100):
        omega = float(rng.uniform(0.0, 1.2 * dec.lambda_max))
        gap = abs(best_approx(dec, f, omega) - spectral_tail(dec, f, omega))
        worst = max(worst, gap / (1.0 + float(np.linalg.norm(f))))
    _report(1, worst <= 1e-12,
            f"best-approximation vs spectral-tail gap {worst:.2e} <= 1e-12")


def test_criterion_02_bernstein():
    rng = np.random.default_rng(SEED + 1)
    s_list = (0.5, 1.0, 2.0, 7.0)
    worst = 0.0
    checked = 0
    eq_dev = 0.0
    for dec, f in _operator_corpus(rng, 130):
        lam_pos = dec.eigenvalues[dec.eigenvalues > 0]
        omega = float(rng.choice(lam_pos))
        band = pw_project(dec, f, omega)
        if np.linalg.norm(band) < 1e-12:
            continue
        worst = max(worst, bernstein_check(dec, band, omega, s_list).max_ratio)
        checked += 1
        if checked == 100:
            break
        top = dec.eigenvectors[:, -1]
        rep = bernstein_check(dec, top, dec.lambda_max, s_list)
        eq_dev = max(eq_dev, float(np.max(np.abs(rep.ratios - 1.0))))
    ok = checked >= 100 and worst <= 1.0 + 1e-10 and eq_dev <= 1e-12
    _report(2, ok, f"{checked} bandlimited vectors, max ratio {worst:.12f}, "
                   f"top-band equality dev {eq_dev:.2e}")


def test_criterion_03_power_norm_limit():
    rng = np.random.default_rng(SEED + 2)
    from bandapprox import RAW_D, SymmetricOperator

    ok = True
    detail = []
    for lam in (0.5, 1.0, 3.0):
        dec = eigh(SymmetricOperator(np.diag([lam, 2 * lam]), kind=RAW_D))
        for _ in range(7):
            w2 = rng.uniform(0.1, 0.9)
            coeffs = np.array([math.sqrt(1 - w2), math.sqrt(w2)])
            f = inverse_transform(dec, coeffs)
            rep = bandwidth(dec, f)
            final = rep.k_sequence[-1]
            within = abs(final - 2 * lam) <= 0.05 * 2 * lam
            monotone = bool(np.all(np.diff(rep.k_sequence) >= -1e-10 * lam))
            ok = ok and within and monotone
        detail.append(f"lam={lam}: k40={final:.4f} target={2*lam}")
    _report(3, ok, "power-norm sequence converges monotonically: " + "; ".join(detail))


def test_criterion_04_riesz_norm_and_rate():
    rng = np.random.default_rng(SEED + 3)
    dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))
    cfg_omega = 1.5
    cfg = RieszConfig(omega=cfg_omega, k_trunc=10_000)
    worst_norm = 0.0
    for _ in range(20):
        f = _random_vector(rng, 16)
        ratio = float(np.linalg.norm(riesz_apply(dec, f, cfg))) \
            / ((cfg_omega + cfg.tail_bound) * float(np.linalg.norm(f)))
        worst_norm = max(worst_norm, ratio)

    slopes = []
    for j in np.where(dec.eigenvalues > 0.2 * dec.lambda_max)[0][::3]:
        u = dec.eigenvectors[:, j]
        omega = float(dec.eigenvalues[j])
        residuals = [riesz_identity_check(dec, u, omega, 1, k).residual
                     for k in (100, 1000, 10_000)]
        slopes.append(float(np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(residuals), 1)[0]))
    slope_ok = all(abs(s + 1.0) <= 0.2 for s in slopes)
    ok = worst_norm <= 1.0 + 1e-12 and slope_ok
    _report(4, ok, f"norm-bound ratio {worst_norm:.9f} <= 1, "
                   f"identity decay slopes {[f'{s:.2f}' for s in slopes]} within -1 +/- 0.2")


def test_criterion_05_kernel_properties():
    checks = []
    for n in (4, 6, 8):
        kernel = build_kernel(n, 1)
        mass = 2.0 * kernel.norm_const * _psi_moment(n, 0, refine=2)
        checks.append(abs(mass - 1.0) <= 1e-8)
        checks.append(abs(kernel.symbol_quadrature(0.0) - 1.0) <= 1e-8)
        for xi in (1.01, 1.5, 3.0):
            checks.append(abs(kernel.symbol_quadrature(xi)) <= 1e-8)
            checks.append(kernel.symbol(xi) == 0.0)
        grid = np.linspace(-1.2, 1.2, 64)
        dev = float(np.max(np.abs(kernel_symbol(kernel, grid, "bspline")
                                  - kernel_symbol(kernel, grid, "quadrature"))))
        checks.append(dev <= 1e-8)
    _report(5, all(checks),
            "kernel mass, transform normalization, band support and dual "
            "evaluators all within 1e-8 for orders 4, 6, 8")


def test_criterion_06_q_operator_band_mapping():
    rng = np.random.default_rng(SEED + 5)
    kernel = build_kernel(6, 2)
    worst_tail = 0.0
    worst_pass = 0.0
    for size in (8, 16):
        dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=size)))
        zero_modes = dec.eigenvalues == 0.0
        for _ in range(25):
            f = _random_vector(rng, size)
            omega = float(rng.uniform(0.3, 1.0) * dec.lambda_max)
            qf = q_apply(dec, f, omega, 2, kernel)
            norm_f = float(np.linalg.norm(f))
            worst_tail = max(worst_tail, spectral_tail(dec, qf, omega) / norm_f)
            dev = np.max(np.abs(spectral_transform(dec, qf)[zero_modes]
                                - spectral_transform(dec, f)[zero_modes]))
            worst_pass = max(worst_pass, float(dev) / norm_f)
    ok = worst_tail <= 1e-10 and worst_pass <= 1e-10
    _report(6, ok, f"Q output tail {worst_tail:.2e} <= 1e-10, "
                   f"zero-mode preservation {worst_pass:.2e} <= 1e-10")


def test_criterion_07_jackson_chain():
    rng = np.random.default_rng(SEED + 6)
    specs = [OperatorSpec(builtin="random_psd", size=10, seed=SEED + 6),
             OperatorSpec(builtin="diagonal",
                          spectrum=tuple(np.sort(np.random.default_rng(1).uniform(0.3, 3.0, 12))),
                          kind="raw_D")]
    decs = [eigh(build_operator(s)) for s in specs]
    combos = ((2, 0, 6), (2, 1, 6), (3, 1, 8))  # kernel order: next even >= m + 4
    worst_ratio = 0.0
    worst_link = 0.0
    count = 0
    for i in range(100):
        dec = decs[i % len(decs)]
        f = _random_vector(rng, dec.dim)
        omegas = np.linspace(float(dec.eigenvalues[0]), 2.0 * dec.lambda_max, 4)
        for m, k, order in combos:
            kernel = build_kernel(order, m)
            for omega in omegas:
                rep = jackson_check(dec, f, float(omega), m, k, kernel)
                count += 1
                if not rep.vacuous:
                    worst_ratio = max(worst_ratio, rep.ratio_q, rep.ratio_best)
                worst_link = max(worst_link, rep.link_gap)
    ok = worst_ratio <= 1.0 + 1e-6 and worst_link <= 1e-10
    _report(7, ok, f"{count} direct-estimate checks: chain ratio {worst_ratio:.6f} "
                   f"<= 1 + 1e-6, projection-vs-Q gap {worst_link:.2e} <= 1e-10")


def test_criterion_08_modulus_inequalities():
    rng = np.random.default_rng(SEED + 7)
    dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))
    worst = 0.0
    for _ in range(50):
        f = _random_vector(rng, 16)
        s = float(np.exp(rng.uniform(math.log(0.05), math.log(10.0))))
        a_scale = float(np.exp(rng.uniform(math.log(0.3), math.log(4.0))))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(0, m + 1))
        rep = modulus_inequality_checks(dec, f, s, a_scale, m, k)
        if not rep.vacuous_power:
            worst = max(worst, rep.ratio_power)
        if not rep.vacuous_scale:
            worst = max(worst, rep.ratio_scale)
    _report(8, worst <= 1.0 + 1e-6,
            f"50 modulus-inequality tuples, worst ratio {worst:.8f} <= 1 + 1e-6")


_FLAVORS = ("integral_E", "discrete_E", "integral_R", "discrete_R")


def test_criterion_09_norm_equivalence():
    rng = np.random.default_rng(SEED + 8)
    dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))
    ok = True
    details = []
    for alpha, q in ((0.7, 1.0), (1.5, 2.0), (0.9, math.inf)):
        norms = []
        for _ in range(100):
            f = _random_vector(rng, 16)
            norms.append([besov_norm(dec, f, BesovParams(alpha=alpha, q=q, flavor=fl))
                          for fl in _FLAVORS])
        norms = np.array(norms)
        ratios = norms[:, :, None] / norms[:, None, :]
        finite = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0))

        f = _random_vector(rng, 16)
        base = np.array([besov_norm(dec, f, BesovParams(alpha=alpha, q=q, flavor=fl))
                         for fl in _FLAVORS])
        scaled = np.array([besov_norm(dec, 1e3 * f, BesovParams(alpha=alpha, q=q, flavor=fl))
                           for fl in _FLAVORS])
        pair_base = base[:, None] / base[None, :]
        pair_scaled = scaled[:, None] / scaled[None, :]
        invariant = float(np.max(np.abs(pair_scaled / pair_base - 1.0))) <= 1e-10

        if q == math.inf:
            # sup-form oracle: dense log-grid scan of s^alpha E(f, s)
            closed = sup_scaled_best_approx(dec, f, alpha)
            s_grid = np.exp(np.linspace(math.log(1e-3), math.log(4.0), 10_000))
            dense = max(s ** alpha * best_approx(dec, f, s) for s in s_grid)
            quad_ok = dense <= closed * (1 + 1e-12) and closed - dense <= 1e-3 * closed
        else:
            closed = besov_norm(dec, f, BesovParams(alpha=alpha, q=q, flavor="integral_E")) \
                - float(np.linalg.norm(f))
            quad = besov_integral_by_quadrature(dec, f, alpha, q)
            quad_ok = abs(closed - quad) <= 1e-6 * quad
        ok = ok and finite and invariant and quad_ok
        details.append(f"(alpha={alpha}, q={q}): bracket "
                       f"[{ratios.min():.3f}, {ratios.max():.3f}]")
    _report(9, ok, "norm-equivalence brackets finite, scale-invariant, closed "
                   "forms match quadrature: " + "; ".join(details))


def test_criterion_10_band_frame_identities():
    rng = np.random.default_rng(SEED + 9)
    a, alpha = 2.0, 0.8
    worst_recon = 0.0
    worst_tail_dev = 0.0
    worst_ratio = 0.0
    corpora = 0
    for size in (8, 16):
        dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=size)))
        k_top = 0
        while a ** k_top < dec.lambda_max:
            k_top += 1
        for _ in range(25):
            f = _random_vector(rng, size)
            norm_f = float(np.linalg.norm(f))
            band_dec = band_decompose(dec, f, a)
            recon = float(np.linalg.norm(np.sum(band_dec.bands, axis=0) - f))
            worst_recon = max(worst_recon, recon / norm_f)
            norms2 = band_dec.band_norms() ** 2
            for big_n in range(band_dec.count):
                e2 = best_approx(dec, f, a ** big_n) ** 2
                worst_tail_dev = max(worst_tail_dev,
                                     abs(e2 - float(np.sum(norms2[big_n + 1:]))) / norm_f ** 2)
            rep = synthesis_check(dec, band_dec.bands, alpha, a=a)
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs if rep.rhs else 0.0)
            corpora += 1
        for _ in range(25):
            bands = [pw_project(dec, _random_vector(rng, size), a ** k)
                     for k in range(k_top + 1)]
            rep = synthesis_check(dec, bands, alpha, a=a)
            worst_ratio = max(worst_ratio, rep.lhs / rep.rhs if rep.rhs else 0.0)
            corpora += 1
    ok = worst_recon <= 1e-10 and worst_tail_dev <= 1e-10 and worst_ratio <= 1.0 + 1e-10
    _report(10, ok, f"{corpora} corpora: reconstruction {worst_recon:.2e}, "
                    f"tail identity {worst_tail_dev:.2e}, synthesis ratio "
                    f"{worst_ratio:.6f} with explicit constant")


def test_criterion_11_complex_time_growth():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    for dec, f in _operator_corpus(rng, 20):
        lam_pos = dec.eigenvalues[dec.eigenvalues > 0]
        omega = float(rng.choice(lam_pos))
        band = pw_project(dec, f, omega)
        norm_band = float(np.linalg.norm(band))
        if norm_band < 1e-12:
            continue
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            grown = float(np.linalg.norm(schrodinger_group(dec, z, band)))
            worst = max(worst, grown / (math.exp(omega * abs(z.imag)) * norm_band))
    _report(11, worst <= 1.0 + 1e-10,
            f"complex-time growth ratio {worst:.12f} <= 1 + 1e-10")


def test_criterion_12_k_functional():
    rng = np.random.default_rng(SEED + 11)
    from bandapprox import RAW_D, SymmetricOperator

    worst_rel = 0.0
    for _ in range(20):
        lam = np.sort(rng.uniform(0.2, 4.0, size=2))
        dec = eigh(SymmetricOperator(np.diag(lam), kind=RAW_D))
        f = _random_vector(rng, 2)
        t = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e2))))
        r = int(rng.integers(1, 4))
        path = k_functional(dec, f, t, r)
        brute = k_functional_bruteforce(dec, f, t, r)
        worst_rel = max(worst_rel, abs(path - brute) / brute)

    dec = eigh(build_operator(OperatorSpec(builtin="cycle", size=16)))
    f = _random_vector(rng, 16)
    ts = np.exp(np.linspace(math.log(1e-3), math.log(1e2), 9))
    vals = [k_functional(dec, f, float(t), 2) for t in ts]
    monotone = all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))
    concave = all(vals[i] >= vals[i - 1] + (vals[i + 1] - vals[i - 1])
                  * (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1]) - 1e-7 * (1 + vals[i])
                  for i in range(1, len(ts) - 1))
    ok = worst_rel <= 1e-4 and monotone and concave
    _report(12, ok, f"K-functional path vs brute force rel dev {worst_rel:.2e} "
                    f"<= 1e-4; monotone {monotone}, concave {concave}")


def test_criterion_13_determinism(tmp_path):
    spec = OperatorSpec(builtin="cycle")
    blobs = []
    for run in range(2):
        report = run_suite(spec, count=30, seed=SEED, sizes=(8,))
        path = tmp_path / f"run{run}.json"
        emit_report(report, "json", str(path))
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report(13, ok, f"two suite runs, {len(blobs[0])} bytes each, byte-identical")
