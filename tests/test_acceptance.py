"""Acceptance gate: twelve pinned criteria, one printed verdict line each.

Each test computes its evidence, prints a single
``criterion NN PASS/FAIL (detail)`` line (visible under ``pytest -s``),
and then asserts.  Tolerances are pinned here on purpose; loosening them
is a contract change, not a tuning knob.
"""

import math
import random
import time

import mpmath as mp
import numpy as np
from reference_routes import laplace_resolvent

from adelic_zeta.lfun import (
    completed_lambda_delta,
    completed_lambda_zeta,
    delta_product,
    euler_product_eval,
    sigma_k,
    tau_coefficients,
    zeta_product,
)
from adelic_zeta.numkit import gamma
from adelic_zeta.polya import (
    BandDiscretization,
    CriticalLineFn,
    annihilator_residual,
    generator_apply,
    n_rho,
    norm_bound_check,
    resolvent_apply,
    scan_zeros,
)
from adelic_zeta.satake import (
    HeckeFn,
    SatakeParam,
    convolve,
    dominant_tuples,
    enumerate_cosets,
    local_factor_series,
    satake_transform,
    satake_truncated_radial,
    trace_truncated,
)
from adelic_zeta.theta import (
    decay_constant,
    dyadic_grid,
    functional_eq_residual,
    make_S0,
    mellin_E,
    mellin_residue_probe,
    standard_gaussian,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} ({detail})")


class TestAcceptance:
    def test_criterion_01_functional_equation(self):
        t0 = time.perf_counter()
        worst = 0.0
        for f in (standard_gaussian(), make_S0(2)):
            for t in (0.1, 1.0 / 3.0, 2.0, 5.0, 10.0):
                worst = max(worst, functional_eq_residual(f, t))
        dt = time.perf_counter() - t0
        ok = worst <= 1e-12 and dt < 1.0
        _verdict(1, ok, f"max residual {worst:.2e}; {dt:.2f}s")
        assert ok

    def test_criterion_02_mellin_matches_completed_zeta(self):
        t0 = time.perf_counter()
        g = standard_gaussian()
        worst = 0.0
        for s in np.linspace(1.2, 4.0, 10):
            diff = abs(mellin_E(g, float(s)) - completed_lambda_zeta(float(s) + 0.5))
            worst = max(worst, diff)
        dt = time.perf_counter() - t0
        ok = worst <= 1e-9 and dt < 10.0
        _verdict(2, ok, f"max |mellin - completed zeta| {worst:.2e}; {dt:.2f}s")
        assert ok

    def test_criterion_03_pole_free_transform_on_s0(self):
        t0 = time.perf_counter()
        f = make_S0(2)
        g = standard_gaussian()
        r_plus = abs(mellin_residue_probe(f, 0.5))
        r_minus = abs(mellin_residue_probe(f, -0.5))
        detect = abs(mellin_residue_probe(g, 0.5))
        dt = time.perf_counter() - t0
        ok = r_plus <= 1e-8 and r_minus <= 1e-8 and detect >= 1e-3 and dt < 30.0
        _verdict(
            3,
            ok,
            f"s0 residues {r_plus:.1e}/{r_minus:.1e}, control {detect:.3f}; {dt:.1f}s",
        )
        assert ok

    def test_criterion_04_radial_constancy_at_center(self):
        t0 = time.perf_counter()
        ok = True
        for p in (2, 3):
            val = satake_truncated_radial(0.5, 4, p=p)
            support = {lam for lam in dominant_tuples(2, 4) if min(lam) >= 0}
            ok = ok and set(val.coeffs) == support
            ok = ok and all(c == 1 for c in val.coeffs.values())
        dt = time.perf_counter() - t0
        ok = ok and dt < 20.0
        _verdict(4, ok, f"all orbit coefficients exactly 1 at the center; {dt:.2f}s")
        assert ok

    def test_criterion_05_truncated_trace_value(self):
        chi = SatakeParam(2, 2, (0.5, 0.3))
        err = abs(trace_truncated(chi, 30) - 20.0 / 7.0)
        ok = err <= 1e-8
        _verdict(5, ok, f"|trace - 20/7| = {err:.2e}")
        assert ok

    def test_criterion_06_series_against_bruteforce(self):
        rng = random.Random(555)
        worst = 0.0
        for _ in range(20):
            n = rng.randint(1, 3)
            d = rng.randint(1, 6)
            chi_vals = tuple(
                complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                for _ in range(n)
            )
            series = local_factor_series(SatakeParam(n, 2, chi_vals), d)
            prod = [1.0 + 0j] + [0j] * d
            for x in chi_vals:
                geo = [x**k for k in range(d + 1)]
                nxt = [0j] * (d + 1)
                for i in range(d + 1):
                    for j in range(d + 1 - i):
                        nxt[i + j] += prod[i] * geo[j]
                prod = nxt
            for k in range(d + 1):
                worst = max(worst, abs(series[k] - prod[k]))
        ok = worst <= 1e-12
        _verdict(6, ok, f"20 seeded parameter draws, max coeff error {worst:.2e}")
        assert ok

    def test_criterion_07_coset_degree_and_homomorphism(self):
        degrees_ok = all(
            len(enumerate_cosets(p, (1, 0)).representatives) == p + 1
            for p in (2, 3, 5)
        )
        rng = random.Random(424242)
        lams = [(1, 0), (1, 1), (2, 0), (2, 1), (0, -1), (1, -1)]
        hom_ok = True
        for _ in range(5):
            la, lb = rng.choice(lams), rng.choice(lams)
            f = HeckeFn.double_coset(2, 2, la)
            g = HeckeFn.double_coset(2, 2, lb)
            hom_ok = hom_ok and satake_transform(convolve(f, g)) == satake_transform(
                f
            ) * satake_transform(g)
        ok = degrees_ok and hom_ok
        _verdict(
            7, ok, f"degrees p+1: {degrees_ok}; transform multiplicative: {hom_ok}"
        )
        assert ok

    def test_criterion_08_euler_products_stabilize(self):
        t0 = time.perf_counter()
        table = tau_coefficients(20000)
        ok = True
        details = []
        for L in (zeta_product(), delta_product(table, "unitary")):
            v1 = euler_product_eval(L, 1.1, 10000)
            v2 = euler_product_eval(L, 1.1, 20000)
            drift = abs(v2.value - v1.value)
            allowed = abs(v1.value) * math.expm1(v1.tail_log_bound)
            ok = ok and drift <= allowed
            details.append(f"{L.label} drift {drift:.1e} <= {allowed:.1e}")
        dt = time.perf_counter() - t0
        _verdict(8, ok, "; ".join(details) + f"; {dt:.1f}s")
        assert ok

    def test_criterion_09_cusp_form_arithmetic(self):
        table = tau_coefficients(10000)
        mult_ok = all(
            table.a(m * n) == table.a(m) * table.a(n)
            for m in range(2, 101)
            for n in range(2, 101)
            if m * n <= 100 and math.gcd(m, n) == 1
        )
        hecke_ok = True
        for p in (2, 3, 5, 7):
            k = 1
            while p ** (k + 1) <= 100:
                hecke_ok = hecke_ok and table.a(p ** (k + 1)) == table.a(p) * table.a(
                    p**k
                ) - p**11 * table.a(p ** (k - 1))
                k += 1
        cong_ok = all((table.a(n) - sigma_k(n, 11)) % 691 == 0 for n in range(1, 51))
        L13 = euler_product_eval(delta_product(table), 13.0, 10000).value.real
        integral_err = abs(
            completed_lambda_delta(13.0)
            - (2.0 * math.pi) ** -13.0 * gamma(13.0).real * L13
        )
        sym_err = abs(completed_lambda_delta(7.3) - completed_lambda_delta(4.7))
        ok = (
            mult_ok
            and hecke_ok
            and cong_ok
            and integral_err <= 1e-6
            and sym_err <= 1e-10
        )
        _verdict(
            9,
            ok,
            f"mult {mult_ok}, hecke {hecke_ok}, mod-691 {cong_ok}, "
            f"integral vs product {integral_err:.1e}, symmetry {sym_err:.1e}",
        )
        assert ok

    def test_criterion_10_zero_scan_and_annihilation(self):
        t0 = time.perf_counter()
        F = CriticalLineFn("zeta")
        zeros = scan_zeros(F, 10.0, 26.0, step=0.05)
        count_ok = len(zeros) == 3
        mp.mp.dps = 30
        first_err = abs(zeros.ordinates()[0] - float(mp.zetazero(1).imag))
        ords = zeros.ordinates()
        at_zeros = max(annihilator_residual(F, r, 0) for r in ords)
        at_mids = min(
            annihilator_residual(F, 0.5 * (a + b), 0) for a, b in zip(ords, ords[1:])
        )
        table = {
            (1, 3.0): (0, 1),
            (3, 3.0): (1, 1),
            (2, 1.5): (0, 0),
            (1, 3.5): (0, 1),
            (2, 3.0): (1, 1),
            (1, 1.5): (0, 0),
        }
        rule_ok = all(
            n_rho(m, d, "literal") == lit and n_rho(m, d, "inclusive") == inc
            for (m, d), (lit, inc) in table.items()
        )
        dt = time.perf_counter() - t0
        ok = (
            count_ok
            and first_err <= 1e-6
            and at_zeros <= 1e-8
            and at_mids >= 1e-3
            and rule_ok
            and dt < 60.0
        )
        _verdict(
            10,
            ok,
            f"3 zeros: {count_ok}, first off by {first_err:.1e}, residuals "
            f"{at_zeros:.1e} at zeros / {at_mids:.2f} at midpoints, "
            f"counting rule {rule_ok}; {dt:.1f}s",
        )
        assert ok

    def test_criterion_11_band_model_resolvent_and_norms(self):
        t0 = time.perf_counter()
        band = BandDiscretization(20.0, 0.05, 1.5)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(band.size) + 1j * rng.standard_normal(band.size)
        ident = 0.0
        for kappa in (1.0, -1.0, 2.0, 1.0 + 1.0j, -0.7 - 0.3j):
            r = resolvent_apply(band, v, kappa)
            ident = max(
                ident, band.norm(generator_apply(band, r) - kappa * r - v) / band.norm(v)
            )
        smooth = band.sample(lambda t: math.exp(-0.01 * t * t))
        laplace = max(
            band.norm(
                laplace_resolvent(band, smooth, kappa)
                - resolvent_apply(band, smooth, kappa)
            )
            / band.norm(smooth)
            for kappa in (1.0, -1.0)
        )
        bound_ok = True
        for a in (0.0, 0.5, 1.0, 2.0, 5.0):
            for delta in (0.0, 1.5, 3.0):
                measured, bound = norm_bound_check(a, delta)
                bound_ok = bound_ok and measured <= bound + 1e-12
        dt = time.perf_counter() - t0
        ok = ident <= 1e-10 and laplace <= 1e-6 and bound_ok
        _verdict(
            11,
            ok,
            f"resolvent identity {ident:.1e}, quadrature route {laplace:.1e}, "
            f"shift norms within bound: {bound_ok}; {dt:.1f}s",
        )
        assert ok

    def test_criterion_12_two_sided_decay_on_s0(self):
        f = make_S0(2)
        consts = [decay_constant(f, n) for n in range(7)]
        finite_ok = all(math.isfinite(c) and c > 0.0 for c in consts)
        coarse = decay_constant(f, 4)
        fine = decay_constant(f, 4, grid=dyadic_grid(per_octave=4))
        stable_ok = coarse <= fine <= 2.0 * coarse
        ok = finite_ok and stable_ok
        _verdict(
            12,
            ok,
            f"constants n<=6 finite: {finite_ok}; grid refinement moves "
            f"n=4 constant {coarse:.3e} -> {fine:.3e}",
        )
        assert ok
