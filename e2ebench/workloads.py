"""Seeded inputs, in-process ops and fresh-process CLI calls of the three
workloads.

An op is one public library call, or a small fixed bundle of calls, whose
return value is reduced to plain data so that checks.py can compare it
with independent oracles and every repeat can be compared with the first.
Within a workload every op has the same make-up; only seeded values
differ, and they are drawn stratified (one draw per equal-width cell), so
the spread of op costs is nearly the same for every seed.  That keeps the
median op time from jumping between seeds.

Importing this module needs adelic_zeta on sys.path (run.py and child.py
put the checkout's src/ there) and never imports mpmath.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from adelic_zeta import lfun, polya, satake, theta

HERE = Path(__file__).resolve().parent
WORKLOADS = ("zero_scan", "point_eval", "exact_tables")

STEP = 0.05
TOL = 1e-10
WINDOW = 1.5
# approximate ordinates, only used to place windows around one zero each;
# the checks use mpmath.zetazero and delta_oracle.json instead
ZETA_ZEROS_NEAR = (14.13, 21.02, 25.01)
DELTA_ZEROS_NEAR = (9.22, 13.91, 17.44, 19.66)

POINT_BUNDLES = 12
POINTS_PER_BUNDLE = 8

TABLE_BUNDLES = 12
SATAKE_PRIMES = (2, 3, 5, 7)
COSET_SPREAD = 3  # lambda_1 - lambda_2 of the enumerated double coset
RADIAL_DEPTH = 5
TRACE_DEPTH = 30


@dataclass
class Op:
    name: str
    kind: str
    params: dict
    fn: Callable[[], object]


@dataclass
class CliCall:
    name: str
    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    cli: list[CliCall]
    # ops that fail on every seed because of faults recorded in CHANGES.md
    known_faults: frozenset[str]


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws, one per equal cell of [lo, hi), in shuffled order."""
    width = (hi - lo) / n
    out = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(out)
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def _cfmt(z: complex) -> str:
    return "%r%s%rj" % (z.real, "-" if z.imag < 0 else "+", abs(z.imag))


# ---------------------------------------------------------------- zero_scan


def _scan_bundle(F, t_from, t_to, delta):
    zeros = polya.scan_zeros(F, t_from, t_to, step=STEP, tol=TOL)
    spectrum = polya.build_spectrum(zeros, delta=delta)
    residuals = tuple(
        (polya.annihilator_residual(F, z.rho, 0), polya.annihilator_residual(F, z.rho, 1))
        for z in zeros
    )
    return (
        zeros.ordinates(),
        tuple((e.rho, e.n_rho, e.eig_mult, e.n_literal, e.n_inclusive) for e in spectrum),
        residuals,
    )


def _zero_scan_op(windows):
    def run():
        return tuple(
            _scan_bundle(polya.CriticalLineFn(w["kind"]), w["from"], w["to"], w["delta"])
            for w in windows
        )

    return run


def _windows(rng, kind, near, per_zero):
    """Windows of width WINDOW holding exactly one zero each, the zero at
    a stratified offset from the window's start."""
    out = []
    for z in near:
        for u in strata(rng, per_zero, 0.3, WINDOW - 0.3):
            t_from = round(z - u, 6)
            out.append({"kind": kind, "from": t_from, "to": round(t_from + WINDOW, 6),
                        "delta": round(rng.uniform(1.5, 4.0), 6)})
    rng.shuffle(out)
    return out


def build_zero_scan(rng: random.Random) -> tuple[list[Op], list[CliCall]]:
    # a delta scan costs about 1.3 zeta scans, so every op scans one window
    # of each kind: 3 zeta zeros x 4 offsets pair with 4 delta zeros x 3
    zeta = _windows(rng, "zeta", ZETA_ZEROS_NEAR, 4)
    delta = _windows(rng, "delta", DELTA_ZEROS_NEAR, 3)
    ops = [
        Op("scan zeta [%g, %g] + delta [%g, %g]" % (a["from"], a["to"], b["from"], b["to"]),
           "zero_scan", {"windows": (a, b)}, _zero_scan_op((a, b)))
        for a, b in zip(zeta, delta)
    ]
    rng.shuffle(ops)
    kind, near = rng.choice((("zeta", ZETA_ZEROS_NEAR), ("delta", DELTA_ZEROS_NEAR)))
    z = rng.choice(near)
    t_from = round(z - rng.uniform(0.3, WINDOW - 0.3), 6)
    t_to = round(t_from + WINDOW, 6)
    delta = round(rng.uniform(1.5, 4.0), 6)
    cli = [
        CliCall("cli polya zeros --from 0 --to 60", "zeros",
                ["polya", "zeros", "--from", "0", "--to", "60"],
                {"kind": "zeta", "from": 0.0, "to": 60.0}),
        CliCall("cli polya zeros --kind delta --from 0 --to 30", "zeros",
                ["polya", "zeros", "--kind", "delta", "--from", "0", "--to", "30"],
                {"kind": "delta", "from": 0.0, "to": 30.0}),
        CliCall("cli polya spectrum --kind %s --from %g --to %g" % (kind, t_from, t_to), "spectrum",
                ["polya", "spectrum", "--kind", kind, "--from", _fmt(t_from),
                 "--to", _fmt(t_to), "--delta", _fmt(delta)],
                {"kind": kind, "from": t_from, "to": t_to, "delta": delta}),
    ]
    return ops, cli


# --------------------------------------------------------------- point_eval


def delta_grid() -> list[complex]:
    """The s values at which delta_oracle.json holds reference values."""
    doc = json.loads((HERE / "delta_oracle.json").read_text())
    return [complex(p["re_s"], p["im_s"]) for p in doc["points"]]


def _away_from(s: complex, poles: tuple[complex, ...], radius: float) -> bool:
    return all(abs(s - p) >= radius for p in poles)


def _seeded_points(rng, n, sig, t, poles=(), radius=0.5):
    """n stratified points of the box sig x t, redrawn near the poles."""
    out = []
    for a, b in zip(strata(rng, n, *sig), strata(rng, n, *t)):
        s = complex(a, b)
        while not _away_from(s, poles, radius):
            s = complex(rng.uniform(*sig), rng.uniform(*t))
        out.append(s)
    return out


def _test_fn(terms, coeffs) -> theta.AdelicTestFn:
    fin = theta.FiniteTestFn(tuple((c, Fraction(m)) for c, m in terms))
    return theta.AdelicTestFn(((fin, theta.ArchTestFn(tuple(coeffs))),))


def _plain_fn(terms, coeffs) -> list:
    """Test-function description that oracles.py can read without the
    program: [([(c, (num, den)), ...], coeffs)]."""
    return [(
        [(c, (Fraction(m).numerator, Fraction(m).denominator)) for c, m in terms],
        list(coeffs),
    )]


def _unit(rng, lo, hi) -> complex:
    r = rng.uniform(lo, hi)
    return complex(r * 0.8, rng.uniform(-0.6, 0.6) * r)


def _point_op(f_in, f_out, s_in, s_out, t_in, t_out, zs, ds, es):
    def run():
        return (
            theta.mellin_E(f_in, s_in),
            theta.mellin_E(f_out, s_out),
            theta.functional_eq_residual(f_in, t_in),
            theta.functional_eq_residual(f_out, t_out),
            tuple(lfun.completed_lambda_zeta(s) for s in zs),
            tuple(lfun.completed_lambda_delta(s) for s in ds),
            tuple(lfun.zeta_em(s) for s in es),
        )

    return run


def build_point_eval(rng: random.Random) -> tuple[list[Op], list[CliCall]]:
    n = POINT_BUNDLES
    k = POINTS_PER_BUNDLE
    # Mellin points on both sides of the strip, 0.2 away from s = +-1/2
    mellin_pts = _seeded_points(rng, 2 * n, (-2.5, 2.5), (-6.0, 6.0), (0.5, -0.5), 0.2)
    feq_ts = [2.0 ** x for x in strata(rng, 2 * n, -2.3, 2.3)]
    zeta_pts = _seeded_points(rng, n * k, (-6.0, 7.0), (0.0, 60.0), (0.0, 1.0))
    em_pts = _seeded_points(rng, n * k, (0.0, 4.0), (0.0, 60.0), (1.0,))
    grid = delta_grid()
    delta_pts = rng.sample(grid, n * k)
    ops = []
    for i in range(n):
        m2 = 2 + i % 2
        c = _unit(rng, 0.5, 1.0)
        in_terms = [(c, 1), (-c * m2, m2)]
        in_coeffs = [0j, 0j, complex(rng.uniform(0.5, 1.0)), 0j, complex(rng.uniform(-0.3, 0.3))]
        out_terms = [(_unit(rng, 0.5, 1.0), 1), (_unit(rng, 0.2, 1.0), 3 - i % 2)]
        out_coeffs = [complex(rng.uniform(0.5, 1.0)), complex(rng.uniform(-0.3, 0.3)),
                      _unit(rng, 0.0, 0.5)]
        f_in = _test_fn(in_terms, in_coeffs)
        f_out = _test_fn(out_terms, out_coeffs)
        params = {
            "f_in": _plain_fn(in_terms, in_coeffs),
            "f_out": _plain_fn(out_terms, out_coeffs),
            "s_in": mellin_pts[2 * i], "s_out": mellin_pts[2 * i + 1],
            "t_in": feq_ts[2 * i], "t_out": feq_ts[2 * i + 1],
            "zeta": zeta_pts[i * k:(i + 1) * k],
            "delta": delta_pts[i * k:(i + 1) * k],
            "zeta_em": em_pts[i * k:(i + 1) * k],
        }
        ops.append(Op(
            "points #%d" % i, "point_bundle", params,
            _point_op(f_in, f_out, params["s_in"], params["s_out"], params["t_in"],
                      params["t_out"], params["zeta"], params["delta"], params["zeta_em"]),
        ))
    p = rng.choice((2, 3))
    s_m = _seeded_points(rng, 1, (-2.5, 2.5), (-6.0, 6.0), (0.5, -0.5), 0.2)[0]
    s_d = rng.choice([s for s in grid if s not in delta_pts])
    s0_terms = [(1.0, 1), (-float(p), p)]
    s0_coeffs = [0j, 0j, 1.0]
    cli = [
        CliCall("cli lfun lambda-zeta --s 0.5+200j", "lambda_zeta",
                ["lfun", "lambda-zeta", "--s", "0.5+200j"], {"s": complex(0.5, 200.0)}),
        CliCall("cli theta mellin --fn s0 --p %d" % p, "mellin",
                ["theta", "mellin", "--fn", "s0", "--p", str(p), "--s=" + _cfmt(s_m)],
                {"s": s_m, "f": _plain_fn(s0_terms, s0_coeffs)}),
        CliCall("cli lfun lambda-delta", "lambda_delta",
                ["lfun", "lambda-delta", "--s=" + _cfmt(s_d)], {"s": s_d}),
    ]
    return ops, cli


# ------------------------------------------------------------- exact_tables


def _table_op(n_tau, zeta_args, delta_args, satake_args, products):
    zp, dp_arith, dp_unit = products

    def run():
        tau = lfun.tau_coefficients(n_tau).values
        ez = lfun.euler_product_eval(zp, *zeta_args)
        s_a, pmax = delta_args
        ea = lfun.euler_product_eval(dp_arith, s_a, pmax)
        eu = lfun.euler_product_eval(dp_unit, s_a - 5.5, pmax)
        local = []
        for p, lam, fa, fb, chi in satake_args:
            reps = len(satake.enumerate_cosets(p, lam).representatives)
            f = satake.HeckeFn.double_coset(2, p, fa)
            g = satake.HeckeFn.double_coset(2, p, fb)
            sf = satake.satake_transform(f)
            sg = satake.satake_transform(g)
            sfg = satake.satake_transform(satake.convolve(f, g))
            radial = satake.satake_truncated_radial(Fraction(1, 2), RADIAL_DEPTH, n=2, p=p)
            trace = satake.trace_truncated(satake.SatakeParam(2, p, chi), TRACE_DEPTH)
            local.append((reps, dict(sf.coeffs), dict(sg.coeffs), dict(sfg.coeffs),
                          dict(radial.coeffs), trace))
        return (
            tau,
            (ez.value, ez.tail_log_bound, ez.primes_used),
            (ea.value, ea.tail_log_bound, ea.primes_used),
            (eu.value, eu.tail_log_bound, eu.primes_used),
            tuple(local),
        )

    return run


def table_products(delta_pmax: int):
    """Euler-product descriptors; the delta table is set-up work a
    library user pays once per process."""
    table = lfun.tau_coefficients(delta_pmax)
    return (
        lfun.zeta_product(),
        lfun.delta_product(table, "arithmetic"),
        lfun.delta_product(table, "unitary"),
    )


def _satake_param(rng) -> tuple[complex, complex]:
    """Two eigenvalues of modulus in [0.2, 0.6], so the trace converges."""
    r1, r2 = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.6)
    return complex(r1 * 0.6, r1 * 0.8), complex(-r2 * 0.8, r2 * 0.6)


def build_exact_tables(rng: random.Random) -> tuple[list[Op], list[CliCall]]:
    n = TABLE_BUNDLES
    tau_ns = [int(x) for x in strata(rng, n, 4500, 5500)]
    zeta_pmax = [int(x) for x in strata(rng, 4, 25000, 100000)]
    delta_pmax = [int(x) for x in strata(rng, 3, 3000, 10000)]
    zeta_s = _seeded_points(rng, n, (1.5, 3.0), (0.0, 30.0))
    delta_s = _seeded_points(rng, n, (8.0, 10.0), (0.0, 30.0))
    products = table_products(10000)
    ops = []
    for i in range(n):
        sat = []
        for p in SATAKE_PRIMES:
            low = rng.randint(-1, 1)
            fa = (low + rng.randint(1, 2), low)
            fb = (rng.randint(1, 2), 0)
            sat.append((p, (low + COSET_SPREAD, low), fa, fb, _satake_param(rng)))
        zeta_args = (zeta_s[i], zeta_pmax[i % 4])
        delta_args = (delta_s[i], delta_pmax[i % 3])
        ops.append(Op(
            "tables #%d (tau %d)" % (i, tau_ns[i]), "table_bundle",
            {"n_tau": tau_ns[i], "zeta": zeta_args, "delta": delta_args, "satake": sat,
             "trace_depth": TRACE_DEPTH,
             "pair_seed": rng.randrange(1 << 30)},
            _table_op(tau_ns[i], zeta_args, delta_args, sat, products),
        ))
    p = rng.choice(SATAKE_PRIMES)
    chi = _satake_param(rng)
    s_d = _seeded_points(rng, 1, (8.0, 10.0), (0.0, 30.0))[0]
    pmax = int(rng.uniform(3000, 10000))
    cli = [
        CliCall("cli lfun tau --n 20000 --format csv", "tau_csv",
                ["lfun", "tau", "--n", "20000", "--format", "csv"], {"n": 20000}),
        CliCall("cli lfun euler --which delta --normalization arithmetic", "euler_delta",
                ["lfun", "euler", "--which", "delta", "--normalization", "arithmetic",
                 "--s=" + _cfmt(s_d), "--pmax", str(pmax)], {"s": s_d, "pmax": pmax}),
        CliCall("cli satake trace --p %d" % p, "satake_trace",
                ["satake", "trace", "--chi=" + ",".join(_cfmt(c) for c in chi), "--p", str(p),
                 "--d", str(TRACE_DEPTH)], {"chi": chi, "p": p, "d": TRACE_DEPTH}),
    ]
    return ops, cli


# ------------------------------------------------------------------- set-up


def warm(name: str, ops: list[Op]) -> None:
    """Fill the caches a library user pays for once per process:
    _default_delta_table, _bernoulli, primes_up_to and _order_classes,
    each through the public call that fills it."""
    if name in ("zero_scan", "point_eval"):
        lfun.completed_lambda_delta(complex(6.0, 1.0))
    if name == "point_eval":
        lfun.zeta_em(complex(2.0, 1.0))
    if name == "exact_tables":
        for op in ops:
            lfun.primes_up_to(op.params["zeta"][1])
            lfun.primes_up_to(op.params["delta"][1])
        for p in SATAKE_PRIMES:
            for m in range(RADIAL_DEPTH + 1):
                satake.satake_transform(satake.HeckeFn.double_coset(2, p, (m, 0)))


BUILDERS = {
    "zero_scan": build_zero_scan,
    "point_eval": build_point_eval,
    "exact_tables": build_exact_tables,
}

KNOWN_FAULTS = {
    "zero_scan": frozenset({
        "cli polya zeros --from 0 --to 60",
        "cli polya zeros --kind delta --from 0 --to 30",
    }),
    "point_eval": frozenset({"cli lfun lambda-zeta --s 0.5+200j"}),
    "exact_tables": frozenset(),
}


def build(name: str, seed: int) -> Workload:
    """Generate the workload's inputs from the seed and warm the caches."""
    rng = random.Random("%s:%d" % (name, seed))
    ops, cli = BUILDERS[name](rng)
    warm(name, ops)
    return Workload(ops, cli, KNOWN_FAULTS[name])
