"""Command-line front end: every module as a reproducible batch command.

Grammar is `adelic-zeta <module> <operation> --flag value`.  Each run
executes exactly one operation and emits one report on stdout in json
(default, keys sorted, byte-stable for identical inputs), csv, or text.
Exit codes: 0 success, 2 validation error (bad flags, domain errors,
poles), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from fractions import Fraction

from .numkit import NonConvergenceError, PoleError
from . import lfun, polya, records, satake, theta

_SCHEMA = "adelic-zeta.report.v1"


def _finite_number(parse, name: str):
    """An argparse type: ``parse`` of the text, refused unless finite."""

    def arg(text: str):
        try:
            value = parse(text.replace(" ", ""))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a {name}, got {text!r}")
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"expected a finite {name}, got {text!r}")
        return value

    return arg


_complex_arg = _finite_number(complex, "complex number")
_finite_arg = _finite_number(float, "real number")


def _int_tuple_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _complex_tuple_arg(text: str) -> tuple[complex, ...]:
    return tuple(_complex_arg(part) for part in text.split(","))


def _report(command: str, inputs: dict, outputs: dict, provenance: list[str]) -> dict:
    return {
        "schema": _SCHEMA,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": provenance,
    }


def _emit(report: dict, fmt: str) -> None:
    """Write the report through `records`: json as is, csv as the table's
    rows (or one row of all outputs), text as flattened `key = value` lines."""
    if fmt == "json":
        sys.stdout.write(records.dumps(report) + "\n")
    elif fmt == "csv":
        outputs = report["outputs"]
        sys.stdout.write(records.csv_text(outputs.get("table") or [outputs]))
    else:
        for key, value in records.flatten(records.plain(report)).items():
            sys.stdout.write(f"{key} = {value}\n")


# ---------------------------------------------------------------- handlers


def _cmd_lfun_zeta(args) -> dict:
    value = lfun.zeta_em(args.s, terms=args.terms)
    return _report(
        "lfun.zeta",
        {"s": args.s, "terms": args.terms},
        {"value": value},
        ["euler-maclaurin partial sum with bernoulli tail corrections"],
    )


def _cmd_lfun_lambda_zeta(args) -> dict:
    value = lfun.completed_lambda_zeta(args.s)
    return _report(
        "lfun.lambda-zeta",
        {"s": args.s},
        {"value": value},
        ["incomplete-theta integral, exactly symmetric under s <-> 1-s"],
    )


def _cmd_lfun_lambda_delta(args) -> dict:
    value = lfun.completed_lambda_delta(args.s)
    return _report(
        "lfun.lambda-delta",
        {"s": args.s},
        {"value": value},
        ["q-expansion integral, exactly symmetric under s <-> 12-s"],
    )


def _cmd_lfun_euler(args) -> dict:
    # the prime sieve bounds zeta's product; the tau table bounds delta's
    limit = lfun._MAX_SIEVE if args.which == "zeta" else lfun._MAX_TAU
    if args.pmax > limit:
        raise ValueError(
            f"--pmax must be at most {limit} for --which {args.which} (got {args.pmax})"
        )
    if args.which == "zeta":
        if args.normalization == "arithmetic":
            raise ValueError("zeta has no separate arithmetic normalization")
        product = lfun.zeta_product()
    else:
        product = lfun.delta_product(
            lfun.tau_coefficients(max(args.pmax, 2)), normalization=args.normalization
        )
    result = lfun.euler_product_eval(product, args.s, args.pmax)
    return _report(
        "lfun.euler",
        {
            "which": args.which,
            "s": args.s,
            "pmax": args.pmax,
            "normalization": args.normalization,
        },
        {
            "value": result.value,
            "tail_log_bound": result.tail_log_bound,
            "primes_used": result.primes_used,
        },
        ["finite euler product over primes <= pmax with logarithmic tail bound"],
    )


def _cmd_lfun_tau(args) -> dict:
    table = lfun.tau_coefficients(args.n)
    rows = [{"n": i + 1, "a_n": table.values[i]} for i in range(len(table))]
    return _report(
        "lfun.tau",
        {"n": args.n},
        {"table": rows},
        ["eta-power q-expansion via sparse passes modulo primes and the CRT"],
    )


def _cmd_theta_eval(args) -> dict:
    f = _test_fn(args)
    rep = theta.E_eval_report(f, args.t)
    return _report(
        "theta.eval",
        {"t": args.t, "fn": args.fn, "p": args.p},
        {
            "value": rep.value,
            "truncation_radius": rep.truncation_radius,
            "term_counts": list(rep.term_counts),
        },
        ["lattice sum with gaussian tail truncation below 1e-17"],
    )


def _cmd_theta_feq(args) -> dict:
    f = _test_fn(args)
    residual = theta.functional_eq_residual(f, args.t)
    return _report(
        "theta.feq",
        {"t": args.t, "fn": args.fn, "p": args.p},
        {"residual": residual},
        ["poisson summation with boundary terms sqrt(t) f(0) and fhat(0)/sqrt(t)"],
    )


def _cmd_theta_mellin(args) -> dict:
    f = _test_fn(args)
    value = theta.mellin_E(f, args.s)
    return _report(
        "theta.mellin",
        {"s": args.s, "fn": args.fn, "p": args.p},
        {"value": value},
        ["reflected two-sided half-line integral with explicit pole terms"],
    )


def _cmd_theta_decay(args) -> dict:
    f = _test_fn(args)
    value = theta.decay_constant(f, args.n)
    return _report(
        "theta.decay",
        {"n": args.n, "fn": args.fn, "p": args.p},
        {"constant": value},
        ["sup of |t|^n |E(f,t)| over the dyadic grid 2^-6 .. 2^6"],
    )


def _test_fn(args):
    if args.fn == "gaussian":
        return theta.standard_gaussian()
    return theta.make_S0(args.p)


def _cmd_satake_cosets(args) -> dict:
    enum = satake.enumerate_cosets(args.p, args.lam)
    return _report(
        "satake.cosets",
        {"p": args.p, "lambda": list(args.lam)},
        {
            "count": len(enum.representatives),
            "depth": enum.depth,
            "modulus_delta": satake.modulus_delta(
                tuple(Fraction(args.p) ** k for k in args.lam), args.p
            ),
        },
        ["upper-triangular hermite representatives, primitivity-filtered"],
    )


def _cmd_satake_radial(args) -> dict:
    rows = []
    for d in range(args.dmax + 1):
        value = satake.satake_truncated_radial(args.sigma, d, p=args.p)
        rows.append({"total_degree": d, "value": str(value)})
    return _report(
        "satake.radial",
        {"p": args.p, "sigma": args.sigma, "dmax": args.dmax},
        {"table": rows},
        ["exact half-integer-power arithmetic through the coset count"],
    )


def _cmd_satake_trace(args) -> dict:
    param = satake.SatakeParam(len(args.chi), args.p, args.chi)
    value = satake.trace_truncated(param, args.d)
    return _report(
        "satake.trace",
        {"chi": list(args.chi), "p": args.p, "d": args.d},
        {"value": value},
        ["compensated sum of the complete homogeneous sums h_k(chi), k <= d"],
    )


def _scan(args) -> polya.ZeroList:
    F = polya.CriticalLineFn(args.kind)
    return polya.scan_zeros(F, args.t_from, args.t_to, step=args.step, tol=args.tol)


def _cmd_polya_zeros(args) -> dict:
    zeros = _scan(args)
    return _report(
        "polya.zeros",
        {
            "kind": args.kind,
            "from": args.t_from,
            "to": args.t_to,
            "step": args.step,
            "tol": args.tol,
        },
        {"count": len(zeros), "table": zeros.zeros},
        ["sign-change bracketing on the envelope-normalized critical line"],
    )


def _cmd_polya_spectrum(args) -> dict:
    zeros = _scan(args)
    spectrum = polya.build_spectrum(
        zeros, delta=args.delta, m_pi=args.m_pi, variant=args.rule_variant
    )
    rows = [
        {
            "rho": e.rho,
            "n_rho": e.n_rho,
            "eig_mult": e.eig_mult,
            "rule_variant": spectrum.rule_variant,
            "is_eigenvalue": e.is_eigenvalue,
        }
        for e in spectrum
    ]
    return _report(
        "polya.spectrum",
        {
            "kind": args.kind,
            "from": args.t_from,
            "to": args.t_to,
            "step": args.step,
            "tol": args.tol,
            "delta": args.delta,
            "m_pi": args.m_pi,
            "rule_variant": args.rule_variant,
        },
        {"count": len(rows), "table": rows},
        ["zero scan followed by the multiplicity counting rule (both readings stored)"],
    )


def _cmd_polya_residual(args) -> dict:
    F = polya.CriticalLineFn(args.kind)
    value = polya.annihilator_residual(F, args.t, args.k)
    return _report(
        "polya.residual",
        {"kind": args.kind, "t": args.t, "k": args.k},
        {"residual": value},
        ["5-point central differences, step 1e-3, on the normalized sampler"],
    )


def _cmd_polya_norm_bound(args) -> dict:
    measured, bound = polya.norm_bound_check(args.a, args.delta)
    return _report(
        "polya.norm-bound",
        {"a": args.a, "delta": args.delta},
        {"measured": measured, "bound": bound, "within_bound": measured <= bound * (1 + 1e-6)},
        ["exact norm of the weighted shift on the grid, compared to the growth bound"],
    )


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adelic-zeta",
        description=__doc__.splitlines()[0],
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json, keys sorted, byte-stable)",
    )
    modules = parser.add_subparsers(dest="module", required=True)

    m_lfun = modules.add_parser("lfun", help="zeta, completed L-functions, Euler products")
    lfun_ops = m_lfun.add_subparsers(dest="operation", required=True)

    p = lfun_ops.add_parser("zeta", parents=[fmt], help="Riemann zeta by Euler-Maclaurin")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--terms", type=int, default=100)
    p.set_defaults(handler=_cmd_lfun_zeta)

    p = lfun_ops.add_parser("lambda-zeta", parents=[fmt], help="completed zeta")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.set_defaults(handler=_cmd_lfun_lambda_zeta)

    p = lfun_ops.add_parser("lambda-delta", parents=[fmt], help="completed cusp-form L")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.set_defaults(handler=_cmd_lfun_lambda_delta)

    p = lfun_ops.add_parser("euler", parents=[fmt], help="finite Euler product with tail bound")
    p.add_argument("--which", choices=("zeta", "delta"), default="zeta")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--pmax", type=int, default=10000)
    p.add_argument("--normalization", choices=("unitary", "arithmetic"), default="unitary")
    p.set_defaults(handler=_cmd_lfun_euler)

    p = lfun_ops.add_parser("tau", parents=[fmt], help="cusp-form coefficient table")
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(handler=_cmd_lfun_tau)

    m_theta = modules.add_parser("theta", help="adelic theta sums and their Mellin transform")
    theta_ops = m_theta.add_subparsers(dest="operation", required=True)
    for name, handler, extra in (
        ("eval", _cmd_theta_eval, "t"),
        ("feq", _cmd_theta_feq, "t"),
        ("mellin", _cmd_theta_mellin, "s"),
        ("decay", _cmd_theta_decay, "n"),
    ):
        p = theta_ops.add_parser(name, parents=[fmt])
        if extra == "t":
            p.add_argument("--t", type=float, required=True)
        elif extra == "s":
            p.add_argument("--s", type=_complex_arg, required=True)
        else:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--fn", choices=("gaussian", "s0"), default="gaussian")
        p.add_argument("--p", type=int, default=2, help="prime for the s0 test function")
        p.set_defaults(handler=handler)

    m_satake = modules.add_parser("satake", help="double cosets and the spherical transform")
    satake_ops = m_satake.add_subparsers(dest="operation", required=True)

    p = satake_ops.add_parser("cosets", parents=[fmt], help="Hermite coset enumeration")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_int_tuple_arg, required=True)
    p.set_defaults(handler=_cmd_satake_cosets)

    p = satake_ops.add_parser("radial", parents=[fmt], help="radial transform values")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--sigma", type=_finite_arg, default=0.5)
    p.add_argument("--dmax", type=int, default=4)
    p.set_defaults(handler=_cmd_satake_radial)

    p = satake_ops.add_parser("trace", parents=[fmt], help="truncated geometric trace")
    p.add_argument("--chi", type=_complex_tuple_arg, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--d", type=int, default=30)
    p.set_defaults(handler=_cmd_satake_trace)

    m_polya = modules.add_parser("polya", help="critical-line zeros and the band model")
    polya_ops = m_polya.add_subparsers(dest="operation", required=True)

    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--kind", choices=("zeta", "delta"), default="zeta")
    scan.add_argument("--from", dest="t_from", type=float, required=True)
    scan.add_argument("--to", dest="t_to", type=float, required=True)
    scan.add_argument("--step", type=float, default=0.05)
    scan.add_argument("--tol", type=float, default=1e-10)

    p = polya_ops.add_parser("zeros", parents=[fmt, scan], help="sign-change zero scan")
    p.set_defaults(handler=_cmd_polya_zeros)

    p = polya_ops.add_parser("spectrum", parents=[fmt, scan], help="zeros to eigenvalue data")
    p.add_argument("--delta", type=_finite_arg, required=True)
    p.add_argument("--m-pi", dest="m_pi", type=int, default=1)
    p.add_argument("--rule-variant", dest="rule_variant",
                   choices=("literal", "inclusive"), default="literal")
    p.set_defaults(handler=_cmd_polya_spectrum)

    p = polya_ops.add_parser("residual", parents=[fmt], help="annihilator residual at t")
    p.add_argument("--kind", choices=("zeta", "delta"), default="zeta")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(handler=_cmd_polya_residual)

    p = polya_ops.add_parser("norm-bound", parents=[fmt], help="weighted shift norm check")
    p.add_argument("--a", type=_finite_arg, required=True)
    p.add_argument("--delta", type=_finite_arg, required=True)
    p.set_defaults(handler=_cmd_polya_norm_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except (ValueError, PoleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NonConvergenceError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
