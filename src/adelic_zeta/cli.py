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
# Each takes the command's inputs (every flag, by report key) and returns
# its outputs; `main` assembles the report.


def _cmd_lfun_zeta(inputs: dict) -> dict:
    return {"value": lfun.zeta_em(inputs["s"])}


def _cmd_lfun_lambda_zeta(inputs: dict) -> dict:
    return {"value": lfun.completed_lambda_zeta(inputs["s"])}


def _cmd_lfun_lambda_delta(inputs: dict) -> dict:
    return {"value": lfun.completed_lambda_delta(inputs["s"])}


def _cmd_lfun_euler(inputs: dict) -> dict:
    which, pmax, normalization = inputs["which"], inputs["pmax"], inputs["normalization"]
    # the prime sieve bounds zeta's product; the tau table bounds delta's
    limit = lfun._MAX_SIEVE if which == "zeta" else lfun._MAX_TAU
    if pmax > limit:
        raise ValueError(f"--pmax must be at most {limit} for --which {which} (got {pmax})")
    if which == "zeta":
        if normalization == "arithmetic":
            raise ValueError("zeta has no separate arithmetic normalization")
        product = lfun.zeta_product()
    else:
        product = lfun.delta_product(
            lfun.tau_coefficients(max(pmax, 2)), normalization=normalization
        )
    result = lfun.euler_product_eval(product, inputs["s"], pmax)
    return {
        "value": result.value,
        "tail_log_bound": result.tail_log_bound,
        "primes_used": result.primes_used,
    }


def _cmd_lfun_tau(inputs: dict) -> dict:
    table = lfun.tau_coefficients(inputs["n"])
    return {"table": [{"n": i + 1, "a_n": table.values[i]} for i in range(len(table))]}


def _test_fn(inputs: dict):
    if inputs["fn"] == "gaussian":
        return theta.standard_gaussian()
    return theta.make_S0(inputs["p"])


def _cmd_theta_eval(inputs: dict) -> dict:
    rep = theta.E_eval_report(_test_fn(inputs), inputs["t"])
    return {
        "value": rep.value,
        "truncation_radius": rep.truncation_radius,
        "term_counts": list(rep.term_counts),
    }


def _cmd_theta_feq(inputs: dict) -> dict:
    return {"residual": theta.functional_eq_residual(_test_fn(inputs), inputs["t"])}


def _cmd_theta_mellin(inputs: dict) -> dict:
    return {"value": theta.mellin_E(_test_fn(inputs), inputs["s"])}


def _cmd_theta_decay(inputs: dict) -> dict:
    return {"constant": theta.decay_constant(_test_fn(inputs), inputs["n"])}


def _cmd_satake_cosets(inputs: dict) -> dict:
    p, lam = inputs["p"], inputs["lambda"]
    enum = satake.enumerate_cosets(p, lam)
    return {
        "count": len(enum.representatives),
        "depth": enum.depth,
        "modulus_delta": satake.modulus_delta(tuple(Fraction(p) ** k for k in lam), p),
    }


def _cmd_satake_radial(inputs: dict) -> dict:
    p, sigma, dmax = inputs["p"], inputs["sigma"], inputs["dmax"]
    if dmax < 0:
        raise ValueError(f"--dmax must be >= 0 (got {dmax})")
    # row d is the table to dmax restricted to |mu| <= d (no entry depends
    # on where the table is truncated), so the report prints the table to
    # each d <= dmax
    counts, sizes = satake._radial_sizes(sigma, dmax, 2, p)
    if (counts * sizes).cumsum().sum() > satake._MAX_RADIAL_BYTES:
        raise ValueError(
            f"--p {p}, --sigma {sigma} and --dmax {dmax} give a report of more than"
            f" {satake._MAX_RADIAL_BYTES} bytes, the most that is printed"
        )
    full = satake.satake_truncated_radial(sigma, dmax, p=p)
    rows = []
    for d in range(dmax + 1):
        kept = {mu: c for mu, c in full.coeffs.items() if sum(mu) <= d}
        rows.append({"total_degree": d, "value": str(satake.SymLaurent(full.n, kept))})
    return {"table": rows}


def _cmd_satake_trace(inputs: dict) -> dict:
    chi = inputs["chi"]
    param = satake.SatakeParam(len(chi), inputs["p"], chi)
    return {"value": satake.trace_truncated(param, inputs["d"])}


def _scan(inputs: dict) -> polya.ZeroList:
    F = polya.CriticalLineFn(inputs["kind"])
    return polya.scan_zeros(
        F, inputs["from"], inputs["to"], step=inputs["step"], tol=inputs["tol"]
    )


def _cmd_polya_zeros(inputs: dict) -> dict:
    zeros = _scan(inputs)
    return {"count": len(zeros), "table": zeros.zeros}


def _cmd_polya_spectrum(inputs: dict) -> dict:
    spectrum = polya.build_spectrum(
        _scan(inputs), delta=inputs["delta"], m_pi=inputs["m_pi"],
        variant=inputs["rule_variant"],
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
    return {"count": len(rows), "table": rows}


def _cmd_polya_residual(inputs: dict) -> dict:
    F = polya.CriticalLineFn(inputs["kind"])
    return {"residual": polya.annihilator_residual(F, inputs["t"], inputs["k"])}


def _cmd_polya_norm_bound(inputs: dict) -> dict:
    measured, bound = polya.norm_bound_check(inputs["a"], inputs["delta"])
    return {"measured": measured, "bound": bound, "within_bound": measured <= bound * (1 + 1e-6)}


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    """The argument tree.  Each operation's defaults carry its handler and
    its one provenance line; every other dest is a report input key."""
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
    p.set_defaults(handler=_cmd_lfun_zeta,
                   provenance="euler-maclaurin partial sum with bernoulli tail corrections")

    p = lfun_ops.add_parser("lambda-zeta", parents=[fmt], help="completed zeta")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.set_defaults(handler=_cmd_lfun_lambda_zeta,
                   provenance="incomplete-theta integral, exactly symmetric under s <-> 1-s")

    p = lfun_ops.add_parser("lambda-delta", parents=[fmt], help="completed cusp-form L")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.set_defaults(handler=_cmd_lfun_lambda_delta,
                   provenance="q-expansion integral, exactly symmetric under s <-> 12-s")

    p = lfun_ops.add_parser("euler", parents=[fmt], help="finite Euler product with tail bound")
    p.add_argument("--which", choices=("zeta", "delta"), default="zeta")
    p.add_argument("--s", type=_complex_arg, required=True)
    p.add_argument("--pmax", type=int, default=10000)
    p.add_argument("--normalization", choices=("unitary", "arithmetic"), default="unitary")
    p.set_defaults(
        handler=_cmd_lfun_euler,
        provenance="finite euler product over primes <= pmax with logarithmic tail bound",
    )

    p = lfun_ops.add_parser("tau", parents=[fmt], help="cusp-form coefficient table")
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(handler=_cmd_lfun_tau,
                   provenance="eta-power q-expansion via sparse passes modulo primes and the CRT")

    m_theta = modules.add_parser("theta", help="adelic theta sums and their Mellin transform")
    theta_ops = m_theta.add_subparsers(dest="operation", required=True)
    for name, handler, flag, parse, provenance in (
        ("eval", _cmd_theta_eval, "--t", float,
         "lattice sum with gaussian tail truncation below 1e-17"),
        ("feq", _cmd_theta_feq, "--t", float,
         "poisson summation with boundary terms sqrt(t) f(0) and fhat(0)/sqrt(t)"),
        ("mellin", _cmd_theta_mellin, "--s", _complex_arg,
         "reflected two-sided half-line integral with explicit pole terms"),
        ("decay", _cmd_theta_decay, "--n", int,
         "sup of |t|^n |E(f,t)| over the dyadic grid 2^-6 .. 2^6"),
    ):
        p = theta_ops.add_parser(name, parents=[fmt])
        p.add_argument(flag, type=parse, required=True)
        p.add_argument("--fn", choices=("gaussian", "s0"), default="gaussian")
        p.add_argument("--p", type=int, default=2, help="prime for the s0 test function")
        p.set_defaults(handler=handler, provenance=provenance)

    m_satake = modules.add_parser("satake", help="double cosets and the spherical transform")
    satake_ops = m_satake.add_subparsers(dest="operation", required=True)

    p = satake_ops.add_parser("cosets", parents=[fmt], help="Hermite coset enumeration")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--lambda", metavar="LAM", type=_int_tuple_arg, required=True)
    p.set_defaults(handler=_cmd_satake_cosets,
                   provenance="upper-triangular hermite representatives, primitivity-filtered")

    p = satake_ops.add_parser("radial", parents=[fmt], help="radial transform values")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--sigma", type=_finite_arg, default=0.5)
    p.add_argument("--dmax", type=int, default=4)
    p.set_defaults(handler=_cmd_satake_radial,
                   provenance="Tamagawa's closed form p^((1/2 - sigma) |mu|),"
                              " exact when 2 sigma is an integer")

    p = satake_ops.add_parser("trace", parents=[fmt], help="truncated geometric trace")
    p.add_argument("--chi", type=_complex_tuple_arg, required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--d", type=int, default=30)
    p.set_defaults(handler=_cmd_satake_trace,
                   provenance="compensated sum of the complete homogeneous sums h_k(chi), k <= d")

    m_polya = modules.add_parser("polya", help="critical-line zeros and the band model")
    polya_ops = m_polya.add_subparsers(dest="operation", required=True)

    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--kind", choices=tuple(lfun._LINES), default="zeta")
    scan.add_argument("--from", metavar="T_FROM", type=float, required=True)
    scan.add_argument("--to", metavar="T_TO", type=float, required=True)
    scan.add_argument("--step", type=float, default=0.05)
    scan.add_argument("--tol", type=float, default=1e-10)

    p = polya_ops.add_parser("zeros", parents=[fmt, scan], help="sign-change zero scan")
    p.set_defaults(handler=_cmd_polya_zeros,
                   provenance="sign-change bracketing on the envelope-normalized critical line")

    p = polya_ops.add_parser("spectrum", parents=[fmt, scan], help="zeros to eigenvalue data")
    p.add_argument("--delta", type=_finite_arg, required=True)
    p.add_argument("--m-pi", type=int, default=1)
    p.add_argument("--rule-variant", choices=("literal", "inclusive"), default="literal")
    p.set_defaults(
        handler=_cmd_polya_spectrum,
        provenance="zero scan followed by the multiplicity counting rule (both readings stored)",
    )

    p = polya_ops.add_parser("residual", parents=[fmt], help="annihilator residual at t")
    p.add_argument("--kind", choices=tuple(lfun._LINES), default="zeta")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(handler=_cmd_polya_residual,
                   provenance="5-point central differences, step 1e-3, on the normalized sampler")

    p = polya_ops.add_parser("norm-bound", parents=[fmt], help="weighted shift norm check")
    p.add_argument("--a", type=_finite_arg, required=True)
    p.add_argument("--delta", type=_finite_arg, required=True)
    p.set_defaults(
        handler=_cmd_polya_norm_bound,
        provenance="exact norm of the weighted shift on the grid, compared to the growth bound",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    inputs = vars(_build_parser().parse_args(argv))
    command = f"{inputs.pop('module')}.{inputs.pop('operation')}"
    handler, provenance = inputs.pop("handler"), inputs.pop("provenance")
    fmt = inputs.pop("format")
    try:
        outputs = handler(inputs)
    except (ValueError, PoleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NonConvergenceError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    report = {
        "schema": _SCHEMA,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "provenance": [provenance],
    }
    _emit(report, fmt)
    return 0


if __name__ == "__main__":
    sys.exit(main())
