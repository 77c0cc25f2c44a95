"""Checks of every op and CLI output against oracles.py.

Each check takes the op's seeded parameters and its output (plain data,
or the CLI's exit code and stdout) and returns a list of problems; an
empty list means the output is correct.  No check compares against a
stored copy of the program's own output.

Tolerances are the program's documented accuracy claims:
  * zero ordinates within 1e-6 of the oracle (tests/test_polya.py uses
    the same figure), and as many zeros as the oracle has in the window;
  * completed zeta and completed delta within 1e-12 absolute, relative
    once |value| > 1 (lfun docstrings); zeta_em likewise;
  * Mellin values within 1e-11 (the reflected route's quadrature target),
    relative once |value| > 1;
  * Poisson residuals within 1e-12;
  * exact identities exactly; truncations within their stated tails.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random

import oracles

ZERO_TOL = 1e-6
VALUE_TOL = 1e-12
MELLIN_TOL = 1e-11
FEQ_TOL = 1e-12
ROUNDING = 1e-12
DIRICHLET_TERMS = 1500
EXPANSION_TERMS = 300
PAIRS = 300


def _close(value, ref, tol) -> bool:
    return abs(complex(value) - complex(ref)) <= tol * max(1.0, abs(complex(ref)))


def _log_gap(value, ref) -> float:
    """|log(value/ref)| on the principal branch."""
    ratio = complex(value) / complex(ref)
    return abs(cmath.log(ratio))


# ------------------------------------------------------------------- zeros


def zeros_problems(kind: str, t_from: float, t_to: float, found) -> list[str]:
    expected = [g for g in oracles.zeros_below(kind, t_to) if g >= t_from]
    problems = []
    if len(found) != len(expected):
        missing = [g for g in expected if all(abs(g - r) > 1e-2 for r in found)]
        problems.append(
            "%s [%g, %g]: found %d zeros, oracle has %d (missing %s)"
            % (kind, t_from, t_to, len(found), len(expected),
               ", ".join("%.3f" % g for g in missing) or "none")
        )
    for rho in found:
        gap = min((abs(rho - g) for g in expected), default=math.inf)
        if gap > ZERO_TOL:
            problems.append("%s zero %.6f is %.2g from the nearest oracle zero" % (kind, rho, gap))
    return problems


def _n_rho_simple(delta: float) -> tuple[int, int]:
    """(literal, inclusive) order counts of a simple zero: the largest
    n >= 0 with n < delta - 1 and n < 1 (resp. n <= 1)."""
    below = math.ceil(delta - 1.0) - 1
    return 0, max(0, min(below, 1))


def spectrum_problems(delta: float, rows) -> list[str]:
    lit, inc = _n_rho_simple(delta)
    problems = []
    for rho, n_rho, eig_mult, n_lit, n_inc in rows:
        if (n_rho, eig_mult, n_lit, n_inc) != (lit, lit, lit, inc):
            problems.append(
                "spectrum at %.6f: (n_rho, eig_mult, literal, inclusive) = %r, expected %r"
                % (rho, (n_rho, eig_mult, n_lit, n_inc), (lit, lit, lit, inc))
            )
    return problems


def scan_problems(window, out) -> list[str]:
    ordinates, spectrum, residuals = out
    problems = zeros_problems(window["kind"], window["from"], window["to"], ordinates)
    if [row[0] for row in spectrum] != list(ordinates):
        problems.append("spectrum ordinates differ from the scan's")
    problems += spectrum_problems(window["delta"], spectrum)
    for rho, (r0, r1) in zip(ordinates, residuals):
        # a simple zero: F vanishes to the ordinate's accuracy, F' does not
        if not (r0 <= ZERO_TOL * r1 + 1e-9 and r1 > 1e-3):
            problems.append("annihilator residuals at %.6f: k=0 %.3g, k=1 %.3g" % (rho, r0, r1))
    return problems


def check_zero_scan(params, out) -> list[str]:
    problems = []
    for window, scan in zip(params["windows"], out):
        problems += scan_problems(window, scan)
    return problems


# ------------------------------------------------------------------- points


def check_point_bundle(params, out) -> list[str]:
    m_in, m_out, r_in, r_out, lz, ld, em = out
    problems = []
    for label, fn, s, value in (("in S0", params["f_in"], params["s_in"], m_in),
                                ("outside S0", params["f_out"], params["s_out"], m_out)):
        ref = oracles.mellin_closed_form(fn, s)
        if not _close(value, ref, MELLIN_TOL):
            problems.append("mellin %s at %s: %r vs closed form %r" % (label, s, value, ref))
    for label, r in (("in S0", r_in), ("outside S0", r_out)):
        if not r <= FEQ_TOL:
            problems.append("Poisson residual %s is %.3g" % (label, r))
    for s, value in zip(params["zeta"], lz):
        ref = oracles.completed_zeta(s)
        if not _close(value, ref, VALUE_TOL):
            problems.append("completed zeta at %s: %r vs %r" % (s, value, ref))
    points = dict(oracles.delta_table()["points"])
    for s, value in zip(params["delta"], ld):
        if not _close(value, points[s], VALUE_TOL):
            problems.append("completed delta at %s: %r vs %r" % (s, value, points[s]))
    for s, value in zip(params["zeta_em"], em):
        ref = oracles.zeta(s)
        if not _close(value, ref, VALUE_TOL):
            problems.append("zeta_em at %s: %r vs %r" % (s, value, ref))
    return problems


# ------------------------------------------------------------------- tables


def tau_problems(tau, pair_seed: int) -> list[str]:
    """Exact identities of tau on the table tau(1..n)."""
    n = len(tau)
    t = (None,) + tuple(tau)
    problems = []
    ref = oracles.tau_expansion(min(n, EXPANSION_TERMS))
    if tuple(tau[:len(ref)]) != ref:
        first = next(i for i, (a, b) in enumerate(zip(tau, ref)) if a != b)
        problems.append("tau(%d) = %d, q-expansion gives %d" % (first + 1, tau[first], ref[first]))
    p = 2
    while p * p <= n:
        if all(p % q for q in range(2, int(p ** 0.5) + 1)):
            if t[p * p] != t[p] ** 2 - p ** 11:
                problems.append("tau(%d^2) != tau(%d)^2 - %d^11" % (p, p, p))
        p += 1
    rng = random.Random(pair_seed)
    for _ in range(PAIRS):
        a = rng.randint(2, int(n ** 0.5))
        b = rng.randint(2, n // a)
        if math.gcd(a, b) == 1 and t[a * b] != t[a] * t[b]:
            problems.append("tau(%d*%d) != tau(%d) tau(%d)" % (a, b, a, b))
    sig = oracles.sigma11_mod691(n)
    bad = [k for k in range(1, n + 1) if (t[k] - sig[k]) % 691]
    if bad:
        problems.append("tau(k) != sigma_11(k) mod 691 at k = %s" % bad[:5])
    return problems


def zeta_product_problems(s, result) -> list[str]:
    value, tail, _primes = result
    gap = _log_gap(value, oracles.zeta(s))
    if not gap <= tail + ROUNDING:
        return ["zeta Euler product at %s: |log gap| %.3g > tail bound %.3g" % (s, gap, tail)]
    return []


def delta_product_problems(s_arith, result, label) -> list[str]:
    value, tail, _primes = result
    part, dir_tail = oracles.delta_dirichlet(s_arith, DIRICHLET_TERMS)
    gap = _log_gap(value, part)
    if not gap <= tail + dir_tail + ROUNDING:
        return ["delta Euler product (%s) at %s: |log gap| %.3g > %.3g + %.3g"
                % (label, s_arith, gap, tail, dir_tail)]
    return []


def satake_problems(p, lam, out) -> list[str]:
    reps, sf, sg, sfg, radial, trace = out
    problems = []
    m = lam[0] - lam[1]
    if reps != (p + 1) * p ** (m - 1):
        problems.append("p=%d: %d coset representatives for %r, expected %d"
                        % (p, reps, lam, (p + 1) * p ** (m - 1)))
    product = _laurent_product(sf, sg)
    keys = set(product) | set(sfg)
    if any(not product.get(k, 0) == sfg.get(k, 0) for k in keys):
        problems.append("p=%d: S(f*g) != S(f) S(g)" % p)
    if any(not c == 1 for c in radial.values()):
        problems.append("p=%d: radial transform at sigma=1/2 is not identically 1" % p)
    return problems


def _laurent_product(a: dict, b: dict) -> dict:
    """Product of two symmetric rank-2 Laurent polynomials given by their
    dominant coefficients, expanded over the full Weyl orbits."""
    def monomials(g):
        out = {}
        for (x, y), c in g.items():
            out[(x, y)] = c
            out[(y, x)] = c
        return out

    prod = {}
    for (a1, a2), ca in monomials(a).items():
        for (b1, b2), cb in monomials(b).items():
            nu = (a1 + b1, a2 + b2)
            prod[nu] = prod[nu] + ca * cb if nu in prod else ca * cb
    return {nu: c for nu, c in prod.items() if nu[0] >= nu[1]}


def trace_problems(chi, d, value) -> list[str]:
    """sum_{k<=d} h_k(chi) against 1/((1-chi_1)(1-chi_2)), within the
    geometric tail sum_{k>d} (k+1) r^k, r = max |chi_j|."""
    r = max(abs(c) for c in chi)
    closed = 1.0 / ((1.0 - chi[0]) * (1.0 - chi[1]))
    tail = r ** (d + 1) * ((d + 2) - (d + 1) * r) / (1.0 - r) ** 2
    gap = abs(complex(value) - closed)
    if not gap <= tail + ROUNDING:
        return ["truncated trace: gap %.3g to the local factor > tail %.3g" % (gap, tail)]
    return []


def check_table_bundle(params, out) -> list[str]:
    tau, ez, ea, eu, local = out
    problems = []
    if len(tau) != params["n_tau"]:
        problems.append("tau table has %d entries, asked for %d" % (len(tau), params["n_tau"]))
    problems += tau_problems(tau, params["pair_seed"])
    problems += zeta_product_problems(params["zeta"][0], ez)
    s_a = params["delta"][0]
    problems += delta_product_problems(s_a, ea, "arithmetic")
    problems += delta_product_problems(s_a, eu, "unitary")
    for (p, lam, _fa, _fb, chi), loc in zip(params["satake"], local):
        problems += satake_problems(p, lam, loc)
        problems += trace_problems(chi, params["trace_depth"], loc[5])
    return problems


OP_CHECKS = {
    "zero_scan": check_zero_scan,
    "point_bundle": check_point_bundle,
    "table_bundle": check_table_bundle,
}


def check_op(kind: str, params, out) -> list[str]:
    return OP_CHECKS[kind](params, out)


# ---------------------------------------------------------------------- CLI


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


def check_cli(kind: str, params, rc: int, stdout: bytes) -> list[str]:
    if kind == "lambda_zeta":
        # outside the documented window |Im s| <= 60: a refusal is right,
        # and so is a value that matches mpmath; a wrong value with exit 0
        # is not
        if rc == 2:
            return []
        if rc != 0:
            return ["exit %d" % rc]
        value = _complex(json.loads(stdout)["outputs"]["value"])
        ref = oracles.completed_zeta(params["s"])
        if abs(value - ref) <= 1e-6 * abs(ref):
            return []
        return ["lambda-zeta at %s: exit 0 with %r, mpmath gives %r" % (params["s"], value, ref)]
    if rc != 0:
        return ["exit %d" % rc]
    if kind == "tau_csv":
        rows = list(csv.reader(io.StringIO(stdout.decode())))
        if rows[0] != ["a_n", "n"]:
            return ["unexpected CSV header %r" % rows[0]]
        if [int(r[1]) for r in rows[1:]] != list(range(1, params["n"] + 1)):
            return ["CSV rows are not n = 1..%d" % params["n"]]
        return tau_problems(tuple(int(r[0]) for r in rows[1:]), params["n"])
    outputs = json.loads(stdout)["outputs"]
    if kind == "zeros":
        found = [row["rho"] for row in outputs["table"]]
        problems = zeros_problems(params["kind"], params["from"], params["to"], found)
        claimed = {row["refined_tol"] for row in outputs["table"]}
        if problems and claimed:
            problems.append("yet every entry claims refined_tol %s" % ", ".join(map(str, claimed)))
        return problems
    if kind == "spectrum":
        found = [row["rho"] for row in outputs["table"]]
        problems = zeros_problems(params["kind"], params["from"], params["to"], found)
        lit, _inc = _n_rho_simple(params["delta"])
        if any((row["n_rho"], row["eig_mult"], row["is_eigenvalue"]) != (lit, lit, lit > 0)
               for row in outputs["table"]):
            problems.append("spectrum rows disagree with the literal counting rule")
        return problems
    if kind == "mellin":
        value = _complex(outputs["value"])
        ref = oracles.mellin_closed_form(params["f"], params["s"])
        return [] if _close(value, ref, MELLIN_TOL) else [
            "mellin at %s: %r vs closed form %r" % (params["s"], value, ref)]
    if kind == "lambda_delta":
        value = _complex(outputs["value"])
        ref = dict(oracles.delta_table()["points"])[params["s"]]
        return [] if _close(value, ref, VALUE_TOL) else [
            "lambda-delta at %s: %r vs %r" % (params["s"], value, ref)]
    if kind == "euler_delta":
        result = (_complex(outputs["value"]), outputs["tail_log_bound"], outputs["primes_used"])
        return delta_product_problems(params["s"], result, "cli")
    if kind == "satake_trace":
        return trace_problems(params["chi"], params["d"], _complex(outputs["value"]))
    raise ValueError("no check for CLI kind %r" % kind)
