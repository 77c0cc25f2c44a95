"""Independent reference values for the benchmark's checks.

Nothing here calls into adelic_zeta.  Reference values come from mpmath
at raised precision, from a q-expansion of q prod (1 - q^n)^24 built by a
different algorithm than the program's, or from closed forms.  Only the
check phase imports this module, after the timed phase has ended, so
mpmath never shows up in the timings or in the peak memory.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
DELTA_ORACLE = HERE / "delta_oracle.json"

WORKING_DPS = 30


def _mpc(z) -> mp.mpc:
    z = complex(z)
    return mp.mpc(z.real, z.imag)


# ------------------------------------------------------------------ tau


@lru_cache(maxsize=4)
def tau_expansion(n: int) -> tuple[int, ...]:
    """tau(1..n) from q prod_{k>=1} (1 - q^k)^24.

    The product prod (1 - q^k) comes from Euler's pentagonal number
    theorem; its 24th power from the power recurrence for a series with
    constant term 1, f_k = (1/k) sum_j ((a+1) j - k) e_j f_{k-j}.  The
    program squares a Jacobi theta series three times instead, so the
    two routes share no step.
    """
    m = n - 1  # q * F(q): tau(i) is the coefficient of q^(i-1) in F
    e = [0] * (m + 1)
    e[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= m:
        sign = -1 if k % 2 else 1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= m:
                e[g] += sign
        k += 1
    sparse = [(j, e[j]) for j in range(1, m + 1) if e[j]]
    f = [0] * (m + 1)
    f[0] = 1
    for i in range(1, m + 1):
        acc = 0
        for j, ej in sparse:
            if j > i:
                break
            acc += (25 * j - i) * ej * f[i - j]
        f[i] = acc // i
    return tuple(f)


def sigma11_mod691(n: int) -> list[int]:
    """sigma_11(k) mod 691 for k = 0..n by a divisor sieve."""
    out = [0] * (n + 1)
    for d in range(1, n + 1):
        w = pow(d, 11, 691)
        for k in range(d, n + 1, d):
            out[k] = (out[k] + w) % 691
    return out


# ------------------------------------------------------------ zeta side


def completed_zeta(s) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s)."""
    with mp.workdps(WORKING_DPS):
        s = _mpc(s)
        return complex(mp.pi ** (-s / 2) * mp.gamma(s / 2) * mp.zeta(s))


def zeta(s) -> complex:
    with mp.workdps(WORKING_DPS):
        return complex(mp.zeta(_mpc(s)))


@lru_cache(maxsize=1)
def zeta_zeros_below(t_max: float) -> tuple[float, ...]:
    """Ordinates of the nontrivial zeros of zeta in (0, t_max]."""
    out = []
    k = 1
    with mp.workdps(WORKING_DPS):
        while True:
            g = float(mp.zetazero(k).imag)
            if g > t_max:
                return tuple(out)
            out.append(g)
            k += 1


def mellin_closed_form(summands, s) -> complex:
    """Mellin transform of E(f) for f = sum (sum_i c_i 1_{m_i Zhat}) x
    P(u) exp(-pi u^2):

        sum_i c_i m_i^(-z) zeta(z) sum_j a_{2j} pi^(-(z+2j)/2) Gamma((z+2j)/2),

    z = s + 1/2, term by term from int x^(z+2j-1) exp(-pi x^2) dx.
    ``summands`` holds plain (terms, coeffs) pairs with terms a list of
    (c, (num, den)).
    """
    with mp.workdps(WORKING_DPS):
        z = _mpc(s) + mp.mpf(1) / 2
        total = mp.mpc(0)
        for terms, coeffs in summands:
            fin = mp.mpc(0)
            for c, (num, den) in terms:
                fin += _mpc(c) * mp.power(mp.mpf(num) / den, -z)
            arch = mp.mpc(0)
            for j in range(0, len(coeffs), 2):
                arch += _mpc(coeffs[j]) * mp.pi ** (-(z + j) / 2) * mp.gamma((z + j) / 2)
            total += fin * arch
        return complex(total * mp.zeta(z))


# ----------------------------------------------------------- delta side


def completed_delta(s, tau: tuple[int, ...], terms: int = 40) -> mp.mpc:
    """(2 pi)^(-s) Gamma(s) L(Delta, s) by the incomplete-gamma series

        sum_n tau(n) [(2 pi n)^(-s) Gamma(s, 2 pi n)
                      + (2 pi n)^(s-12) Gamma(12 - s, 2 pi n)],

    i.e. the Mellin integral of Delta(iy) split at y = 1 and done term by
    term.  The program integrates numerically over log y instead.
    """
    s = _mpc(s) if not isinstance(s, mp.mpc) else s
    total = mp.mpc(0)
    for n in range(1, terms + 1):
        x = 2 * mp.pi * n
        total += tau[n - 1] * (
            x ** (-s) * mp.gammainc(s, x) + x ** (s - 12) * mp.gammainc(12 - s, x)
        )
    return total


@lru_cache(maxsize=None)
def delta_dirichlet(s: complex, n_terms: int) -> tuple[complex, float]:
    """Partial Dirichlet series sum_{n<=N} tau(n) n^-s (arithmetic
    normalization) and a bound on the log of the omitted tail.

    Deligne's |tau(n)| <= d(n) n^(11/2) with d(n) <= 2 sqrt(n) gives
    |tail| <= 2 N^(3/2 - sigma)/(sigma - 3/2), sigma = Re s - 11/2;
    dividing by a lower bound on |partial sum| turns it into a bound on
    |log L - log partial|.
    """
    tau = tau_expansion(n_terms)
    sigma = complex(s).real - 5.5
    if sigma <= 1.5:
        raise ValueError("tail bound needs unitary real part > 3/2")
    with mp.workdps(20):
        ss = _mpc(s)
        part = mp.fsum(tau[n - 1] * mp.power(n, -ss) for n in range(1, n_terms + 1))
        tail = 2.0 * n_terms ** (1.5 - sigma) / (sigma - 1.5)
        lower = float(abs(part)) - tail
        if lower <= 0:
            raise ValueError("Dirichlet tail too large to bound the logarithm")
        return complex(part), -math.log1p(-tail / float(abs(part)))


@lru_cache(maxsize=1)
def delta_table() -> dict:
    """Stored central-line zeros and completed-delta values (see
    make_delta_oracle.py for how they were produced)."""
    doc = json.loads(DELTA_ORACLE.read_text())
    return {
        "zeros": tuple(float(z) for z in doc["zeros"]),
        "points": tuple(
            (complex(p["re_s"], p["im_s"]), complex(p["re"], p["im"])) for p in doc["points"]
        ),
        "t_max": float(doc["zeros_t_max"]),
    }


def delta_zeros_below(t_max: float) -> tuple[float, ...]:
    table = delta_table()
    if t_max > table["t_max"]:
        raise ValueError("stored delta zeros only reach t = %g" % table["t_max"])
    return tuple(z for z in table["zeros"] if z <= t_max)


def zeros_below(kind: str, t_max: float) -> tuple[float, ...]:
    if kind == "zeta":
        return tuple(g for g in zeta_zeros_below(60.0) if g <= t_max)
    return delta_zeros_below(t_max)
